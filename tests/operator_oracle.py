"""Operator calculus that only the tests use: the cyclic projector and the
Gerstenhaber bracket of polydifferential operators, vector fields from a
list of components, exact Gaussian integrals of polynomials, and damped
arguments p e^q whose products those integrals reach.

The package decides cyclicity through PolyDiffOperator.cyclic_shift and
builds every operator it needs from insert and hochschild_differential;
these functions, built on the same methods, serve as the oracle for the
calculus identities (acceptance criterion 2).

apply, hochschild_differential, insert, wedge and schouten below compute
on whole Polynomials, one Polynomial sum per term: the package's methods
of those names sum int numerators over one denominator instead, and are
checked against these.  ibp_by_min_key steps one key at a time, on whole
Polynomials, and cyclic_shift and cyclic_residual are built on it, so they
share no code with the package's integration by parts.
"""

import math
from fractions import Fraction
from operator import add

from starcycle import Polynomial, PolyDiffOperator, PolyVector, VolumeForm
from starcycle.diffops import _leibniz, _mi_zero
from starcycle.poly import _accumulate
from starcycle.polyvector import _normalize_key


def vector(dim: int, components) -> PolyVector:
    """Vector field from {axis: Polynomial} or a length-dim sequence."""
    if not isinstance(components, dict):
        components = {i: p for i, p in enumerate(components, start=1)}
    return PolyVector(dim, 0, {(i,): p for i, p in components.items()})


def gauss_integral(poly) -> Fraction:
    """The coefficient of pi^(d/2) in the integral of poly * exp(-|x|^2)
    over R^d, exactly: a monomial gives the product of its moments
    m(2k) = (2k-1)!!/2^k, and m(odd) = 0."""
    total = Fraction(0)
    for exps, c in poly.terms.items():
        if not any(e % 2 for e in exps):
            moments = [Fraction(math.prod(range(e - 1, 0, -2)), 2 ** (e // 2)) for e in exps]
            total += c * math.prod(moments)
    return total


class Damped:
    """The argument p e^q, for Polynomials p and q, as apply takes it:
    derive(mi) is the polynomial part of d^mi (p e^q), so an operator
    applied to damped arguments gives a polynomial times e^(q1 + q2 + ..)."""

    def __init__(self, p, q):
        self.dim, self.q = p.dim, q
        self._derived = {(0,) * p.dim: p}

    def derive(self, mi) -> Polynomial:
        mi = tuple(mi)
        got = self._derived.get(mi)
        if got is None:
            # d_a (r e^q) = (d_a r + r d_a q) e^q, one axis of mi at a time
            a = next(ax for ax, e in enumerate(mi) if e)
            r = self.derive(mi[:a] + (mi[a] - 1,) + mi[a + 1:])
            got = self._derived[mi] = r.partial(a + 1) + r * self.q.partial(a + 1)
        return got


def is_cyclic(op: PolyDiffOperator, vol: VolumeForm) -> bool:
    return op.cyclic_shift(vol) == op


def cyclic_projector(op: PolyDiffOperator, vol: VolumeForm) -> PolyDiffOperator:
    """Average of C^0..C^k; the output satisfies is_cyclic."""
    total = op
    power = op
    for _ in range(op.arity):
        power = power.cyclic_shift(vol)
        total = total + power
    return total * Fraction(1, op.arity + 1)


def circ(op: PolyDiffOperator, other: PolyDiffOperator) -> PolyDiffOperator:
    """Gerstenhaber pre-Lie composition sum_i +- op o_i other."""
    k2 = other.arity
    total = PolyDiffOperator.zero(op.dim, op.arity + k2 - 1)
    for i in range(1, op.arity + 1):
        sign = -1 if ((i - 1) * (k2 - 1)) % 2 else 1
        total = total + sign * op.insert(other, i)
    return total


def gerstenhaber(op: PolyDiffOperator, other: PolyDiffOperator) -> PolyDiffOperator:
    """[psi1, psi2] = psi1 o psi2 - (-1)^{(k1-1)(k2-1)} psi2 o psi1."""
    sign = -1 if ((op.arity - 1) * (other.arity - 1)) % 2 else 1
    return circ(op, other) - sign * circ(other, op)


def apply(self: PolyDiffOperator, args) -> Polynomial:
    """Evaluate on a list of arity Polynomials."""
    args = list(args)
    if len(args) != self.arity:
        raise ValueError("expected %d arguments, got %d" % (self.arity, len(args)))
    for f in args:
        if f.dim != self.dim:
            raise ValueError("argument dim mismatch")
    total = Polynomial.zero(self.dim)
    for key, c in self.terms.items():
        prod = c
        for mi, f in zip(key, args):
            prod = prod * f.derive(mi)
            if prod.is_zero():
                break
        total = total + prod
    return total


def hochschild_differential(self: PolyDiffOperator) -> PolyDiffOperator:
    """(d psi)(f1..f_{k+1}) = f1 psi(f2..) + sum_i (-1)^i psi(..f_i f_{i+1}..)
    + (-1)^{k+1} psi(..fk) f_{k+1}."""
    k = self.arity
    z = _mi_zero(self.dim)
    out = {}

    for key, c in self.terms.items():
        signed = (-c, c)  # signed[i % 2] == (-1)^(i+1) c
        _accumulate(out, (z,) + key, c)
        _accumulate(out, key + (z,), signed[k % 2])
        for i in range(k):
            sc = signed[i % 2]
            for split, b in _leibniz(key[i], 2):
                _accumulate(out, key[:i] + split + key[i + 1:], sc if b == 1 else b * sc)
    return PolyDiffOperator(self.dim, k + 1, out)


def insert(self: PolyDiffOperator, other: PolyDiffOperator, slot: int) -> PolyDiffOperator:
    """Composition inserting `other` into argument slot `slot` (1-based)."""
    if self.dim != other.dim:
        raise ValueError("dimension mismatch")
    if not 1 <= slot <= self.arity:
        raise ValueError("slot out of range")
    k2 = other.arity
    out = {}
    derived = {}

    for key1, c1 in self.terms.items():
        I = key1[slot - 1]
        pre, post = key1[:slot - 1], key1[slot:]
        for key2, c2 in other.terms.items():
            # d^I applied to (c2 * prod d^{J_l} g_l): split I over c2 and the J's
            for (s0, left), b in _leibniz(I, 2):
                dc2 = derived.get((key2, s0))
                if dc2 is None:
                    dc2 = derived[key2, s0] = c2.derive(s0)
                if dc2.is_zero():
                    continue
                prod = c1 * dc2
                for rest, m in _leibniz(left, k2):
                    mult = b * m
                    mid = tuple(tuple(map(add, j, s)) for j, s in zip(key2, rest))
                    _accumulate(out, pre + mid + post, prod if mult == 1 else mult * prod)
    return PolyDiffOperator(self.dim, self.arity + k2 - 1, out)


def assoc_defect(s, n: int) -> PolyDiffOperator:
    """-d B_n + sum_{0<k<n} B_k o_1 B_{n-k} - B_k o_2 B_{n-k}, summed as
    whole operators from the functions above."""
    total = PolyDiffOperator.zero(s.pi.dim, 3) - hochschild_differential(s.levels[n])
    for k in range(1, n):
        bk, bl = s.levels[k], s.levels[n - k]
        total = total + insert(bk, bl, 1) - insert(bk, bl, 2)
    return total


def _wedge_into(out, ka, kb, p):
    """out[ka ^ kb] += p in place, signed by the sort of ka + kb; nothing
    when the keys share an axis."""
    norm = _normalize_key(ka + kb)
    if norm is not None:
        key, sign = norm
        _accumulate(out, key, sign * p)


def wedge(self: PolyVector, other: PolyVector) -> PolyVector:
    """Exterior product; returns a zero multivector on degree overflow."""
    self._check_dim(other)
    out = {}
    for ka, pa in self.components.items():
        for kb, pb in other.components.items():
            _wedge_into(out, ka, kb, pa * pb)
    return PolyVector(self.dim, self.degree + other.degree + 1, out)


def schouten(self: PolyVector, other: PolyVector) -> PolyVector:
    """Schouten-Nijenhuis bracket, with the sign convention of
    PolyVector.schouten."""
    self._check_dim(other)
    sign_a = 1 if self.arity % 2 else -1
    out = {}
    for ka, pa in self.components.items():
        for kb, pb in other.components.items():
            for pos, i in enumerate(ka):
                sign = -sign_a if pos % 2 else sign_a
                _wedge_into(out, ka[:pos] + ka[pos + 1:], kb, sign * (pa * pb.partial(i)))
            for pos, i in enumerate(kb):
                sign = 1 if pos % 2 else -1
                _wedge_into(out, ka, kb[:pos] + kb[pos + 1:], sign * (pa.partial(i) * pb))
    return PolyVector(self.dim, self.degree + other.degree, out)


def ibp_by_min_key(op: PolyDiffOperator, vol: VolumeForm) -> PolyDiffOperator:
    """The slot-1 normal form of ibp_normal_form, by stepping the least
    remaining key until none has a derivative on slot 1."""
    rho = vol.log_density
    work, done = dict(op.terms), {}
    while work:
        key = min(work)
        c = work.pop(key)
        if sum(key[0]) == 0:
            done[key[1:]] = done.get(key[1:], Polynomial.zero(op.dim)) + c
            continue
        a = next(ax for ax in range(op.dim) if key[0][ax] > 0)
        i1m = tuple(e - (ax == a) for ax, e in enumerate(key[0]))
        spills = [(i1m,) + key[1:], -(c.partial(a + 1) + c * rho.partial(a + 1))]
        for j in range(1, len(key)):
            ij = tuple(e + (ax == a) for ax, e in enumerate(key[j]))
            spills += [(i1m,) + key[1:j] + (ij,) + key[j + 1:], -c]
        for k, v in zip(spills[::2], spills[1::2]):
            work[k] = work.get(k, Polynomial.zero(op.dim)) + v
    return PolyDiffOperator(op.dim, op.arity - 1, done)


def cyclic_shift(self: PolyDiffOperator, vol: VolumeForm) -> PolyDiffOperator:
    """C with  int psi(f1..fk) f_{k+1} Omega = (-1)^k int C(psi)(f2..f_{k+1}) f1 Omega."""
    if self.arity < 1:
        raise ValueError("cyclic_shift needs arity >= 1")
    sign = -1 if self.arity % 2 else 1
    return sign * ibp_by_min_key(self.extended_by_slot(), vol)


def cyclic_residual(op: PolyDiffOperator, vol: VolumeForm) -> PolyDiffOperator:
    """C(op) - op, as a difference of whole operators."""
    return cyclic_shift(op, vol) - op
