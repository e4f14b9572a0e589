"""Polydifferential operators and the cyclic calculus.

A k-ary operator is sum_t c_t(x) * d^{I_1}f_1 ... d^{I_k}f_k.  The module
provides the Hochschild differential, the Gerstenhaber bracket, and the
cyclic shift C obtained by moving all derivatives off the first argument
slot by integration by parts against a volume density exp(rho).  Local
functionals are compared through that slot-1 normal form, which is the
faithful finite representation of equality modulo total derivatives.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from operator import add

from .poly import Polynomial, _accumulate, _add_coeff
from .polyvector import VolumeForm


def _mi_zero(dim):
    return (0,) * dim


def _mi_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mi_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _mi_binom(a, b):
    """prod_axis C(a_axis, b_axis); 0 if b exceeds a anywhere."""
    total = 1
    for x, y in zip(a, b):
        if y > x:
            return 0
        total *= comb(x, y)
    return total


def _mi_below(a):
    """All multi-indices J with 0 <= J <= a componentwise."""
    ranges = [range(x + 1) for x in a]
    return itertools.product(*ranges)


def _splits(a, parts):
    """All ways to write a as an ordered sum of `parts` multi-indices."""
    if parts < 2:
        if parts or not any(a):
            yield (a,) * parts
        return
    for first in _mi_below(a):
        for rest in _splits(_mi_sub(a, first), parts - 1):
            yield (first,) + rest


def _multinomial(a, split):
    """Multinomial coefficient for a = sum(split), componentwise."""
    total = 1
    rem = a
    for part in split[:-1]:
        total *= _mi_binom(rem, part)
        rem = _mi_sub(rem, part)
    return total


class PolyDiffOperator:
    """Multilinear operator sum c(x) d^{I_1}f_1 ... d^{I_k}f_k.

    terms maps tuples of k exponent multi-indices to Polynomial
    coefficients.  Arity 0 is allowed (a plain polynomial, the result of
    integrating all slots away).  The constructor validates; _trusted,
    like Polynomial._trusted, only wraps the package's own results (+, -,
    *, insert, ibp_normal_form, hochschild_differential, and the
    contractions and defects of star), whose keys are valid and whose
    coefficients are nonzero Polynomials.
    """

    __slots__ = ("dim", "arity", "terms")

    def __init__(self, dim: int, arity: int, terms=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if arity < 0:
            raise ValueError("arity must be >= 0")
        clean = {}
        for key, coeff in (terms or {}).items():
            key = tuple(tuple(int(e) for e in mi) for mi in key)
            if len(key) != arity:
                raise ValueError("term key %r has %d slots, expected %d" % (key, len(key), arity))
            for mi in key:
                if len(mi) != dim or any(e < 0 for e in mi):
                    raise ValueError("bad multi-index %r for dim %d" % (mi, dim))
            if not isinstance(coeff, Polynomial):
                coeff = Polynomial.constant(dim, coeff)
            if coeff.dim != dim:
                raise ValueError("coefficient dim mismatch")
            if key in clean:
                coeff = clean[key] + coeff
            if coeff.is_zero():
                clean.pop(key, None)
            else:
                clean[key] = coeff
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, dim: int, arity: int, terms: dict) -> "PolyDiffOperator":
        """Wrap valid, unshared terms as they are (see the class docstring)."""
        op = object.__new__(cls)
        object.__setattr__(op, "dim", dim)
        object.__setattr__(op, "arity", arity)
        object.__setattr__(op, "terms", terms)
        return op

    def __setattr__(self, name, value):
        raise AttributeError("PolyDiffOperator is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int, arity: int) -> "PolyDiffOperator":
        return cls(dim, arity, {})

    @classmethod
    def multiplication(cls, dim: int) -> "PolyDiffOperator":
        """m(f, g) = f*g."""
        z = _mi_zero(dim)
        return cls(dim, 2, {(z, z): Polynomial.one(dim)})

    @classmethod
    def identity(cls, dim: int) -> "PolyDiffOperator":
        return cls(dim, 1, {(_mi_zero(dim),): Polynomial.one(dim)})

    # -- basics -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, PolyDiffOperator):
            return NotImplemented
        return (self.dim, self.arity) == (other.dim, other.arity) and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, self.arity, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, PolyDiffOperator):
            return NotImplemented
        if (self.dim, self.arity) != (other.dim, other.arity):
            raise ValueError("dim/arity mismatch in operator sum")
        out = dict(self.terms)
        for key, c in other.terms.items():
            _accumulate(out, key, c)
        return PolyDiffOperator._trusted(self.dim, self.arity, out)

    def __neg__(self):
        return PolyDiffOperator._trusted(self.dim, self.arity, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PolyDiffOperator):
            return NotImplemented
        return self + (-other)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, Fraction, Polynomial)):
            terms = {k: c * scalar for k, c in self.terms.items()}
            # Q[x] has no zero divisors, so only a zero scalar empties a term
            return PolyDiffOperator._trusted(self.dim, self.arity, terms if scalar else {})
        return NotImplemented

    __rmul__ = __mul__

    def apply(self, args) -> Polynomial:
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

    # -- integration by parts ---------------------------------------------

    def ibp_normal_form(self, vol: VolumeForm) -> "PolyDiffOperator":
        """Move every derivative off slot 1; arity drops by one.

        Returns E with  int D(f1,..,fk) Omega = int f1 * E(f2,..,fk) Omega
        for compactly supported arguments.  One step on the first axis a of
        I1 sends c * d^{I1}f1 * R  to  -(d_a c + c d_a rho) d^{I1-e_a}f1 R
        minus the Leibniz spill of d_a onto every other slot.  A step lowers
        |I1| by one, so terms are stepped level by level of |I1|, highest
        first, each level summed in place; the normal form is unique.
        """
        if self.arity < 1:
            raise ValueError("ibp_normal_form needs arity >= 1")
        if self.dim != vol.dim:
            raise ValueError("dimension mismatch with volume form")
        drho = [vol.log_density.partial(a + 1).terms for a in range(self.dim)]
        levels = {}
        for key, c in self.terms.items():
            levels.setdefault(sum(key[0]), {})[key] = dict(c.terms)
        for level in range(max(levels, default=0), 0, -1):
            below = levels.setdefault(level - 1, {})
            for key, c in levels.pop(level, {}).items():
                i1 = key[0]
                a = next(ax for ax in range(self.dim) if i1[ax])
                head = (i1[:a] + (i1[a] - 1,) + i1[a + 1:],)
                nc = below.setdefault(head + key[1:], {})
                for e, v in c.items():
                    if e[a]:
                        _add_coeff(nc, e[:a] + (e[a] - 1,) + e[a + 1:], -v * e[a])
                    for f, w in drho[a].items():
                        _add_coeff(nc, tuple(map(add, e, f)), -v * w)
                for j in range(1, len(key)):
                    ij = key[j]
                    spill = head + key[1:j] + (ij[:a] + (ij[a] + 1,) + ij[a + 1:],) + key[j + 1:]
                    out = below.setdefault(spill, {})
                    for e, v in c.items():
                        _add_coeff(out, e, -v)
        done = {key[1:]: Polynomial._trusted(self.dim, c) for key, c in levels.get(0, {}).items() if c}
        return PolyDiffOperator._trusted(self.dim, self.arity - 1, done)

    def extended_by_slot(self) -> "PolyDiffOperator":
        """D(f1,..,f_{k+1}) = self(f1,..,fk) * f_{k+1}."""
        z = _mi_zero(self.dim)
        return PolyDiffOperator(self.dim, self.arity + 1, {k + (z,): c for k, c in self.terms.items()})

    def cyclic_shift(self, vol: VolumeForm) -> "PolyDiffOperator":
        """C with  int psi(f1..fk) f_{k+1} Omega = (-1)^k int C(psi)(f2..f_{k+1}) f1 Omega."""
        if self.arity < 1:
            raise ValueError("cyclic_shift needs arity >= 1")
        sign = -1 if self.arity % 2 else 1
        return sign * self.extended_by_slot().ibp_normal_form(vol)

    def is_cyclic(self, vol: VolumeForm) -> bool:
        return self.cyclic_shift(vol) == self

    def cyclic_projector(self, vol: VolumeForm) -> "PolyDiffOperator":
        """Average of C^0..C^k; the output satisfies is_cyclic."""
        total = self
        power = self
        for _ in range(self.arity):
            power = power.cyclic_shift(vol)
            total = total + power
        return total * Fraction(1, self.arity + 1)

    # -- Hochschild / Gerstenhaber -------------------------------------------

    def hochschild_differential(self) -> "PolyDiffOperator":
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
                I = key[i]
                for J in _mi_below(I):
                    b = _mi_binom(I, J)
                    _accumulate(out, key[:i] + (J, _mi_sub(I, J)) + key[i + 1:],
                                sc if b == 1 else b * sc)
        return PolyDiffOperator._trusted(self.dim, k + 1, out)

    def insert(self, other: "PolyDiffOperator", slot: int) -> "PolyDiffOperator":
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
                for s0 in _mi_below(I):
                    dc2 = derived.get((key2, s0))
                    if dc2 is None:
                        dc2 = derived[key2, s0] = c2.derive(s0)
                    if dc2.is_zero():
                        continue
                    prod = c1 * dc2
                    for rest in _splits(_mi_sub(I, s0), k2):
                        mult = _multinomial(I, (s0,) + rest)
                        mid = tuple(_mi_add(j, s) for j, s in zip(key2, rest))
                        _accumulate(out, pre + mid + post, prod if mult == 1 else mult * prod)
        return PolyDiffOperator._trusted(self.dim, self.arity + k2 - 1, out)

    def circ(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        """Gerstenhaber pre-Lie composition sum_i +- self o_i other."""
        k2 = other.arity
        total = PolyDiffOperator.zero(self.dim, self.arity + k2 - 1)
        for i in range(1, self.arity + 1):
            sign = -1 if ((i - 1) * (k2 - 1)) % 2 else 1
            total = total + sign * self.insert(other, i)
        return total

    def gerstenhaber(self, other: "PolyDiffOperator") -> "PolyDiffOperator":
        """[psi1, psi2] = psi1 o psi2 - (-1)^{(k1-1)(k2-1)} psi2 o psi1."""
        sign = -1 if ((self.arity - 1) * (other.arity - 1)) % 2 else 1
        return self.circ(other) - sign * other.circ(self)

    # -- serialization ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items())

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            slots = "*".join("D[%s]" % ",".join(str(e) for e in mi) for mi in key)
            if slots:
                parts.append("(%s) %s" % (c.render(), slots))
            else:
                parts.append("(%s)" % c.render())
        return " + ".join(parts)

    def __repr__(self):
        return "PolyDiffOperator(%d, %d, %s)" % (self.dim, self.arity, self.render())
