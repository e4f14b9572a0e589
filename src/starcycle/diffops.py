"""Polydifferential operators and the cyclic calculus.

A k-ary operator is sum_t c_t(x) * d^{I_1}f_1 ... d^{I_k}f_k.  The module
provides the Hochschild differential d, insertion into a slot, and the
cyclic shift C, which moves all derivatives off slot 1 by integration by
parts against exp(rho); that slot-1 normal form faithfully represents
local functionals modulo total derivatives.  d and insertion expand each
derivative of a product by one Leibniz rule, _leibniz.  They, the normal
form and the cyclic residual C(B) - B add int numerators into one
{key: {exponents: int}} table over one denominator (_d_into, _insert_into,
_ibp_into, _cyclic_residual); _operator forms its Polynomials once, at the end.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import comb, lcm, prod
from operator import add, sub

from ._record import Frozen
from .poly import Polynomial, _accumulate, _add, _derive_num, _render_sum, _times
from .polyvector import VolumeForm


def _mi_zero(dim):
    return (0,) * dim


@functools.cache
def _leibniz(a, parts):
    """The pairs (split, multinomial) for each way to write the multi-index a
    as an ordered sum of `parts` multi-indices, where the multinomial is
    prod_axis a_axis! / prod_l split_l[axis]!: the coefficient of
    prod_l d^{split_l} u_l in d^a (u_1 ... u_parts).  Zero parts split
    only a zero a, as the empty split with coefficient 1.  Memoized: it reads no input data."""
    if parts < 2:
        return (((a,) * parts, 1),) if parts or not any(a) else ()
    out = []
    for first in itertools.product(*[range(x + 1) for x in a]):
        b = prod(map(comb, a, first))
        out += [((first,) + rest, b * m) for rest, m in _leibniz(tuple(map(sub, a, first)), parts - 1)]
    return tuple(out)


class PolyDiffOperator(Frozen):
    """Multilinear operator sum c(x) d^{I_1}f_1 ... d^{I_k}f_k.

    terms maps tuples of k exponent multi-indices to Polynomial
    coefficients.  Arity 0 is allowed (a plain polynomial, the result of
    integrating all slots away).  The constructor validates; _trusted,
    like Polynomial._trusted, only wraps the package's own results (+, -,
    *, extended_by_slot, and the numerator tables of _operator: insert, d,
    ibp_normal_form, star's contractions and defects), whose keys are valid
    and whose coefficients are nonzero Polynomials.
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
            _accumulate(clean, key, coeff)
        self._assign(dim, arity, clean)

    @classmethod
    def _trusted(cls, dim: int, arity: int, terms: dict) -> "PolyDiffOperator":
        """Wrap valid, unshared terms as they are (see the class docstring)."""
        op = object.__new__(cls)
        object.__setattr__(op, "dim", dim)
        object.__setattr__(op, "arity", arity)
        object.__setattr__(op, "terms", terms)
        return op

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int, arity: int) -> "PolyDiffOperator":
        return cls(dim, arity, {})

    @classmethod
    def multiplication(cls, dim: int) -> "PolyDiffOperator":
        """m(f, g) = f*g."""
        z = _mi_zero(dim)
        return cls(dim, 2, {(z, z): Polynomial.one(dim)})

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
            if isinstance(scalar, Polynomial) and scalar.dim != self.dim:
                raise ValueError("dimension mismatch: %d vs %d" % (self.dim, scalar.dim))
            terms = {k: c * scalar for k, c in self.terms.items()}
            # Q[x] has no zero divisors, so only a zero scalar empties a term
            return PolyDiffOperator._trusted(self.dim, self.arity, terms if scalar else {})
        return NotImplemented

    __rmul__ = __mul__

    def apply(self, args) -> Polynomial:
        """Evaluate on arity Polynomials, on int numerators over one denominator."""
        args = list(args)
        if len(args) != self.arity:
            raise ValueError("expected %d arguments, got %d" % (self.arity, len(args)))
        if any(f.dim != self.dim for f in args):
            raise ValueError("argument dim mismatch")
        den = _den(self)
        derived = {}
        total = {}
        for key, c in self.terms.items():
            num = c._num
            for slot, mi in enumerate(key):
                d = derived.get((slot, mi))
                if d is None:
                    d = derived[slot, mi] = _derive_num(args[slot]._num, mi)
                num = _times(num, d)
            _add(total, num, den // c._den)
        return Polynomial._trusted(self.dim, total, den * prod(f._den for f in args))

    # -- integration by parts ---------------------------------------------

    def ibp_normal_form(self, vol: VolumeForm) -> "PolyDiffOperator":
        """Move every derivative off slot 1; arity drops by one.

        Returns E with  int D(f1,..,fk) Omega = int f1 * E(f2,..,fk) Omega
        for compactly supported arguments.  One step on the first axis a of
        I1 sends c * d^{I1}f1 * R  to  -(d_a c + c d_a rho) d^{I1-e_a}f1 R
        minus the Leibniz spill of d_a onto every other slot.  A step lowers
        |I1| by one, so terms are stepped level by level of |I1|, highest
        first, each level summed in place; the normal form is unique.  Sums
        run on int numerators: with D and R the lcm of the denominators of
        the coefficients and of the d_a rho, level l is held over D R^(top-l).
        """
        if self.arity < 1:
            raise ValueError("ibp_normal_form needs arity >= 1")
        return _operator(self.dim, self.arity - 1, *_ibp_into(self, vol, 1))

    def extended_by_slot(self) -> "PolyDiffOperator":
        """D(f1,..,f_{k+1}) = self(f1,..,fk) * f_{k+1}."""
        z = (_mi_zero(self.dim),)
        return PolyDiffOperator._trusted(self.dim, self.arity + 1, {k + z: c for k, c in self.terms.items()})

    def cyclic_shift(self, vol: VolumeForm) -> "PolyDiffOperator":
        """C with  int psi(f1..fk) f_{k+1} Omega = (-1)^k int C(psi)(f2..f_{k+1}) f1 Omega."""
        return _cyclic_residual(self, vol, 0)

    # -- Hochschild differential and insertion --------------------------------

    def hochschild_differential(self) -> "PolyDiffOperator":
        """(d psi)(f1..f_{k+1}) = f1 psi(f2..) + sum_i (-1)^i psi(..f_i f_{i+1}..)
        + (-1)^{k+1} psi(..fk) f_{k+1}."""
        return _operator(self.dim, self.arity + 1, _d_into(self, {}, 1), _den(self))

    def insert(self, other: "PolyDiffOperator", slot: int) -> "PolyDiffOperator":
        """Composition inserting `other` into argument slot `slot` (1-based)."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if not 1 <= slot <= self.arity:
            raise ValueError("slot out of range")
        out = _insert_into(self, other, slot, {}, 1)
        return _operator(self.dim, self.arity + other.arity - 1, out, _den(self) * _den(other))

    # -- serialization ---------------------------------------------------------

    def render(self) -> str:
        return _render_sum(self.terms,
                           lambda key: "*".join("D[%s]" % ",".join(map(str, mi)) for mi in key))

    def __repr__(self):
        return "PolyDiffOperator(%d, %d, %s)" % (self.dim, self.arity, self.render())


def _den(op: PolyDiffOperator) -> int:
    """The lcm of the denominators of op's coefficients."""
    return lcm(*(c._den for c in op.terms.values()))


def _operator(dim: int, arity: int, out: dict, den: int) -> PolyDiffOperator:
    """The operator of the numerator table out {key: {exponents: int}} over den."""
    return PolyDiffOperator._trusted(dim, arity, {key: Polynomial._trusted(dim, num, den)
                                                  for key, num in out.items() if num})


def _d_into(op: PolyDiffOperator, out: dict, m: int):
    """out += m * _den(op) * (d op) on int numerators; returns out."""
    k, z, den = op.arity, _mi_zero(op.dim), _den(op)
    for key, c in op.terms.items():
        s = m * (den // c._den)  # the sign of slot i is (-1)^(i+1)
        _add(out.setdefault((z,) + key, {}), c._num, s)
        _add(out.setdefault(key + (z,), {}), c._num, s if k % 2 else -s)
        for i in range(k):
            for split, b in _leibniz(key[i], 2):
                _add(out.setdefault(key[:i] + split + key[i + 1:], {}), c._num, b * s if i % 2 else -b * s)
    return out


def _insert_into(a: PolyDiffOperator, b: PolyDiffOperator, slot: int, out: dict, m: int):
    """out += m * _den(a) * _den(b) * (a o_slot b) on int numerators; returns out.
    d^I of c2 * prod d^{J_l} g_l splits I over c2 and the J's."""
    da, db = _den(a), _den(b)
    derived = {}
    for key1, c1 in a.terms.items():
        I = key1[slot - 1]
        pre, post = key1[:slot - 1], key1[slot:]
        for key2, c2 in b.terms.items():
            s = m * (da // c1._den) * (db // c2._den)
            for (s0, left), c in _leibniz(I, 2):
                dn2 = derived.get((key2, s0))
                if dn2 is None:
                    dn2 = derived[key2, s0] = _derive_num(c2._num, s0)
                if not dn2:
                    continue
                num = _times(c1._num, dn2)
                for rest, mult in _leibniz(left, b.arity):
                    mid = tuple(tuple(map(add, j, t)) for j, t in zip(key2, rest))
                    _add(out.setdefault(pre + mid + post, {}), num, s * c * mult)
    return out


def _ibp_into(op: PolyDiffOperator, vol: VolumeForm, s: int):
    """(out, den): s * op.ibp_normal_form(vol) as the numerator table out over den (see there)."""
    if op.dim != vol.dim:
        raise ValueError("dimension mismatch with volume form")
    drho = [vol.log_density.partial(a + 1) for a in range(op.dim)]
    r = lcm(*(p._den for p in drho))
    drho = [{f: w * (r // p._den) for f, w in p._num.items()} for p in drho]
    d = _den(op)
    top = max((sum(key[0]) for key in op.terms), default=0)
    levels = {}
    for key, c in op.terms.items():
        m = s * (d // c._den) * r ** (top - sum(key[0]))
        levels.setdefault(sum(key[0]), {})[key] = {e: n * m for e, n in c._num.items()}
    for level in range(top, 0, -1):
        below = levels.setdefault(level - 1, {})
        for key, c in levels.pop(level, {}).items():
            i1 = key[0]
            a = next(ax for ax in range(op.dim) if i1[ax])
            head = (i1[:a] + (i1[a] - 1,) + i1[a + 1:],)
            nc = below.setdefault(head + key[1:], {})
            for e, v in c.items():
                if e[a]:
                    _accumulate(nc, e[:a] + (e[a] - 1,) + e[a + 1:], -v * e[a] * r)
                for f, w in drho[a].items():
                    _accumulate(nc, tuple(map(add, e, f)), -v * w)
            for j in range(1, len(key)):
                ij = key[j]
                spill = head + key[1:j] + (ij[:a] + (ij[a] + 1,) + ij[a + 1:],) + key[j + 1:]
                _add(below.setdefault(spill, {}), c, -r)
    return {key[1:]: c for key, c in levels.get(0, {}).items()}, d * r ** top


def _cyclic_residual(op: PolyDiffOperator, vol: VolumeForm, m: int = 1) -> PolyDiffOperator:
    """C(op) - m * op in one numerator table (op is cyclic when C(op) - op = 0):
    the sign (-1)^k of C scales the normal form of op's extension."""
    if op.arity < 1:
        raise ValueError("cyclic_shift needs arity >= 1")
    out, den = _ibp_into(op.extended_by_slot(), vol, -1 if op.arity % 2 else 1)
    for key, c in op.terms.items() if m else ():
        _add(out.setdefault(key, {}), c._num, -m * (den // c._den))
    return _operator(op.dim, op.arity, out, den)
