"""Polydifferential operators and the cyclic calculus.

A k-ary operator is sum_t c_t(x) * d^{I_1}f_1 ... d^{I_k}f_k.  The module
provides the Hochschild differential d, insertion into a slot, and the
cyclic shift C, which moves all derivatives off slot 1 by integration by
parts against exp(rho); that slot-1 normal form faithfully represents
local functionals modulo total derivatives.  d and insertion expand each
derivative of a product by one Leibniz rule, _leibniz.  An operator is
stored as one {key: {exponents: int}} numerator table over one denominator
(poly._Table), and d, insertion, the normal form and the cyclic residual
C(B) - B read that table and add into a new one (_d_into, _insert_into,
_ibp_into, _cyclic_residual): no Polynomial is formed on the way.  A key
is stored as a tuple of multi-indices packed as poly packs exponents, so a
sum of orders is one int addition; an order of 2^31 or more, given or
reached by insertion or integration by parts, is a ValueError (_checked).
"""

from __future__ import annotations

import functools
import itertools
from math import comb, prod
from operator import add

from .poly import (Polynomial, _accumulate, _add, _checked, _derive_into, _low_unit, _pack, _Table,
                   _times_into, _unit, _unpack)
from .polyvector import PolyVector, VolumeForm


@functools.cache
def _leibniz(a, parts, dim):
    """The pairs (split, multinomial) for each way to write the multi-index a
    in dim axes as an ordered sum of `parts` multi-indices, all packed, where
    the multinomial is prod_axis a_axis! / prod_l split_l[axis]!: the coefficient
    of prod_l d^{split_l} u_l in d^a (u_1 ... u_parts).  Zero parts split only
    a zero a, as the empty split with coefficient 1.  Memoized: it reads no input data."""
    if parts < 2:
        return (((a,) * parts, 1),) if parts or not a else ()
    out = []
    orders = _unpack(a, dim)
    for first in itertools.product(*[range(x + 1) for x in orders]):
        b, first = prod(map(comb, orders, first)), _pack(first)
        out += [((first,) + rest, b * m) for rest, m in _leibniz(a - first, parts - 1, dim)]
    return tuple(out)


class PolyDiffOperator(_Table):
    """Multilinear operator sum c(x) d^{I_1}f_1 ... d^{I_k}f_k.

    terms is a read-only view {key: Polynomial coefficient}, a key being a
    tuple of k exponent multi-indices; poly._Table stores it and gives the
    linear structure.  Arity 0 is allowed (a plain polynomial, the result
    of integrating all slots away).  The constructor validates; _trusted
    only wraps the package's own numerator tables (extended_by_slot,
    insert, d, ibp_normal_form, star's contractions and defects), whose
    keys are valid.
    """

    __slots__ = ("dim", "arity", "_num", "_den")

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
            _accumulate(clean, tuple(map(_pack, key)), coeff)
        self._assign_polys(dim, arity, clean)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int, arity: int) -> "PolyDiffOperator":
        return cls(dim, arity, {})

    @classmethod
    def multiplication(cls, dim: int) -> "PolyDiffOperator":
        """m(f, g) = f*g."""
        z = (0,) * dim
        return cls(dim, 2, {(z, z): Polynomial.one(dim)})

    # -- basics -------------------------------------------------------------

    terms = property(_Table._view)
    _public = staticmethod(lambda key, dim: tuple([_unpack(mi, dim) for mi in key]))

    @staticmethod
    def _basis(key):
        return "*".join("D[%s]" % ",".join(map(str, mi)) for mi in key)

    def _sum_grade(self, other):
        if (self.dim, self.arity) != (other.dim, other.arity):
            raise ValueError("dim/arity mismatch in operator sum")
        return self.arity

    def apply(self, args) -> Polynomial:
        """Evaluate on arity Polynomials, on int numerators over one denominator."""
        args = list(args)
        if len(args) != self.arity:
            raise ValueError("expected %d arguments, got %d" % (self.arity, len(args)))
        if any(f.dim != self.dim for f in args):
            raise ValueError("argument dim mismatch")
        derived = {}
        total = {}
        for key, num in self._num.items():
            for slot, mi in enumerate(key):
                d = derived.get((slot, mi))
                if d is None:
                    d = derived[slot, mi] = _derive_into({}, args[slot]._num, mi, 1)
                num = _times_into({}, num, d, 1, self.dim)
            _add(total, num, 1)
        return Polynomial._trusted(self.dim, total, self._den * prod(f._den for f in args))

    # -- integration by parts ---------------------------------------------

    def ibp_normal_form(self, vol: VolumeForm) -> "PolyDiffOperator":
        """Move every derivative off slot 1; arity drops by one.

        Returns E with  int D(f1,..,fk) Omega = int f1 * E(f2,..,fk) Omega
        for compactly supported arguments.  One step on the first axis a of
        I1 sends c * d^{I1}f1 * R  to  -(d_a c + c d_a rho) d^{I1-e_a}f1 R
        minus the Leibniz spill of d_a onto every other slot.  A step lowers
        |I1| by one, so terms are stepped level by level of |I1|, highest
        first, each level summed in place; the normal form is unique.  Sums
        run on int numerators: with D the operator's denominator and R the
        lcm of the denominators of the d_a rho, level l is held over D R^(top-l).
        """
        if self.arity < 1:
            raise ValueError("ibp_normal_form needs arity >= 1")
        return PolyDiffOperator._trusted(self.dim, self.arity - 1, *_ibp_into(self, vol, 1))

    def extended_by_slot(self) -> "PolyDiffOperator":
        """D(f1,..,f_{k+1}) = self(f1,..,fk) * f_{k+1}."""
        return PolyDiffOperator._trusted(self.dim, self.arity + 1,
                                         {k + (0,): m for k, m in self._num.items()}, self._den)

    def cyclic_shift(self, vol: VolumeForm) -> "PolyDiffOperator":
        """C with  int psi(f1..fk) f_{k+1} Omega = (-1)^k int C(psi)(f2..f_{k+1}) f1 Omega."""
        return _cyclic_residual(self, vol, 0)

    # -- Hochschild differential and insertion --------------------------------

    def hochschild_differential(self) -> "PolyDiffOperator":
        """(d psi)(f1..f_{k+1}) = f1 psi(f2..) + sum_i (-1)^i psi(..f_i f_{i+1}..)
        + (-1)^{k+1} psi(..fk) f_{k+1}."""
        return PolyDiffOperator._trusted(self.dim, self.arity + 1, _d_into(self, {}, 1), self._den)

    def insert(self, other: "PolyDiffOperator", slot: int) -> "PolyDiffOperator":
        """Composition inserting `other` into argument slot `slot` (1-based)."""
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if not 1 <= slot <= self.arity:
            raise ValueError("slot out of range")
        out = _insert_into(self, other, slot, {}, 1)
        return PolyDiffOperator._trusted(self.dim, self.arity + other.arity - 1, out, self._den * other._den)


def _d_into(op: PolyDiffOperator, out: dict, m: int):
    """out += m * op._den * (d op) on int numerators; returns out."""
    k = op.arity
    for key, num in op._num.items():  # the sign of slot i is (-1)^(i+1)
        _add(out.setdefault((0,) + key, {}), num, m)
        _add(out.setdefault(key + (0,), {}), num, m if k % 2 else -m)
        for i in range(k):
            for split, b in _leibniz(key[i], 2, op.dim):
                _add(out.setdefault(key[:i] + split + key[i + 1:], {}), num, b * m if i % 2 else -b * m)
    return out


def _insert_into(a: PolyDiffOperator, b: PolyDiffOperator, slot: int, out: dict, m: int):
    """out += m * a._den * b._den * (a o_slot b) on int numerators; returns out.
    d^I of c2 * prod d^{J_l} g_l splits I over c2 and the J's."""
    derived = {}
    for key1, n1 in a._num.items():
        I = key1[slot - 1]
        pre, post = key1[:slot - 1], key1[slot:]
        for key2, n2 in b._num.items():
            _checked(a.dim, *(I + j for j in key2))  # a split sends at most all of I to a slot
            for (s0, left), c in _leibniz(I, 2, a.dim):
                dn2 = derived.get((key2, s0))
                if dn2 is None:
                    dn2 = derived[key2, s0] = _derive_into({}, n2, s0, 1)
                if not dn2:
                    continue
                num = _times_into({}, n1, dn2, 1, a.dim)
                for rest, mult in _leibniz(left, b.arity, a.dim):
                    _add(out.setdefault(pre + tuple(map(add, key2, rest)) + post, {}), num, m * c * mult)
    return out


def _ibp_into(op: PolyDiffOperator, vol: VolumeForm, s: int):
    """(out, den): s * op.ibp_normal_form(vol) as the numerator table out over den (see there)."""
    if op.dim != vol.dim:
        raise ValueError("dimension mismatch with volume form")
    # the gradient of rho: numerators over one denominator r, keyed by each axis's unit multi-index
    grad = PolyVector(op.dim, 0, {(a,): vol.log_density.partial(a) for a in range(1, op.dim + 1)})
    r, drho = grad._den, {_unit(a): grad._num.get((a + 1,), {}) for a in range(op.dim)}
    levels = {}
    for key, num in op._num.items():
        _checked(op.dim, *(j + key[0] for j in key[1:]))  # a slot gains at most slot 1's orders
        levels.setdefault(sum(_unpack(key[0], op.dim)), {})[key] = num
    top = max(levels, default=0)
    for level, keys in levels.items():
        m = s * r ** (top - level)
        levels[level] = {key: {e: n * m for e, n in num.items()} for key, num in keys.items()}
    for level in range(top, 0, -1):
        below = levels.setdefault(level - 1, {})
        for key, c in levels.pop(level, {}).items():
            u = _low_unit(key[0])  # the lowest axis a with a derivative on slot 1
            head = (key[0] - u,)
            nc = _derive_into(below.setdefault(head + key[1:], {}), c, u, -r)
            if drho[u]:
                _times_into(nc, c, drho[u], -1, op.dim)
            for j in range(1, len(key)):
                _add(below.setdefault(head + key[1:j] + (key[j] + u,) + key[j + 1:], {}), c, -r)
    return {key[1:]: c for key, c in levels.get(0, {}).items()}, op._den * r ** top


def _cyclic_residual(op: PolyDiffOperator, vol: VolumeForm, m: int = 1) -> PolyDiffOperator:
    """C(op) - m * op in one numerator table (op is cyclic when C(op) - op = 0):
    the sign (-1)^k of C scales the normal form of op's extension."""
    if op.arity < 1:
        raise ValueError("cyclic_shift needs arity >= 1")
    out, den = _ibp_into(op.extended_by_slot(), vol, -1 if op.arity % 2 else 1)
    s = -m * (den // op._den)
    for key, num in op._num.items() if m else ():
        _add(out.setdefault(key, {}), num, s)
    return PolyDiffOperator._trusted(op.dim, op.arity, out, den)
