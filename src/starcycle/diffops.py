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
_ibp_into, _cyclic_residual): no Polynomial is formed on the way.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, prod
from operator import add, sub

from .poly import Polynomial, _accumulate, _add, _derive_num, _Table, _times
from .polyvector import PolyVector, VolumeForm


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
            _accumulate(clean, key, coeff)
        self._assign_polys(dim, arity, clean)

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

    terms = property(_Table._view)

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
                    d = derived[slot, mi] = _derive_num(args[slot]._num, mi)
                num = _times(num, d)
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
        z = (_mi_zero(self.dim),)
        return PolyDiffOperator._trusted(self.dim, self.arity + 1,
                                         {k + z: m for k, m in self._num.items()}, self._den)

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
    k, z = op.arity, _mi_zero(op.dim)
    for key, num in op._num.items():  # the sign of slot i is (-1)^(i+1)
        _add(out.setdefault((z,) + key, {}), num, m)
        _add(out.setdefault(key + (z,), {}), num, m if k % 2 else -m)
        for i in range(k):
            for split, b in _leibniz(key[i], 2):
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
            for (s0, left), c in _leibniz(I, 2):
                dn2 = derived.get((key2, s0))
                if dn2 is None:
                    dn2 = derived[key2, s0] = _derive_num(n2, s0)
                if not dn2:
                    continue
                num = _times(n1, dn2)
                for rest, mult in _leibniz(left, b.arity):
                    mid = tuple(tuple(map(add, j, t)) for j, t in zip(key2, rest))
                    _add(out.setdefault(pre + mid + post, {}), num, m * c * mult)
    return out


def _ibp_into(op: PolyDiffOperator, vol: VolumeForm, s: int):
    """(out, den): s * op.ibp_normal_form(vol) as the numerator table out over den (see there)."""
    if op.dim != vol.dim:
        raise ValueError("dimension mismatch with volume form")
    # the gradient of rho as a vector field: its numerators over one denominator r
    grad = PolyVector(op.dim, 0, {(a,): vol.log_density.partial(a) for a in range(1, op.dim + 1)})
    r, drho = grad._den, [grad._num.get((a,), {}) for a in range(1, op.dim + 1)]
    top = max((sum(key[0]) for key in op._num), default=0)
    levels = {}
    for key, num in op._num.items():
        m = s * r ** (top - sum(key[0]))
        levels.setdefault(sum(key[0]), {})[key] = {e: n * m for e, n in num.items()}
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
