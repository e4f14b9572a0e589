"""Operator calculus that only the tests use: the cyclic projector and the
Gerstenhaber bracket of polydifferential operators, vector fields from a
list of components, and exact Gaussian integrals of polynomials.

The package decides cyclicity through PolyDiffOperator.cyclic_shift and
builds every operator it needs from insert and hochschild_differential;
these functions, built on the same methods, serve as the oracle for the
calculus identities (acceptance criterion 2).
"""

import math
from fractions import Fraction

from starcycle import PolyDiffOperator, PolyVector, VolumeForm


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
