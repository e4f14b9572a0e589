"""The Cayley chart and the edge-form gradients the sampler uses.

The harmonic angle at p between the hyperbolic geodesic to q and the one
running to the boundary point xi is read in the upper half-plane: the
Cayley map T(z) = i(xi+z)/(xi-z) (cayley) sends the disk there and xi to
infinity, where the angle is arg((P-Q)(P-conj Q)) of the images
(Kontsevich, q-alg/9709040, section 2).  In disk coordinates it is
arg((p-q)(1 - p conj q)) - 2 arg(xi - p) + const, so an edge weighted by
alpha_k at xi_k has a pair part of weight A = sum_k alpha_k and a gauge
part that depends on p alone (the key lemma).  Their gradients are written
once, in edge_coefficients and gauge_coefficient, as complex c with
(d/dx, d/dy) = (Im c, Re c); the sampler's row kernel (weights._disk_rows)
calls them, and AngleContext holds the boundary data and weights they
read.  tests/angle_oracle.py computes the angle from the Cayley
definition itself and checks these gradients against it.
"""

from __future__ import annotations

import math

from ._record import Record


TWO_PI = 2.0 * math.pi


def cayley(z, xi):
    """(T(z), T'(z)) for the Cayley map T(z) = i(xi+z)/(xi-z), which sends
    the unit disk to the upper half-plane and the boundary point xi to
    infinity."""
    inv = 1.0 / (xi - z)
    return 1j * (xi + z) * inv, 2j * xi * inv * inv


def edge_coefficients(A, p, q, boundary=False, r=None):
    """(c_p, c_q) of A arg((p-q)(1 - p conj q)) for the edge p -> q; for a
    boundary target q = xi_j it is 2A arg(xi_j - p) + const and c_q is None.
    With alpha_j = A the only weight, the gauge term cancels c_p exactly.
    r, when given, is 1/(p - q); A == 1.0 skips the exact product by A."""
    if boundary:
        return 2 * A / (p - q), None
    if r is None:
        r = 1.0 / (p - q)
    qc = q.conjugate()
    t = 1.0 / (1.0 - p * qc)
    c_p, c_q = r - qc * t, (p * t).conjugate() - r
    return (c_p, c_q) if A == 1.0 else (A * c_p, A * c_q)


def gauge_coefficient(alphas, xis, p):
    """c of -2 sum_k alpha_k arg(xi_k - p), which every edge out of p with
    these alphas adds to c_p; None when all alphas are 0."""
    terms = [2 * a / (xi - p) for a, xi in zip(alphas, xis) if a != 0.0]
    return sum(terms[1:], terms[0]) if terms else None


class AngleContext(Record):
    """Boundary data for alpha-weighted angles: m points xi_k pinned at
    strictly increasing angles, and one real weight alpha_k per point."""

    __slots__ = ("alphas", "boundary_angles")

    def __init__(self, alphas: tuple, boundary_angles: tuple):
        alphas = tuple(float(a) for a in alphas)
        angles = tuple(float(t) for t in boundary_angles)
        if len(alphas) != len(angles):
            raise ValueError("alphas and boundary_angles must have equal length")
        if any(not 0.0 <= t < TWO_PI for t in angles):
            raise ValueError("boundary angles must lie in [0, 2*pi)")
        if any(angles[i] >= angles[i + 1] for i in range(len(angles) - 1)):
            raise ValueError("boundary angles must be strictly increasing")
        self._assign(alphas, angles)

    @property
    def m(self) -> int:
        return len(self.alphas)

    @classmethod
    def standard(cls, alphas) -> "AngleContext":
        """Equally spaced boundary points starting at angle 0."""
        m = len(alphas)
        return cls(tuple(alphas), tuple(TWO_PI * k / m for k in range(m)))
