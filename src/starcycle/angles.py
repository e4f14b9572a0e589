"""Harmonic angle functions on the hyperbolic disk.

geodesic_angle(p, q, xi) is the angle at p between the hyperbolic
geodesic to q and the one running to the boundary point xi.  The Cayley
map T(z) = i(xi+z)/(xi-z) (cayley) sends the disk to the upper half-plane
and xi to infinity, where the angle is arg((P-Q)(P-conj Q)) of the images
(Kontsevich, q-alg/9709040, section 2).  In disk coordinates it is
arg((p-q)(1 - p conj q)) - 2 arg(xi - p) + const, so an edge weighted by
alpha_k at xi_k has a pair part of weight A = sum_k alpha_k and a gauge
part that depends on p alone (the key lemma).  Their gradients are written
once, in edge_coefficients and gauge_coefficient, as complex c with
(d/dx, d/dy) = (Im c, Re c); the scalar API here and the sampler's row
kernel (weights._disk_rows) both call them.  Everything is defined modulo
2*pi; central finite differences are available as a cross-check of the
gradients.
"""

from __future__ import annotations

import cmath
import math

from ._record import Record


TWO_PI = 2.0 * math.pi


def wrap_angle(x: float) -> float:
    """Reduce to (-pi, pi]."""
    y = math.fmod(x + math.pi, TWO_PI)
    if y <= 0.0:
        y += TWO_PI
    return y - math.pi


def cayley(z, xi):
    """(T(z), T'(z)) for the Cayley map T(z) = i(xi+z)/(xi-z), which sends
    the unit disk to the upper half-plane and the boundary point xi to
    infinity."""
    inv = 1.0 / (xi - z)
    return 1j * (xi + z) * inv, 2j * xi * inv * inv


def harmonic_angle_halfplane(p: complex, q: complex) -> float:
    """arg((p-q)(p-conj(q))) for p in the open upper half-plane, in
    [0, 2*pi); q may lie on the real axis (a boundary target)."""
    if p == q:
        raise ValueError("p and q must be distinct")
    if p.imag <= 0:
        raise ValueError("p must lie in the open upper half-plane")
    return cmath.phase((p - q) * (p - q.conjugate())) % TWO_PI


def edge_coefficients(A, p, q, boundary=False):
    """(c_p, c_q) of A arg((p-q)(1 - p conj q)) for the edge p -> q; for a
    boundary target q = xi_j it is 2A arg(xi_j - p) + const and c_q is None.
    With alpha_j = A the only weight, the gauge term cancels c_p exactly."""
    if boundary:
        return 2 * A / (p - q), None
    r = 1.0 / (p - q)
    qc = q.conjugate()
    t = 1.0 / (1.0 - p * qc)
    return A * (r - qc * t), A * ((p * t).conjugate() - r)


def gauge_coefficient(alphas, xis, p):
    """c of -2 sum_k alpha_k arg(xi_k - p), which every edge out of p with
    these alphas adds to c_p; None when all alphas are 0."""
    terms = [2 * a / (xi - p) for a, xi in zip(alphas, xis) if a != 0.0]
    return sum(terms[1:], terms[0]) if terms else None


def _check_pair(p: complex, q: complex):
    if p == q:
        raise ValueError("p and q must be distinct")
    for z, name in ((p, "p"), (q, "q")):
        if abs(z) >= 1.0:
            raise ValueError("%s must lie strictly inside the unit disk" % name)


def geodesic_angle(p: complex, q: complex, xi_angle: float) -> float:
    """Harmonic angle phi_xi(p, q), returned in [0, 2*pi)."""
    _check_pair(p, q)
    xi = cmath.exp(1j * xi_angle)
    return harmonic_angle_halfplane(cayley(p, xi)[0], cayley(q, xi)[0])


def geodesic_angle_gradient(p: complex, q: complex, xi_angle: float):
    """(d/dx_p, d/dy_p, d/dx_q, d/dy_q) of the harmonic angle."""
    _check_pair(p, q)
    c_p, c_q = edge_coefficients(1.0, p, q)
    c_p += gauge_coefficient((1.0,), (cmath.exp(1j * xi_angle),), p)
    return c_p.imag, c_p.real, c_q.imag, c_q.real


def geodesic_angle_gradient_fd(p: complex, q: complex, xi_angle: float, step: float = 1e-6):
    """Central-difference gradient, branch-aware."""
    def d(center, move):
        hi = geodesic_angle(*move(center + step))
        lo = geodesic_angle(*move(center - step))
        return wrap_angle(hi - lo) / (2.0 * step)

    return (
        d(0.0, lambda h: (p + h, q, xi_angle)),
        d(0.0, lambda h: (p + 1j * h, q, xi_angle)),
        d(0.0, lambda h: (p, q + h, xi_angle)),
        d(0.0, lambda h: (p, q + 1j * h, xi_angle)),
    )


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


def alpha_angle(ctx: AngleContext, p: complex, q: complex) -> float:
    """Weighted angle sum_k alpha_k phi_k(p, q), modulo 2*pi conventions."""
    return sum(
        a * geodesic_angle(p, q, t)
        for a, t in zip(ctx.alphas, ctx.boundary_angles)
        if a != 0.0
    )


def alpha_angle_gradient(ctx: AngleContext, p: complex, q: complex):
    """Weighted (d/dx_p, d/dy_p, d/dx_q, d/dy_q)."""
    out = [0.0, 0.0, 0.0, 0.0]
    for a, t in zip(ctx.alphas, ctx.boundary_angles):
        if a == 0.0:
            continue
        g = geodesic_angle_gradient(p, q, t)
        for i in range(4):
            out[i] += a * g[i]
    return tuple(out)


def key_lemma_residual(ctx: AngleContext, ctx2: AngleContext, p: complex, q_points) -> float:
    """Max q-gradient norm of alpha_angle(ctx,p,q) - alpha_angle(ctx2,p,q).

    Near zero iff the difference is independent of q, which holds whenever
    sum(alphas) matches between the two contexts.
    """
    if ctx.m != ctx2.m or ctx.boundary_angles != ctx2.boundary_angles:
        raise ValueError("contexts must share boundary data")
    q_points = list(q_points)
    if not q_points:
        raise ValueError("degenerate grid: no q points")
    diff = AngleContext(tuple(a - b for a, b in zip(ctx.alphas, ctx2.alphas)), ctx.boundary_angles)
    return max(math.hypot(*alpha_angle_gradient(diff, p, q)[2:]) for q in q_points)
