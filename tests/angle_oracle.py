"""Harmonic angles from the Cayley-map definition: the test oracle for the
sampler's edge-form gradients.

geodesic_angle(p, q, xi) is the angle at p between the hyperbolic geodesic
to q and the one running to the boundary point xi, computed as
arg((P-Q)(P-conj Q)) of the Cayley images (Kontsevich, q-alg/9709040,
section 2).  Its gradient goes through starcycle.angles.edge_coefficients
and gauge_coefficient, the code the sampler runs; central finite
differences of the angle itself cross-check it.  Everything is defined
modulo 2*pi.
"""

import cmath
import math

from starcycle.angles import TWO_PI, AngleContext, cayley, edge_coefficients, gauge_coefficient


def wrap_angle(x: float) -> float:
    """Reduce to (-pi, pi]."""
    y = math.fmod(x + math.pi, TWO_PI)
    if y <= 0.0:
        y += TWO_PI
    return y - math.pi


def harmonic_angle_halfplane(p: complex, q: complex) -> float:
    """arg((p-q)(p-conj(q))) for p in the open upper half-plane, in
    [0, 2*pi); q may lie on the real axis (a boundary target)."""
    if p == q:
        raise ValueError("p and q must be distinct")
    if p.imag <= 0:
        raise ValueError("p must lie in the open upper half-plane")
    return cmath.phase((p - q) * (p - q.conjugate())) % TWO_PI


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
