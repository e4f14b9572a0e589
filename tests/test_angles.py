"""Harmonic angle functions and their gradients."""

import cmath
import math
import pickle
import random

import pytest

from angle_oracle import (
    alpha_angle,
    alpha_angle_gradient,
    geodesic_angle,
    geodesic_angle_gradient,
    geodesic_angle_gradient_fd,
    harmonic_angle_halfplane,
    key_lemma_residual,
    wrap_angle,
)
import starcycle
from starcycle import AngleContext
from starcycle.angles import cayley


def random_config(rng):
    def pt():
        r = 0.85 * math.sqrt(rng.random())
        t = rng.uniform(0, 2 * math.pi)
        return r * cmath.exp(1j * t)

    p, q = pt(), pt()
    while abs(p - q) < 1e-3:
        q = pt()
    return p, q


def test_halfplane_map():
    # xi = 1 goes to infinity, the center to i
    assert abs(cayley(0j, 1.0)[0] - 1j) < 1e-15
    assert abs(cayley(-1 + 0j, 1.0)[0]) < 1e-15
    z = cayley(0.3 + 0.4j, cmath.exp(1j))[0]
    assert z.imag > 0


def test_collinear_configuration_gives_zero():
    # q straight above p, target at infinity: both phases cancel
    assert abs(harmonic_angle_halfplane(1j, 2j)) < 1e-15
    assert abs(harmonic_angle_halfplane(1j, 0.0)) == pytest.approx(math.pi, abs=1e-12)


def test_closed_form_matches_direct_phase():
    rng = random.Random(0)
    for _ in range(20):
        p, q = random_config(rng)
        xi_angle = rng.uniform(0, 2 * math.pi)
        xi = cmath.exp(1j * xi_angle)
        P, Q = cayley(p, xi)[0], cayley(q, xi)[0]
        expected = cmath.phase((P - Q) * (P - Q.conjugate()))
        got = geodesic_angle(p, q, xi_angle)
        # the angle is fixed modulo 2*pi, so compare on the circle
        assert abs(cmath.exp(1j * got) - cmath.exp(1j * expected)) < 1e-12


def test_rotation_invariance():
    # rotating p, q and the boundary point together preserves the angle
    rng = random.Random(1)
    for _ in range(10):
        p, q = random_config(rng)
        xi_angle = rng.uniform(0, 2 * math.pi)
        rot = rng.uniform(0, 2 * math.pi)
        a = geodesic_angle(p, q, xi_angle)
        b = geodesic_angle(
            p * cmath.exp(1j * rot),
            q * cmath.exp(1j * rot),
            (xi_angle + rot) % (2 * math.pi),
        )
        assert abs(cmath.exp(1j * a) - cmath.exp(1j * b)) < 1e-9


def test_halfplane_similarity_invariance():
    # the half-plane form is invariant under z -> a z + b with a > 0, b real
    rng = random.Random(2)
    for _ in range(10):
        p = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        q = complex(rng.uniform(-2, 2), rng.uniform(0.1, 2))
        a = rng.uniform(0.2, 3.0)
        b = rng.uniform(-2, 2)
        v1 = harmonic_angle_halfplane(p, q)
        v2 = harmonic_angle_halfplane(a * p + b, a * q + b)
        assert abs(cmath.exp(1j * v1) - cmath.exp(1j * v2)) < 1e-12


def test_gradient_matches_finite_differences():
    rng = random.Random(3)
    for _ in range(15):
        p, q = random_config(rng)
        xi_angle = rng.uniform(0, 2 * math.pi)
        exact = geodesic_angle_gradient(p, q, xi_angle)
        approx = geodesic_angle_gradient_fd(p, q, xi_angle)
        for e, a in zip(exact, approx):
            assert abs(e - a) < 1e-5 * max(1.0, abs(e))


def test_angle_context_validation():
    ctx = AngleContext.standard((0.0, 0.0, 1.0))
    assert ctx.m == 3
    assert ctx.boundary_angles == (0.0, 2 * math.pi / 3, 4 * math.pi / 3)
    with pytest.raises(ValueError, match="^alphas and boundary_angles must have equal length$"):
        AngleContext((1.0,), (0.0, 1.0))
    with pytest.raises(ValueError, match="^boundary angles must be strictly increasing$"):
        AngleContext((1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError, match=r"^boundary angles must lie in \[0, 2\*pi\)$"):
        AngleContext((1.0, 1.0), (0.0, 7.0))


def test_angle_context_is_an_immutable_value():
    ctx = AngleContext(alphas=[0, 0, 1], boundary_angles=(0.0, 1.0, 2.0))
    assert ctx.alphas == (0.0, 0.0, 1.0) and type(ctx.alphas[2]) is float
    same = AngleContext((0.0, 0.0, 1.0), [0, 1, 2])
    assert ctx == same and hash(ctx) == hash(same) and len({ctx, same}) == 1
    assert ctx != AngleContext((0.0, 1.0, 0.0), (0.0, 1.0, 2.0))
    assert repr(ctx) == "AngleContext(alphas=(0.0, 0.0, 1.0), boundary_angles=(0.0, 1.0, 2.0))"
    with pytest.raises(AttributeError):
        ctx.alphas = (1.0, 0.0, 0.0)
    with pytest.raises(AttributeError):
        ctx.extra = 1
    with pytest.raises(AttributeError):
        del ctx.alphas
    assert ctx.alphas == (0.0, 0.0, 1.0)
    assert pickle.loads(pickle.dumps(ctx)) == ctx


def test_alpha_angle_linearity():
    rng = random.Random(4)
    ctx1 = AngleContext.standard((1.0, 0.0, 0.0))
    ctx2 = AngleContext.standard((0.0, 1.0, 0.0))
    ctx_sum = AngleContext.standard((1.0, 1.0, 0.0))
    for _ in range(10):
        p, q = random_config(rng)
        assert alpha_angle(ctx_sum, p, q) == pytest.approx(
            alpha_angle(ctx1, p, q) + alpha_angle(ctx2, p, q), abs=1e-12
        )
        g = alpha_angle_gradient(ctx_sum, p, q)
        g1 = alpha_angle_gradient(ctx1, p, q)
        g2 = alpha_angle_gradient(ctx2, p, q)
        for i in range(4):
            assert g[i] == pytest.approx(g1[i] + g2[i], abs=1e-12)


def test_key_lemma_residual_analytic():
    # two weightings with the same total differ by a q-independent function
    rng = random.Random(5)
    ctx1 = AngleContext.standard((0.0, 0.0, 1.0))
    ctx2 = AngleContext.standard((1.0, 0.0, 0.0))
    p = 0.2 + 0.3j
    qs = [random_config(rng)[1] for _ in range(50)]
    assert key_lemma_residual(ctx1, ctx2, p, qs) < 1e-8

    # the same residual from central differences of the angles
    def fd_residual(q):
        gx = gy = 0.0
        for d, t in zip((-1.0, 0.0, 1.0), ctx1.boundary_angles):
            _, _, qx, qy = geodesic_angle_gradient_fd(p, q, t)
            gx += d * qx
            gy += d * qy
        return math.hypot(gx, gy)

    assert max(fd_residual(q) for q in qs) < 1e-5
    # identical contexts: identically zero
    assert key_lemma_residual(ctx1, ctx1, p, qs) == 0.0
    # scaled weightings with equal totals
    ctx3 = AngleContext.standard((2.0, 0.0, 0.0))
    ctx4 = AngleContext.standard((0.0, 0.0, 2.0))
    assert key_lemma_residual(ctx3, ctx4, p, qs) < 1e-8


def test_key_lemma_residual_detects_total_mismatch():
    rng = random.Random(6)
    ctx1 = AngleContext.standard((2.0, 0.0, 0.0))
    ctx2 = AngleContext.standard((0.0, 0.0, 1.0))
    qs = [random_config(rng)[1] for _ in range(20)]
    assert key_lemma_residual(ctx1, ctx2, 0.1 + 0.2j, qs) > 1e-2


def test_error_cases():
    with pytest.raises(ValueError):
        geodesic_angle(0.5 + 0j, 0.5 + 0j, 0.0)
    with pytest.raises(ValueError):
        geodesic_angle(1.5 + 0j, 0.2j, 0.0)
    with pytest.raises(ValueError):
        geodesic_angle_gradient(0.2j, 1.0 + 0j, 0.0)
    ctx = AngleContext.standard((1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        key_lemma_residual(ctx, ctx, 0.1j, [])
    ctx2 = AngleContext((1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        key_lemma_residual(ctx, ctx2, 0.1j, [0.2j])


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(math.pi + 0.1) == pytest.approx(-math.pi + 0.1)
    assert wrap_angle(-7 * math.pi) == pytest.approx(math.pi)


_ORACLE = ["wrap_angle", "harmonic_angle_halfplane", "_check_pair", "geodesic_angle",
           "geodesic_angle_gradient", "geodesic_angle_gradient_fd", "alpha_angle",
           "alpha_angle_gradient", "key_lemma_residual"]


def test_public_api_is_pinned():
    # a name added to the package's API shows up as an edit here
    assert sorted(starcycle.__all__) == [
        "AdmissibleGraph", "AngleContext", "PolyDiffOperator", "PolyVector", "Polynomial",
        "StarProduct", "VolumeForm", "WeightEntry", "WeightTable", "__version__",
        "assemble_star", "check_alpha_independence", "check_associative", "check_closed",
        "check_cyclic", "compute_weight", "default_threads", "enumerate_graphs",
        "graph_to_operator", "halfplane_weight", "mixed_edge_integral", "star_graphs",
        "top_edge_count",
    ]
    for module in (starcycle, starcycle.angles):
        assert [name for name in _ORACLE if hasattr(module, name)] == []
    # the operator calculus that only tests use lives in tests/operator_oracle.py
    public = {cls: sorted(n for n in dir(cls) if not n.startswith("_"))
              for cls in (starcycle.PolyDiffOperator, starcycle.PolyVector)}
    assert public[starcycle.PolyDiffOperator] == [
        "apply", "arity", "cyclic_shift", "dim", "extended_by_slot", "hochschild_differential",
        "ibp_normal_form", "insert", "is_zero", "multiplication", "render", "terms", "zero",
    ]
    assert public[starcycle.PolyVector] == [
        "arity", "coefficient", "components", "degree", "dim", "divergence", "from_json",
        "is_zero", "render", "schouten", "wedge", "zero",
    ]
