"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines;
on failure the line is also the assertion message.
"""

import itertools
import random
import time
from fractions import Fraction

from angle_oracle import key_lemma_residual
from operator_oracle import cyclic_projector, gerstenhaber, is_cyclic
from starcycle import (
    AdmissibleGraph,
    AngleContext,
    Polynomial,
    PolyDiffOperator,
    PolyVector,
    VolumeForm,
    WeightEntry,
    WeightTable,
    assemble_star,
    check_alpha_independence,
    check_associative,
    check_closed,
    check_cyclic,
    compute_weight,
    star_graphs,
)

P = Polynomial
D = PolyDiffOperator
TABLE = WeightTable.builtin()


def report(number, ok, text):
    line = "criterion %2d: %s  %s" % (number, "PASS" if ok else "FAIL", text)
    print(line, flush=True)
    assert ok, line


def random_poly(dim, rng):
    out = P.zero(dim)
    for _ in range(3):
        exps = [0] * dim
        for _ in range(rng.randint(0, 2)):
            exps[rng.randrange(dim)] += 1
        out = out + P.monomial(dim, tuple(exps), Fraction(rng.randint(-2, 2)))
    return out


def random_polyvector(dim, degree, rng):
    comps = {}
    for idx in itertools.combinations(range(1, dim + 1), degree + 1):
        comps[idx] = random_poly(dim, rng)
    return PolyVector(dim, degree, comps)


def random_operator(dim, arity, rng):
    terms = {}
    for _ in range(3):
        key = tuple(
            tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(arity)
        )
        exps = tuple(rng.randint(0, 1) for _ in range(dim))
        terms[key] = terms.get(key, P.zero(dim)) + P.monomial(
            dim, exps, Fraction(rng.randint(-2, 2))
        )
    return D(dim, arity, {k: v for k, v in terms.items() if not v.is_zero()})


def so3():
    return PolyVector(3, 1, {
        (1, 2): P.parse("x3", 3),
        (1, 3): P.parse("-x2", 3),
        (2, 3): P.parse("x1", 3),
    })


def moyal():
    return PolyVector(2, 1, {(1, 2): P.one(2)})


def nondiv():
    return PolyVector(2, 1, {(1, 2): P.variable(2, 1)})


def volume_cases(dim):
    return (VolumeForm.constant(dim), VolumeForm(dim, P.variable(dim, 1)))


def test_criterion_1_divergence_identities():
    rng = random.Random(0)
    budget = {"bracket": 0.0, "wedge": 0.0, "square": 0.0}

    t0 = time.time()
    for trial in range(50):
        dim = rng.randint(2, 4)
        a = rng.randint(0, min(2, dim - 1))
        b = rng.randint(0, min(2, dim - 1))
        A, B = random_polyvector(dim, a, rng), random_polyvector(dim, b, rng)
        vol = volume_cases(dim)[trial % 2]
        lhs = A.schouten(B).divergence(vol)
        rhs = A.divergence(vol).schouten(B) + A.schouten(
            B.divergence(vol)) * ((-1) ** a)
        assert (lhs - rhs).is_zero()
    budget["bracket"] = time.time() - t0

    t0 = time.time()
    for trial in range(50):
        dim = rng.randint(2, 4)
        a, b = rng.randint(0, 1), rng.randint(0, 1)
        A, B = random_polyvector(dim, a, rng), random_polyvector(dim, b, rng)
        vol = volume_cases(dim)[trial % 2]
        lhs = A.wedge(B).divergence(vol)
        rhs = (A.divergence(vol).wedge(B)
               + A.wedge(B.divergence(vol)) * ((-1) ** (a + 1))
               + A.schouten(B) * ((-1) ** a))
        assert (lhs - rhs).is_zero()
    budget["wedge"] = time.time() - t0

    t0 = time.time()
    for trial in range(50):
        dim = rng.randint(2, 4)
        deg = rng.randint(1, min(2, dim - 1))
        A = random_polyvector(dim, deg, rng)
        vol = volume_cases(dim)[trial % 2]
        assert A.divergence(vol).divergence(vol).is_zero()
    budget["square"] = time.time() - t0

    ok = all(t < 1.0 for t in budget.values())
    report(1, ok, "bracket/wedge/square divergence identities, 50 exact pairs "
           "each (%.2fs / %.2fs / %.2fs)" % (
               budget["bracket"], budget["wedge"], budget["square"]))


def test_criterion_2_cyclic_shift_calculus():
    rng = random.Random(1)
    ok = True
    for vol in volume_cases(2):
        for arity in (1, 2, 3):
            for _ in range(3):
                psi = random_operator(2, arity, rng)
                c = psi
                for _ in range(arity + 1):
                    c = c.cyclic_shift(vol)
                ok = ok and (c - psi).is_zero()
                pr = cyclic_projector(psi, vol)
                ok = ok and (pr.cyclic_shift(vol) - pr).is_zero()
        d_count = bracket_count = 0
        for _ in range(10):
            phi = cyclic_projector(random_operator(2, rng.randint(1, 3), rng), vol)
            ok = ok and is_cyclic(phi.hochschild_differential(), vol)
            d_count += 1
        for a, b in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)] * 2:
            phi = cyclic_projector(random_operator(2, a, rng), vol)
            psi = cyclic_projector(random_operator(2, b, rng), vol)
            ok = ok and is_cyclic(gerstenhaber(phi, psi), vol)
            bracket_count += 1
        assert d_count >= 10 and bracket_count >= 10
    report(2, ok, "shift power identity, projector fixed points, cyclic "
           "closure under d and the bracket (exact, both volume forms)")


def test_criterion_3_first_order_weight():
    ctx = AngleContext.standard((0.0, 0.0, 1.0))
    t0 = time.time()
    e = compute_weight(AdmissibleGraph.from_key("1;3;b1,b2"), ctx,
                       1_000_000, 2026, threads=1)
    elapsed = time.time() - t0
    ok = abs(e.value - 0.5) <= 3 * e.std_error and elapsed <= 60.0
    zeros_ok = True
    for key in ("1;3;b1,b3", "1;3;b3,b1", "1;3;b2,b3", "1;3;b3,b2"):
        z = compute_weight(AdmissibleGraph.from_key(key), ctx,
                           1_000_000, 2027, threads=1)
        zeros_ok = zeros_ok and z.value == 0.0 and z.std_error == 0.0
    report(3, ok and zeros_ok,
           "first-order weight %.6f +- %.6f vs 1/2 in %.1fs; all four "
           "weighted-point edge graphs vanish" % (e.value, e.std_error, elapsed))


def test_criterion_4_second_order_weights():
    s = assemble_star(moyal(), TABLE, order=2)
    b2 = D(2, 2, {
        ((2, 0), (0, 2)): P.constant(2, Fraction(1, 8)),
        ((1, 1), (1, 1)): P.constant(2, Fraction(-1, 4)),
        ((0, 2), (2, 0)): P.constant(2, Fraction(1, 8)),
    })
    pattern_ok = (s.levels[2] - b2).is_zero()
    x1, x2 = P.variable(2, 1), P.variable(2, 2)
    h2 = s.apply(x1 * x1, x2 * x2)[2]
    pattern_ok = pattern_ok and h2 == P.constant(2, Fraction(1, 2))

    ctx = AngleContext.standard((0.0, 0.0, 1.0))
    t0 = time.time()
    worst = 0.0
    mc_ok = True
    for k, g in enumerate(star_graphs(2, 2)):
        e = compute_weight(g.add_boundary_vertex(), ctx, 1_000_000, 7000 + k)
        exact = TABLE.lookup_star(g).exact
        if e.std_error == 0.0:
            mc_ok = mc_ok and e.value == float(exact) == 0.0
        else:
            pull = abs(e.value - float(exact)) / e.std_error
            worst = max(worst, pull)
            mc_ok = mc_ok and pull <= 3.0
    elapsed = time.time() - t0
    ok = pattern_ok and mc_ok and elapsed <= 3600.0
    report(4, ok, "exact second-order pattern; 36 Monte Carlo weights within "
           "3 sigma of the table (worst %.2f sigma, %.0fs)" % (worst, elapsed))


def test_criterion_5_associativity():
    ok = True
    for pi in (moyal(), so3()):
        rep = check_associative(assemble_star(pi, TABLE, order=2))
        ok = ok and rep["passed"]
    bad = WeightTable.from_json(TABLE.to_json())
    e = bad.lookup_star(AdmissibleGraph.from_key("2;2;b1,b2|b1,b2"))
    bad.add(WeightEntry(e.graph_key, e.alphas, 0.0, 0.0, 0, 0,
                        exact=Fraction(0)))
    neg = check_associative(assemble_star(moyal(), bad, order=2))
    ok = ok and not neg["passed"]
    report(5, ok, "associativity through second order as an exact operator "
           "identity (both structures); corrupted weight fails")


def test_criterion_6_cyclicity():
    rep = check_cyclic(assemble_star(so3(), TABLE, order=2),
                       VolumeForm.constant(3))
    ok = rep["passed"]
    vol2 = VolumeForm.constant(2)
    s = assemble_star(nondiv(), TABLE, order=1)
    rep2 = check_cyclic(s, vol2)
    ok = ok and not rep2["passed"] and not rep2["orders"][1]["cyclic"]
    # residual must be half the divergence term up to sign:
    # div(x1 d1^d2) = d2, so the defect is (1/2) d2 g * h up to sign
    level = s.levels[1]
    resid = level.extended_by_slot().ibp_normal_form(vol2) - level
    half_div = D(2, 2, {((0, 1), (0, 0)): P.constant(2, Fraction(1, 2))})
    ok = ok and ((resid - half_div).is_zero() or (resid + half_div).is_zero())
    report(6, ok, "cyclicity exact at orders 1-2 for the rotational "
           "structure; divergent control fails with the half-divergence "
           "residual")


def test_criterion_7_closedness_and_unitality():
    ok = (check_closed(assemble_star(so3(), TABLE, order=2),
                       VolumeForm.constant(3))["passed"]
          and check_closed(assemble_star(moyal(), TABLE, order=2),
                           VolumeForm.constant(2))["passed"])
    for pi in (moyal(), so3()):
        s = assemble_star(pi, TABLE, order=2)
        one = P.one(pi.dim)
        f = P.parse("x1^2*x2 - 2*x1", pi.dim)
        left, right = s.apply(one, f), s.apply(f, one)
        ok = ok and left[0] == f and right[0] == f
        ok = ok and all(p.is_zero() for p in left[1:] + right[1:])
    report(7, ok, "closedness exact at orders 1-2 for both structures; "
           "unitality exact through order 2")


def test_criterion_8_angle_difference_gradient():
    rng = random.Random(8)
    ctx1 = AngleContext.standard((0.0, 0.0, 1.0))
    ctx2 = AngleContext.standard((1.0, 0.0, 0.0))
    import cmath as _c
    import math as _m

    def pt():
        r = 0.85 * _m.sqrt(rng.random())
        return r * _c.exp(1j * rng.uniform(0, 2 * _m.pi))

    worst = 0.0
    for _ in range(10):
        p = pt()
        qs = []
        while len(qs) < 10:
            q = pt()
            if abs(q - p) > 1e-3:
                qs.append(q)
        worst = max(worst, key_lemma_residual(ctx1, ctx2, p, qs))
    ok = worst < 1e-8
    report(8, ok, "q-gradient of the weighting difference over 100 random "
           "configurations: max %.2e (analytic)" % worst)


def test_criterion_9_alpha_independence():
    ctxA = AngleContext.standard((0.0, 0.0, 1.0))
    ctxB = AngleContext.standard((1.0, 0.0, 0.0))
    t = WeightTable()
    for k, g in enumerate(star_graphs(1, 3)):
        t.add(compute_weight(g, ctxA, 1 << 17, 500 + k))
        t.add(compute_weight(g, ctxB, 1 << 17, 700 + k))
    rep = check_alpha_independence(so3(), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                   t, 1, VolumeForm.constant(3))
    neg = check_alpha_independence(nondiv(), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                   t, 1, VolumeForm.constant(2))
    ok = rep["passed"] and rep["divergence_free"]
    ok = ok and not neg["passed"] and not neg["divergence_free"]
    worst = max((r["delta"] for r in neg["coefficients"] if not r["ok"]),
                default=0.0)
    report(9, ok, "first-order weighting independence within 3 sigma for the "
           "divergence-free structure; control disagrees by %.3f" % worst)


def test_criterion_10_determinism():
    ctx = AngleContext.standard((0.0, 0.0, 1.0))
    g = AdmissibleGraph.from_key("2;2;b1,2|b2,1").add_boundary_vertex()
    runs = [compute_weight(g, ctx, 1 << 17, 77, threads=t).to_json()
            for t in (1, 2, 4)]
    repeat = compute_weight(g, ctx, 1 << 17, 77, threads=3).to_json()
    ok = runs[0] == runs[1] == runs[2] == repeat
    report(10, ok, "weight runs with a fixed seed are byte-identical across "
           "thread counts and repeats")
