"""Star product assembly and the structural checks built on it."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import operator_oracle
from operator_oracle import Damped, gauss_integral, is_cyclic, vector
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
    graph_to_operator,
    star_graphs,
)
from starcycle import star
from starcycle.graphs import star_orbits
from starcycle.star import StarProduct, assoc_defect

P = Polynomial
D = PolyDiffOperator

TABLE = WeightTable.builtin()


def moyal():
    return PolyVector(2, 1, {(1, 2): P.one(2)})


def so3():
    return PolyVector(3, 1, {
        (1, 2): P.parse("x3", 3),
        (1, 3): P.parse("-x2", 3),
        (2, 3): P.parse("x1", 3),
    })


def nondiv():
    return PolyVector(2, 1, {(1, 2): P.variable(2, 1)})


def corrupted_table(star_key):
    bad = WeightTable.from_json(TABLE.to_json())
    e = bad.lookup_star(AdmissibleGraph.from_key(star_key))
    bad.add(WeightEntry(e.graph_key, e.alphas, 0.0, 0.0, 0, 0, exact=Fraction(0)))
    return bad


def test_graph_to_operator_first_order():
    g = AdmissibleGraph.from_key("1;2;b1,b2")
    op = graph_to_operator(g, [moyal()])
    expected = D(2, 2, {
        ((1, 0), (0, 1)): P.one(2),
        ((0, 1), (1, 0)): P.constant(2, -1),
    })
    assert (op - expected).is_zero()


def test_graph_to_operator_vector_field():
    # a one-target star paired with a vector field: U(f, g) = xi(f) g
    g = AdmissibleGraph.from_key("1;2;b1")
    xi = vector(2, [P.variable(2, 2), P.zero(2)])
    op = graph_to_operator(g, [xi])
    f, h = P.parse("x1^2", 2), P.parse("x2", 2)
    assert op.apply((f, h)) == P.parse("2*x1*x2^2", 2)


def test_graph_to_operator_second_order_hand_expansion():
    # vertex 1 differentiates vertex 2's coefficient:
    # U(f,g) = sum pi^{ab} d_a(pi^{cd}) d_b d_c f d_d g
    g = AdmissibleGraph.from_key("2;2;2,b1|b1,b2")
    pi = so3()
    op = graph_to_operator(g, [pi, pi])
    f = P.parse("x1^2*x3", 3)
    h = P.parse("x2*x3", 3)
    expected = P.zero(3)
    for a, b, c, d in itertools.product(range(1, 4), repeat=4):
        coeff = pi.coefficient((a, b)) * pi.coefficient((c, d)).partial(a)
        if coeff.is_zero():
            continue
        expected = expected + coeff * f.partial(b).partial(c) * h.partial(d)
    assert op.apply((f, h)) == expected


def test_graph_to_operator_validation():
    g = AdmissibleGraph.from_key("1;2;b1,b2")
    with pytest.raises(ValueError):
        graph_to_operator(g, [])
    with pytest.raises(ValueError):
        graph_to_operator(g, [moyal(), moyal()])
    xi = vector(2, [P.one(2), P.zero(2)])
    with pytest.raises(ValueError):
        graph_to_operator(g, [xi])     # out-degree 2 star, arity-1 field
    g2 = AdmissibleGraph.from_key("2;2;b1,2|b2,1")
    with pytest.raises(ValueError):
        graph_to_operator(g2, [moyal(), so3()])     # dimension mismatch


def test_assemble_star_levels():
    s = assemble_star(moyal(), TABLE, order=2)
    assert s.order == 2 and len(s.levels) == 3
    assert (s.levels[0] - D.multiplication(2)).is_zero()
    b1 = D(2, 2, {
        ((1, 0), (0, 1)): P.constant(2, Fraction(1, 2)),
        ((0, 1), (1, 0)): P.constant(2, Fraction(-1, 2)),
    })
    assert (s.levels[1] - b1).is_zero()
    b2 = D(2, 2, {
        ((2, 0), (0, 2)): P.constant(2, Fraction(1, 8)),
        ((1, 1), (1, 1)): P.constant(2, Fraction(-1, 4)),
        ((0, 2), (2, 0)): P.constant(2, Fraction(1, 8)),
    })
    assert (s.levels[2] - b2).is_zero()
    assert s.is_exact is True


def test_assemble_star_first_order_is_half_bracket():
    s = assemble_star(so3(), TABLE, order=2)
    pi = so3()
    want = {}
    for i in range(1, 4):
        for j in range(1, 4):
            c = pi.coefficient((i, j)) * Fraction(1, 2)
            if c.is_zero():
                continue
            ei = tuple(int(a == i - 1) for a in range(3))
            ej = tuple(int(a == j - 1) for a in range(3))
            want[(ei, ej)] = want.get((ei, ej), P.zero(3)) + c
    assert (s.levels[1] - D(3, 2, want)).is_zero()


def test_star_apply_canonical_example():
    s = assemble_star(moyal(), TABLE, order=2)
    x1, x2 = P.variable(2, 1), P.variable(2, 2)
    assert [p.render() for p in s.apply(x1, x2)] == ["x1*x2", "1/2", "0"]
    assert [p.render() for p in s.apply(x2, x1)] == ["x1*x2", "-1/2", "0"]
    # the order-1 commutator is the Poisson bracket
    fwd = s.apply(x1, x2)
    rev = s.apply(x2, x1)
    assert (fwd[1] - rev[1]).render() == "1"


def test_unitality():
    for pi in (moyal(), so3()):
        s = assemble_star(pi, TABLE, order=2)
        one = P.one(pi.dim)
        f = P.parse("x1^2*x2 - x1", pi.dim)
        left = s.apply(one, f)
        right = s.apply(f, one)
        assert left[0] == f and right[0] == f
        assert all(p.is_zero() for p in left[1:])
        assert all(p.is_zero() for p in right[1:])


def test_assemble_star_validation():
    bad = PolyVector(4, 1, {
        (1, 2): P.variable(4, 1),
        (3, 4): P.one(4),
        (1, 3): P.variable(4, 3),
    })
    with pytest.raises(ValueError, match="Poisson"):
        assemble_star(bad, TABLE, order=1)
    xi = vector(2, [P.one(2), P.zero(2)])
    with pytest.raises(ValueError, match="bivector"):
        assemble_star(xi, TABLE, order=1)
    with pytest.raises(ValueError, match="no entry"):
        assemble_star(moyal(), WeightTable(), order=1)
    with pytest.raises(ValueError):
        assemble_star(moyal(), TABLE, order=-1)


def test_star_product_refuses_arguments_and_volumes_of_another_dim():
    s = assemble_star(so3(), TABLE, order=1)
    vol2 = VolumeForm(2, P.parse("x1", 2))
    refusals = [
        (lambda: s.apply(P.variable(3, 1), P.variable(2, 1)), "argument dimension mismatch"),
        (lambda: s.apply(P.variable(2, 1), P.variable(3, 1)), "argument dimension mismatch"),
        (lambda: check_cyclic(s, vol2), "volume form dimension mismatch"),
        (lambda: check_closed(s, vol2), "volume form dimension mismatch"),
        (lambda: check_alpha_independence(so3(), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), TABLE, 1, vol2),
         "volume form dimension mismatch"),
    ]
    for call, message in refusals:
        with pytest.raises(ValueError) as refusal:
            call()
        assert str(refusal.value) == message


def test_non_poisson_message_is_pinned():
    # rational coefficients, and four nonzero components of [pi, pi], of
    # which the least key is named; the message was taken before the bracket
    # summed int numerators
    pi = PolyVector.from_json({"dim": 4, "degree": 1, "components": {
        "1,2": "1/3*x3^2 + x4", "1,3": "-2/5*x1*x2", "2,4": "x1^2 + 7/6", "3,4": "1/2*x2*x4"}})
    assert len(pi.schouten(pi).components) == 4
    with pytest.raises(ValueError) as err:
        assemble_star(pi, TABLE, order=1)
    assert str(err.value) == "pi is not Poisson: [pi,pi] component 1,2,3 = -4/15*x2*x3^2 + 1/5*x2*x4"


def casimir(c):
    """pi^{ij} = eps^{ijk} d_k C on R^3: Poisson and divergence-free for any C."""
    d1, d2, d3 = (c.derive(tuple(int(a == k) for a in range(3))) for k in range(3))
    return PolyVector(3, 1, {(1, 2): d3, (1, 3): -d2, (2, 3): d1})


def x(dim, i):
    return P.variable(dim, i)


# the derive script's d = 2, 3, 4 structures, a Casimir structure with
# quadratic coefficients and a planar one that is not divergence-free
ASSOC_STRUCTURES = {
    "lin2": PolyVector(2, 1, {(1, 2): x(2, 1)}),
    "quad3": PolyVector(3, 1, {(1, 2): x(3, 3) * x(3, 3)}),
    "mix3": PolyVector(3, 1, {(1, 2): x(3, 3), (2, 3): x(3, 3) * x(3, 3)}),
    "pi4": PolyVector(4, 1, {(1, 2): x(4, 2), (3, 4): P.one(4)}),
    "casimir3": casimir(P.parse("37*x1^2*x2 - 52*x2^2*x3 + 81*x3^2*x1", 3)),
    "planar2": PolyVector(2, 1, {(1, 2): P.parse(
        "23 - 41*x1 + 17*x2 + 66*x1^2 - 29*x1*x2 + 58*x2^2", 2)}),
}


def assoc_rows(rep):
    return [(o["order"], o["associative"], o["residual"]) for o in rep["orders"]]


def test_check_associative_passes():
    for pi in (moyal(), so3()):
        s = assemble_star(pi, TABLE, order=2)
        rep = check_associative(s)
        assert rep["passed"]
        assert assoc_rows(rep) == [(0, True, None), (1, True, None), (2, True, None)]
        assert rep["order"] == 2


@pytest.mark.parametrize("name", sorted(ASSOC_STRUCTURES))
def test_check_associative_exact_on_poisson_structures(name):
    s = assemble_star(ASSOC_STRUCTURES[name], TABLE, order=2)
    rep = check_associative(s)
    assert rep["check"] == "associative" and rep["passed"]
    assert assoc_rows(rep) == [(0, True, None), (1, True, None), (2, True, None)]


def test_assoc_defect_is_the_operator_identity():
    # the defect is trilinear and, applied to a triple, gives the
    # order-n coefficient of (f*g)*h - f*(g*h)
    s = assemble_star(so3(), corrupted_table("2;2;b1,2|b1,b2"), order=2)
    f, g, h = P.parse("x1^2*x3 + 2*x2", 3), P.parse("x2*x3 - x1", 3), P.parse("x3^2 + x1*x2", 3)
    for n in range(3):
        direct = P.zero(3)
        for k in range(n + 1):
            bk, bl = s.levels[k], s.levels[n - k]
            direct = direct + bk.apply((bl.apply((f, g)), h)) - bk.apply((f, bl.apply((g, h))))
        defect = assoc_defect(s, n)
        assert defect.arity == 3
        assert defect.apply((f, g, h)) == direct
    assert not assoc_defect(s, 2).apply((f, g, h)).is_zero()


def composed_defect(s, n):
    """The reference defect: every term of sum_{k+l=n} B_k o_1 B_l - B_k o_2 B_l
    composed by insert, the two with B_0 included."""
    total = D.zero(s.pi.dim, 3)
    for k in range(n + 1):
        bk, bl = s.levels[k], s.levels[n - k]
        total = total + bk.insert(bl, 1) - bk.insert(bl, 2)
    return total


def test_assoc_defect_equals_the_composed_sum():
    for table in (TABLE, corrupted_table("2;2;b1,b2|b1,b2"), corrupted_table("2;2;b1,2|b1,b2")):
        for pi in (so3(), moyal(), nondiv()):
            s = assemble_star(pi, table, order=2)
            for n in range(3):
                defect, reference = assoc_defect(s, n), composed_defect(s, n)
                assert defect == reference and defect.render() == reference.render()
    bad = assemble_star(so3(), corrupted_table("2;2;b1,2|b1,b2"), order=2)
    assert not assoc_defect(bad, 2).is_zero()


def test_assoc_defect_equals_the_composed_sum_at_order_3():
    s = assemble_star(so3(), order3_table(), order=3)
    defect = assoc_defect(s, 3)
    assert len(defect.terms) == 882
    assert defect == composed_defect(s, 3)


def test_assoc_defect_equals_the_polynomial_oracle():
    for table in (TABLE, corrupted_table("2;2;b1,2|b1,b2")):
        for pi in (so3(), moyal(), nondiv(), *ASSOC_STRUCTURES.values()):
            s = assemble_star(pi, table, order=2)
            for n in range(3):
                assert assoc_defect(s, n) == operator_oracle.assoc_defect(s, n)


def test_assoc_defect_forms_one_polynomial_per_term(monkeypatch):
    s = assemble_star(so3(), corrupted_table("2;2;b1,2|b1,b2"), order=2)
    made = []
    trusted, init = P._trusted, P.__init__
    monkeypatch.setattr(P, "_trusted", lambda *args: made.append(1) or trusted(*args))
    monkeypatch.setattr(P, "__init__", lambda self, *args: made.append(1) or init(self, *args))
    defect = assoc_defect(s, 2)
    assert made == []  # a numerator table: its Polynomials are formed when it is read
    terms = defect.terms
    assert len(made) == len(terms) > 0


def test_star_product_needs_the_multiplication_as_b0():
    b1 = assemble_star(so3(), TABLE, order=1).levels[1]
    for b0 in (D.zero(3, 2), D.multiplication(3) * 2, D.multiplication(2), b1):
        with pytest.raises(ValueError, match="B_0"):
            StarProduct(so3(), [b0, b1], {"kind": "exact"})
    with pytest.raises(ValueError, match="B_0"):
        StarProduct(so3(), [], {"kind": "exact"})
    assert StarProduct(so3(), [D.multiplication(3), b1], {"kind": "exact"}).levels[1] == b1


def test_star_product_order_is_read_off_its_levels():
    levels = assemble_star(so3(), TABLE, order=1).levels
    s = StarProduct(so3(), levels, True)
    assert s.order == 1 and check_cyclic(s, VolumeForm.constant(3))["order"] == 1
    with pytest.raises(TypeError):
        StarProduct(so3(), 5, levels, True)
    with pytest.raises(AttributeError):
        s.order = 5


def test_check_associative_corrupted_table_fails():
    # zeroing a no-internal-edge weight breaks the Moyal second order
    repA = check_associative(
        assemble_star(moyal(), corrupted_table("2;2;b1,b2|b1,b2"), order=2))
    assert not repA["passed"]
    # zeroing an internal-edge weight is invisible for constant coefficients
    # but breaks a linear Poisson structure
    badB = corrupted_table("2;2;b1,2|b1,b2")
    repB = check_associative(assemble_star(so3(), badB, order=2))
    assert not repB["passed"]
    for rep in (repA, repB):
        assert assoc_rows(rep)[:2] == [(0, True, None), (1, True, None)]
        assert rep["orders"][2]["associative"] is False
        assert rep["orders"][2]["residual"] is not None
    repM = check_associative(assemble_star(moyal(), badB, order=2))
    assert repM["passed"]


def test_check_cyclic():
    vol3 = VolumeForm.constant(3)
    rep = check_cyclic(assemble_star(so3(), TABLE, order=2), vol3)
    assert rep["passed"]
    assert [o["cyclic"] for o in rep["orders"]] == [True, True, True]
    rep2 = check_cyclic(assemble_star(moyal(), TABLE, order=2), VolumeForm.constant(2))
    assert rep2["passed"]


def test_check_cyclic_divergent_case():
    vol = VolumeForm.constant(2)
    s = assemble_star(nondiv(), TABLE, order=1)
    rep = check_cyclic(s, vol)
    assert not rep["passed"]
    order1 = rep["orders"][1]
    assert not order1["cyclic"]
    # residual is half the divergence term: div(pi) = d2, acting on slot 2
    assert order1["residual"] == "(-1/2) D[0,1]*D[0,0]"


def test_check_cyclic_agrees_with_operator_predicate():
    vol3 = VolumeForm.constant(3)
    s = assemble_star(so3(), TABLE, order=2)
    for k, o in enumerate(check_cyclic(s, vol3)["orders"]):
        assert o["cyclic"] == is_cyclic(s.levels[k], vol3)
    vol2 = VolumeForm.constant(2)
    sn = assemble_star(nondiv(), TABLE, order=1)
    for k, o in enumerate(check_cyclic(sn, vol2)["orders"]):
        assert o["cyclic"] == is_cyclic(sn.levels[k], vol2)


def test_check_closed():
    assert check_closed(assemble_star(so3(), TABLE, order=2), VolumeForm.constant(3))["passed"]
    assert check_closed(assemble_star(moyal(), TABLE, order=2), VolumeForm.constant(2))["passed"]
    rep = check_closed(assemble_star(nondiv(), TABLE, order=1), VolumeForm.constant(2))
    assert not rep["passed"]


def damped_monomials(dim, scale):
    """1, x1, .., xd, each times e^(-scale |x|^2)."""
    q = P.parse(" ".join("- %s*x%d^2" % (scale, i) for i in range(1, dim + 1)), dim)
    return [Damped(p, q) for p in [P.one(dim)] + [P.variable(dim, i) for i in range(1, dim + 1)]]


def gaussian_failures(pi, table):
    """The levels n at which the star product of pi fails, as exact
    integrals with constant Omega: cyclicity, int B_n(f,g) h = int B_n(g,h) f
    with every factor damped by e^(-|x|^2/3), and closedness (n >= 1),
    int B_n(f,g) = 0 with both damped by e^(-|x|^2/2).  Each side is the
    coefficient of pi^(d/2), over every triple (pair) of damped monomials."""
    levels = assemble_star(pi, table, order=2).levels
    cyclic, closed = [], []
    args = damped_monomials(pi.dim, "1/3")
    plain = [a.derive((0,) * pi.dim) for a in args]
    for n, b in enumerate(levels):
        val = {(i, j): operator_oracle.apply(b, [f, g])
               for (i, f), (j, g) in itertools.product(enumerate(args), repeat=2)}
        if any(gauss_integral(val[i, j] * plain[k]) != gauss_integral(val[j, k] * plain[i])
               for i, j, k in itertools.product(range(len(args)), repeat=3)):
            cyclic.append(n)
    args = damped_monomials(pi.dim, "1/2")
    for n, b in enumerate(levels[1:], start=1):
        if any(gauss_integral(operator_oracle.apply(b, [f, g])) for f in args for g in args):
            closed.append(n)
    return cyclic, closed


def shifted_orbit_table(key, shift):
    """The bundled table with the weight of key's order-2 orbit moved by
    shift: each graph of the orbit by its sign relative to key."""
    table = WeightTable.from_json(TABLE.to_json())
    orbits = star_orbits(2, 2)
    rep0, sign0 = orbits[AdmissibleGraph.from_key(key)]
    for g, (rep, sign) in orbits.items():
        if rep == rep0 and sign:
            e = table.lookup_star(g)
            w = e.exact + sign * sign0 * shift
            table.add(WeightEntry(e.graph_key, e.alphas, float(w), 0.0, 0, 0, exact=w))
    return table


def test_cyclic_and_closed_as_gaussian_integrals():
    # the paper's identities as numbers, sharing no code with the package's
    # integration by parts; a divergent pi and a shifted orbit weight fail
    assert gaussian_failures(so3(), TABLE) == ([], [])
    assert gaussian_failures(moyal(), TABLE) == ([], [])
    assert gaussian_failures(nondiv(), TABLE) == ([1, 2], [1, 2])
    key = "2;2;2,b1|1,b2"
    shifted = shifted_orbit_table(key, Fraction(1, 7))
    assert shifted.lookup_star(AdmissibleGraph.from_key(key)).exact == Fraction(-1, 24) + Fraction(1, 7)
    assert gaussian_failures(so3(), shifted) == ([2], [2])


def test_exact_checks_refuse_monte_carlo_tables():
    ctx = AngleContext.standard((0.0, 0.0, 1.0))
    t = WeightTable()
    for k, g in enumerate(star_graphs(1, 2)):
        t.add(compute_weight(g.add_boundary_vertex(), ctx, 1 << 14, k))
    s = assemble_star(moyal(), t, order=1)
    assert s.is_exact is False
    for check in (check_associative,
                  lambda s: check_cyclic(s, VolumeForm.constant(2)),
                  lambda s: check_closed(s, VolumeForm.constant(2))):
        with pytest.raises(ValueError, match="exact"):
            check(s)


def assemble_trilinear(pi, alphas, table, order):
    """The alpha-weighted trilinear operator sum_Gamma W_Gamma^alpha U_Gamma
    over star_graphs(order, 3), one contraction per labeled graph, with the
    star levels' prefactor."""
    alphas = tuple(map(float, alphas))
    total = D.zero(pi.dim, 3)
    for g in star_graphs(order, 3):
        e = table.get(g.canonical_key(), alphas)
        w = e.exact if e.exact is not None else Fraction(e.value)
        if w:
            total = total + graph_to_operator(g, [pi] * order) * w
    return total * Fraction(1, math.factorial(order) * 2 ** order)


def test_assemble_trilinear_exact_pattern():
    # weight on the third boundary point: differentiate the first two slots
    T = assemble_trilinear(so3(), (0.0, 0.0, 1.0), TABLE, order=1)
    pi = so3()
    want = {}
    z = (0, 0, 0)
    for i in range(1, 4):
        for j in range(1, 4):
            c = pi.coefficient((i, j)) * Fraction(1, 2)
            if c.is_zero():
                continue
            ei = tuple(int(a == i - 1) for a in range(3))
            ej = tuple(int(a == j - 1) for a in range(3))
            want[(ei, ej, z)] = want.get((ei, ej, z), P.zero(3)) + c
    assert (T - D(3, 3, want)).is_zero()


def test_assemble_trilinear_monte_carlo_alpha():
    # weight on the first boundary point: the pattern rotates to slots 2, 3
    ctx = AngleContext.standard((1.0, 0.0, 0.0))
    t = WeightTable()
    for k, g in enumerate(star_graphs(1, 3)):
        t.add(compute_weight(g, ctx, 1 << 16, 900 + k))
    T = assemble_trilinear(moyal(), (1.0, 0.0, 0.0), t, order=1)
    f, g, h = P.parse("x1", 2), P.parse("x1^2", 2), P.parse("x2", 2)
    # T(f,g,h) ~ 1/2 f {g,h}: here {x1^2, x2} = 2 x1
    out = T.apply((f, g, h))
    coeff = out.terms.get((2, 0))
    assert coeff is not None
    assert abs(float(coeff) - 1.0) < 0.02
    assert all(abs(float(c)) < 0.02 for e, c in out.terms.items() if e != (2, 0))


def test_assemble_trilinear_zero_alpha():
    # all angle forms vanish, so every weight is exactly zero
    ctx = AngleContext.standard((0.0, 0.0, 0.0))
    t = WeightTable()
    for k, g in enumerate(star_graphs(1, 3)):
        e = compute_weight(g, ctx, 1 << 12, 40 + k)
        assert e.value == 0.0
        t.add(e)
    T = assemble_trilinear(so3(), (0.0, 0.0, 0.0), t, order=1)
    assert T.is_zero()


def test_check_alpha_independence():
    ctxA = AngleContext.standard((0.0, 0.0, 1.0))
    ctxB = AngleContext.standard((1.0, 0.0, 0.0))
    t = WeightTable()
    for k, g in enumerate(star_graphs(1, 3)):
        t.add(compute_weight(g, ctxA, 1 << 16, 500 + k))
        t.add(compute_weight(g, ctxB, 1 << 16, 700 + k))
    rep = check_alpha_independence(so3(), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                   t, 1, VolumeForm.constant(3))
    assert rep["passed"]
    assert rep["divergence_free"]
    # non-divergence-free control: the mismatch is the half divergence term
    rep2 = check_alpha_independence(nondiv(), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                    t, 1, VolumeForm.constant(2))
    assert not rep2["passed"]
    assert not rep2["divergence_free"]
    worst = max(r["delta"] for r in rep2["coefficients"] if not r["ok"])
    assert abs(worst - 0.5) < 0.02
    with pytest.raises(ValueError, match="sums differ"):
        check_alpha_independence(so3(), (0.0, 0.0, 1.0), (2.0, 0.0, 0.0),
                                 t, 1, VolumeForm.constant(3))


def per_graph_alpha_report(pi, alphas, alphas2, table, order, vol, floor=1e-3):
    """The reference: check_alpha_independence with one contraction and
    normal form per labeled graph."""
    a1, a2 = tuple(map(float, alphas)), tuple(map(float, alphas2))
    pref = Fraction(1, math.factorial(order) * 2 ** order)
    nfs = {g.canonical_key(): graph_to_operator(g, [pi] * order).ibp_normal_form(vol)
           for g in star_graphs(order, 3)}

    def side(al):
        acc = {}
        for key, nf in nfs.items():
            e = table.get(key, al)
            w = e.exact if e.exact is not None else Fraction(e.value)
            for opkey, cpoly in nf.terms.items():
                for exps, c in cpoly.terms.items():
                    cell = acc.setdefault((opkey, exps), [Fraction(0), 0.0])
                    cell[0] += w * c
                    cell[1] += (float(c) * e.std_error) ** 2
        return acc

    s1, s2 = side(a1), side(a2)
    rows = []
    for opkey, exps in sorted(set(s1) | set(s2)):
        v1, var1 = s1.get((opkey, exps), (Fraction(0), 0.0))
        v2, var2 = s2.get((opkey, exps), (Fraction(0), 0.0))
        delta = abs(float(pref * (v1 - v2)))
        tol = max(3.0 * float(pref) * math.sqrt(var1 + var2), floor)
        rows.append({"slots": ["".join(str(e) for e in mi) for mi in opkey],
                     "monomial": "".join(str(e) for e in exps),
                     "delta": delta, "tolerance": tol, "ok": delta <= tol})
    return {"check": "alpha", "order": order, "alphas": list(a1), "alphas2": list(a2),
            "divergence_free": pi.divergence(vol).is_zero(), "coefficients": rows,
            "passed": all(r["ok"] for r in rows)}


def synthetic_alpha_table(order, alpha_pairs, seed):
    """Float weights with error bars for every graph of star_graphs(order,
    3); they break the orbit relation, so only the per-graph sum holds."""
    rng = random.Random(seed)
    t = WeightTable()
    for alphas in alpha_pairs:
        for g in star_graphs(order, 3):
            t.add(WeightEntry(g.canonical_key(), alphas, rng.uniform(-0.1, 0.1),
                              rng.uniform(0.0, 1e-3), 1 << 16, 0))
    return t


@pytest.mark.parametrize("order", [1, 2])
def test_alpha_check_contracts_one_graph_per_orbit(monkeypatch, order):
    a1, a2 = (0.0, 0.0, 1.0), (1.0, 0.0, 0.0)
    if order == 1:
        table = WeightTable()
        for k, g in enumerate(star_graphs(1, 3)):
            for alphas in (a1, a2):
                table.add(compute_weight(g, AngleContext.standard(alphas), 1 << 12, 60 + k))
    else:
        table = synthetic_alpha_table(2, (a1, a2), 7)
    cases = [(so3(), VolumeForm.constant(3)), (nondiv(), VolumeForm.constant(2))]
    if order == 2:
        cases.append((ASSOC_STRUCTURES["casimir3"], VolumeForm.constant(3)))
    refs = [per_graph_alpha_report(pi, a1, a2, table, order, vol) for pi, vol in cases]
    calls = []
    contract = star.graph_to_operator

    def counted(graph, gammas):
        calls.append(graph)
        return contract(graph, gammas)

    monkeypatch.setattr(star, "graph_to_operator", counted)
    for (pi, vol), ref in zip(cases, refs):
        del calls[:]
        rep = check_alpha_independence(pi, a1, a2, table, order, vol)
        assert len(calls) == len(set(calls)) == {1: 3, 2: 21}[order]
        assert json.dumps(rep) == json.dumps(ref)


@pytest.mark.parametrize("name", ["so3", "casimir3"])
def test_orbit_sign_relates_contractions(name):
    pi = so3() if name == "so3" else ASSOC_STRUCTURES[name]
    for g, (rep, sign) in star_orbits(2, 2).items():
        assert graph_to_operator(g, [pi, pi]) == graph_to_operator(rep, [pi, pi]) * sign


def test_forced_zero_orbits_contract_to_zero():
    pi = so3()
    reps = {rep for rep, sign in star_orbits(3, 2).values() if sign == 0}
    assert len(reps) == 6
    for rep in reps:
        assert graph_to_operator(rep, [pi] * 3).is_zero()


def per_graph_levels(pi, table, order, contract=graph_to_operator):
    """The reference: B_n as the sum over every labeled graph, one
    contraction each."""
    levels = [D.multiplication(pi.dim)]
    for n in range(1, order + 1):
        total = D.zero(pi.dim, 2)
        for g in star_graphs(n, 2):
            e = table.lookup_star(g)
            w = e.exact if e.exact is not None else Fraction(e.value)
            if w:
                total = total + contract(g, [pi] * n) * w
        levels.append(total * Fraction(1, math.factorial(n) * 2 ** n))
    return levels


def monte_carlo_table():
    """Float weights of every order-1 and order-2 graph from short runs;
    their noise breaks the slot-swap and relabeling symmetry."""
    ctx = AngleContext.standard((0.0, 0.0, 1.0))
    t = WeightTable()
    for k, g in enumerate(star_graphs(1, 2) + star_graphs(2, 2)):
        t.add(compute_weight(g.add_boundary_vertex(), ctx, 1 << 10, 300 + k))
    return t


@pytest.mark.parametrize("kind", ["bundled", "corrupted", "monte_carlo"])
def test_orbit_assembly_equals_per_graph_sum(kind):
    table = {"bundled": lambda: TABLE,
             "corrupted": lambda: corrupted_table("2;2;b1,2|b1,b2"),
             "monte_carlo": monte_carlo_table}[kind]()
    for pi in (so3(), ASSOC_STRUCTURES["casimir3"], ASSOC_STRUCTURES["planar2"]):
        s = assemble_star(pi, table, order=2)
        ref = per_graph_levels(pi, table, 2)
        assert [b.render() for b in s.levels] == [b.render() for b in ref]
        assert s.is_exact == (kind != "monte_carlo")


def order3_table():
    """Bundled orders 1 and 2 (two order-2 orbits weigh 0) plus an order-3
    table that respects the symmetry: w = sign * w_rep, nonzero off the
    forced-zero orbits."""
    table = WeightTable.from_json(TABLE.to_json())
    reps = {}
    for g, (rep, sign) in star_orbits(3, 2).items():
        w = sign * reps.setdefault(rep, Fraction(len(reps) + 1, 97))
        table.add(WeightEntry(g.add_boundary_vertex().canonical_key(), (0.0, 0.0, 1.0),
                              float(w), 0.0, 0, 0, exact=w))
    return table


def test_assembly_contracts_one_graph_per_orbit(monkeypatch):
    table = order3_table()
    calls = []
    contract = star._contract

    def counted(graph, tables, out, scale):
        calls.append(graph.n)
        return contract(graph, tables, out, scale)

    monkeypatch.setattr(star, "_contract", counted)
    s = assemble_star(so3(), table, order=3)
    assert [calls.count(n) for n in (1, 2, 3)] == [1, 4, 38]
    assert s.is_exact and not s.levels[3].is_zero()


def test_assembly_builds_no_graph_after_warm_up(monkeypatch):
    # both sums walk the cached star_orbits map, so a repeated call builds
    # no labelled graph
    alphas = (0.0, 0.0, 1.0)
    table = synthetic_alpha_table(2, [alphas], 3)

    def assemble():
        assemble_star(so3(), TABLE, order=2)
        check_alpha_independence(so3(), alphas, alphas, table, 2, VolumeForm.constant(3))

    assemble()
    built = []
    init = AdmissibleGraph.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AdmissibleGraph, "__init__", counted)
    assemble()
    assert built == []
    star_graphs(1, 2)  # the counter sees a build
    assert len(built) == 2


def dense_graph_to_operator(graph, gammas):
    """The reference contraction: every axis assignment of every edge."""
    dim, n, m = gammas[0].dim, graph.n, graph.m
    out = {}
    for assign in itertools.product(range(1, dim + 1), repeat=len(graph.edges())):
        out_idx = {v: [] for v in range(1, n + 1)}
        mi = [[0] * dim for _ in range(n + m)]
        for (src, tgt), idx in zip(graph.edges(), assign):
            out_idx[src].append(idx)
            mi[tgt - 1][idx - 1] += 1
        coeff = P.one(dim)
        for v in range(1, n + 1):
            coeff = coeff * gammas[v - 1].coefficient(tuple(out_idx[v])).derive(tuple(mi[v - 1]))
        key = tuple(tuple(b) for b in mi[n:])
        out[key] = out.get(key, P.zero(dim)) + coeff
    return D(dim, m, out)


def rational_so3():
    """so3 with its components scaled by 1/2, -1/3 and 1: still Poisson,
    and its components have different denominators."""
    return PolyVector(3, 1, {(1, 2): P.parse("1/2*x3", 3), (1, 3): P.parse("1/3*x2", 3),
                             (2, 3): P.parse("x1", 3)})


def structure(name):
    """A new object for the structures built by a function, else the shared one."""
    made = {"so3": so3, "equal_so3": so3, "moyal": moyal, "rational_so3": rational_so3}.get(name)
    return made() if made else ASSOC_STRUCTURES[name]


@pytest.mark.parametrize("name", ["so3", "casimir3", "planar2", "moyal", "rational_so3",
                                  "so3,casimir3", "so3,equal_so3"])
def test_pruned_contraction_equals_dense_loop(name):
    # one multivector at both vertices, or two: different ones, or equal
    # but distinct objects, which get a component table each
    parts = name.split(",")
    gammas = [structure(p) for p in parts] if len(parts) == 2 else [structure(name)] * 2
    if name == "so3,equal_so3":
        assert gammas[0] == gammas[1] and gammas[0] is not gammas[1]
    for g in star_graphs(2, 2):
        assert graph_to_operator(g, gammas).render() == dense_graph_to_operator(g, gammas).render()


def test_assemblies_in_one_process_share_no_component_table():
    # each assembly builds its own table of pi's components; one kept past
    # its assembly would hand the next structure the wrong components
    dense = {name: per_graph_levels(structure(name), TABLE, 2, dense_graph_to_operator)
             for name in ("so3", "casimir3", "rational_so3")}
    for name in ("so3", "casimir3", "so3", "rational_so3", "so3"):
        levels = assemble_star(structure(name), TABLE, order=2).levels
        assert [b.render() for b in levels] == [b.render() for b in dense[name]]


def test_component_table_holds_the_stored_components_in_index_order():
    pi = PolyVector(200, 1, {(150, 7): P.parse("3*x2", 200)})
    dim, den, comps = star._component_table(pi)
    assert (dim, den) == (200, 1)
    assert [(idx, num) for idx, num, _ in comps] == [
        ((7, 150), P.parse("-3*x2", 200)._num), ((150, 7), P.parse("3*x2", 200)._num)]
    # the same table as a scan over every index tuple
    trivector = PolyVector(4, 2, {(1, 2, 4): P.parse("1/2*x3", 4), (2, 3, 4): P.parse("x1 - 1/3", 4)})
    for gamma in (so3(), rational_so3(), trivector):
        dim, den, comps = star._component_table(gamma)
        scan = [(idx, gamma.coefficient(idx) * den)
                for idx in itertools.product(range(1, dim + 1), repeat=gamma.degree + 1)
                if gamma.coefficient(idx)]
        assert all(c._den == 1 for _, c in scan)
        assert [(idx, num) for idx, num, _ in comps] == [(idx, c._num) for idx, c in scan]


def test_pruned_contraction_equals_dense_loop_at_order_3():
    pi = so3()
    reps = {rep for rep, sign in star_orbits(3, 2).values() if sign}
    assert len(reps) == 38
    for rep in reps:
        assert graph_to_operator(rep, [pi] * 3).render() == dense_graph_to_operator(rep, [pi] * 3).render()
    # the orbits of the order-3 cyclicity row, on components with unequal
    # denominators: linear ones, where every one contracts to zero (a vertex
    # with two in-edges), and quadratic ones, where three do not
    reps = [star_orbits(3, 2)[AdmissibleGraph.from_key(key)][0] for key in (
        "3;2;2,3|1,3|b1,b2", "3;2;2,3|1,b1|1,b2", "3;2;2,3|1,b2|2,b1", "3;2;2,3|3,b1|2,b2")]
    quadratic = casimir(P.parse("1/2*x1^2*x2 - 1/3*x2^2*x3 + x3^2*x1", 3))
    for pi, nonzero in ((rational_so3(), 0), (quadratic, 3)):
        ops = [graph_to_operator(rep, [pi] * 3) for rep in reps]
        dense = [dense_graph_to_operator(rep, [pi] * 3) for rep in reps]
        assert [op.render() for op in ops] == [op.render() for op in dense]
        assert sum(not op.is_zero() for op in ops) == nonzero
