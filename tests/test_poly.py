"""Exact-rational polynomial ring: arithmetic, calculus, parse/render."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from starcycle import (
    AdmissibleGraph,
    Polynomial,
    PolyDiffOperator,
    PolyVector,
    VolumeForm,
    WeightEntry,
    WeightTable,
    assemble_star,
)
from starcycle.star import assoc_defect

P = Polynomial


def poly_strategy(dim=3, max_degree=3):
    exps = st.tuples(*[st.integers(0, max_degree) for _ in range(dim)])
    coeff = st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
    )
    return st.dictionaries(exps, coeff, max_size=4).map(
        lambda terms: sum(
            (P.monomial(dim, e, c) for e, c in terms.items()), P.zero(dim)
        )
    )


def test_constructors():
    assert P.zero(2).is_zero()
    assert P.one(2).render() == "1"
    assert P.constant(2, Fraction(3, 4)).render() == "3/4"
    assert P.variable(3, 2).render() == "x2"
    assert P.monomial(2, (1, 2), 5).render() == "5*x1*x2^2"
    with pytest.raises(ValueError):
        P.variable(2, 3)
    with pytest.raises(ValueError):
        P.monomial(2, (1,), 1)


def test_add_cancellation():
    x1 = P.variable(2, 1)
    assert (x1 + (-x1)).is_zero()
    assert (x1 - x1).render() == "0"
    assert (x1 + x1).render() == "2*x1"


def test_multiplication():
    x1, x2 = P.variable(2, 1), P.variable(2, 2)
    assert (x1 * x2).render() == "x1*x2"
    assert ((x1 + P.one(2)) * (x1 - P.one(2))).render() == "x1^2 - 1"
    assert (P.zero(2) * x1).is_zero()
    assert (x1 * Fraction(1, 2)).render() == "1/2*x1"
    assert (Fraction(1, 2) * x1).render() == "1/2*x1"


def test_partial_derivatives():
    x1 = P.variable(2, 1)
    f = P.parse("x1^2*x2", 2)
    assert f.partial(1).render() == "2*x1*x2"
    assert x1.partial(2).is_zero()
    assert P.constant(2, 7).partial(1).is_zero()
    # mixed partials commute
    g = P.parse("x1^3*x2^2 - x1*x2", 2)
    assert g.partial(1).partial(2) == g.partial(2).partial(1)
    with pytest.raises(ValueError):
        f.partial(0)
    with pytest.raises(ValueError):
        f.partial(3)


def test_derive_multi_index():
    f = P.parse("x1^2*x2", 2)
    assert f.derive((2, 1)).render() == "2"
    assert f.derive((0, 0)) == f
    assert f.derive((3, 0)).is_zero()
    with pytest.raises(ValueError):
        f.derive((1,))


def test_evaluate():
    f = P.parse("1/3*x1^2*x2 - x3", 3)
    val = f.evaluate((3, 2, 1))
    assert val == Fraction(5)
    assert isinstance(val, Fraction)
    assert P.one(2).evaluate((9, 9)) == 1


def test_parse_grammar():
    f = P.parse("1/3*x1^2*x2 - x3", 3)
    assert f.terms == {(2, 1, 0): Fraction(1, 3), (0, 0, 1): Fraction(-1)}
    assert P.parse("0", 2).is_zero()
    assert P.parse("-x1", 2) == -P.variable(2, 1)
    assert P.parse("2", 1) == P.constant(1, 2)
    assert P.parse("x1*x1", 1) == P.parse("x1^2", 1)


def test_parse_errors():
    with pytest.raises(ValueError, match="x3"):
        P.parse("x3", 2)
    with pytest.raises(ValueError, match="position"):
        P.parse("x1 + + x2", 2)
    with pytest.raises(ValueError):
        P.parse("", 2)
    with pytest.raises(ValueError):
        P.parse("x1^", 2)


def test_render_canonical():
    assert P.parse("x1^2 - 1/2*x2", 2).render() == "x1^2 - 1/2*x2"
    assert P.zero(3).render() == "0"
    # round trip is exact
    for text in ("x1^2 - 1/2*x2", "0", "1/3*x1^2*x2 - x3", "-2*x1 + 5"):
        f = P.parse(text, 3)
        assert P.parse(f.render(), 3) == f


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        P.variable(2, 1) + P.variable(3, 1)
    with pytest.raises(ValueError):
        P.variable(2, 1) * P.variable(3, 1)


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=50, deadline=None)
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + P.zero(3) == f
    assert f * P.one(3) == f


@given(poly_strategy(), poly_strategy(), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_leibniz_rule(f, g, i):
    assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


@given(poly_strategy(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_partials_commute(f, i, j):
    assert f.partial(i).partial(j) == f.partial(j).partial(i)


def assert_canonical(c):
    """The canonical coefficient: a nonzero int exactly when integral,
    otherwise a Fraction with a denominator above 1."""
    assert c != 0
    assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


def assert_valid(r, dim):
    """What the validating constructor guarantees, for a result built
    without it."""
    assert r.dim == dim
    for exps, c in r.terms.items():
        assert_canonical(c)
        assert type(exps) is tuple and len(exps) == dim
        assert all(type(e) is int and e >= 0 for e in exps)
    assert P(dim, r.terms) == r


@given(poly_strategy(), poly_strategy(), poly_strategy(), st.integers(-2, 2), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_internal_results_keep_the_invariants(f, g, rho, k, i):
    for r in (f + g, f - g, f - f, -f, f * g, f * k, k * f, f + k, k - f, f * Fraction(k, 3),
              f.partial(i), f.derive((1, 0, 2))):
        assert_valid(r, 3)
    op = PolyDiffOperator(3, 2, {((1, 0, 0), (0, 1, 0)): f, ((2, 0, 1), (0, 0, 0)): g})
    other = PolyDiffOperator(3, 2, {((0, 0, 1), (1, 0, 0)): g, ((0, 0, 0), (0, 0, 0)): rho})
    for vol in (VolumeForm.constant(3), VolumeForm(3, rho)):
        for r in (op + other, op - other, op - op, -op, op * f, op * k, op.insert(other, 1),
                  op.insert(other, 2), op.ibp_normal_form(vol), other.insert(op, 2).ibp_normal_form(vol)):
            for key, c in r.terms.items():
                assert len(key) == r.arity
                assert all(type(mi) is tuple and len(mi) == 3 for mi in key)
                assert all(type(e) is int and e >= 0 for mi in key for e in mi)
                assert_valid(c, 3)
                assert not c.is_zero()
            assert PolyDiffOperator(3, r.arity, r.terms) == r


def test_constructors_store_canonical_coefficients():
    p = P(2, {(1, 0): Fraction(6, 2), (0, 1): Fraction(1, 2), (0, 0): -4.0})
    assert p.terms == {(1, 0): 3, (0, 1): Fraction(1, 2), (0, 0): -4}
    assert_valid(p, 2)
    for q in (P.constant(2, Fraction(4, 2)), P.variable(2, 1), P.monomial(2, (1, 1), Fraction(-3)),
              P.parse("4/2*x1 + 1/2*x2 - 2/4 + 3/3*x1*x2", 2)):
        assert_valid(q, 2)
    # integral results of Fraction arithmetic come back as ints
    half = P.constant(2, Fraction(1, 2))
    assert (half + half).terms == {(0, 0): 1} and type((half * 2).terms[(0, 0)]) is int
    assert type((P.parse("1/2*x1^2", 2)).partial(1).terms[(1, 0)]) is int


def test_int_and_fraction_coefficients_are_interchangeable():
    a = P(2, {(1, 0): 3})
    b = P._trusted(2, {(1, 0): Fraction(3)})
    assert a == b and hash(a) == hash(b)
    assert a.render() == b.render() == "3*x1"
    z = ((0, 0),)
    assert PolyDiffOperator(2, 1, {z: a}).render() == PolyDiffOperator._trusted(2, 1, {z: b}).render()


def so3():
    return PolyVector(3, 1, {(1, 2): P.parse("x3", 3), (1, 3): P.parse("-x2", 3),
                             (2, 3): P.parse("x1", 3)})


def test_exact_side_results_are_canonical():
    # a zeroed order-2 weight, so that the order-2 associativity defect is nonzero
    table = WeightTable.builtin()
    e = table.lookup_star(AdmissibleGraph.from_key("2;2;b1,2|b1,b2"))
    table.add(WeightEntry(e.graph_key, e.alphas, 0.0, 0.0, 0, 0, exact=Fraction(0)))
    s = assemble_star(so3(), table, order=2)
    vol = VolumeForm(3, P.parse("x1^2 + x2^2 + x3^2", 3))
    ops = [assoc_defect(s, 2)]
    for level in s.levels:
        ops += [level, level.cyclic_shift(vol), level.hochschild_differential()]
    assert not ops[0].is_zero()
    seen = set()
    for op in ops:
        for c in op.terms.values():
            assert_valid(c, 3)
            seen.update(map(type, c.terms.values()))
        # built without validation, yet what the validating constructor makes
        assert PolyDiffOperator(3, op.arity, op.terms) == op
    assert seen == {int, Fraction}


def test_hash_agrees_with_equality_on_constants():
    assert P.constant(2, 3) == 3 and hash(P.constant(2, 3)) == hash(3)
    assert 3 in {P.constant(2, 3)} and P.constant(2, 3) in {3}
    assert P.constant(3, Fraction(-1, 2)) in {Fraction(-1, 2)}
    assert P.zero(2) == 0 and hash(P.zero(2)) == hash(0) and 0 in {P.zero(2)}
    assert (P.variable(2, 1) - P.variable(2, 1)) in {0}
    assert len({P.one(2), P.parse("x1 - x1 + 1", 2), 1}) == 1
