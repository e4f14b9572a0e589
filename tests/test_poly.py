"""Exact-rational polynomial ring: arithmetic, calculus, parse/render."""

from fractions import Fraction
from math import gcd

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
    # the offending token's position, or the end of the text
    with pytest.raises(ValueError, match="exponent after \\^ at position 3$"):
        P.parse("x1^", 2)
    with pytest.raises(ValueError, match="exponent after \\^ at position 3$"):
        P.parse("x1^-1", 2)
    with pytest.raises(ValueError, match="dangling \\* in term at position 3$"):
        P.parse("x1*-2", 2)


@pytest.mark.parametrize("text, message", [
    ("x1 $2", "syntax error at position 2: ' $2'"),
    ("x1 x2", "expected + or - at position 3"),
    ("2^3", "expected + or - at position 1"),
    ("x1 +", "dangling '+' at end of input"),
    ("*x1", "expected a term at position 0"),
    ("1/0*x1", "zero denominator at position 0"),
    ("x1 * ", "dangling * in term at position 5"),
    ("   ", "empty polynomial text"),
    ("x3", "unknown variable x3 at position 0 (dim=2)"),
    ("x1^", "expected integer exponent after ^ at position 3"),
    # digits are ASCII: int() would read these Arabic-Indic and fullwidth ones
    ("\u0663*x1", "syntax error at position 0: '\u0663*x1'"),
    ("\uff13*x1", "syntax error at position 0: '\uff13*x1'"),
    ("x\u0661", "syntax error at position 0: 'x\u0661'"),
    ("x1^\u0662", "syntax error at position 3: '\u0662'"),
    ("x1 + \u0662", "syntax error at position 4: ' \u0662'"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(ValueError) as err:
        P.parse(text, 2)
    assert str(err.value) == message


_LONG = "9" * 5000  # int() refuses more than 4300 digits by default


@pytest.mark.parametrize("text, at", [
    ("x2 - " + _LONG, 5),
    ("x2 - " + _LONG + "/7", 5),
    ("x2 - x1^" + _LONG, 8),
    ("x2 - x" + "1" * 5000, 5),
], ids=["number", "rational", "exponent", "variable"])
def test_parse_names_the_position_of_a_token_with_too_many_digits(text, at):
    with pytest.raises(ValueError) as err:
        P.parse(text, 2)
    assert str(err.value) == "too many digits at position %d" % at


def test_parse_accepts_leading_zeros_and_spaces_around_every_token():
    assert P.parse("x01 + 0/5", 2) == P.variable(2, 1)
    f = P.parse(" - 2 * x1 ^ 3 + 4/6", 2)
    assert f == P.monomial(2, (3, 0), -2) + Fraction(2, 3)
    assert f.render() == "-2*x1^3 + 2/3"


def test_exponents_stop_below_2_to_the_31():
    top = 2 ** 31 - 1
    assert P.parse("x1^%d" % top, 2) == P(2, {(top, 0): 1}) == P.monomial(2, (top, 0))
    assert P.parse("x1^%d" % top, 2).terms == {(top, 0): 1}
    for text, at in (("x1^%d" % (top + 1), 3), ("x2 - x1^%d*x1" % top, 19), ("x1^%d" % 2 ** 64, 3)):
        with pytest.raises(ValueError) as err:
            P.parse(text, 2)
        assert str(err.value) == "exponent of x1 reaches 2^31 at position %d" % at
    for exps in ((top + 1, 0), (0, 2 ** 40)):
        with pytest.raises(ValueError):
            P(2, {exps: 1})
    # a product that reaches 2^31 in one variable is refused, and carries
    # into no other variable
    half = P.monomial(2, (2 ** 30, 0))
    with pytest.raises(ValueError):
        half * half
    assert (half * P.monomial(2, (0, 2 ** 30))).terms == {(2 ** 30, 2 ** 30): 1}
    assert P.monomial(2, (top, 0)).partial(1).terms == {(top - 1, 0): top}
    assert P.monomial(2, (top, 1)).derive((2, 1)).terms == {(top - 2, 0): top * (top - 1)}
    assert P.monomial(2, (top, 1)).derive((0, 2)).is_zero()


def test_derivative_orders_stop_below_2_to_the_31():
    top = 2 ** 31 - 1
    with pytest.raises(ValueError):
        PolyDiffOperator(2, 1, {((top + 1, 0),): 1})
    deep = PolyDiffOperator(2, 1, {((top, 0),): 1})
    assert deep.terms == {((top, 0),): 1}
    with pytest.raises(ValueError):  # d^top d_1 f, refused before I is split
        deep.insert(PolyDiffOperator(2, 1, {((1, 0),): 1}), 1)
    with pytest.raises(ValueError):  # integrating d_1 off slot 1 puts it on slot 2
        PolyDiffOperator(2, 2, {((1, 0), (top, 0)): 1}).ibp_normal_form(VolumeForm.constant(2))


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
    b = P(2, {(1, 0): Fraction(3)})
    assert a == b and hash(a) == hash(b)
    assert a.render() == b.render() == "3*x1"
    z = ((0, 0),)
    assert PolyDiffOperator(2, 1, {z: a}).render() == PolyDiffOperator(2, 1, {z: b}).render()


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


# -- arithmetic against a plain {exponents: Fraction} reference ---------------

def ref_clean(terms):
    return {e: Fraction(c) for e, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return ref_clean(out)


def ref_derive(a, multi_index):
    out = {}
    for e, c in a.items():
        for x, k in zip(e, multi_index):
            for j in range(k):
                c *= x - j  # a zero factor when k > x
        out[tuple(x - k for x, k in zip(e, multi_index))] = c
    return ref_clean(out)


def ref_polys(dim):
    exps = st.tuples(*[st.integers(0, 3)] * dim)
    coeff = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.dictionaries(exps, coeff, max_size=5).map(ref_clean)


def assert_matches(r, ref, dim):
    """r is the reference polynomial ref, through every public view."""
    assert r.dim == dim and r.terms == ref
    for c in r.terms.values():
        assert_canonical(c)
    with pytest.raises(TypeError):
        r.terms[(0,) * dim] = 1
    built = P(dim, ref)
    assert r == built and hash(r) == hash(built) and r.render() == built.render()
    assert P.parse(r.render(), dim) == r
    one = (0,) * dim
    value = ref.get(one, Fraction(0))
    constant = set(ref) <= {one}
    for v in (value, value.numerator) if value.denominator == 1 else (value,):
        assert (r == v) is constant and (v == r) is constant
        if constant:
            assert hash(r) == hash(v)


def assert_stored(r):
    """r keeps the storage contract: nonzero int numerators over one
    positive denominator, in lowest terms."""
    assert all(type(v) is int and v != 0 for v in r._num.values())
    assert r._den >= 1 and gcd(r._den, *r._num.values()) == 1


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_arithmetic_matches_a_fraction_reference(data):
    dim = data.draw(st.integers(1, 3))
    fa, ga, ha = (data.draw(ref_polys(dim)) for _ in range(3))
    k = data.draw(st.integers(-3, 3))
    q = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=6))
    multi_index = data.draw(st.tuples(*[st.integers(0, 2)] * dim))
    axis = data.draw(st.integers(1, dim))
    f, g, h = P(dim, fa), P(dim, ga), P(dim, ha)
    integral = {e: c.numerator for e, c in ha.items()}
    one = (0,) * dim
    cases = [
        (f, fa), (f + g, ref_add(fa, ga)), (f - g, ref_add(fa, ga, -1)), (-f, ref_add({}, fa, -1)),
        (f * g, ref_mul(fa, ga)), (f * g + h, ref_add(ref_mul(fa, ga), ha)),
        (f * k, ref_mul(fa, {one: k})), (k * f, ref_mul(fa, {one: k})),
        (f * q, ref_mul(fa, {one: q})), (q * f, ref_mul(fa, {one: q})),
        (f + k, ref_add(fa, {one: k})), (k - f, ref_add({one: k}, fa, -1)),
        (f + q, ref_add(fa, {one: q})), (q - f, ref_add({one: q}, fa, -1)),
        (f.partial(axis), ref_derive(fa, tuple(int(a == axis - 1) for a in range(dim)))),
        (f.derive(multi_index), ref_derive(fa, multi_index)),
        # sums whose denominators cancel: to zero, to an integer, to an integral polynomial
        (f - f, {}), (f + (-f), {}), (g * q - q * g, {}),
        ((f + k) - f, ref_clean({one: k})), ((f + q) - (f - q), ref_clean({one: 2 * q})),
        ((f + P(dim, integral)) - f, ref_clean(integral)),
        (f * q * (1 / q if q else 0), fa if q else {}),
    ]
    for r, ref in cases:
        assert_matches(r, ref, dim)
        assert_stored(r)


# -- operators and multivectors ---------------------------------------------

def _so3_vector():
    return PolyVector(3, 1, {(1, 2): P.parse("x3", 3), (1, 3): P.parse("-1/2*x2", 3),
                             (2, 3): P.parse("x1", 3)})


_VOL2, _VOL3 = VolumeForm.constant(2), VolumeForm.constant(3)
_M2 = PolyDiffOperator.multiplication(2)

# each refusal of the operator and multivector classes, with its exact message
REFUSALS = {
    "op dim": (lambda: PolyDiffOperator(0, 1), "dim must be >= 1"),
    "op arity": (lambda: PolyDiffOperator(2, -1), "arity must be >= 0"),
    "op key slots": (lambda: PolyDiffOperator(2, 1, {((0, 0), (0, 0)): 1}),
                     "term key ((0, 0), (0, 0)) has 2 slots, expected 1"),
    "op multi-index length": (lambda: PolyDiffOperator(2, 1, {((0, 0, 0),): 1}),
                              "bad multi-index (0, 0, 0) for dim 2"),
    "op multi-index sign": (lambda: PolyDiffOperator(2, 1, {((0, -1),): 1}),
                            "bad multi-index (0, -1) for dim 2"),
    "op coefficient dim": (lambda: PolyDiffOperator(2, 1, {((0, 0),): P.one(3)}),
                           "coefficient dim mismatch"),
    "op sum arity": (lambda: _M2 + PolyDiffOperator.zero(2, 1), "dim/arity mismatch in operator sum"),
    "op sum dim": (lambda: _M2 - PolyDiffOperator.multiplication(3), "dim/arity mismatch in operator sum"),
    "op scalar dim": (lambda: _M2 * P.one(3), "dimension mismatch: 2 vs 3"),
    "op argument count": (lambda: _M2.apply((P.one(2),)), "expected 2 arguments, got 1"),
    "op argument dim": (lambda: _M2.apply((P.one(2), P.one(3))), "argument dim mismatch"),
    "op ibp arity": (lambda: PolyDiffOperator(2, 0, {(): 1}).ibp_normal_form(_VOL2),
                     "ibp_normal_form needs arity >= 1"),
    "op ibp dim": (lambda: _M2.ibp_normal_form(_VOL3), "dimension mismatch with volume form"),
    "op insert dim": (lambda: _M2.insert(PolyDiffOperator.multiplication(3), 1), "dimension mismatch"),
    "op insert slot": (lambda: _M2.insert(_M2, 3), "slot out of range"),
    "op cyclic arity": (lambda: PolyDiffOperator(2, 0, {(): 1}).cyclic_shift(_VOL2),
                        "cyclic_shift needs arity >= 1"),
    "op cyclic dim": (lambda: _M2.cyclic_shift(_VOL3), "dimension mismatch with volume form"),
    "vector dim": (lambda: PolyVector(0, 1), "dim must be >= 1"),
    "vector degree": (lambda: PolyVector(2, -2), "degree must be >= -1"),
    "vector key arity": (lambda: PolyVector(2, 1, {(1,): 1}), "key (1,) has arity 1, expected 2"),
    "vector key axis": (lambda: PolyVector(2, 1, {(1, 3): 1}), "axis out of range in key (1, 3) (dim=2)"),
    "vector component dim": (lambda: PolyVector(2, 0, {(1,): P.one(3)}), "component polynomial dim 3 != 2"),
    "vector sum dim": (lambda: _so3_vector() + PolyVector(2, 1, {(1, 2): 1}), "dimension mismatch: 3 vs 2"),
    "vector sum degree": (lambda: _so3_vector() - PolyVector(3, 0, {(1,): 1}), "degree mismatch: 1 vs 0"),
    "vector scalar dim": (lambda: _so3_vector() * P.one(2), "dimension mismatch: 3 vs 2"),
    "vector bracket of functions": (lambda: PolyVector(2, -1, {(): 1}).schouten(PolyVector(2, -1, {(): 1})),
                                    "degree must be >= -1"),
    "vector divergence dim": (lambda: _so3_vector().divergence(_VOL2), "dimension mismatch with volume form"),
    "vector divergence degree": (lambda: PolyVector(3, -1, {(): 1}).divergence(_VOL3),
                                 "divergence of a function (degree -1) is undefined"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_operator_and_multivector_refusals_keep_their_messages(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError) as refusal:
        call()
    assert str(refusal.value) == message


def test_operators_and_multivectors_are_read_only_values():
    pi, m = _so3_vector(), PolyDiffOperator.multiplication(3)
    hashes = hash(pi), hash(m)
    for view, key in ((pi.components, (1, 2)), (m.terms, ((0, 0, 0), (0, 0, 0)))):
        with pytest.raises(TypeError):
            view[key] = P.variable(3, 1)
        with pytest.raises(TypeError):
            del view[key]
        with pytest.raises(AttributeError):  # a read-only view has no clear()
            view.clear()
    assert pi == _so3_vector() and m == PolyDiffOperator.multiplication(3)
    assert (hash(pi), hash(m)) == hashes and not m.is_zero()
    # equal values built two ways hash alike and dedupe in a set
    a = PolyDiffOperator(3, 1, {((1, 0, 0),): P.parse("1/2*x1", 3)})
    b = PolyDiffOperator(3, 1, {((1, 0, 0),): P.parse("1/3*x2", 3), ((0, 0, 1),): Fraction(2, 3)})
    both = PolyDiffOperator(3, 1, {((1, 0, 0),): P.parse("1/2*x1 + 1/3*x2", 3),
                                   ((0, 0, 1),): Fraction(2, 3)})
    assert a + b == both and hash(a + b) == hash(both) and len({a + b, both}) == 1
    assert (both - b) * 2 == a * 2 and hash((both - b) * 2) == hash(a * 2)
    assert len({pi, pi + PolyVector.zero(3, 1), PolyVector(3, 1, dict(pi.components))}) == 1
