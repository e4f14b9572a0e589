"""Polyvector fields: wedge, Schouten bracket, divergence, Poisson checks."""

import itertools
import random
from fractions import Fraction

import pytest

import operator_oracle
from operator_oracle import vector
from starcycle import Polynomial, PolyDiffOperator, PolyVector, VolumeForm

P = Polynomial


def so3_bivector():
    return PolyVector(3, 1, {
        (1, 2): P.parse("x3", 3),
        (1, 3): P.parse("-x2", 3),
        (2, 3): P.parse("x1", 3),
    })


def moyal_bivector():
    return PolyVector(2, 1, {(1, 2): P.one(2)})


def random_poly(dim, rng, max_exp=1, n_terms=3):
    out = P.zero(dim)
    for _ in range(n_terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(dim))
        out = out + P.monomial(dim, exps, Fraction(rng.randint(-3, 3)))
    return out


def random_polyvector(dim, degree, rng):
    comps = {}
    for idx in itertools.combinations(range(1, dim + 1), degree + 1):
        comps[idx] = random_poly(dim, rng)
    return PolyVector(dim, degree, comps)


def poisson_bracket(pi, f, g):
    out = P.zero(pi.dim)
    for i in range(1, pi.dim + 1):
        for j in range(1, pi.dim + 1):
            c = pi.coefficient((i, j))
            if not c.is_zero():
                out = out + c * f.partial(i) * g.partial(j)
    return out


def test_constructors_and_validation():
    v = vector(2, [P.one(2), P.variable(2, 1)])
    assert v.degree == 0 and v.arity == 1
    b = moyal_bivector()
    assert b.degree == 1 and b.arity == 2
    with pytest.raises(ValueError):
        PolyVector(2, 1, {(1, 2, 3): P.one(2)})
    with pytest.raises(ValueError):
        PolyVector(2, 1, {(1, 3): P.one(2)})
    # keys are normalized: repeated axes vanish, decreasing keys flip sign
    assert PolyVector(2, 1, {(1, 1): P.one(2)}).is_zero()
    flipped = PolyVector(2, 1, {(2, 1): P.one(2)})
    assert flipped.coefficient((1, 2)).render() == "-1"


def test_scaling_by_a_polynomial_of_another_dimension_is_refused():
    # a zero left side used to be accepted, a nonzero one refused
    for left in (PolyVector.zero(2, 1), moyal_bivector(),
                 PolyDiffOperator.zero(2, 1), PolyDiffOperator.multiplication(2)):
        for scale in (lambda: left * P.one(3), lambda: P.one(3) * left):
            with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):
                scale()
        assert left * P.one(2) == left


def test_coefficient_skew():
    b = so3_bivector()
    assert b.coefficient((1, 2)).render() == "x3"
    assert b.coefficient((2, 1)).render() == "-x3"
    assert b.coefficient((1, 1)).is_zero()
    f = PolyVector(2, -1, {(): P.variable(2, 1)})
    assert f.coefficient(()).render() == "x1"


def test_wedge():
    d1 = vector(2, [P.one(2), P.zero(2)])
    d2 = vector(2, [P.zero(2), P.one(2)])
    assert d1.wedge(d2).components == {(1, 2): P.one(2)}
    assert d1.wedge(d1).is_zero()
    x2d1 = vector(2, [P.variable(2, 2), P.zero(2)])
    x1d2 = vector(2, [P.zero(2), P.variable(2, 1)])
    assert x2d1.wedge(x1d2).components == {(1, 2): P.parse("x1*x2", 2)}


def test_schouten_vector_fields():
    # on vector fields the bracket is the Lie bracket
    d1 = vector(2, [P.one(2), P.zero(2)])
    x1d2 = vector(2, [P.zero(2), P.variable(2, 1)])
    assert d1.schouten(x1d2).components == {(2,): P.one(2)}


def test_schouten_with_a_function():
    # a function is a degree -1 polyvector with the one key ()
    f = PolyVector(2, -1, {(): P.parse("x1^2*x2", 2)})
    g = PolyVector(2, -1, {(): P.variable(2, 2)})
    X = vector(2, [P.variable(2, 2), P.constant(2, 3)])  # x2 d1 + 3 d2
    Xf = X.schouten(f)
    assert Xf.degree == -1
    assert Xf.coefficient(()).render() == "2*x1*x2^2 + 3*x1^2"
    assert f.schouten(X) == -Xf
    # with this sign convention, [[pi, f], g] = -pi^{ij} d_i f d_j g
    pi = PolyVector(2, 1, {(1, 2): P.variable(2, 1)})
    pfg = pi.schouten(f).schouten(g)
    assert pfg.degree == -1
    assert pfg.coefficient(()).render() == "-2*x1^2*x2"
    assert pfg.coefficient(()) == -poisson_bracket(pi, f.coefficient(()), g.coefficient(()))
    square = moyal_bivector().schouten(moyal_bivector())
    assert square.is_zero() and square.degree == 2


def test_schouten_poisson_squares():
    const = PolyVector(2, 1, {(1, 2): P.constant(2, 3)})
    assert const.schouten(const).is_zero()
    assert so3_bivector().schouten(so3_bivector()).is_zero()


def test_schouten_graded_antisymmetry():
    rng = random.Random(0)
    for _ in range(10):
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        A = random_polyvector(3, a, rng)
        B = random_polyvector(3, b, rng)
        assert (A.schouten(B) + B.schouten(A) * ((-1) ** (a * b))).is_zero()


def test_schouten_graded_jacobi():
    rng = random.Random(1)
    for _ in range(6):
        a, b, c = (rng.randint(0, 1) for _ in range(3))
        A = random_polyvector(3, a, rng)
        B = random_polyvector(3, b, rng)
        C = random_polyvector(3, c, rng)
        s1 = (-1) ** (a * c)
        s2 = (-1) ** (b * a)
        s3 = (-1) ** (c * b)
        total = (
            A.schouten(B.schouten(C)) * s1
            + B.schouten(C.schouten(A)) * s2
            + C.schouten(A.schouten(B)) * s3
        )
        assert total.is_zero()


def test_divergence_examples():
    vol = VolumeForm.constant(2)
    xpi = PolyVector(2, 1, {(1, 2): P.variable(2, 1)})
    assert xpi.divergence(vol).components == {(2,): P.one(2)}
    assert so3_bivector().divergence(VolumeForm.constant(3)).is_zero()
    d1 = vector(2, [P.one(2), P.zero(2)])
    weighted = VolumeForm(2, P.variable(2, 1))
    assert d1.divergence(weighted).coefficient(()).render() == "1"
    with pytest.raises(ValueError):
        PolyVector(2, -1, {(): P.one(2)}).divergence(vol)


def test_divergence_squared_zero():
    rng = random.Random(2)
    for trial in range(12):
        dim = rng.randint(2, 4)
        degree = rng.randint(1, min(2, dim - 1))
        A = random_polyvector(dim, degree, rng)
        vol = (
            VolumeForm(dim, random_poly(dim, rng))
            if trial % 2
            else VolumeForm.constant(dim)
        )
        assert A.divergence(vol).divergence(vol).is_zero()


def test_divergence_of_bracket():
    # div[A,B] = [div A, B] + (-1)^deg(A) [A, div B]
    rng = random.Random(3)
    for trial in range(12):
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        A = random_polyvector(3, a, rng)
        B = random_polyvector(3, b, rng)
        vol = (
            VolumeForm(3, random_poly(3, rng))
            if trial % 2
            else VolumeForm.constant(3)
        )
        lhs = A.schouten(B).divergence(vol)
        rhs = A.divergence(vol).schouten(B) + A.schouten(
            B.divergence(vol)
        ) * ((-1) ** a)
        assert (lhs - rhs).is_zero()


def test_divergence_of_wedge():
    # div(A^B) = div A ^ B + (-1)^(deg A + 1) A ^ div B + (-1)^deg A [A,B]
    rng = random.Random(4)
    for trial in range(12):
        a, b = rng.randint(0, 1), rng.randint(0, 1)
        A = random_polyvector(4, a, rng)
        B = random_polyvector(4, b, rng)
        vol = (
            VolumeForm(4, random_poly(4, rng))
            if trial % 2
            else VolumeForm.constant(4)
        )
        lhs = A.wedge(B).divergence(vol)
        rhs = (
            A.divergence(vol).wedge(B)
            + A.wedge(B.divergence(vol)) * ((-1) ** (a + 1))
            + A.schouten(B) * ((-1) ** a)
        )
        assert (lhs - rhs).is_zero()


def test_is_poisson():
    bad = PolyVector(4, 1, {
        (1, 2): P.variable(4, 1),
        (3, 4): P.one(4),
        (1, 3): P.variable(4, 3),
    })
    assert not bad.schouten(bad).is_zero()


def test_poisson_square_matches_jacobiator():
    # [pi,pi] acting on three exact differentials is twice the Jacobiator
    rng = random.Random(5)
    for _ in range(6):
        pi = PolyVector(3, 1, {
            (1, 2): random_poly(3, rng),
            (1, 3): random_poly(3, rng),
            (2, 3): random_poly(3, rng),
        })
        J = pi.schouten(pi)
        f, g, h = (random_poly(3, rng) for _ in range(3))
        jac = (
            poisson_bracket(pi, f, poisson_bracket(pi, g, h))
            + poisson_bracket(pi, g, poisson_bracket(pi, h, f))
            + poisson_bracket(pi, h, poisson_bracket(pi, f, g))
        )
        act = P.zero(3)
        for idx in itertools.product(range(1, 4), repeat=3):
            c = J.coefficient(idx)
            if not c.is_zero():
                act = act + c * f.partial(idx[0]) * g.partial(idx[1]) * h.partial(idx[2])
        assert (act - jac * 2).is_zero()


def test_volume_form():
    vol = VolumeForm.constant(3)
    assert vol.log_density.is_zero()
    weighted = VolumeForm(2, P.variable(2, 1))
    assert VolumeForm.from_json({"dim": 2, "log_density": "x1"}) == weighted
    # a value: equal forms hash alike
    assert len({weighted, VolumeForm(2, P.parse("x1", 2)), VolumeForm.constant(2)}) == 2
    assert weighted != VolumeForm(3, P.variable(3, 1)) and weighted != P.variable(2, 1)
    # a float or a boolean is refused, not truncated
    for dim in (2.9, 2.0, True, "2"):
        with pytest.raises(ValueError, match="dim must be an integer"):
            VolumeForm.from_json({"dim": dim, "log_density": "x1"})


def test_from_json():
    for obj, pv in (
        ({"dim": 3, "degree": 1, "components": {"1,2": "x3", "1,3": "-x2", "2,3": "x1"}},
         so3_bivector()),
        ({"dim": 2, "degree": 1, "components": {"1,2": "1"}}, moyal_bivector()),
        ({"dim": 2, "degree": 0, "components": {"1": "x1*x2"}},
         vector(2, [P.parse("x1*x2", 2), P.zero(2)])),
        ({"dim": 3, "degree": 2, "components": {}}, PolyVector.zero(3, 2)),
        ({"dim": 2, "degree": -1, "components": {"": "x1"}}, PolyVector(2, -1, {(): P.variable(2, 1)})),
        ({"dim": 12, "degree": 1, "components": {"2,10": "x11"}},
         PolyVector(12, 1, {(2, 10): P.variable(12, 11)})),
    ):
        back = PolyVector.from_json(obj)
        assert (back.dim, back.degree, back.components) == (pv.dim, pv.degree, pv.components)
    # the constructor folds a decreasing key by sign; a file may not use one
    for comps in ({"2,1": "1"}, {"1,2": "1", "2,1": "-1"}, {"1,1": "1"}, {"1,2": "1", "01,2": "1"}):
        with pytest.raises(ValueError, match="axes must increase"):
            PolyVector.from_json({"dim": 2, "degree": 1, "components": comps})
    # a key is its ASCII axes joined by single commas, and nothing else
    for key in (" 1,+2", "01,2", "1, 2", "\u0661,\u0662", "1,,2", "1,2,", ",1,2", "+1,2", "1_0,2", "0,1"):
        with pytest.raises(ValueError, match='axes must increase, written as in "1,2"'):
            PolyVector.from_json({"dim": 2, "degree": 1, "components": {key: "x1"}})
    # a float or a boolean is refused, not truncated
    for name, bad in (("dim", 2.9), ("dim", 2.0), ("dim", True), ("dim", "2"),
                      ("degree", 1.7), ("degree", False)):
        obj = dict({"dim": 2, "degree": 1, "components": {"1,2": "x1"}}, **{name: bad})
        with pytest.raises(ValueError, match="%s must be an integer" % name):
            PolyVector.from_json(obj)


def test_zero_polyvector():
    z = PolyVector.zero(3, 1)
    assert z.is_zero()
    assert z.schouten(so3_bivector()).is_zero()
    assert z.wedge(so3_bivector()).is_zero()


def test_hash_agrees_with_equality_on_zero_polyvectors():
    # zero multivectors of different degree are equal, so they must hash alike
    assert PolyVector.zero(3, 0) == PolyVector.zero(3, 1)
    assert PolyVector.zero(3, 1) in {PolyVector.zero(3, 0)}
    assert so3_bivector() in {PolyVector(3, 1, dict(so3_bivector().components))}
    assert so3_bivector() not in {PolyVector.zero(3, 1)}


def mixed_multivector(dim, arity, rng):
    """A random arity-vector with coefficients p/q over mixed denominators
    q, x_i^2/2 among them; some components are zero, and so is every
    multivector above top degree."""
    keys = list(itertools.combinations(range(1, dim + 1), arity))
    comps = {}
    for key in rng.sample(keys, rng.randint(0, len(keys))):
        i = rng.randrange(dim)
        p = P.monomial(dim, tuple(2 * (a == i) for a in range(dim)), Fraction(1, 2))
        for _ in range(rng.randint(0, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(dim))
            p = p + P.monomial(dim, exps, Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))))
        comps[key] = p if rng.random() < 0.8 else P.zero(dim)
    return PolyVector(dim, arity - 1, comps)


def test_int_numerator_bracket_and_wedge_equal_the_polynomial_oracle():
    # both sides over their lcm denominators, summed as int numerators in one
    # table, against one Polynomial sum per term
    rng = random.Random(35)
    nonzero = 0
    for dim in (1, 2, 3, 4):
        for arity_a, arity_b in itertools.product(range(4), repeat=2):
            for _ in range(6):
                a, b = mixed_multivector(dim, arity_a, rng), mixed_multivector(dim, arity_b, rng)
                pairs = [(a.wedge(b), operator_oracle.wedge(a, b))]
                if arity_a + arity_b:
                    pairs.append((a.schouten(b), operator_oracle.schouten(a, b)))
                else:  # the bracket of two functions would have degree -2
                    with pytest.raises(ValueError, match="degree must be >= -1"):
                        a.schouten(b)
                for got, want in pairs:
                    assert got == want and got.degree == want.degree
                    assert got.render() == want.render()
                    nonzero += not got.is_zero()
    assert nonzero >= 100
