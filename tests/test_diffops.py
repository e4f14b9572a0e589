"""Multidifferential operators: IBP adjoints, cyclic shift, Hochschild calculus."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import operator_oracle
from operator_oracle import cyclic_projector, gauss_integral, gerstenhaber, ibp_by_min_key, is_cyclic, vector
from starcycle import Polynomial, PolyDiffOperator, VolumeForm
from starcycle.diffops import _cyclic_residual, _leibniz
from starcycle.poly import _pack, _unpack

P = Polynomial
D = PolyDiffOperator


def random_operator(dim, arity, rng, n_terms=3, order=1):
    terms = {}
    for _ in range(n_terms):
        key = tuple(
            tuple(rng.randint(0, order) for _ in range(dim)) for _ in range(arity)
        )
        exps = tuple(rng.randint(0, 1) for _ in range(dim))
        terms[key] = terms.get(key, P.zero(dim)) + P.monomial(
            dim, exps, Fraction(rng.randint(-2, 2))
        )
    return D(dim, arity, {k: v for k, v in terms.items() if not v.is_zero()})


def test_apply():
    op = D(2, 2, {((1, 0), (0, 1)): P.one(2)})
    f = P.parse("x1^2", 2)
    g = P.parse("x2", 2)
    assert op.apply((f, g)).render() == "2*x1"
    m = D.multiplication(2)
    assert m.apply((f, g)) == f * g
    ident = D(2, 1, {((0, 0),): P.one(2)})
    assert ident.apply((f,)) == f
    with pytest.raises(ValueError):
        op.apply((f,))


def test_arity_zero():
    c = D(2, 0, {(): P.parse("x1*x2", 2)})
    assert c.apply(()) == P.parse("x1*x2", 2)
    assert c.arity == 0


def test_linearity_and_module_structure():
    rng = random.Random(0)
    A = random_operator(2, 2, rng)
    B = random_operator(2, 2, rng)
    f = P.parse("x1 + x2^2", 2)
    g = P.parse("x1*x2", 2)
    assert (A + B).apply((f, g)) == A.apply((f, g)) + B.apply((f, g))
    assert (A * Fraction(1, 3)).apply((f, g)) == A.apply((f, g)) * Fraction(1, 3)
    assert (A - A).is_zero()


def test_ibp_normal_form_examples():
    vol = VolumeForm.constant(1)
    # D(f,g) = (d1 f) g  ->  E(g) = -d1 g
    B = D(1, 2, {((1,), (0,)): P.one(1)})
    assert B.ibp_normal_form(vol).render() == "(-1) D[1]"
    # D(f,g) = (x1 d1 f) g  ->  E(g) = -g - x1 d1 g
    B2 = D(1, 2, {((1,), (0,)): P.variable(1, 1)})
    assert B2.ibp_normal_form(vol).render() == "(-1) D[0] + (-x1) D[1]"
    # slot 1 untouched: D(f,g) = f (d1 g)  ->  E(g) = d1 g
    B3 = D(1, 2, {((0,), (1,)): P.one(1)})
    assert B3.ibp_normal_form(vol).render() == "(1) D[1]"
    # arity drops by one
    assert B.ibp_normal_form(vol).arity == 1


def test_ibp_kills_total_derivatives():
    # D(f,g) = d1(f g) integrates to zero against a constant volume
    vol = VolumeForm.constant(1)
    total = D(1, 2, {((1,), (0,)): P.one(1), ((0,), (1,)): P.one(1)})
    assert total.ibp_normal_form(vol).is_zero()


def test_ibp_vector_field_is_minus_divergence():
    rng = random.Random(1)
    for trial in range(8):
        dim = rng.randint(1, 3)
        comps = [
            P.monomial(dim, tuple(rng.randint(0, 1) for _ in range(dim)),
                       Fraction(rng.randint(-2, 2)))
            for _ in range(dim)
        ]
        vol = (
            VolumeForm(dim, P.variable(dim, 1))
            if trial % 2
            else VolumeForm.constant(dim)
        )
        terms = {}
        for i, c in enumerate(comps, start=1):
            if not c.is_zero():
                key = (tuple(1 if j == i - 1 else 0 for j in range(dim)),)
                terms[key] = terms.get(key, P.zero(dim)) + c
        op = D(dim, 1, terms)
        xi = vector(dim, comps)
        nf = op.ibp_normal_form(vol)
        expected = xi.divergence(vol).coefficient(()) * -1
        assert nf.apply(()) == expected


def test_cyclic_shift_examples():
    vol = VolumeForm.constant(1)
    d1 = D(1, 1, {((1,),): P.one(1)})
    assert d1.cyclic_shift(vol).render() == "(1) D[1]"
    x1d1 = D(1, 1, {((1,),): P.variable(1, 1)})
    assert x1d1.cyclic_shift(vol).render() == "(1) D[0] + (x1) D[1]"
    m = D.multiplication(1)
    assert (m.cyclic_shift(vol) - m).is_zero()


def test_cyclic_shift_power_is_identity():
    rng = random.Random(2)
    for volp in (None, P.variable(2, 1)):
        vol = VolumeForm(2, volp) if volp else VolumeForm.constant(2)
        for arity in (1, 2, 3, 4):
            psi = random_operator(2, arity, rng)
            c = psi
            for _ in range(arity + 1):
                c = c.cyclic_shift(vol)
            assert (c - psi).is_zero()


def test_is_cyclic():
    vol = VolumeForm.constant(2)
    m = D.multiplication(2)
    assert is_cyclic(m, vol)
    # the skew first-order bidifferential operator of a constant bivector
    b1 = D(2, 2, {
        ((1, 0), (0, 1)): P.constant(2, Fraction(1, 2)),
        ((0, 1), (1, 0)): P.constant(2, Fraction(-1, 2)),
    })
    assert is_cyclic(b1, vol)
    x1d1 = D(2, 1, {((1, 0),): P.variable(2, 1)})
    assert not is_cyclic(x1d1, vol)


def test_cyclic_projector():
    rng = random.Random(3)
    for volp in (None, P.variable(2, 1)):
        vol = VolumeForm(2, volp) if volp else VolumeForm.constant(2)
        for arity in (1, 2, 3):
            psi = random_operator(2, arity, rng)
            pr = cyclic_projector(psi, vol)
            assert is_cyclic(pr, vol)
            assert (cyclic_projector(pr, vol) - pr).is_zero()
            if is_cyclic(psi, vol):
                assert (pr - psi).is_zero()


def test_hochschild_differential_examples():
    ident = D(2, 1, {((0, 0),): P.one(2)})
    m = D.multiplication(2)
    assert (ident.hochschild_differential() - m).is_zero()
    assert m.hochschild_differential().is_zero()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_leibniz_yields_every_split_once_with_its_multinomial(dim):
    for a in itertools.product(range(3), repeat=dim):
        below = list(itertools.product(*[range(x + 1) for x in a]))
        for parts in range(4):
            # the package splits packed multi-indices; read back as tuples,
            # its splits are the oracle's, in the oracle's order
            got = [(tuple(_unpack(p, dim) for p in split), coeff)
                   for split, coeff in _leibniz(_pack(a), parts, dim)]
            assert got == list(operator_oracle._leibniz(a, parts))
            splits = [split for split, _ in got]
            assert len(splits) == len(set(splits))
            brute = {split for split in itertools.product(below, repeat=parts)
                     if all(sum(p[i] for p in split) == a[i] for i in range(dim))}
            assert set(splits) == brute
            for split, coeff in got:
                den = math.prod(math.factorial(e) for p in split for e in p)
                assert coeff == math.prod(math.factorial(x) for x in a) // den


def test_hochschild_differential_by_its_defining_formula():
    # (d psi)(f1..f_{k+1}) = f1 psi(f2..) + sum_i (-1)^i psi(..f_i f_{i+1}..)
    #                        + (-1)^{k+1} psi(f1..fk) f_{k+1}
    rng = random.Random(12)
    fs = [P.parse(t, 2) for t in ("x1^3*x2 + 2*x2^2", "x1*x2^3 - x1", "x1^2 + 3*x1*x2^2", "x2^2 - 5*x1")]
    for arity in range(4):
        for _ in range(6):
            psi = random_operator(2, arity, rng, n_terms=4, order=2)
            args = fs[:arity + 1]
            expected = args[0] * psi.apply(args[1:]) + (-1) ** (arity + 1) * psi.apply(args[:-1]) * args[-1]
            for i in range(1, arity + 1):
                merged = args[:i - 1] + [args[i - 1] * args[i]] + args[i + 1:]
                expected = expected + (-1) ** i * psi.apply(merged)
            assert psi.hochschild_differential().apply(args) == expected


def test_hochschild_squares_to_zero():
    rng = random.Random(4)
    for arity in (1, 2, 3):
        psi = random_operator(2, arity, rng)
        assert psi.hochschild_differential().hochschild_differential().is_zero()


def test_hochschild_vs_gerstenhaber_with_multiplication():
    # d(psi) = (-1)^(k-1) [m, psi] for k-ary psi
    rng = random.Random(5)
    m = D.multiplication(2)
    for arity in (1, 2, 3):
        psi = random_operator(2, arity, rng)
        sign = (-1) ** (arity - 1)
        assert (psi.hochschild_differential() - gerstenhaber(m, psi) * sign).is_zero()


def test_gerstenhaber_is_lie_bracket_on_vector_fields():
    def vecop(dim, comps):
        terms = {}
        for i, c in enumerate(comps, start=1):
            if not c.is_zero():
                key = (tuple(1 if j == i - 1 else 0 for j in range(dim)),)
                terms[key] = terms.get(key, P.zero(dim)) + c
        return D(dim, 1, terms)

    comps1 = [P.parse("x2", 2), P.zero(2)]
    comps2 = [P.zero(2), P.parse("x1*x2", 2)]
    A, B = vecop(2, comps1), vecop(2, comps2)
    lie = vector(2, comps1).schouten(vector(2, comps2))
    expected = vecop(2, [lie.coefficient((1,)), lie.coefficient((2,))])
    assert (gerstenhaber(A, B) - expected).is_zero()


def test_gerstenhaber_graded_antisymmetry():
    rng = random.Random(6)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            A = random_operator(2, a, rng)
            B = random_operator(2, b, rng)
            sign = (-1) ** ((a - 1) * (b - 1))
            assert (gerstenhaber(A, B) + gerstenhaber(B, A) * sign).is_zero()


def test_cyclic_cochains_closed_under_d_and_bracket():
    # bracket pairs kept at combined arity <= 4: the bracket of two k-ary
    # cochains is (2k-1)-ary and the cyclicity check grows factorially
    rng = random.Random(7)
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]
    for volp in (None, P.variable(2, 1)):
        vol = VolumeForm(2, volp) if volp else VolumeForm.constant(2)
        for i in range(10):
            phi = cyclic_projector(random_operator(2, rng.randint(1, 3), rng), vol)
            assert is_cyclic(phi.hochschild_differential(), vol)
        for a, b in pairs * 2:
            phi = cyclic_projector(random_operator(2, a, rng), vol)
            psi = cyclic_projector(random_operator(2, b, rng), vol)
            assert is_cyclic(gerstenhaber(phi, psi), vol)


def test_insert_composition():
    # insert B into slot 1 of A: A(B(f,g), h)
    A = D(1, 2, {((1,), (0,)): P.one(1)})
    B = D.multiplication(1)
    comp = A.insert(B, 1)
    f, g, h = P.parse("x1", 1), P.parse("x1^2", 1), P.parse("x1 + 1", 1)
    assert comp.apply((f, g, h)) == A.apply((B.apply((f, g)), h))
    comp2 = A.insert(B, 2)
    assert comp2.apply((f, g, h)) == A.apply((f, B.apply((g, h))))
    with pytest.raises(ValueError):
        A.insert(B, 3)


def test_insert_agrees_with_apply():
    # (A o_slot B)(f..) = A(.., B(..), ..) for inner arities 0, 1 and 2,
    # an inner arity 0 being a plain function
    rng = random.Random(11)
    fs = [P.parse(t, 2) for t in ("x1^3*x2 + 2*x2^2", "x1*x2^3 - x1", "x1^2 + 3*x1*x2^2")]
    for k2 in (0, 1, 2):
        for _ in range(5):
            A = random_operator(2, 2, rng).insert(random_operator(2, 1, rng), 1)
            B = random_operator(2, k2, rng)
            for slot in (1, 2):
                comp = A.insert(B, slot)
                args = fs[:comp.arity]
                inner = B.apply(args[slot - 1:slot - 1 + k2])
                assert comp.apply(args) == A.apply(args[:slot - 1] + [inner] + args[slot - 1 + k2:])


def test_extended_by_slot():
    b1 = D(2, 2, {((1, 0), (0, 1)): P.one(2)})
    ext = b1.extended_by_slot()
    assert ext.arity == 3
    f = P.parse("x1^2", 2)
    g = P.parse("x2", 2)
    h = P.parse("x1*x2", 2)
    assert ext.apply((f, g, h)) == b1.apply((f, g)) * h


def test_gauss_integral_moments():
    # int e^{-x^2} x^{2k} dx = (2k-1)!!/2^k sqrt(pi), and odd moments vanish
    assert [gauss_integral(P.monomial(1, (e,))) for e in range(7)] == [
        1, 0, Fraction(1, 2), 0, Fraction(3, 4), 0, Fraction(15, 8)]
    expected = 3 * Fraction(1, 2) * Fraction(3, 4) - Fraction(1, 2)
    assert gauss_integral(P.parse("3*x1^2*x2^4 - 1/2 + x1*x2^2", 2)) == expected


def test_integration_by_parts_as_gaussian_integrals():
    # int D(f1..fk) e^rho == int f1 E(f2..fk) e^rho for E = ibp_normal_form and
    # rho = -|x|^2, as exact numbers; E computed without the density term
    # (the constant volume form) must give a different number on some case
    rng = random.Random(22)
    missed = 0
    for dim in (1, 2, 3):
        gauss = VolumeForm(dim, P.parse(" ".join("- x%d^2" % i for i in range(1, dim + 1)), dim))
        for arity in (1, 2, 3):
            for _ in range(8):
                op = random_operator(dim, arity, rng, order=2)
                fs = [P(dim, {tuple(rng.randint(0, 2) for _ in range(dim)): rng.randint(-3, 3)
                              for _ in range(3)}) + 1 for _ in range(arity)]
                lhs = gauss_integral(op.apply(fs))
                assert lhs == gauss_integral(fs[0] * op.ibp_normal_form(gauss).apply(fs[1:]))
                flat = op.ibp_normal_form(VolumeForm.constant(dim))
                missed += lhs != gauss_integral(fs[0] * flat.apply(fs[1:]))
    assert missed


@pytest.mark.parametrize("volp", [None, "x1 - 2*x2^2 + 1/3*x1*x2"])
def test_ibp_by_levels_equals_min_key_loop(volp):
    rng = random.Random(11)
    vol = VolumeForm(2, P.parse(volp, 2)) if volp else VolumeForm.constant(2)
    for arity in (1, 2, 3):
        for _ in range(12):
            op = random_operator(2, arity, rng, n_terms=6)
            op = op.insert(random_operator(2, 1, rng), 1)  # second derivatives on slot 1
            assert op.ibp_normal_form(vol).render() == ibp_by_min_key(op, vol).render()


def rational_operator(dim, arity, rng, n_terms=5):
    """A random operator with coefficients p/q, q <= 6, and up to second
    derivatives on slot 1."""
    terms = {}
    for _ in range(n_terms):
        key = tuple(tuple(rng.randint(0, 2 - bool(s)) for _ in range(dim)) for s in range(arity))
        exps = tuple(rng.randint(0, 2) for _ in range(dim))
        c = P.monomial(dim, exps, Fraction(rng.randint(-6, 6), rng.randint(1, 6)))
        terms[key] = terms.get(key, P.zero(dim)) + c
    return D(dim, arity, terms)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ibp_with_a_rational_log_density_equals_min_key_loop(dim):
    # d rho has denominators 3 and 2, so each step scales the held numerators
    vol = VolumeForm(dim, P.parse("1/3*x1^2 - 1/2*x%d" % dim, dim))
    rng = random.Random(dim)
    for arity in (1, 2, 3):
        for _ in range(10):
            op = rational_operator(dim, arity, rng)
            nf = op.ibp_normal_form(vol)
            assert nf.render() == ibp_by_min_key(op, vol).render()
            sign = -1 if arity % 2 else 1
            assert op.cyclic_shift(vol) == sign * ibp_by_min_key(op.extended_by_slot(), vol)


def mixed_poly(dim, rng):
    """A polynomial with coefficients p/q over mixed denominators q, plus
    x_i^2/2, whose derivative d_i lowers the denominator."""
    i = rng.randrange(dim)
    p = P.monomial(dim, tuple(2 * (a == i) for a in range(dim)), Fraction(1, 2))
    for _ in range(rng.randint(0, 3)):
        exps = tuple(rng.randint(0, 2) for _ in range(dim))
        p = p + P.monomial(dim, exps, Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6))))
    return p


def mixed_operator(dim, arity, rng):
    """A random operator with mixed_poly coefficients and derivatives of
    order at most 2 on every slot."""
    def multi_index():
        while True:
            mi = tuple(rng.randint(0, 2) for _ in range(dim))
            if sum(mi) <= 2:
                return mi

    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(multi_index() for _ in range(arity))
        terms[key] = terms.get(key, P.zero(dim)) + mixed_poly(dim, rng)
    return D(dim, arity, terms)


def test_int_numerator_composition_equals_the_polynomial_oracle():
    # d, insert and apply sum int numerators over one denominator; the
    # oracle sums whole Polynomials.  Reading numerators off a derivative
    # that lowered its denominator would break the equality.
    rng = random.Random(34)
    count = 0
    for dim in (1, 2, 3):
        for arity in (0, 1, 2, 3):
            for _ in range(17):
                op = mixed_operator(dim, arity, rng)
                other = mixed_operator(dim, rng.randint(0, 3), rng)
                count += 2
                assert op.hochschild_differential() == operator_oracle.hochschild_differential(op)
                assert other.hochschild_differential() == operator_oracle.hochschild_differential(other)
                for slot in range(1, arity + 1):
                    assert op.insert(other, slot) == operator_oracle.insert(op, other, slot)
                args = [mixed_poly(dim, rng) for _ in range(arity)]
                assert op.apply(args) == operator_oracle.apply(op, args)
    assert count >= 400


def test_cyclic_residual_equals_the_polynomial_oracle():
    # C(B) - B summed in one numerator table, with the sign of C folded in,
    # against the difference of whole operators; the oracle's normal form
    # shares no code with the package's, so a dropped density term shows
    rng = random.Random(35)
    nonzero = 0
    for dim in (1, 2, 3):
        vols = [VolumeForm.constant(dim),
                VolumeForm(dim, P.parse(" ".join("- x%d^2" % i for i in range(1, dim + 1)), dim))]
        for arity in (1, 2, 3):
            for _ in range(6):
                op = mixed_operator(dim, arity, rng)
                for vol in vols + [VolumeForm(dim, mixed_poly(dim, rng))]:
                    shift = op.cyclic_shift(vol)
                    assert shift == operator_oracle.cyclic_shift(op, vol)
                    got = _cyclic_residual(op, vol)
                    assert got == operator_oracle.cyclic_residual(op, vol)
                    assert got.render() == (shift - op).render()
                    nonzero += not got.is_zero()
                    assert _cyclic_residual(cyclic_projector(op, vol), vol).is_zero()
    assert nonzero >= 120
