"""Multidifferential operators: IBP adjoints, cyclic shift, Hochschild calculus."""

import random
from fractions import Fraction

import pytest

from starcycle import Polynomial, PolyDiffOperator, PolyVector, VolumeForm

P = Polynomial
D = PolyDiffOperator


def random_operator(dim, arity, rng, n_terms=3):
    terms = {}
    for _ in range(n_terms):
        key = tuple(
            tuple(rng.randint(0, 1) for _ in range(dim)) for _ in range(arity)
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
    ident = D.identity(2)
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
        xi = PolyVector.vector(dim, comps)
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
    assert m.is_cyclic(vol)
    # the skew first-order bidifferential operator of a constant bivector
    b1 = D(2, 2, {
        ((1, 0), (0, 1)): P.constant(2, Fraction(1, 2)),
        ((0, 1), (1, 0)): P.constant(2, Fraction(-1, 2)),
    })
    assert b1.is_cyclic(vol)
    x1d1 = D(2, 1, {((1, 0),): P.variable(2, 1)})
    assert not x1d1.is_cyclic(vol)


def test_cyclic_projector():
    rng = random.Random(3)
    for volp in (None, P.variable(2, 1)):
        vol = VolumeForm(2, volp) if volp else VolumeForm.constant(2)
        for arity in (1, 2, 3):
            psi = random_operator(2, arity, rng)
            pr = psi.cyclic_projector(vol)
            assert pr.is_cyclic(vol)
            assert (pr.cyclic_projector(vol) - pr).is_zero()
            if psi.is_cyclic(vol):
                assert (pr - psi).is_zero()


def test_hochschild_differential_examples():
    ident = D.identity(2)
    m = D.multiplication(2)
    assert (ident.hochschild_differential() - m).is_zero()
    assert m.hochschild_differential().is_zero()


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
        assert (psi.hochschild_differential() - m.gerstenhaber(psi) * sign).is_zero()


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
    lie = PolyVector.vector(2, comps1).schouten(PolyVector.vector(2, comps2))
    expected = vecop(2, [lie.coefficient((1,)), lie.coefficient((2,))])
    assert (A.gerstenhaber(B) - expected).is_zero()


def test_gerstenhaber_graded_antisymmetry():
    rng = random.Random(6)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            A = random_operator(2, a, rng)
            B = random_operator(2, b, rng)
            sign = (-1) ** ((a - 1) * (b - 1))
            assert (A.gerstenhaber(B) + B.gerstenhaber(A) * sign).is_zero()


def test_cyclic_cochains_closed_under_d_and_bracket():
    # bracket pairs kept at combined arity <= 4: the bracket of two k-ary
    # cochains is (2k-1)-ary and the cyclicity check grows factorially
    rng = random.Random(7)
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]
    for volp in (None, P.variable(2, 1)):
        vol = VolumeForm(2, volp) if volp else VolumeForm.constant(2)
        for i in range(10):
            phi = random_operator(2, rng.randint(1, 3), rng).cyclic_projector(vol)
            assert phi.hochschild_differential().is_cyclic(vol)
        for a, b in pairs * 2:
            phi = random_operator(2, a, rng).cyclic_projector(vol)
            psi = random_operator(2, b, rng).cyclic_projector(vol)
            assert phi.gerstenhaber(psi).is_cyclic(vol)


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


def ibp_by_min_key(op, vol):
    """The reference: step the least remaining key until none has a
    derivative on slot 1."""
    rho = vol.log_density
    work, done = dict(op.terms), {}
    while work:
        key = min(work)
        c = work.pop(key)
        if sum(key[0]) == 0:
            done[key[1:]] = done.get(key[1:], P.zero(op.dim)) + c
            continue
        a = next(ax for ax in range(op.dim) if key[0][ax] > 0)
        i1m = tuple(e - (ax == a) for ax, e in enumerate(key[0]))
        spills = [(i1m,) + key[1:], -(c.partial(a + 1) + c * rho.partial(a + 1))]
        for j in range(1, len(key)):
            ij = tuple(e + (ax == a) for ax, e in enumerate(key[j]))
            spills += [(i1m,) + key[1:j] + (ij,) + key[j + 1:], -c]
        for k, v in zip(spills[::2], spills[1::2]):
            work[k] = work.get(k, P.zero(op.dim)) + v
    return D(op.dim, op.arity - 1, done)


@pytest.mark.parametrize("volp", [None, "x1 - 2*x2^2 + 1/3*x1*x2"])
def test_ibp_by_levels_equals_min_key_loop(volp):
    rng = random.Random(11)
    vol = VolumeForm(2, P.parse(volp, 2)) if volp else VolumeForm.constant(2)
    for arity in (1, 2, 3):
        for _ in range(12):
            op = random_operator(2, arity, rng, n_terms=6)
            op = op.insert(random_operator(2, 1, rng), 1)  # second derivatives on slot 1
            assert op.ibp_normal_form(vol).render() == ibp_by_min_key(op, vol).render()
