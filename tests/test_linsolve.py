"""starcycle._linsolve: sparse exact elimination against the dense one it
replaced, and the meaning of rank, consistency, values and nullspace."""

import importlib.util
import os
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from starcycle._linsolve import solve
from starcycle.diffops import PolyDiffOperator

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "derive_exact_weights.py")
F = Fraction


def dense_solve(rows, unknowns):
    """The dense Fraction Gauss-Jordan elimination that solve replaced:
    every row a list of width + 1 Fractions."""
    col = {g: j for j, g in enumerate(unknowns)}
    width = len(unknowns)
    pivots = {}
    consistent = True
    for _, row in rows:
        r = [Fraction(0)] * (width + 1)
        for g, c in row.items():
            r[width if g is None else col[g]] += c
        for j, p in pivots.items():
            if r[j]:
                f = r[j]
                r = [a - f * b for a, b in zip(r, p)]
        lead = next((j for j in range(width) if r[j]), None)
        if lead is None:
            consistent = consistent and not r[width]
            continue
        r = [a / r[lead] for a in r]
        for j, p in pivots.items():
            if p[lead]:
                f = p[lead]
                pivots[j] = [a - f * b for a, b in zip(p, r)]
        pivots[lead] = r
    values = {g: -pivots[j][width] if j in pivots else Fraction(0) for g, j in col.items()}
    null = {g: {h: Fraction(j == f) if j not in pivots else -pivots[j][f]
                for h, j in col.items()}
            for g, f in col.items() if f not in pivots}
    return len(pivots), consistent, values, null


def evaluate(row, x, constant=1):
    return sum(c * (constant if g is None else x[g]) for g, c in row.items())


def check_meaning(rows, unknowns, result):
    """values solve every row when consistent; each null vector solves the
    homogeneous rows, is 1 on its own free unknown and 0 on the others;
    rank + |free| is the number of unknowns; every entry is a Fraction."""
    rank, consistent, values, null = result
    assert list(values) == list(unknowns)
    assert rank + len(null) == len(unknowns)
    if consistent:
        assert not any(evaluate(row, values) for _, row in rows)
    for free, vec in null.items():
        assert list(vec) == list(unknowns)
        assert not any(evaluate(row, vec, constant=0) for _, row in rows)
        assert all(vec[g] == (g == free) for g in null)
        assert values[free] == 0
    assert all(type(c) is Fraction for v in [values, *null.values()] for c in v.values())


def same(a, b):
    """Equal results, with the same key order and the same Fractions."""
    assert a == b
    assert list(a[2]) == list(b[2]) and list(a[3]) == list(b[3])
    assert all(list(a[3][g]) == list(b[3][g]) for g in a[3])


def test_consistent_full_rank_system():
    rows = [("k", {"x": F(1), "y": F(1), None: F(-3)}),
            ("k", {"x": F(1), "y": F(-1), None: F(-1)}),
            ("k", {"x": F(2), None: F(-4)})]  # redundant
    result = solve(rows, ["x", "y"])
    assert result == (2, True, {"x": 2, "y": 1}, {})
    check_meaning(rows, ["x", "y"], result)


def test_inconsistent_system():
    rows = [("k", {"x": F(1), "y": F(1), None: F(-1)}),
            ("k", {"x": F(2), "y": F(2), None: F(-3)})]
    rank, consistent, values, null = result = solve(rows, ["x", "y"])
    assert (rank, consistent) == (1, False)
    assert null == {"y": {"x": -1, "y": 1}}
    check_meaning(rows, ["x", "y"], result)


def test_constant_only_rows():
    # a nonzero constant alone is 1 = 0; a zero constant is no equation
    assert solve([("k", {None: F(5)})], ["x"]) == (0, False, {"x": 0}, {"x": {"x": 1}})
    assert solve([("k", {None: F(0)}), ("k", {})], ["x"]) == (0, True, {"x": 0}, {"x": {"x": 1}})
    rows = [("k", {"x": F(3), None: F(-1)}), ("k", {None: F(1, 2)})]
    assert solve(rows, ["x"]) == (1, False, {"x": F(1, 3)}, {})


def test_free_unknowns_and_their_null_vectors():
    unknowns = ["a", "b", "c", "d"]
    rows = [("k", {"a": F(1), "b": F(2), "c": F(-1), None: F(-4)}),
            ("k", {"b": F(1), "d": F(1, 2)}),
            ("k", {"a": F(1), "b": F(3), "c": F(-1), "d": F(1, 2), None: F(-4)})]  # 1st + 2nd
    rank, consistent, values, null = result = solve(rows, unknowns)
    assert (rank, consistent) == (2, True)
    assert list(null) == ["c", "d"]
    assert values == {"a": 4, "b": 0, "c": 0, "d": 0}
    assert null["c"] == {"a": 1, "b": 0, "c": 1, "d": 0}
    assert null["d"] == {"a": 1, "b": F(-1, 2), "c": 0, "d": 1}
    check_meaning(rows, unknowns, result)


def test_int_rows_give_fraction_results():
    # polynomial coefficients reach solve as ints; elimination with integral
    # pivots and quotients must still return exact Fractions, never floats
    unknowns = ["x", "y", "z", "w"]
    rows = [("k", {"x": 2, "y": 4, None: -6}),
            ("k", {"x": 1, "y": 3, None: -4}),
            ("k", {"z": 3, "w": 6}),
            ("k", {"x": 4, "y": 6, None: -10})]  # 3 * 1st - 2 * 2nd
    rank, consistent, values, null = result = solve(rows, unknowns)
    assert (rank, consistent) == (3, True)
    assert values == {"x": 1, "y": 1, "z": 0, "w": 0}
    assert null == {"w": {"x": 0, "y": 0, "z": -2, "w": 1}}
    check_meaning(rows, unknowns, result)


def test_pivot_is_the_first_unknown_in_the_given_order():
    rows = [("k", {"x": F(1), "y": F(1)})]
    assert list(solve(rows, ["x", "y"])[3]) == ["y"]
    assert list(solve(rows, ["y", "x"])[3]) == ["x"]


def test_agrees_with_dense_solve_on_the_order_2_rows():
    spec = importlib.util.spec_from_file_location("derive_exact_weights", SCRIPT)
    derive = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(derive)
    assert derive.solve is solve
    lower = {name: [PolyDiffOperator.multiplication(pi.dim), derive.b1_pattern(pi)]
             for name, pi in derive.STRUCTURES.items()}
    rows, reps, _ = derive.equations(2, lower)
    for subset, rank in ((rows, 6), ([r for r in rows if r[0] != "cyclicity"], 5)):
        result = solve(subset, reps)
        same(result, dense_solve(subset, reps))
        assert result[:2] == (rank, True)
        check_meaning(subset, reps, result)


coefficient = st.one_of(st.integers(-2, 2), st.fractions(-3, 3, max_denominator=4)).map(Fraction)
names = ["u", "v", "w", "x", "y"]


@st.composite
def systems(draw):
    unknowns = draw(st.permutations(names))[:draw(st.integers(1, len(names)))]
    keys = st.sampled_from([*unknowns, None])
    rows = draw(st.lists(st.dictionaries(keys, coefficient, max_size=4), max_size=7))
    return [("k", row) for row in rows], unknowns


@given(systems())
@settings(max_examples=100, deadline=None)
def test_agrees_with_dense_solve_on_random_systems(system):
    rows, unknowns = system
    result = solve(rows, unknowns)
    same(result, dense_solve(rows, unknowns))
    check_meaning(rows, unknowns, result)
