"""scripts/derive_exact_weights.py: the exact solve and its failure paths.

The system's unknowns are one weight per orbit of star_orbits(n, 2) at
orders 1 and 2, not forced to zero; its rows are the B1, associativity
and cyclicity identities on the script's test structures.  The bundled
table must be its unique solution, and each way of corrupting the table
must break a named kind of row.
"""

import importlib.util
import os
from collections import Counter
from fractions import Fraction

import pytest

from starcycle import (AdmissibleGraph, PolyDiffOperator, Polynomial, PolyVector, WeightEntry,
                        WeightTable, star_graphs)
from starcycle.graphs import star_orbits

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "derive_exact_weights.py")
TABLE = WeightTable.builtin()


def load_script():
    spec = importlib.util.spec_from_file_location("derive_exact_weights", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def derive():
    return load_script()


@pytest.fixture(scope="module")
def order2(derive):
    """Order-2 rows given the bundled B1, and the bundled weights of the
    order-2 unknowns (the orbit representatives)."""
    lower = {name: [PolyDiffOperator.multiplication(pi.dim), derive.b1_pattern(pi)]
             for name, pi in derive.STRUCTURES.items()}
    rows, reps, _ = derive.equations(2, lower)
    return rows, {rep: TABLE.lookup_star(rep).exact for rep in reps}


def violated(rows, values):
    """Rows that the weights `values` break, counted by kind."""
    return Counter(kind for kind, row in rows
                   if sum(c * (1 if g is None else values[g]) for g, c in row.items()))


def shifted(values, pred, delta):
    return {g: w + (delta if w >= 0 else -delta) if pred(g, w) else w for g, w in values.items()}


def test_bundled_table_validates_and_every_class_is_pinned(derive, order2):
    stars = derive.validate(TABLE)
    assert sorted(stars) == ["lin2", "mix3", "moyal", "pi4", "quad3", "so3"]
    rows, values = order2
    assert not violated(rows, values)
    cls = lambda c: (lambda g, w: abs(w) == c)
    zero = lambda g, w: g.canonical_key() == "2;2;2,b1|1,b1"
    # the 1/24 class is the direction only cyclicity pins; every other
    # shift breaks associativity
    assert violated(rows, shifted(values, cls(Fraction(1, 24)), Fraction(1, 24))) \
        == {"cyclicity": 6}
    assert violated(rows, shifted(values, cls(Fraction(1, 12)), Fraction(1, 12))) \
        == {"associativity": 20, "cyclicity": 18}
    assert violated(rows, shifted(values, cls(Fraction(1, 4)), Fraction(1, 4))) \
        == {"associativity": 152, "cyclicity": 15}
    # one zero orbit off zero
    assert violated(rows, shifted(values, zero, Fraction(1, 24))) \
        == {"associativity": 12, "cyclicity": 6}
    # one graph of that orbit off zero, the rest of its orbit left at zero:
    # the table breaks the orbit relation, and assembly catches it
    bad = WeightTable.from_json(TABLE.to_json())
    e = bad.get("2;3;2,b1|b1,1", (0.0, 0.0, 1.0))
    assert e.exact == 0
    assert star_orbits(2, 2)[AdmissibleGraph.from_key("2;2;2,b1|b1,1")][0].canonical_key() \
        == "2;2;2,b1|1,b1"
    bad.add(WeightEntry(e.graph_key, e.alphas, 1 / 24, 0.0, 0, 0, exact=Fraction(1, 24)))
    with pytest.raises(AssertionError):
        derive.validate(bad)


def test_derived_table_is_the_bundled_table(derive, capsys):
    table = derive.build_table(derive.derive())
    assert table.fingerprint() == TABLE.fingerprint()
    out = capsys.readouterr().out
    assert "order 1: 1 unknowns, 20 equations (B1 20), rank 1\n" in out
    assert "order 2: 6 unknowns, 239 equations (associativity 206, cyclicity 33), rank 6\n" in out
    assert "without cyclicity: rank 5\n" in out


def test_cyclicity_pins_exactly_the_one_twenty_fourth_direction(derive, order2):
    rows, values = order2
    reps = list(values)
    rank, consistent, solved, null = derive.solve(rows, reps)
    assert (rank, consistent, null, solved) == (6, True, {}, values)
    rank, consistent, _, null = derive.solve([r for r in rows if r[0] != "cyclicity"], reps)
    assert (rank, consistent, len(null)) == (5, True, 1)
    (vec,) = null.values()
    (free,) = {rep for rep, c in vec.items() if c}
    assert abs(values[free]) == Fraction(1, 24)
    # its orbit is exactly the 8 graphs of weight +-1/24
    orbit = {g for g, (rep, _) in star_orbits(2, 2).items() if rep == free}
    assert orbit == {g for g in star_graphs(2, 2)
                     if abs(TABLE.lookup_star(g).exact) == Fraction(1, 24)}
    assert len(orbit) == 8


def test_non_poisson_structure_makes_order_2_inconsistent(derive, monkeypatch, tmp_path):
    x = lambda i: Polynomial.variable(3, i)
    monkeypatch.setitem(derive.STRUCTURES, "nonpoisson",
                        PolyVector(3, 1, {(1, 2): x(3), (2, 3): x(2)}))
    out = tmp_path / "w.json"
    with pytest.raises(SystemExit) as exc:
        derive.main(["--out", str(out)])
    assert exc.value.code == "order 2: the system is inconsistent"
    assert not out.exists()


def test_dropping_cyclicity_leaves_a_free_graph(derive, monkeypatch, tmp_path):
    monkeypatch.setattr(derive, "CYCLIC", ())
    out = tmp_path / "w.json"
    with pytest.raises(SystemExit) as exc:
        derive.main(["--out", str(out)])
    assert not out.exists()
    message = str(exc.value.code)
    assert message.startswith("order 2: rank 5 of 6, free graphs: ")
    free = message.rsplit(": ", 1)[1]
    assert abs(TABLE.get(free, (0.0, 0.0, 1.0)).exact) == Fraction(1, 24)


def test_order_3_is_consistent_with_twenty_free_graphs(derive, monkeypatch, tmp_path, capsys):
    # the order-3 system of the six structures: cyclicity adds no rank, and
    # the script stops on the free directions before writing anything
    monkeypatch.setattr(derive, "ORDERS", (1, 2, 3))
    with pytest.raises(SystemExit) as exc:
        derive.main(["--out", str(tmp_path / "w.json")])
    out = capsys.readouterr().out
    assert ("order 3: 38 unknowns, 1789 equations (associativity 1627, cyclicity 162), rank 18\n"
            "  without cyclicity: rank 18\n") in out
    message = str(exc.value.code)
    assert message.startswith("order 3: rank 18 of 38, free graphs: ")
    free = message.split(": ", 2)[2].split(", ")
    assert len(set(free)) == 20 and all(key.startswith("3;3;") for key in free)
    assert not any(tmp_path.iterdir())
