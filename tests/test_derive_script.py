"""scripts/derive_exact_weights.py: the exact solve and its failure paths.

The system's unknowns are the order-1 and order-2 star-graph weights; its
rows are the symmetry, B1, associativity and cyclicity identities on the
script's test structures.  The bundled table must be its unique solution,
and each way of corrupting the table must break a named kind of row.
"""

import importlib.util
import os
from collections import Counter
from fractions import Fraction

import pytest

from starcycle import PolyDiffOperator, Polynomial, PolyVector, WeightTable, star_graphs

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
    """Order-2 rows given the bundled B1, and the bundled order-2 weights."""
    lower = {name: [PolyDiffOperator.multiplication(pi.dim), derive.b1_pattern(pi)]
             for name, pi in derive.STRUCTURES.items()}
    rows, _ = derive.equations(2, lower)
    return rows, {g: TABLE.lookup_star(g).exact for g in star_graphs(2, 2)}


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
    # one zero graph off zero, its slot-swap partners left at zero
    assert violated(rows, shifted(values, zero, Fraction(1, 24))) \
        == {"symmetry": 4, "associativity": 12, "cyclicity": 6}


def test_derived_table_is_the_bundled_table(derive, capsys):
    table = derive.build_table(derive.derive())
    assert table.fingerprint() == TABLE.fingerprint()
    out = capsys.readouterr().out
    assert "order 1: 2 unknowns, 22 equations" in out and "rank 2\n" in out
    assert "rank 36\n" in out and "without cyclicity: rank 35" in out


def test_cyclicity_pins_exactly_the_one_twenty_fourth_direction(derive, order2):
    rows, values = order2
    graphs = star_graphs(2, 2)
    rank, consistent, solved, null = derive.solve(rows, graphs)
    assert (rank, consistent, null, solved) == (36, True, {}, values)
    rank, consistent, _, null = derive.solve([r for r in rows if r[0] != "cyclicity"], graphs)
    assert (rank, consistent, len(null)) == (35, True, 1)
    (vec,) = null.values()
    support = {g for g, c in vec.items() if c}
    assert support == {g for g, w in values.items() if abs(w) == Fraction(1, 24)}
    assert len(support) == 8
    assert len({vec[g] / values[g] for g in support}) == 1


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
    assert message.startswith("order 2: rank 35 of 36, free graphs: ")
    free = message.rsplit(": ", 1)[1]
    assert abs(TABLE.get(free, (0.0, 0.0, 1.0)).exact) == Fraction(1, 24)
