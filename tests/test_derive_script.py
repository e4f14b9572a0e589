"""The exact half of scripts/derive_exact_weights.py on the bundled table.

Runs the rational validation (B1 pattern, associativity as an operator
identity in d = 2, 3, 4, unitality, the Moyal 1/8 pattern, cyclicity)
and the per-class pinning claims, without the Monte Carlo sweep.
"""

import importlib.util
import os

from starcycle import WeightTable

SCRIPT = os.path.join(os.path.dirname(__file__), "..", "scripts", "derive_exact_weights.py")


def load_script():
    spec = importlib.util.spec_from_file_location("derive_exact_weights", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bundled_table_validates_and_every_class_is_pinned(capsys):
    derive = load_script()
    table = WeightTable.builtin()
    stars = derive.validate(table)
    assert sorted(stars) == ["lin2", "mix3", "moyal", "pi4", "quad3", "so3"]
    derive.check_pinning(table, stars)
    out = capsys.readouterr().out
    for line in ("Moyal B2 == 1/8 pattern: OK",
                 "1/24 class: coboundary direction, pinned by the integrals + cyclicity: OK",
                 "1/12 class: pinned by associativity: OK",
                 "zero class: pinned by associativity (integrand vanishes pointwise): OK",
                 "1/4 class: pinned by the Moyal pattern: OK"):
        assert line in out
