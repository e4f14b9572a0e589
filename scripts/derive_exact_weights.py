"""Regenerate the bundled exact weight table (orders 1 and 2) by an exact solve.

Nothing is sampled.  Weights obey w_Gamma = sign_Gamma w_rep on each orbit
of graphs.star_orbits (internal relabelling times slot swaps), so the
unknowns are one weight over Q per representative with nonzero sign.
Each of its graphs adds sign^2 w_rep U_rep to the level, so a
representative's column is |orbit| times its own.  Given the levels below
n, each identity below is affine in the order-n unknowns, and each of its
coefficients (slot multi-indices, monomial) on each test structure is one
equation:
  - order 1: B1 = (1/2) pi^{ij} d_i (x) d_j;
  - order n >= 2: the order-n associativity defect is zero;
  - cyclicity: the level is cyclic for the divergence-free structures
    with constant volume.
Each order is solved exactly by starcycle._linsolve.solve.  The script
prints the equations, the rank and the weights, and the rank without the
cyclicity rows: at order 2 associativity leaves one direction (the orbit
of the +-1/24 graphs) free, and cyclicity pins it.  An inconsistent
system or a free direction exits nonzero and writes nothing.  Each
labelled graph's weight is sign times its representative's, and 0 on a
forced-zero orbit.  The first-order 3-boundary graphs whose form
weights._vanishes certifies zero under alpha = (0, 0, 1), the four with an
edge into b3, are exact zeros.  Last, the table is re-validated through
assemble_star and the package checks.  Its Monte Carlo cross-check
against the harmonic-angle integrals is acceptance criterion 4
(tests/test_acceptance.py).

Run from the repository root (the default output is the bundled table):

    python3 scripts/derive_exact_weights.py [--out PATH]
"""

import argparse
import os
import sys
from collections import Counter
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from starcycle import WeightEntry, WeightTable
from starcycle._linsolve import coefficient_rows, solve
from starcycle.diffops import PolyDiffOperator, _cyclic_residual
from starcycle.graphs import star_graphs, star_orbits
from starcycle.poly import Polynomial
from starcycle.polyvector import PolyVector, VolumeForm
from starcycle.star import (StarProduct, _level_prefactor, assemble_star, assoc_defect,
                            check_cyclic, graph_to_operator)
from starcycle.weights import _vanishes

ALPHAS = (0.0, 0.0, 1.0)
ORDERS = (1, 2)

_x = Polynomial.variable
STRUCTURES = {
    "so3": PolyVector(3, 1, {(1, 2): _x(3, 3), (2, 3): _x(3, 1), (1, 3): -_x(3, 2)}),
    "moyal": PolyVector(2, 1, {(1, 2): Polynomial.one(2)}),
    "lin2": PolyVector(2, 1, {(1, 2): _x(2, 1)}),
    "quad3": PolyVector(3, 1, {(1, 2): _x(3, 3) * _x(3, 3)}),
    "mix3": PolyVector(3, 1, {(1, 2): _x(3, 3), (2, 3): _x(3, 3) * _x(3, 3)}),
    "pi4": PolyVector(4, 1, {(1, 2): _x(4, 2), (3, 4): Polynomial.one(4)}),
}
# divergence-free for the constant volume
CYCLIC = ("so3", "moyal", "quad3")


def table_key(g):
    return g.add_boundary_vertex().canonical_key()


def b1_pattern(pi):
    """(1/2) pi^{ij} d_i (x) d_j."""
    dims = range(1, pi.dim + 1)
    e = [tuple(int(a == i) for a in dims) for i in dims]
    return PolyDiffOperator(pi.dim, 2, {(e[i - 1], e[j - 1]): pi.coefficient((i, j)) * Fraction(1, 2)
                                        for i in dims for j in dims})


def equations(n, lower):
    """Rows of the order-n system, the unknowns (representatives of
    star_orbits(n, 2) with nonzero sign, in star_graphs order) and each
    structure's level column per unknown.  lower[name] holds the solved
    levels B_0..B_{n-1}."""
    orbits = star_orbits(n, 2)
    reps = [g for g, (rep, sign) in orbits.items() if g == rep and sign]
    size = Counter(rep for rep, sign in orbits.values())
    rows = []
    units = {}
    for name, pi in STRUCTURES.items():
        zero = PolyDiffOperator.zero(pi.dim, 2)
        u = units[name] = {rep: graph_to_operator(rep, [pi] * n) * (size[rep] * _level_prefactor(n))
                           for rep in reps}
        if n == 1:
            rows += coefficient_rows("B1", -b1_pattern(pi), u)
        else:
            # the defect is affine in B_n: its part in B_n is -d B_n
            rows += coefficient_rows(
                "associativity",
                assoc_defect(StarProduct(pi, lower[name] + [zero], True), n),
                {rep: -op.hochschild_differential() for rep, op in u.items()})
        if name in CYCLIC:
            vol = VolumeForm.constant(pi.dim)
            rows += coefficient_rows("cyclicity", zero, {
                rep: _cyclic_residual(op, vol) for rep, op in u.items()})
    return rows, reps, units


def derive():
    """Solve each order in turn; returns {2-boundary graph: Fraction}."""
    print("structures: %s; cyclicity on %s (constant volume)"
          % (", ".join(STRUCTURES), ", ".join(CYCLIC)))
    lower = {name: [PolyDiffOperator.multiplication(pi.dim)] for name, pi in STRUCTURES.items()}
    weights = {}
    for n in ORDERS:
        rows, reps, units = equations(n, lower)
        rank, consistent, values, null = solve(rows, reps)
        kinds = Counter(kind for kind, _ in rows)
        print("order %d: %d unknowns, %d equations (%s), rank %d"
              % (n, len(reps), len(rows), ", ".join("%s %d" % kv for kv in kinds.items()), rank))
        bare = solve([r for r in rows if r[0] != "cyclicity"], reps)
        print("  without cyclicity: rank %d" % bare[0])
        for free, vec in bare[3].items():
            print("    free direction at %s: %s" % (table_key(free), ", ".join(
                "%s %s" % (table_key(g), c) for g, c in vec.items() if c)))
        if not consistent:
            raise SystemExit("order %d: the system is inconsistent" % n)
        if null:
            raise SystemExit("order %d: rank %d of %d, free graphs: %s"
                             % (n, rank, len(reps), ", ".join(map(table_key, null))))
        for rep in reps:
            print("  %-22s %s" % (table_key(rep), values[rep]))
        weights.update((g, values[rep] * sign if sign else Fraction(0))
                       for g, (rep, sign) in star_orbits(n, 2).items())
        for name, pi in STRUCTURES.items():
            lower[name].append(sum((op * values[rep] for rep, op in units[name].items()),
                                   PolyDiffOperator.zero(pi.dim, 2)))
    return weights


def build_table(weights):
    """Exact entries under alpha = (0, 0, 1): each 2-boundary graph by its
    3-boundary embedding, plus the first-order graphs whose form
    weights._vanishes certifies zero under these alphas."""
    zeros = [g for g in star_graphs(1, 3) if _vanishes(g, [ALPHAS] * g.edge_count)]
    table = WeightTable()
    for g, w in [*weights.items(), *((g, Fraction(0)) for g in zeros)]:
        g3 = g.add_boundary_vertex() if g.m == 2 else g
        table.add(WeightEntry(graph_key=g3.canonical_key(), alphas=ALPHAS,
                              value=float(w), std_error=0.0, samples=0, seed=0,
                              exact=w))
    return table


def validate(table):
    stars = {}
    for name, pi in STRUCTURES.items():
        s = assemble_star(pi, table, 2)
        stars[name] = s
        assert s.levels[1] == b1_pattern(pi), name
        assert assoc_defect(s, 2).is_zero(), name
        # unitality, B2(1, g) = B2(f, 1) = 0: no term leaves a slot underived
        assert all((0,) * pi.dim not in key for key in s.levels[2].terms), name
        print("B1 pattern, order-2 associativity, unitality for %s: OK" % name)

    eighth = Fraction(1, 8)
    assert stars["moyal"].levels[2] == PolyDiffOperator(2, 2, {
        ((2, 0), (0, 2)): eighth, ((1, 1), (1, 1)): -2 * eighth, ((0, 2), (2, 0)): eighth})
    print("Moyal B2 == 1/8 pattern: OK")

    for name in CYCLIC:
        s = stars[name]
        vol = VolumeForm.constant(s.pi.dim)
        assert s.pi.divergence(vol).is_zero(), name
        rep = check_cyclic(s, vol)
        assert rep["passed"], (name, rep)
        print("B1, B2 cyclic for %s (constant volume): OK" % name)
    return stars


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=os.path.join(os.path.dirname(__file__), "..",
                                                  "src", "starcycle", "data",
                                                  "weights_exact.json"))
    args = ap.parse_args(argv)
    table = build_table(derive())
    validate(table)
    table.save(args.out)
    print("wrote %s (%d exact entries, sha256 %s)"
          % (args.out, len(table.entries), table.fingerprint()))


if __name__ == "__main__":
    main()
