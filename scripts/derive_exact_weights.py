"""Regenerate the bundled exact weight table (orders 1 and 2).

Pipeline:
  1. Monte Carlo every 2-boundary star graph at orders 1 and 2 (embedded at
     m=3 under alpha=(0,0,1)), plus the four first-order 3-boundary graphs
     with an edge into the weighted point (exact zeros), and snap each
     estimate to the 1/24 grid, requiring a < 4 sigma pull and > 5 sigma
     separation from the runner-up.
  2. Check the structural symmetries the integral must satisfy exactly:
     swapping the two slots of a vertex flips the sign (row swap in the
     configuration determinant); relabeling internal vertices is invariant.
  3. Validate the snapped table exactly over the rationals:
       - B1 = (1/2) pi^{ij} d_i (x) d_j,
       - Moyal B2 equals the 1/8 Moyal pattern,
       - order-2 associativity holds as an operator identity for Poisson
         structures in d = 2, 3, 4,
       - B2(1, g) = B2(f, 1) = 0,
       - B1 and B2 are cyclic for divergence-free structures with constant
         volume.
  4. Show each weight class is pinned: shifting the 1/24 class preserves
     associativity but breaks cyclicity (it is a Hochschild coboundary
     direction, fixed here by the measured integrals and the cyclicity
     theorem); shifting any other class breaks associativity or the Moyal
     pattern.

Run from the repository root:

    python3 scripts/derive_exact_weights.py [--samples N] [--threads T] [--out PATH]

The default output path is the bundled data file.
"""

import argparse
import os
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from starcycle.angles import AngleContext
from starcycle.diffops import PolyDiffOperator
from starcycle.graphs import star_graphs
from starcycle.poly import Polynomial
from starcycle.polyvector import PolyVector, VolumeForm
from starcycle.star import assemble_star, assoc_defect, check_cyclic
from starcycle.weights import WeightEntry, WeightTable, compute_weight, default_threads

ALPHAS = (0.0, 0.0, 1.0)


def snap(value, sigma):
    """Nearest multiple of 1/24 in [-1/2, 1/2] plus pull/separation in sigma."""
    cands = sorted((Fraction(p, 24) for p in range(-12, 13)),
                   key=lambda c: abs(value - float(c)))
    sig = max(sigma, 1e-12)
    pull = abs(value - float(cands[0])) / sig
    gap = abs(value - float(cands[1])) / sig
    return cands[0], pull, gap


def slot_swapped(stars, v):
    s = [list(t) for t in stars]
    s[v] = s[v][::-1]
    return tuple(tuple(t) for t in s)


def vertex_relabeled(stars):
    ren = {1: 2, 2: 1, 3: 3, 4: 4}
    return (tuple(ren[t] for t in stars[1]), tuple(ren[t] for t in stars[0]))


def measure(samples, threads):
    """MC-estimate and snap all order-1 and order-2 weights.

    The integrand's second moment is heavy-tailed near point collisions,
    so a sweep occasionally draws an outlier batch with an inflated error
    bar.  When the snap gates fail, the graph is re-measured with four
    times the samples under a derived seed (deterministic escalation, not
    seed shopping); two escalations failing aborts the run.
    """
    ctx = AngleContext.standard(ALPHAS)
    # native 3-boundary graphs with an edge into the weighted point are
    # also swept: their angle form vanishes identically, so they round to
    # zero from an exactly-zero estimate; storing them makes first-order
    # trilinear assembly at alpha=(0,0,1) fully table-driven
    groups = [(1, star_graphs(1, 2)), (2, star_graphs(2, 2)),
              (3, [g for g in star_graphs(1, 3) if any(4 in s for s in g.stars)])]
    snapped = {}
    for n, group in groups:
        for k, g in enumerate(group):
            size, seed = samples, 90_000 + 100 * n + k
            for attempt in range(3):
                e = compute_weight(g.add_boundary_vertex() if g.m == 2 else g,
                                   ctx, samples=size, seed=seed, threads=threads)
                w, pull, gap = snap(e.value, e.std_error)
                note = "" if attempt == 0 else "  [escalated x%d]" % (4 ** attempt)
                print("  %-22s %+.6f +- %.6f  -> %8s  (%.2f sigma, runner-up %.1f sigma)%s"
                      % (g.canonical_key(), e.value, e.std_error, str(w), pull, gap, note))
                if pull < 4.0 and gap > 5.0:
                    break
                size, seed = size * 4, seed + 50
            else:
                raise SystemExit("estimate for %s failed the snap gates" % g.canonical_key())
            snapped[g] = w
    return snapped


def build_table(snapped):
    table = WeightTable()
    for g, w in snapped.items():
        g3 = g.add_boundary_vertex() if g.m == 2 else g
        table.add(WeightEntry(graph_key=g3.canonical_key(), alphas=ALPHAS,
                              value=float(w), std_error=0.0, samples=0, seed=0,
                              exact=w))
    return table


def check_symmetries(snapped):
    by_stars = {tuple(g.stars): w for g, w in snapped.items() if g.n == 2}
    for stars, w in by_stars.items():
        for v in (0, 1):
            assert by_stars[slot_swapped(stars, v)] == -w, ("slot swap", stars, v)
        assert by_stars[vertex_relabeled(stars)] == w, ("vertex relabel", stars)
    ones = {tuple(g.stars): w for g, w in snapped.items() if g.n == 1}
    assert ones[((2, 3),)] == -ones[((3, 2),)]
    assert all(w == 0 for s, w in ones.items() if 4 in s[0])
    print("slot-swap antisymmetry and vertex-relabel invariance: OK")


def unit_defects(b):
    dim = b.dim
    z = tuple([0] * dim)
    left, right = {}, {}
    for (i1, i2), c in b.terms.items():
        if i1 == z:
            left[(i2,)] = left.get((i2,), Polynomial.zero(dim)) + c
        if i2 == z:
            right[(i1,)] = right.get((i1,), Polynomial.zero(dim)) + c
    return PolyDiffOperator(dim, 1, left), PolyDiffOperator(dim, 1, right)


def moyal_b2_pattern():
    c = Fraction(1, 8)
    return PolyDiffOperator(2, 2, {
        ((2, 0), (0, 2)): Polynomial.constant(2, c),
        ((1, 1), (1, 1)): Polynomial.constant(2, -2 * c),
        ((0, 2), (2, 0)): Polynomial.constant(2, c),
    })


def validate(table):
    x = lambda d, i: Polynomial.variable(d, i)
    so3 = PolyVector(3, 1, {(1, 2): x(3, 3), (2, 3): x(3, 1), (1, 3): -x(3, 2)})
    moyal = PolyVector(2, 1, {(1, 2): Polynomial.one(2)})
    lin2 = PolyVector(2, 1, {(1, 2): x(2, 1)})
    quad3 = PolyVector(3, 1, {(1, 2): x(3, 3) * x(3, 3)})
    mix3 = PolyVector(3, 1, {(1, 2): x(3, 3), (2, 3): x(3, 3) * x(3, 3)})
    pi4 = PolyVector(4, 1, {(1, 2): x(4, 2), (3, 4): Polynomial.one(4)})

    stars = {}
    for name, pi in [("so3", so3), ("moyal", moyal), ("lin2", lin2),
                     ("quad3", quad3), ("mix3", mix3), ("pi4", pi4)]:
        s = assemble_star(pi, table, 2)
        stars[name] = s
        b1 = s.levels[1]
        dim = pi.dim
        want = {}
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                c = pi.coefficient((i, j)) * Fraction(1, 2)
                if c.is_zero():
                    continue
                ei = tuple(int(a == i - 1) for a in range(dim))
                ej = tuple(int(a == j - 1) for a in range(dim))
                want[(ei, ej)] = want.get((ei, ej), Polynomial.zero(dim)) + c
        assert b1 == PolyDiffOperator(dim, 2, want), name
        assert assoc_defect(s, 2).is_zero(), name
        ul, ur = unit_defects(s.levels[2])
        assert ul.is_zero() and ur.is_zero(), name
        print("B1 pattern, order-2 associativity, unitality for %s: OK" % name)

    assert stars["moyal"].levels[2] == moyal_b2_pattern()
    print("Moyal B2 == 1/8 pattern: OK")

    for name in ("so3", "moyal", "quad3"):
        s = stars[name]
        vol = VolumeForm.constant(s.pi.dim)
        assert s.pi.divergence(vol).is_zero(), name
        rep = check_cyclic(s, vol)
        assert rep["passed"], (name, rep)
        print("B1, B2 cyclic for %s (constant volume): OK" % name)
    return stars


def check_pinning(table, stars):
    """Shift each weight class off the table and watch a check break."""
    def shifted_table(pred, delta):
        out = WeightTable()
        for e in table.entries.values():
            w = e.exact
            if pred(w):
                w = w + (delta if w >= 0 else -delta)
            out.add(WeightEntry(e.graph_key, e.alphas, float(w), 0.0, 0, 0, w))
        return out

    so3 = stars["so3"].pi
    moyal = stars["moyal"].pi
    vol3 = VolumeForm.constant(3)

    t = shifted_table(lambda w: abs(w) == Fraction(1, 24), Fraction(1, 24))
    s = assemble_star(so3, t, 2)
    assert assoc_defect(s, 2).is_zero()
    assert not check_cyclic(s, vol3)["passed"]
    print("1/24 class: coboundary direction, pinned by the integrals + cyclicity: OK")

    t = shifted_table(lambda w: abs(w) == Fraction(1, 12), Fraction(1, 12))
    s = assemble_star(so3, t, 2)
    assert not assoc_defect(s, 2).is_zero()
    print("1/12 class: pinned by associativity: OK")

    # shift a single zero-weight order-2 graph (its slot-swap partners stay zero)
    zero_key = sorted(e.graph_key for e in table.entries.values()
                      if e.exact == 0 and e.graph_key.startswith("2;"))[0]
    t = WeightTable()
    for e in table.entries.values():
        w = e.exact + Fraction(1, 24) if e.graph_key == zero_key else e.exact
        t.add(WeightEntry(e.graph_key, e.alphas, float(w), 0.0, 0, 0, w))
    s = assemble_star(so3, t, 2)
    assert not assoc_defect(s, 2).is_zero()
    print("zero class: pinned by associativity (integrand vanishes pointwise): OK")

    t = shifted_table(lambda w: abs(w) == Fraction(1, 4), Fraction(1, 4))
    s = assemble_star(moyal, t, 2)
    assert s.levels[2] != moyal_b2_pattern()
    print("1/4 class: pinned by the Moyal pattern: OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--samples", type=int, default=1 << 21)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--out", default=os.path.join(os.path.dirname(__file__), "..",
                                                  "src", "starcycle", "data",
                                                  "weights_exact.json"))
    args = ap.parse_args()
    threads = args.threads if args.threads is not None else default_threads()

    t0 = time.time()
    snapped = measure(args.samples, threads)
    print("Monte Carlo sweep: %.1fs" % (time.time() - t0))
    check_symmetries(snapped)
    table = build_table(snapped)
    stars = validate(table)
    check_pinning(table, stars)
    table.save(args.out)
    print("wrote %s (%d exact entries, sha256 %s)"
          % (args.out, len(table.entries), table.fingerprint()))


if __name__ == "__main__":
    main()
