"""Monte Carlo graph weights: anchors, symmetries, determinism, tables."""

import cmath
import itertools
import json
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from angle_oracle import harmonic_angle_halfplane, wrap_angle
from starcycle import (
    AdmissibleGraph,
    AngleContext,
    WeightEntry,
    WeightTable,
    compute_weight,
    default_threads,
    halfplane_weight,
    mixed_edge_integral,
    star_graphs,
)
from starcycle.angles import cayley
from starcycle.graphs import enumerate_graphs, star_orbits
from starcycle import weights
from starcycle.weights import CHUNK, _HALFPLANE, _disk_rows, _laplace_det

CTX = AngleContext.standard((0.0, 0.0, 1.0))


def test_first_order_anchor():
    # single interior vertex aimed at both function slots: weight 1/2
    g = AdmissibleGraph.from_key("1;3;b1,b2")
    w = compute_weight(g, CTX, 1 << 18, 42)
    assert w.samples == 1 << 18
    assert abs(w.value - 0.5) <= 3 * w.std_error


def test_edge_into_weighted_boundary_point_vanishes():
    # an edge into the boundary point carrying the full weight pins q = xi,
    # where the angle form vanishes identically, so every sample is 0
    g = AdmissibleGraph.from_key("1;3;b1,b3")
    w = compute_weight(g, CTX, 1 << 16, 7)
    assert w.value == 0.0
    assert w.std_error == 0.0


def test_rotated_weighting_matches_anchor():
    # moving the weight to the first boundary point and aiming the star at
    # the remaining two slots is the same configuration rotated
    g = AdmissibleGraph.from_key("1;3;b2,b3")
    ctx = AngleContext.standard((1.0, 0.0, 0.0))
    w = compute_weight(g, ctx, 1 << 18, 11)
    assert abs(w.value - 0.5) <= 3 * w.std_error


def test_gauge_independence():
    # pinning the boundary points at other angles does not change the weight
    g = AdmissibleGraph.from_key("1;3;b1,b2")
    ctx = AngleContext((0.0, 0.0, 1.0), (0.3, 2.0, 4.5))
    w = compute_weight(g, ctx, 1 << 18, 5)
    assert abs(w.value - 0.5) <= 3 * w.std_error


def test_determinism_across_threads_and_repeats():
    g = AdmissibleGraph.from_key("1;3;b1,b2")
    a = compute_weight(g, CTX, 1 << 17, 99, threads=1)
    b = compute_weight(g, CTX, 1 << 17, 99, threads=4)
    assert a.value == b.value
    assert a.std_error == b.std_error
    c = compute_weight(g, CTX, 1 << 17, 99, threads=2)
    assert a.to_json() == c.to_json()
    d = compute_weight(g, CTX, 1 << 17, 100)
    assert a.value != d.value


def test_mixed_edge_difference_form_ignores_target():
    # replacing one edge form by d(phi' - phi) with matching alpha totals
    # gives a value independent of where that edge points
    rep = AngleContext.standard((1.0, 0.0, 0.0))
    g1 = AdmissibleGraph.from_key("1;3;b1,b2")
    g2 = AdmissibleGraph.from_key("1;3;b1,b3")
    m1 = mixed_edge_integral(g1, CTX, rep, 1, 1 << 16, 19)
    m2 = mixed_edge_integral(g2, CTX, rep, 1, 1 << 16, 19)
    assert abs(m1.value) < 1e-10
    assert abs(m2.value) < 1e-10
    # a two-vertex case where the mixed integral is itself nonzero
    h1 = AdmissibleGraph.from_key("2;3;b1,2|b2,1")
    h2 = AdmissibleGraph.from_key("2;3;b2,2|b2,1")
    n1 = mixed_edge_integral(h1, CTX, rep, 0, 1 << 17, 21)
    n2 = mixed_edge_integral(h2, CTX, rep, 0, 1 << 17, 23)
    assert abs(n1.value) > 5 * n1.std_error
    sigma = math.hypot(n1.std_error, n2.std_error)
    assert abs(n1.value - n2.value) <= 3 * sigma


def test_zero_total_difference_form_reads_exactly_zero():
    # sum(alpha' - alpha) = 0: the mixed edge 1 -> b2 has no target
    # coefficient, and its source coefficient is minus that of 1 -> b1, so
    # the form is certified zero and never drawn
    g = AdmissibleGraph.from_key("1;3;b2,b1")
    w = mixed_edge_integral(g, CTX, AngleContext.standard((1.0, 0.0, 0.0)), 0, 131172, 9)
    assert (w.value, w.std_error, w.samples) == (0.0, 0.0, 131172)


def test_mixed_edge_validation():
    rep = AngleContext.standard((1.0, 0.0, 0.0))
    g = AdmissibleGraph.from_key("1;3;b1,b2")
    with pytest.raises(ValueError):
        mixed_edge_integral(g, CTX, rep, 5, 1 << 10, 0)
    other = AngleContext((1.0, 0.0, 0.0), (0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        mixed_edge_integral(g, CTX, other, 0, 1 << 10, 0)


def test_halfplane_route_matches():
    g = AdmissibleGraph.from_key("1;2;b1,b2")
    w = halfplane_weight(g, 1 << 18, 3)
    assert abs(w.value - 0.5) <= 3 * w.std_error


def test_a_halfplane_entry_is_its_embeddings_entry():
    g = AdmissibleGraph.from_key("1;2;b1,b2")
    e = halfplane_weight(g, 1 << 14, 3)
    assert (e.graph_key, e.alphas) == ("1;3;b1,b2", (0.0, 0.0, 1.0))
    # added to the bundled table, it takes the place of the exact entry
    t = WeightTable.from_json(WeightTable.builtin().to_json())
    assert t.lookup_star(g).exact == Fraction(1, 2)
    t.add(e)
    assert t.lookup_star(g) is e and t.provenance() == {"exact": 41, "monte_carlo": 1}


def test_add_refuses_a_2_boundary_key_and_stores_nothing():
    # lookup_star would never read such an entry, and a saved table holding
    # it would not load
    t = WeightTable()
    with pytest.raises(ValueError) as refusal:
        t.add(WeightEntry("1;2;b1,b2", (), 0.5, 0.0, 0, 0, exact=Fraction(1, 2)))
    assert str(refusal.value) == ("entry 1;2;b1,b2 is keyed by a 2-boundary graph; "
                                  "store it as 1;3;b1,b2 at alphas [0.0, 0.0, 1.0]")
    assert t.entries == {}


def graph_built_lookup_star(table, graph):
    """The reference lookup: the 3-boundary key from a graph with b3 added."""
    if graph.m == 2:
        graph = graph.add_boundary_vertex()
    return table.get(graph.canonical_key(), (0.0, 0.0, 1.0))


def test_lookup_star_finds_the_entry_of_the_added_boundary_vertex():
    # a distinct weight per embedding: each graph must find its own
    for n in (1, 2, 3):
        graphs = star_graphs(n, 2)
        t = WeightTable()
        for k, g in enumerate(graphs):
            t.add(WeightEntry(g.add_boundary_vertex().canonical_key(), (0.0, 0.0, 1.0),
                              float(k), 0.0, 0, 0, exact=Fraction(k)))
        assert [t.lookup_star(g).exact for g in graphs] == list(range(len(graphs)))


def test_lookup_star_matches_the_graph_built_lookup():
    builtin = WeightTable.builtin()
    sampled = WeightTable.from_json(builtin.to_json())
    for k, g in enumerate(star_graphs(2, 2)[::3]):
        sampled.add(halfplane_weight(g, 1 << 10, 7 + k))
    graphs = [g for n in (1, 2, 3) for g in star_graphs(n, 2)]
    graphs += star_graphs(1, 3) + star_graphs(2, 3)
    for t in (builtin, sampled):
        assert [t.lookup_star(g) for g in graphs] == [graph_built_lookup_star(t, g) for g in graphs]
    assert sampled.lookup_star(star_graphs(2, 2)[0]).exact is None


def test_top_degree_required():
    with pytest.raises(ValueError):
        compute_weight(AdmissibleGraph.from_key("1;3;b1,b2,b3"), CTX, 1 << 10, 0)
    with pytest.raises(ValueError):
        halfplane_weight(AdmissibleGraph.from_key("1;2;b1"), 1 << 10, 0)


def test_weight_entry_json_round_trip():
    e = WeightEntry("1;3;b1,b2", (0.0, 0.0, 1.0), 0.4999, 0.001, 1 << 20, 42)
    back = WeightEntry.from_json(e.to_json())
    assert back == e
    exact = WeightEntry("1;3;b1,b2", (0.0, 0.0, 1.0), 0.5, 0.0, 0, 0,
                        exact=Fraction(1, 2))
    back2 = WeightEntry.from_json(exact.to_json())
    assert back2.exact == Fraction(1, 2)
    assert json.dumps(exact.to_json())     # JSON-serializable as-is


def test_weight_entry_is_an_immutable_value():
    e = WeightEntry(graph_key="1;3;b1,b2", alphas=(0.0, 0.0, 1.0), value=0.5, std_error=0.01,
                    samples=1 << 10, seed=3)
    assert (e.exact, e.rejected) == (None, 0)
    same = WeightEntry("1;3;b1,b2", (0.0, 0.0, 1.0), 0.5, 0.01, 1 << 10, 3, None, 0)
    assert e == same and hash(e) == hash(same) and len({e, same}) == 1
    assert e != WeightEntry("1;3;b1,b2", (0.0, 0.0, 1.0), 0.5, 0.01, 1 << 10, 4)
    assert repr(e) == ("WeightEntry(graph_key='1;3;b1,b2', alphas=(0.0, 0.0, 1.0), value=0.5, "
                       "std_error=0.01, samples=1024, seed=3, exact=None, rejected=0)")
    with pytest.raises(AttributeError):
        e.value = 0.0
    with pytest.raises(AttributeError):
        del e.seed
    assert e.value == 0.5
    assert pickle.loads(pickle.dumps(e)) == e


@pytest.mark.parametrize("args, message", [
    (("g", (), math.inf, 0.0, 1, 0), "^weight of g: value inf and std_error 0.0 must be finite$"),
    (("g", (), 0.0, math.nan, 1, 0), "^weight of g: value 0.0 and std_error nan must be finite$"),
    (("g", (), 0.0, -1.0, 1, 0), "^std_error must be >= 0$"),
    (("g", (), 0.0, 0.0, 0, 0), "^Monte Carlo entries need samples > 0$"),
    (("g", (), 0.0, 0.0, 5, 0, Fraction(0)), "^exact entries carry samples = 0$"),
])
def test_weight_entry_validation(args, message):
    with pytest.raises(ValueError, match=message):
        WeightEntry(*args)


def test_weight_tables_do_not_share_entries():
    a, b = WeightTable(), WeightTable()
    a.add(WeightEntry("1;3;b1,b2", (0.0, 0.0, 1.0), 0.5, 0.0, 0, 0, exact=Fraction(1, 2)))
    assert a.entries is not b.entries and b.entries == {}


def test_weight_table_round_trip(tmp_path):
    t = WeightTable()
    t.add(WeightEntry("1;3;b1,b2", (0.0, 0.0, 1.0), 0.5, 0.0, 0, 0,
                      exact=Fraction(1, 2)))
    t.add(WeightEntry("1;3;b2,b1", (0.0, 0.0, 1.0), -0.5, 0.0, 0, 0,
                      exact=Fraction(-1, 2)))
    path = tmp_path / "table.json"
    t.save(str(path))
    loaded = WeightTable.from_json(json.loads(path.read_text()))
    assert loaded.fingerprint() == t.fingerprint()
    assert loaded.get("1;3;b1,b2", (0.0, 0.0, 1.0)).exact == Fraction(1, 2)
    assert loaded.get("absent", (0.0, 0.0, 1.0)) is None


def test_saved_tables_load_with_every_field_typed(tmp_path):
    # the bundled table, sampled tables on both routes and an empty one
    # come back from save unchanged
    sampled = WeightTable()
    for k, g in enumerate(star_graphs(1, 3)):
        sampled.add(compute_weight(g, CTX, 1 << 10, 40 + k))
    for k, g in enumerate(star_graphs(1, 2)):
        sampled.add(halfplane_weight(g, 1 << 10, 50 + k))
    path = tmp_path / "table.json"
    for table in (WeightTable.builtin(), sampled, WeightTable()):
        table.save(str(path))
        loaded = WeightTable.from_json(json.loads(path.read_text()))
        assert loaded.entries == table.entries and loaded.fingerprint() == table.fingerprint()


@pytest.mark.parametrize("field, bad, message", [
    ("samples", 1.9, "samples must be an integer"),
    ("samples", "16", "samples must be an integer"),
    ("seed", True, "seed must be an integer"),
    ("seed", 2.5, "seed must be an integer"),
    ("rejected", 0.7, "rejected must be an integer"),
    ("value", "0.5", "value must be a number"),
    ("value", True, "value must be a number"),
    ("std_error", "0", "std_error must be a number"),
    ("alphas", [0, 0, "1"], "alphas must be a number"),
    ("alphas", [0, 0, False], "alphas must be a number"),
    # exact is null or a string p/q or p of ASCII digits, q > 0, and graph a string
    ("exact", True, "exact must be null or a string"),
    ("exact", 0.5, "exact must be null or a string"),
    ("exact", "1e-3", "exact must be null or a string"),
    ("exact", " 1/2", "exact must be null or a string"),
    ("exact", "1/0", "exact must be null or a string"),
    ("exact", "1/-2", "exact must be null or a string"),
    ("exact", "\u0661/2", "exact must be null or a string"),
    ("exact", "1_000", "exact must be null or a string"),
    ("exact", "-", "exact must be null or a string"),
    ("exact", "1/3", "is not its exact weight"),
    ("graph", 7, "graph must be a string"),
])
def test_weight_entry_json_fields_are_typed(field, bad, message):
    obj = dict(WeightEntry("1;3;b1,b2", (0.0, 0.0, 1.0), 0.5, 0.01, 16, 1).to_json(), **{field: bad})
    with pytest.raises(ValueError, match=message):
        WeightEntry.from_json(obj)


@pytest.mark.parametrize("exact, value", [(0.5, 0.5), (True, 1.0), ("1/2", 0.5)])
def test_weight_entry_refuses_an_exact_weight_that_is_not_rational(exact, value):
    with pytest.raises(ValueError, match="exact weight of 1;3;b1,b2 must be None, an int or a Fraction"):
        WeightEntry("1;3;b1,b2", (0.0, 0.0, 1.0), value, 0.0, 0, 0, exact)
    for rational in (1, Fraction(1)):
        assert WeightEntry("1;3;b1,b2", (0.0, 0.0, 1.0), 1.0, 0.0, 0, 0, rational).to_json()["exact"] == "1/1"


def test_weight_entry_json_reads_exact_strings():
    for text, value in (("-1/12", -1 / 12), ("3", 3.0), ("0/1", 0.0), ("2/04", 0.5)):
        obj = {"graph": "1;3;b1,b2", "alphas": [0, 0, 1], "value": value, "exact": text}
        assert WeightEntry.from_json(obj).exact == Fraction(text)


def test_builtin_table():
    t = WeightTable.builtin()
    prov = t.provenance()
    assert prov == {"exact": 42, "monte_carlo": 0}
    e = t.lookup_star(AdmissibleGraph.from_key("1;2;b1,b2"))
    assert e.exact == Fraction(1, 2)
    e2 = t.lookup_star(AdmissibleGraph.from_key("1;2;b2,b1"))
    assert e2.exact == Fraction(-1, 2)
    # every two-vertex star graph is covered
    from starcycle import star_graphs

    values = {}
    for g in star_graphs(2, 2):
        entry = t.lookup_star(g)
        assert entry is not None and entry.exact is not None
        values[g.canonical_key()] = entry.exact
    assert sorted(set(map(abs, values.values()))) == [
        Fraction(0), Fraction(1, 24), Fraction(1, 12), Fraction(1, 4)
    ]


def test_builtin_table_symmetries():
    # relabeling internal vertices preserves the weight; swapping the two
    # outgoing slots of a vertex flips its sign
    t = WeightTable.builtin()

    def w(key):
        return t.lookup_star(AdmissibleGraph.from_key(key)).exact

    assert w("2;2;b1,2|b2,1") == w("2;2;b2,2|b1,1")      # vertex relabel
    assert w("2;2;2,b1|b2,1") == -w("2;2;b1,2|b2,1")     # slot swap at vertex 1
    assert w("2;2;b1,2|1,b2") == -w("2;2;b1,2|b2,1")     # slot swap at vertex 2
    # every graph of orders 1 and 2: sign times its orbit representative
    for n in (1, 2):
        for g, (rep, sign) in star_orbits(n, 2).items():
            assert w(g.canonical_key()) == sign * w(rep.canonical_key()), g


def test_chunked_seeding_is_sample_count_stable():
    # the first chunk of a longer run reproduces the shorter run exactly
    g = AdmissibleGraph.from_key("1;3;b1,b2")
    small = compute_weight(g, CTX, 65536, 123)
    big = compute_weight(g, CTX, 2 * 65536, 123)
    assert small.value != big.value
    assert small.samples == 65536 and big.samples == 2 * 65536


def test_default_threads_is_one_unless_set(monkeypatch):
    monkeypatch.delenv("STARCYCLE_THREADS", raising=False)
    assert default_threads() == 1
    for bad in ("0", "-3", "four", "2.5"):
        monkeypatch.setenv("STARCYCLE_THREADS", bad)
        assert default_threads() == 1
    monkeypatch.setenv("STARCYCLE_THREADS", "3")
    assert default_threads() == 3


def test_nonpositive_samples_rejected():
    g = AdmissibleGraph.from_key("1;2;b1,b2")
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be positive"):
            halfplane_weight(g, samples, 1)
        with pytest.raises(ValueError, match="samples must be positive"):
            compute_weight(g.add_boundary_vertex(), CTX, samples, 1)


def test_tail_chunk_and_block_are_thread_count_stable():
    # one full chunk, then a tail chunk shorter than one sub-block
    samples = CHUNK + 1000
    g = AdmissibleGraph.from_key("2;2;b1,2|b2,1")
    routes = (lambda t: compute_weight(g.add_boundary_vertex(), CTX, samples, 8, threads=t),
              lambda t: halfplane_weight(g, samples, 8, threads=t))
    for run in routes:
        one, two = run(1), run(2)
        assert one.samples == samples
        assert json.dumps(one.to_json()) == json.dumps(two.to_json())


def _whole_chunk_draw(graph, ctx, edge_alphas, seed, chunk_index, size):
    """_disk_chunk as it was before it streamed its draws: all of u and v
    drawn up front, then the same blocks and sums."""
    n = graph.n
    rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
    u = rng.random((size, n))
    v = rng.random((size, n))
    dets = np.empty(size)
    for lo in range(0, size, weights.BLOCK):
        block = slice(lo, lo + weights.BLOCK)
        p = weights._disk_points(u[block].T.copy(), v[block].T.copy())
        dets[block] = _laplace_det(_disk_rows(graph, ctx.boundary_angles, edge_alphas, p), n, p.shape[1])
    return float(np.sum(dets)), float(np.sum(dets * dets))


# one live form per order: a disk graph at alphas with three nonzero entries
STREAMED = {1: "1;3;b1,b2", 2: "2;3;b1,2|b2,1", 3: "3;3;2,b1|3,b2|1,b3"}
STREAM_CTX = AngleContext.standard((0.3, -0.7, 1.1))


@pytest.mark.parametrize("n", sorted(STREAMED))
def test_streamed_chunk_is_bit_identical_to_the_whole_chunk_draw(n):
    # full, one short of full (a short last block) and shorter than a block
    g = AdmissibleGraph.from_key(STREAMED[n])
    edge_alphas = [STREAM_CTX.alphas] * g.edge_count
    for size in (CHUNK, CHUNK - 1, 1000):
        for chunk_index in (0, 3):
            args = (g, STREAM_CTX, edge_alphas, 5, chunk_index, size)
            streamed = weights._disk_chunk(*args)
            assert streamed[1] > 0.0
            assert streamed == _whole_chunk_draw(*args), (size, chunk_index)


@pytest.mark.parametrize("block", (1024, 2048, 8192))
def test_chunk_sums_do_not_depend_on_the_block_size(monkeypatch, block):
    # only below numpy's 256 KiB threshold for eliding temporaries, BLOCK <
    # 16384: past it a * b.conjugate() is computed as b.conjugate() * a
    for key in STREAMED.values():
        g = AdmissibleGraph.from_key(key)
        for size in (CHUNK, CHUNK - 1, 1000):
            args = (g, STREAM_CTX, [STREAM_CTX.alphas] * g.edge_count, 5, 1, size)
            monkeypatch.setattr(weights, "BLOCK", 4096)
            at_4096 = weights._disk_chunk(*args)
            monkeypatch.setattr(weights, "BLOCK", block)
            assert weights._disk_chunk(*args) == at_4096, (key, size)


def test_a_chunk_holds_one_block_of_draws():
    # drawn whole, u and v alone took 3 MiB at n = 3 (peak 4.79 MiB)
    g = AdmissibleGraph.from_key(STREAMED[3])
    args = (g, STREAM_CTX, [STREAM_CTX.alphas] * g.edge_count, 1, 0, CHUNK)
    weights._disk_chunk(*args)  # warm: first-call allocations are not the chunk's
    tracemalloc.start()
    try:
        weights._disk_chunk(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2 ** 20


# Each vertex aims at the other and at the same boundary point: the wedge
# of the four edge forms vanishes at every configuration.
POINTWISE_VANISHING = {
    "2;2;2,b1|1,b1", "2;2;2,b1|b1,1", "2;2;b1,2|1,b1", "2;2;b1,2|b1,1",
    "2;2;2,b2|1,b2", "2;2;2,b2|b2,1", "2;2;b2,2|1,b2", "2;2;b2,2|b2,1",
}


def test_pointwise_vanishing_graphs_are_exactly_zero():
    graphs = star_graphs(2, 2)
    assert POINTWISE_VANISHING <= {g.canonical_key() for g in graphs}
    for k, g in enumerate(graphs):
        for w in (compute_weight(g.add_boundary_vertex(), CTX, 4096, k),
                  halfplane_weight(g, 4096, k)):
            if g.canonical_key() in POINTWISE_VANISHING:
                assert (w.value, w.std_error) == (0.0, 0.0)
            else:
                assert w.std_error > 0.0


# Sampled values pinned across commits: a change to the RNG draw order, the
# seeding or the normalization shows here even when it is far below 3 sigma.
# A change to the estimator itself updates these figures on purpose.
# key: ((disk seed, value, std_error, rejected), (half-plane seed, ...))
PINNED = {
    "2;2;b1,2|b2,1": ((11, -0.051210325069900496, 0.005465524688034106, 0),
                      (21, -0.03601975417013544, 0.005800068312942249, 0)),
    "2;2;b1,b2|b1,b2": ((12, 0.25218109996407895, 0.001903685413312072, 0),
                        (22, 0.24771735395963038, 0.0026934477979758445, 0)),
    "2;2;2,b1|1,b1": ((13, 0.0, 0.0, 0), (23, 0.0, 0.0, 0)),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_sampled_values_are_pinned(key):
    g = AdmissibleGraph.from_key(key)
    samples = CHUNK + 1000
    (ds, *disk), (hs, *half) = PINNED[key]
    runs = ((compute_weight(g.add_boundary_vertex(), CTX, samples, ds), disk),
            (halfplane_weight(g, samples, hs), half))
    for w, (value, std_error, rejected) in runs:
        assert w.rejected == rejected
        if key in POINTWISE_VANISHING:
            assert (w.value, w.std_error) == (0.0, 0.0)
        else:
            assert abs(w.value - value) <= 1e-9 * std_error
            assert abs(w.std_error - std_error) <= 1e-9 * std_error


# -- the row kernel against finite differences of the closed-form angle -------

def _disk_edge_angles(graph, angles, edge_alphas, coords):
    """Angle of every edge, sum_k alpha_k arg((P-Q)(P-conj Q)) with P, Q the
    images under the map sending xi_k to infinity.  coords holds x_1, y_1,
    .., x_n, y_n."""
    n = graph.n
    points = [complex(coords[2 * i], coords[2 * i + 1]) for i in range(n)]
    out = []
    for (v, w), alphas in zip(graph.edges(), edge_alphas):
        total = 0.0
        for k, a in enumerate(alphas, start=1):
            if a == 0.0 or w == n + k:
                continue
            q = points[w - 1] if w <= n else cmath.exp(1j * angles[w - n - 1])
            xi = cmath.exp(1j * angles[k - 1])
            P, Q = cayley(points[v - 1], xi)[0], cayley(q, xi)[0]
            total += a * cmath.phase((P - Q) * (P - Q.conjugate()))
        out.append(total)
    return out


def _halfplane_edge_angles(graph, coords):
    """The half-plane slice's plain harmonic angle, with the interior
    points given in disk coordinates w and mapped by i(1+w)/(1-w)."""
    n = graph.n
    z = [1j * (1 + w) / (1 - w) for w in (complex(coords[2 * i], coords[2 * i + 1]) for i in range(n))]
    return [harmonic_angle_halfplane(z[v - 1], z[w - 1] if w <= n else (0j if w == n + 1 else 1 + 0j))
            for v, w in graph.edges()]


def _fd_rows(angle_fn, coords, step=1e-6):
    cols = []
    for i in range(len(coords)):
        hi, lo = list(coords), list(coords)
        hi[i] += step
        lo[i] -= step
        cols.append([wrap_angle(a - b) / (2 * step) for a, b in zip(angle_fn(hi), angle_fn(lo))])
    return np.array(cols).T


def _expand(rows, n):
    """The (E, 2n, S) real Jacobians of _disk_rows's coefficients: entries
    (Im c, Re c) at columns (x_i, y_i) of vertex i + 1, zero elsewhere."""
    S = next((c.shape[0] for row in rows for c in row.values()), 0)
    out = np.zeros((len(rows), 2 * n, S))
    for e, row in enumerate(rows):
        for i, c in row.items():
            out[e, 2 * i], out[e, 2 * i + 1] = c.imag, c.real
    return out


def _kernel_rows(graph, angles, edge_alphas, coords):
    p = np.array([[complex(coords[2 * i], coords[2 * i + 1])] for i in range(graph.n)])
    return _expand(_disk_rows(graph, angles, edge_alphas, p), graph.n)[:, :, 0]


CONFIGS = ((0.31 - 0.22j, -0.45 + 0.38j), (0.05 + 0.61j, 0.52 - 0.47j), (-0.7 - 0.1j, 0.2 + 0.15j))


@pytest.mark.parametrize("key, angles, alphas", [
    # interior and boundary targets, the sampler's default weighting
    ("2;3;b1,2|b2,1", (0.0, 2.0, 4.0), (0.0, 0.0, 1.0)),
    # every reference point in play, including one that is also a target
    ("2;3;b3,2|b2,1", (0.3, 2.0, 4.5), (0.4, -0.7, 1.3)),
    # sum(alpha) = 0, a difference form: a function of the source alone
    ("2;3;b3,2|b2,1", (0.3, 2.0, 4.5), (1.0, 0.0, -1.0)),
])
def test_kernel_rows_match_finite_differences(key, angles, alphas):
    g = AdmissibleGraph.from_key(key)
    edge_alphas = [alphas] * g.edge_count
    for points in CONFIGS:
        coords = [c for z in points for c in (z.real, z.imag)]
        rows = _kernel_rows(g, angles, edge_alphas, coords)
        fd = _fd_rows(lambda c: _disk_edge_angles(g, angles, edge_alphas, c), coords)
        assert rows.shape == fd.shape == (g.edge_count, len(coords))
        assert np.allclose(rows, fd, rtol=1e-6, atol=1e-6)
    if sum(alphas) == 0.0:
        # no edge has a coefficient on its target
        coefficients = _disk_rows(g, angles, edge_alphas, np.array([[z] for z in CONFIGS[0]]))
        assert [list(row) for row in coefficients] == [[v - 1] for v, _ in g.edges()]


def test_halfplane_gauge_rows_match_finite_differences():
    # rows in disk coordinates for the half-plane slice: the disk kernel at
    # boundary angles (pi, 3pi/2, 0), weight on the point sent to infinity
    for key in ("2;2;b1,2|b2,1", "2;2;2,b2|b1,b2"):
        g = AdmissibleGraph.from_key(key)
        edge_alphas = [_HALFPLANE.alphas] * g.edge_count
        for points in CONFIGS:
            coords = [c for z in points for c in (z.real, z.imag)]
            rows = _kernel_rows(g, _HALFPLANE.boundary_angles, edge_alphas, coords)
            fd = _fd_rows(lambda c: _halfplane_edge_angles(g, c), coords)
            assert np.allclose(rows, fd, rtol=1e-6, atol=1e-6)


# -- the determinant against LAPACK ------------------------------------------

def _lapack_det(rows, n, size):
    if n == 0:
        return np.ones(size)
    return np.linalg.det(_expand(rows, n).transpose(2, 0, 1))


def _hadamard(a):
    return np.prod(np.sqrt(np.sum(a * a, axis=1)), axis=0)


def _coefficient_stacks(n, S=512, seed=0):
    """(name, rows) with 2n rows of S samples as _disk_rows returns them:
    every row on every vertex, rows on one or two vertices with the other
    pairs empty (as in the kernel, where an edge touches only its ends),
    and a repeated row."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
    scale = rng.uniform(0.1, 10.0, (2 * n, 1, S))
    dense = (rng.standard_normal((2 * n, n, S)) + 1j * rng.standard_normal((2 * n, n, S))) * scale
    yield "dense", [{i: dense[e, i] for i in range(n)} for e in range(2 * n)]
    ends = rng.integers(0, n, (2 * n, 2)) if n else np.zeros((0, 2), dtype=int)
    yield "sparse", [{int(i): dense[e, i] for i in set(ends[e])} for e in range(2 * n)]
    if n:
        repeated = [{i: dense[e, i] for i in range(n)} for e in range(2 * n)]
        repeated[-1] = repeated[rng.integers(0, 2 * n - 1)]
        yield "repeated row", repeated


@pytest.mark.parametrize("D", (0, 2, 4, 6))
def test_laplace_det_matches_lapack(D):
    n = D // 2
    for name, rows in _coefficient_stacks(n):
        det = _laplace_det(rows, n, 512)
        assert det.shape == (512,), name
        bound = 1e-14 * _hadamard(_expand(rows, n)) if n else 1e-14
        assert np.all(np.abs(det - _lapack_det(rows, n, 512)) <= bound), name
        if name == "repeated row":
            assert np.all(np.abs(det) <= bound)


def test_laplace_det_without_a_term_is_exactly_zero():
    # vertex 1 has only row 0 on it, so no pair of rows covers its columns
    # and every term of the expansion is structurally empty: exact zeros,
    # not roundoff
    c = np.array([1.0 + 2.0j, -0.5j, 3.0, 0.1 - 7.0j])
    rows = [{0: c, 1: c}, {1: c}, {1: 2j * c}, {1: 1 + c}]
    assert np.array_equal(_laplace_det(rows, 2, 4), np.zeros(4))


@pytest.mark.parametrize("D", (2, 4, 6))
def test_laplace_det_nonfinite_entry_marks_only_its_sample(D):
    n = D // 2
    rows = next(_coefficient_stacks(n, S=8))[1]
    for bad in (np.nan, np.inf, -np.inf):
        for e in range(2 * n):
            for i in range(n):
                for part in ("real", "imag"):
                    changed = [dict(row) for row in rows]
                    changed[e][i] = c = rows[e][i].copy()
                    getattr(c, part)[3] = bad
                    with np.errstate(invalid="ignore"):
                        det = _laplace_det(changed, n, 8)
                    assert list(np.flatnonzero(~np.isfinite(det))) == [3]


def _unplanned_laplace_det(rows, n, size):
    """_laplace_det as it was before its expansion was planned once per
    row shape: the same terms, formed and summed afresh on every call."""
    minors = {(): np.ones(size)}
    for i in range(n - 1, -1, -1):
        touching = [(r, row[i]) for r, row in enumerate(rows) if i in row]
        pairs = [(r, s, (c_r * c_s.conjugate()).imag)
                 for (r, c_r), (s, c_s) in itertools.combinations(touching, 2)]
        late = {r for r, row in enumerate(rows) if min(row, default=n) >= i}
        wider = {}
        for rest, sub in minors.items():
            for r, s, m in pairs:
                T = tuple(sorted(rest + (r, s)))
                if r in rest or s in rest or not late.issubset(T):
                    continue
                a, b = T.index(r), T.index(s)
                term = m * sub if (a + b) % 2 else -(m * sub)
                wider[T] = wider[T] + term if T in wider else term
        minors = wider
    return minors.get(tuple(range(len(rows))), np.zeros(size))


def test_laplace_plan_is_shared_by_shape_and_never_by_values():
    # D = 6, 2, 4 and 6 again, interleaved, each with new values: the bits
    # of the unplanned expansion, within roundoff of LAPACK
    before = weights._laplace_plan.cache_info().hits
    for seed, D in enumerate((6, 2, 4, 6), start=1):
        n = D // 2
        for name, rows in _coefficient_stacks(n, S=64, seed=seed):
            det = _laplace_det(rows, n, 64)
            assert np.array_equal(det, _unplanned_laplace_det(rows, n, 64)), (D, name)
            bound = 1e-14 * _hadamard(_expand(rows, n))
            assert np.all(np.abs(det - _lapack_det(rows, n, 64)) <= bound), (D, name)
    assert weights._laplace_plan.cache_info().hits > before
    # one shape, two sets of values: two results, and the first is unchanged
    a, b = (next(_coefficient_stacks(2, S=64, seed=seed))[1] for seed in (7, 8))
    det_a = _laplace_det(a, 2, 64)
    det_b = _laplace_det(b, 2, 64)
    assert not np.shares_memory(det_a, det_b) and np.all(det_a != det_b)
    assert np.array_equal(_laplace_det(a, 2, 64), det_a)
    # a non-finite entry still marks its own sample only, on a cached plan
    a[2][1] = c = a[2][1].copy()
    c.real[5] = np.nan
    with np.errstate(invalid="ignore"):
        assert list(np.flatnonzero(~np.isfinite(_laplace_det(a, 2, 64)))) == [5]
    assert np.array_equal(_laplace_det([], 0, 3), np.ones(3))


def test_order_three_weight_matches_lapack_determinants(monkeypatch):
    # n = 3, m = 3: 6x6 Jacobians; two sub-blocks and a second, short chunk
    g = AdmissibleGraph.from_key("3;3;2,b1|3,b2|1,b3")
    ctx = AngleContext.standard((0.3, -0.5, 1.2))
    samples = CHUNK + 5000
    new = compute_weight(g, ctx, samples, 17)
    monkeypatch.setattr(weights, "_laplace_det", _lapack_det)
    ref = compute_weight(g, ctx, samples, 17)
    assert new.rejected == ref.rejected
    assert ref.std_error > 0.0
    assert abs(new.value - ref.value) <= 1e-12 * abs(ref.value)
    assert abs(new.std_error - ref.std_error) <= 1e-12 * ref.std_error


# -- the structural zero certificate ------------------------------------------

def _float_rule_zero(graph, boundary_angles, edge_alphas, size=256):
    """The float rule the certificate replaced, kept here as its reference:
    a form reads zero when at `size` uniform points every determinant is at
    most 1e-12 of its Hadamard bound, the product of its row norms."""
    rng = np.random.default_rng(np.random.SeedSequence(5))
    p = weights._disk_points(rng.random((graph.n, size)), rng.random((graph.n, size)))
    rows = _disk_rows(graph, boundary_angles, edge_alphas, p)
    hadamard = np.ones(size)
    for row in rows:
        hadamard *= np.sqrt(sum(abs(c) ** 2 for c in row.values()))
    return bool(np.all(np.abs(_laplace_det(rows, graph.n, size)) <= 1e-12 * hadamard))


ALPHAS = ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 1 / 3, 1 / 6),
          (2.0, -1.0, 0.0), (0.5, 0.5, 0.0), (0.3, -0.5, 1.2), (1.0, 0.0, -1.0))


def _order_two_star_graphs():
    """Every star graph of orders 1 and 2 at m = 3, the m = 2 ones embedded."""
    graphs = star_graphs(1, 3) + star_graphs(2, 3)
    graphs += [g.add_boundary_vertex() for n in (1, 2) for g in star_graphs(n, 2)]
    return sorted({g.canonical_key(): g for g in graphs}.values(), key=AdmissibleGraph.canonical_key)


def _forms(graphs, alphas):
    """(graph, boundary angles, edge alphas) of each graph at each alpha."""
    for a in alphas:
        ctx = AngleContext.standard(a)
        for g in graphs:
            yield g, ctx.boundary_angles, [ctx.alphas] * g.edge_count


def _difference_forms(graphs, pairs):
    """Each edge of each graph in turn given the form of alpha' - alpha."""
    for a, b in pairs:
        ctx = AngleContext.standard(a)
        delta = tuple(y - x for x, y in zip(ctx.alphas, AngleContext.standard(b).alphas))
        for g in graphs:
            for e in range(g.edge_count):
                edge_alphas = [ctx.alphas] * g.edge_count
                edge_alphas[e] = delta
                yield g, ctx.boundary_angles, edge_alphas


def _certified(forms, match=True):
    """Number of forms certified zero; each agrees with the float reference
    (match), or, if not, is at least never certified when the reference
    reads it nonzero."""
    certified = 0
    for g, angles, edge_alphas in forms:
        zero = weights._vanishes(g, edge_alphas)
        reference = _float_rule_zero(g, angles, edge_alphas)
        assert (zero == reference) if match else (reference or not zero), (g, edge_alphas)
        certified += zero
    return certified


def test_vanishing_certificate_matches_float_rule():
    stars = _order_two_star_graphs()
    assert len(stars) == 150
    assert _certified(_forms(stars, ALPHAS)) == 634
    # order 3: one representative of each orbit
    reps = sorted({rep for rep, _ in star_orbits(3, 3).values()}, key=AdmissibleGraph.canonical_key)
    assert len(reps) == 190
    assert _certified(_forms(reps, ALPHAS[:1] + ALPHAS[3:4])) == 163
    halfplane = [(g, _HALFPLANE.boundary_angles, [_HALFPLANE.alphas] * g.edge_count)
                 for g in star_graphs(1, 2) + star_graphs(2, 2)]
    assert _certified(halfplane) == 8
    # top-degree graphs of order 2 that are not star graphs
    keys = {g.canonical_key() for g in stars}
    others = [g for g in enumerate_graphs(2, 3, 4) if g.canonical_key() not in keys]
    assert len(others) == 240
    assert _certified(_forms(others, ALPHAS)) == 1332


def test_vanishing_certificate_matches_float_rule_on_difference_forms():
    # alpha pairs whose two sums are equal in binary: the difference edge's
    # alphas sum to exactly 0, a function of its source alone
    pairs = (((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)), ((0.0, 0.0, 1.0), (0.5, 0.5, 0.0)),
             ((2.0, -1.0, 0.0), (0.25, 0.75, 0.0)), ((1.0, 0.0, -1.0), (0.0, 0.5, -0.5)))
    assert all(sum(map(Fraction, a)) == sum(map(Fraction, b)) for a, b in pairs)
    stars = _order_two_star_graphs()
    assert _certified(_difference_forms(stars, pairs)) == 1796
    # sums that differ in binary: such a form is not zero, only of order
    # 1e-17, and the float reference rounds it to zero.  The certificate
    # may leave it to the sampler, but never certifies a form the
    # reference reads as nonzero
    pairs = (((0.5, 1 / 3, 1 / 6), (0.0, 0.0, 1.0)), ((0.0, 0.0, 1.0), (0.5, 1 / 3, 1 / 6)),
             ((0.3, -0.5, 1.2), (1.0, 0.0, 0.0)))
    assert all(sum(map(Fraction, a)) != sum(map(Fraction, b)) for a, b in pairs)
    assert _certified(_difference_forms(stars, pairs), match=False) == 364


def test_difference_form_of_unequal_binary_sums_is_sampled():
    # 0.5 + 1/3 + 1/6 is not 1 in binary, so the two edges' coefficients
    # are parallel only up to 1e-17: the form is sampled, and reads tiny
    g = AdmissibleGraph.from_key("1;3;b1,b3")
    w = mixed_edge_integral(g, AngleContext.standard((0.5, 1 / 3, 1 / 6)),
                            AngleContext.standard((0.0, 0.0, 1.0)), 0, 1 << 14, 9)
    assert w.std_error > 0.0
    assert abs(w.value) < 1e-12


def test_certified_graphs_are_not_sampled(monkeypatch):
    def no_draw(*args):
        raise AssertionError("a certified zero form was sampled")

    monkeypatch.setattr(weights, "_disk_chunk", no_draw)
    for k, key in enumerate(sorted(POINTWISE_VANISHING)):
        g = AdmissibleGraph.from_key(key)
        for w in (compute_weight(g.add_boundary_vertex(), CTX, 5000, k, threads=2),
                  halfplane_weight(g, 5000, k)):
            assert (w.value, w.std_error, w.samples, w.seed, w.rejected) == (0.0, 0.0, 5000, k, 0)
    # a replacement equal to the context leaves the chosen edge a zero row
    w = mixed_edge_integral(AdmissibleGraph.from_key("1;3;b1,b2"), CTX, CTX, 0, 100, 3)
    assert (w.value, w.std_error, w.samples) == (0.0, 0.0, 100)


def test_nonpositive_samples_raise_before_the_certificate(monkeypatch):
    def unused(*args):
        raise AssertionError("the certificate was consulted")

    monkeypatch.setattr(weights, "_vanishes", unused)
    g = AdmissibleGraph.from_key("2;2;2,b1|1,b1")
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples must be positive"):
            halfplane_weight(g, samples, 1)
        with pytest.raises(ValueError, match="samples must be positive"):
            compute_weight(g.add_boundary_vertex(), CTX, samples, 1)


def test_one_sample_is_refused_not_reported_with_a_zero_error():
    # a std_error of 0.0 is what a certified zero reports; one sample has no error bar
    g = AdmissibleGraph.from_key("1;2;b1,b2")
    for weigh in (lambda: halfplane_weight(g, 1, 3),
                  lambda: compute_weight(g.add_boundary_vertex(), CTX, 1, 3)):
        with pytest.raises(ValueError, match="^samples must be at least 2: one sample has no error bar$"):
            weigh()


def test_non_star_zero_forms_are_certified_and_not_drawn(monkeypatch):
    # in both graphs vertex 2 has three edges and the wedge vanishes at
    # every point.  "2;3;|1,b1,b2,b3": three forms on the 2-dimensional
    # point 2, each on the source alone.  "2;3;b3|1,b1,b2": the angles of
    # 2 -> b1 (from xi_2) and 2 -> b2 (from xi_1) are both constant on the
    # circles through xi_1 and xi_2, and their betas are parallel
    def no_draw(*args):
        raise AssertionError("a certified zero form was sampled")

    monkeypatch.setattr(weights, "_disk_chunk", no_draw)
    ctx = AngleContext.standard((0.5, 0.5, 0.0))
    for key in ("2;3;|1,b1,b2,b3", "2;3;b3|1,b1,b2"):
        g = AdmissibleGraph.from_key(key)
        w = compute_weight(g, ctx, 2 * CHUNK + 100, 9)
        assert (w.value, w.std_error, w.samples) == (0.0, 0.0, 2 * CHUNK + 100), key


def test_disk_route_needs_three_boundary_points():
    g = AdmissibleGraph.from_key("1;2;b1,b2")
    ctx = AngleContext.standard((0.0, 1.0))
    with pytest.raises(ValueError, match="m == 3"):
        weights._disk_weight(g, ctx, [ctx.alphas] * g.edge_count, 1 << 10, 0, 1)
    with pytest.raises(ValueError, match="m == 3"):
        mixed_edge_integral(g, ctx, AngleContext.standard((1.0, 0.0)), 0, 1 << 10, 0)
    # m = 4, with the 2n + m - 3 edges of top degree
    g = AdmissibleGraph.from_key("1;4;b1,b2,b4")
    ctx = AngleContext.standard((0.5, 0.0, 0.25, 1.0))
    with pytest.raises(ValueError, match="m == 3"):
        compute_weight(g, ctx, 1 << 10, 0)
    with pytest.raises(ValueError, match="m == 3"):
        mixed_edge_integral(g, ctx, AngleContext.standard((1.0, 0.0, 0.0, 0.75)), 0, 1 << 10, 0)


# -- the point draw and overflow ----------------------------------------------

def test_tangent_draw_matches_complex_exp():
    # |p| < 1 is why no gauge or boundary term divides by zero, so the
    # sampler keeps every sample it draws
    rng = np.random.default_rng(np.random.SeedSequence(2024))
    seeded = (rng.random((1 << 19, 2)), rng.random((1 << 19, 2)))  # 2^20 points
    edge_v = [0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0), 1.0 - 2.0 ** -53]
    edges = np.meshgrid([0.0, 2.0 ** -1074, 0.5, 1.0 - 2.0 ** -53], edge_v)
    for u, v in (seeded, edges):
        p = weights._disk_points(u, v)
        assert p.shape == u.shape and p.flags.c_contiguous
        assert np.max(np.abs(p - np.sqrt(u) * np.exp(2j * np.pi * v))) <= 2e-15
        assert np.all(np.abs(p) < 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_determinants_raise_naming_the_graph():
    # the four unpinned order-1 graphs used to read 0.0 +- 0.0, every
    # sample dropped as non-finite.  The error is raised with no numpy
    # RuntimeWarning on the way, in the caller's thread or a worker's
    g = AdmissibleGraph.from_key("1;3;b1,b3")
    ctx = AngleContext.standard((1e300, 1e300, 0.0))
    for threads in (1, 2):
        with pytest.raises(ValueError, match=r"graph 1;3;b1,b3 at alpha=\[1e\+300, 1e\+300, 0\.0\]: "
                                             "the determinants overflow"):
            compute_weight(g, ctx, 1000, 1, threads=threads)


def test_alphas_with_an_overflowing_sum_raise_before_sampling(monkeypatch):
    def unused(*args):
        raise AssertionError("sampled or certified")

    monkeypatch.setattr(weights, "_vanishes", unused)
    monkeypatch.setattr(weights, "_disk_chunk", unused)
    g = AdmissibleGraph.from_key("1;3;b1,b2")
    with pytest.raises(ValueError, match="have a sum that is not finite"):
        compute_weight(g, AngleContext.standard((1e308, 1e308, 0.0)), 1000, 1)
    # the difference form of one edge: 1e308 - (-1e308) overflows on its own
    with pytest.raises(ValueError, match=r"edge alphas \[inf, 0\.0, 0\.0\]"):
        mixed_edge_integral(g, AngleContext.standard((-1e308, 0.0, 1.0)),
                            AngleContext.standard((1e308, 0.0, 1.0)), 0, 1000, 1)
