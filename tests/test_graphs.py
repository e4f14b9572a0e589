"""Directed graph enumeration and canonical labeling."""

import itertools

import pytest

from starcycle import AdmissibleGraph, enumerate_graphs, star_graphs, top_edge_count
from starcycle.graphs import star_orbits


def test_basic_construction():
    # internal vertices 1..n, boundary vertices n+1..n+m;
    # stars list the ordered edge targets of each internal vertex
    g = AdmissibleGraph(2, 2, [(3, 2), (4, 1)])
    assert g.n == 2 and g.m == 2
    assert g.edge_count == 4
    assert g.stars == ((3, 2), (4, 1))
    assert g.is_boundary(3) and g.is_boundary(4)
    assert not g.is_boundary(1)


def test_edges_ordered_by_source_slot():
    g = AdmissibleGraph.from_key("2;2;b1,2|b2,1")
    assert g.edges() == [(1, 3), (1, 2), (2, 4), (2, 1)]


def test_canonical_key_round_trip():
    for key in ("1;2;b1,b2", "2;2;b1,2|b2,1", "1;3;b1,b3", "2;2;b1,b2|b1,b2"):
        g = AdmissibleGraph.from_key(key)
        assert g.canonical_key() == key
        assert AdmissibleGraph.from_key(g.canonical_key()).stars == g.stars


def test_validation():
    with pytest.raises(ValueError):
        AdmissibleGraph(1, 2, [(1, 2)])     # self loop at vertex 1
    with pytest.raises(ValueError):
        AdmissibleGraph(1, 2, [(9, 2)])     # target out of range
    with pytest.raises(ValueError):
        AdmissibleGraph(1, 2, [(2, 2)])     # parallel edge in one star
    with pytest.raises(ValueError):
        AdmissibleGraph(2, 2, [(3, 4)])     # one star per internal vertex


def test_empty_stars_round_trip():
    # an edgeless graph with n > 0 keeps its n empty stars through its key
    g = AdmissibleGraph(1, 2, [()])
    assert g.canonical_key() == "1;2;"
    assert AdmissibleGraph.from_key("1;2;") == g
    assert AdmissibleGraph.from_key("2;2;|") == AdmissibleGraph(2, 2, [(), ()])
    assert AdmissibleGraph.from_key("0;3;").stars == ()
    with pytest.raises(ValueError):
        AdmissibleGraph.from_key("0;3;b1")


def test_enumeration_counts():
    assert len(enumerate_graphs(1, 3, 2)) == 6
    assert len(enumerate_graphs(1, 2, 2)) == 2
    only = enumerate_graphs(0, 3, 0)
    assert len(only) == 1 and only[0].edge_count == 0
    # fully labeled two-vertex enumeration; the out-degree-2 subset has 36
    assert len(enumerate_graphs(2, 2, 4)) == 72


def test_enumeration_keys_unique_and_stable():
    graphs = enumerate_graphs(2, 2, 4)
    keys = [g.canonical_key() for g in graphs]
    assert len(set(keys)) == len(keys)
    assert keys == [g.canonical_key() for g in enumerate_graphs(2, 2, 4)]


def test_star_graphs():
    assert len(star_graphs(1, 2)) == 2
    assert len(star_graphs(2, 2)) == 36
    assert len(star_graphs(1, 3)) == 6
    for g in star_graphs(2, 2):
        assert g.is_star_graph()
        assert all(len(s) == 2 for s in g.stars)
    # star graphs are exactly the out-degree-2 slice of the full enumeration
    full = {g.canonical_key() for g in enumerate_graphs(2, 2, 4) if g.is_star_graph()}
    assert full == {g.canonical_key() for g in star_graphs(2, 2)}


def test_top_edge_count():
    # dimension of the gauge-fixed configuration space, 2n + m - 3
    assert top_edge_count(1, 2) == 1
    assert top_edge_count(2, 2) == 3
    assert top_edge_count(1, 3) == 2
    assert top_edge_count(2, 3) == 4


def test_add_boundary_vertex():
    g = AdmissibleGraph.from_key("1;2;b1,b2")
    bigger = g.add_boundary_vertex()
    assert bigger.m == 3
    assert bigger.n == 1
    # existing targets are preserved under the embedding
    assert bigger.canonical_key() == "1;3;b1,b2"


def test_enumerate_validation():
    with pytest.raises(ValueError):
        enumerate_graphs(-1, 2, 0)
    with pytest.raises(ValueError):
        enumerate_graphs(0, 2, 0)     # 2n + m must be at least 3
    assert enumerate_graphs(1, 2, -1) == []
    assert enumerate_graphs(1, 2, 99) == []


def old_enumerate_graphs(n, m, edge_count):
    """The reference: the generator as it was before it shared its loop
    with star_graphs, with its own n = 0 branch, and the degree tuples
    searched by brute force in place of _compositions."""
    if n < 0 or m < 0 or 2 * n + m < 3:
        raise ValueError("need n >= 0, m >= 0, 2n + m >= 3")
    if edge_count < 0 or (n > 0 and edge_count > n * (n - 1 + m)):
        return []
    if n == 0:
        return [AdmissibleGraph(0, m, [])] if edge_count == 0 else []
    allowed = [[t for t in range(1, n + m + 1) if t != k] for k in range(1, n + 1)]
    out = []
    for degrees in itertools.product(range(n - 1 + m + 1), repeat=n):
        if sum(degrees) != edge_count:
            continue
        pools = [itertools.permutations(allowed[k], d) for k, d in enumerate(degrees)]
        out.extend(AdmissibleGraph(n, m, stars) for stars in itertools.product(*pools))
    return out


def old_star_graphs(n, m):
    if n < 1:
        raise ValueError("star_graphs needs n >= 1")
    allowed = [[t for t in range(1, n + m + 1) if t != k] for k in range(1, n + 1)]
    pools = [itertools.permutations(a, 2) for a in allowed]
    return [AdmissibleGraph(n, m, stars) for stars in itertools.product(*pools)]


@pytest.mark.parametrize("n, m, edges", [
    (0, 3, 0), (0, 3, 1), (0, 4, 0), (1, 2, -1), (1, 2, 0), (1, 2, 1), (1, 2, 2), (1, 2, 99),
    (1, 3, 2), (2, 1, 2), (2, 2, 3), (2, 2, 4), (2, 2, 6), (2, 2, 7), (2, 3, 4), (3, 2, 6),
])
def test_generators_match_the_reference(n, m, edges):
    assert enumerate_graphs(n, m, edges) == old_enumerate_graphs(n, m, edges)
    if n >= 1:
        assert star_graphs(n, m) == old_star_graphs(n, m)
    else:
        with pytest.raises(ValueError, match="n >= 1"):
            star_graphs(n, m)


@pytest.mark.parametrize("key", ["2;2;3,b2|1,b1", "2;2;b0,b1|1,b1", "3;3;b-1,b1|1,b1|1,2"])
def test_out_of_range_target_names_are_rejected(key):
    # internal names must lie in 1..n and boundary names in b1..bm
    with pytest.raises(ValueError):
        AdmissibleGraph.from_key(key)


def test_every_star_graph_key_round_trips():
    for g in star_graphs(2, 3):
        assert AdmissibleGraph.from_key(g.canonical_key()) == g


@pytest.mark.parametrize("n, orbits, forced_zero", [(1, 1, 0), (2, 6, 0), (3, 44, 6)])
def test_star_orbit_counts(n, orbits, forced_zero):
    # S_n relabelings times per-vertex slot swaps acting on star_graphs(n, 2)
    graphs = star_graphs(n, 2)
    table = star_orbits(n, 2)
    assert list(table) == graphs
    reps = {rep for rep, _ in table.values()}
    assert len(reps) == orbits
    assert len({rep for rep, sign in table.values() if sign == 0}) == forced_zero
    for g, (rep, sign) in table.items():
        assert sign in (-1, 0, 1)
        assert rep.stars <= g.stars
        # a representative is its own, with sign +1 unless its orbit is forced to zero
        assert table[rep] == (rep, 1 if sign else 0)
    assert star_orbits(n, 2) is table
    with pytest.raises(TypeError):
        table[graphs[0]] = (graphs[0], 1)


def test_star_orbit_signs_count_slot_swaps():
    a = AdmissibleGraph.from_key("2;2;2,b1|1,b2")
    rep, sign = star_orbits(2, 2)[a]
    swapped = AdmissibleGraph.from_key("2;2;b1,2|1,b2")
    relabeled = AdmissibleGraph.from_key("2;2;2,b2|1,b1")
    assert star_orbits(2, 2)[swapped] == (rep, -sign)
    assert star_orbits(2, 2)[relabeled] == (rep, sign)
    # relabeling 1 <-> 2 and then swapping all three slots carries the
    # triangle to itself: an odd self-symmetry, so U = -U = 0
    tri = AdmissibleGraph.from_key("3;2;2,3|3,1|1,2")
    assert star_orbits(3, 2)[tri][1] == 0
