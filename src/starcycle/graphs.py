"""Admissible graphs: labeled directed graphs with ordered stars.

Internal vertices are 1..n, boundary vertices n+1..n+m.  Edges leave
internal vertices only; no self-loops; no repeated target inside one
star (parallel edges wedge the same angle form to zero, so they are
pruned at enumeration time).  Graphs stay fully labeled, and weight
tables are keyed by labeled graphs.  Star graphs are also grouped into
orbits under relabeling the internal vertices and swapping a vertex's two
slots (`star_orbits`): assembly contracts one representative per orbit.
A graph's one serialized form is its canonical key, "2;2;b1,2|b2,1":
weight tables, reports and `graphs enumerate` all name graphs by it.
"""

from __future__ import annotations

import functools
import itertools
from types import MappingProxyType


def _decode_stars(n, m, stars):
    """Target names to vertex numbers: "k" is internal vertex k in 1..n,
    "bK" is boundary vertex n+K for K in 1..m."""
    def decode(name):
        name = str(name)
        boundary = name.startswith("b")
        k = int(name[1:] if boundary else name)
        if not 1 <= k <= (m if boundary else n):
            raise ValueError("target %r out of range for n=%d, m=%d" % (name, n, m))
        return n + k if boundary else k
    return [tuple(decode(name) for name in star) for star in stars]


class AdmissibleGraph:
    __slots__ = ("n", "m", "stars")

    def __init__(self, n: int, m: int, stars):
        stars = tuple(tuple(int(t) for t in star) for star in stars)
        if n < 0 or m < 0:
            raise ValueError("n and m must be >= 0")
        if 2 * n + m - 3 < 0:
            raise ValueError("need 2n + m >= 3")
        if len(stars) != n:
            raise ValueError("expected %d stars, got %d" % (n, len(stars)))
        for k, star in enumerate(stars, start=1):
            for t in star:
                if t == k:
                    raise ValueError("self-loop at vertex %d" % k)
                if not 1 <= t <= n + m:
                    raise ValueError("target %d out of range" % t)
            if len(set(star)) != len(star):
                raise ValueError("repeated target in star of vertex %d" % k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "stars", stars)

    def __setattr__(self, name, value):
        raise AttributeError("AdmissibleGraph is immutable")

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.stars)

    def edges(self):
        """Edges as (source, target) pairs, ordered by (source, star slot)."""
        return [(k, t) for k, star in enumerate(self.stars, start=1) for t in star]

    def is_boundary(self, v: int) -> bool:
        return v > self.n

    def is_star_graph(self) -> bool:
        return all(len(s) == 2 for s in self.stars)

    def _target_name(self, t: int) -> str:
        return "b%d" % (t - self.n) if t > self.n else str(t)

    def canonical_key(self) -> str:
        body = "|".join(",".join(self._target_name(t) for t in star) for star in self.stars)
        return "%d;%d;%s" % (self.n, self.m, body)

    @classmethod
    def from_key(cls, key: str) -> "AdmissibleGraph":
        parts = key.split(";")
        if len(parts) != 3:
            raise ValueError("bad graph key %r" % key)
        n, m = int(parts[0]), int(parts[1])
        # n stars even when all are empty ("1;2;"); no stars only for n = 0
        chunks = parts[2].split("|") if n or parts[2] else []
        return cls(n, m, _decode_stars(n, m, ([t for t in c.split(",") if t] for c in chunks)))

    def add_boundary_vertex(self) -> "AdmissibleGraph":
        """Append an unused boundary vertex; existing target codes survive."""
        return AdmissibleGraph(self.n, self.m + 1, self.stars)

    def __eq__(self, other):
        if not isinstance(other, AdmissibleGraph):
            return NotImplemented
        return (self.n, self.m, self.stars) == (other.n, other.m, other.stars)

    def __hash__(self):
        return hash((self.n, self.m, self.stars))

    def __repr__(self):
        return "AdmissibleGraph(%r)" % self.canonical_key()


def top_edge_count(n: int, m: int) -> int:
    """Edge count of top-degree weight forms over the gauge-fixed slice."""
    return 2 * n + m - 3


def _compositions(total, parts, cap):
    """Ordered ways to write total as `parts` integers in [0, cap], lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, cap) + 1):
        for rest in _compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def _graphs(n, m, degrees):
    """Labeled admissible graphs whose vertex k has out-degree degrees[k-1],
    in stable order."""
    pools = [itertools.permutations([t for t in range(1, n + m + 1) if t != k], d)
             for k, d in enumerate(degrees, start=1)]
    return [AdmissibleGraph(n, m, stars) for stars in itertools.product(*pools)]


def enumerate_graphs(n: int, m: int, edge_count: int):
    """All labeled admissible graphs with the given totals, stable order."""
    if n < 0 or m < 0 or 2 * n + m < 3:
        raise ValueError("need n >= 0, m >= 0, 2n + m >= 3")
    if edge_count < 0 or edge_count > n * (n - 1 + m):
        return []  # else _compositions would search about cap^n tuples for nothing
    return [g for degrees in _compositions(edge_count, n, n - 1 + m)
            for g in _graphs(n, m, degrees)]


def star_graphs(n: int, m: int):
    """Graphs with out-degree exactly 2 everywhere (bivector insertions)."""
    if n < 1:
        raise ValueError("star_graphs needs n >= 1")
    return _graphs(n, m, [2] * n)


@functools.lru_cache(maxsize=None)
def star_orbits(n: int, m: int):
    """Map each graph of star_graphs(n, m) to (representative, sign).

    The group is S_n relabeling the internal vertices times a swap of the
    two slots at each vertex, n! 2^n elements.  With the same bivector at
    every vertex, relabeling leaves the contraction U_Gamma unchanged and
    a swap negates it, so U_Gamma = sign * U_rep.  The representative is
    the orbit's least `stars` tuple, and sign is (-1)^(swaps taking the
    graph to it), or 0 on an orbit where an odd self-symmetry forces
    U = 0.  Cached per (n, m) and read-only, in star_graphs order.
    """
    graphs = star_graphs(n, m)
    found = {}
    for g in graphs:
        if g in found:
            continue
        parities = {}  # image stars -> swap parities that reach it from g
        for perm in itertools.permutations(range(1, n + 1)):
            ren = dict(zip(range(1, n + 1), perm))
            moved = [None] * n
            for k, star in enumerate(g.stars, start=1):
                moved[ren[k] - 1] = tuple(ren.get(t, t) for t in star)
            for swaps in itertools.product((0, 1), repeat=n):
                image = tuple(s[::-1] if sw else s for s, sw in zip(moved, swaps))
                parities.setdefault(image, set()).add(sum(swaps) % 2)
        least = min(parities)
        rep, to_rep = AdmissibleGraph(n, m, least), min(parities[least])
        for image, ps in parities.items():
            # an image reached with both parities has an odd self-symmetry
            sign = 0 if len(ps) == 2 else (-1) ** (min(ps) ^ to_rep)
            found[AdmissibleGraph(n, m, image)] = (rep, sign)
    return MappingProxyType({g: found[g] for g in graphs})
