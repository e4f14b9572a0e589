"""Monte Carlo evaluation of graph weights.

The weight of a top-degree graph is the integral of the wedge of its
edge angle 1-forms over the gauge-fixed configuration space, normalized
by (2*pi) per edge.  Gauge fixing pins the boundary points: for m = 3
(the alpha-weighted weights) that absorbs all three PSL2(R) degrees of
freedom and the integral runs over the n interior points only; for
m = 2 (the star product) the classical half-plane slice is used
(boundary at 0 and 1, plain harmonic angle).  No other m is sampled.

One row kernel, _disk_rows, serves both routes.  In disk coordinates an
edge's row is one complex coefficient c per (edge, vertex), with entries
(Im c, Re c) at (x, y) of the vertex (angles.py): the pair term's, of
weight A = sum_k alpha_k, on the source and the target, plus on the source
the gauge term of the vertex.  The half-plane slice is the disk chart with
boundary angles (pi, 3pi/2, 0) and weight (0, 0, 1): the Cayley map at
xi = 1, i(1+w)/(1-w), sends those points to 0, 1 and infinity, and a
determinant taken in disk coordinates already carries the area factor
prod 4/|1-w|^4.

Determinism contract: sampling is split into fixed chunks of CHUNK
samples, chunk c is seeded from (seed, c), and the reduction runs in
chunk order, so results are byte-identical for any thread count.  Inside
a chunk, points, rows and determinants are built in sub-blocks of BLOCK
samples, small enough to stay in cache; a sample's value does not depend
on its block.  Chunk c's stream gives all of its u, a (size, n) array, and
then all of its v.  A block draws its rows of u from one generator and
its rows of v from a second on the same seed, advanced by size * n, so a
chunk holds one block of draws, points and rows plus its determinants.

Interior points are drawn uniformly on the disk as p = sqrt(u) e^(i theta),
theta = 2 pi v, from uniform u and v.  _disk_points takes e^(i theta)
from one tangent, h = tan(pi (v - rint(v))), as ((1 - h^2) + 2ih) /
(1 + h^2), rather than a complex exp: on 2^21 draws, and at the edge
values of v (0, 1/2 and its neighbours, 1 - 2^-53), p is within 9e-16
of sqrt(u) exp(2 pi i v), and |p| < 1.

Every drawn sample is kept.  The weight integrates over distinct points,
but the diagonal has measure zero and needs no cut: two interior points
coincide with probability about 2^-100 per pair, and |p| < 1 keeps every
gauge and boundary term finite.  A determinant that is not finite
therefore means the weights overflowed, and _sample raises a ValueError
naming the graph and its alphas, as it does for an edge whose alphas have
a sum that is not finite.  No numpy warning precedes that error:
_disk_chunk, in each thread, turns overflow and invalid warnings off.

A form that _vanishes certifies zero, from the graph and its alphas,
reads exactly 0.0 +- 0.0 and is not drawn; every other form is sampled.
tests/test_weights.py checks the certificate against a float reference,
determinants below 1e-12 of the product of their row norms, on the star
graphs of orders 1-2 and the order-3 orbits, the non-star graphs of order
2, and the difference forms whose two alpha sums are equal in binary.

Determinants are taken by _laplace_det, a Laplace expansion over the
vertices' column pairs; no LAPACK call is made.  Each of its terms takes at
most 2, 8 or 23 roundings at D = 2, 4 or 6 rows, and their sizes sum to
the permanent of |A|, at most D^(D/2) times the product of the row norms
(the Hadamard bound), so up to D = 6 the error stays below 6e-13 of that
bound (measured on random stacks against extended precision: 4e-16).
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .angles import TWO_PI, AngleContext, edge_coefficients, gauge_coefficient
from .graphs import AdmissibleGraph, top_edge_count
from .table import WeightEntry

CHUNK = 65536
BLOCK = 4096

# Gauge of the half-plane slice (see the module docstring).  Its angles are
# not increasing, so it is not an AngleContext; the sampler reads only
# these two fields.
_HALFPLANE = SimpleNamespace(alphas=(0.0, 0.0, 1.0), boundary_angles=(math.pi, 1.5 * math.pi, 0.0))


def default_threads() -> int:
    try:
        return max(1, int(os.environ.get("STARCYCLE_THREADS", "1")))
    except ValueError:
        return 1


def _disk_rows(graph, boundary_angles, edge_alphas, p):
    """Complex coefficients of all edge angle functions, p being (n, S),
    a row per vertex: per edge a dict {i: c}, c the (S,) coefficient on
    vertex i + 1, by angles.edge_coefficients and gauge_coefficient.  Only
    the edge's ends appear, the target only when A != 0.  A vertex's gauge
    term is computed once per alpha vector and shared by its edges."""
    n = graph.n
    xi = [np.exp(1j * t) for t in boundary_angles]
    gauges = {}
    rows = []
    for (v, w), alphas in zip(graph.edges(), edge_alphas):
        key = v, tuple(alphas)
        if key not in gauges:
            gauges[key] = gauge_coefficient(alphas, xi, p[v - 1])
        A = sum(alphas)
        row = {} if gauges[key] is None else {v - 1: gauges[key]}
        if A != 0.0:
            q = p[w - 1] if w <= n else xi[w - n - 1]
            c_p, c_q = edge_coefficients(A, p[v - 1], q, boundary=w > n)
            row[v - 1] = c_p + gauges[key]
            if c_q is not None:
                row[w - 1] = c_q
        rows.append(row)
    return rows


def _laplace_det(rows, n, size):
    """Determinants of the 2n x 2n Jacobians _disk_rows describes, by
    Laplace expansion over the vertices' column pairs, the last one first.
    The minor of rows r < s on vertex i is Im(c_r conj c_s); that of a row
    set T on vertices i..n sums such pairs in T times the minor of the rest
    of T on i+1..n, formed once for every T that contains it.  Empty (edge,
    vertex) pairs, and any T that leaves out a row with nothing before
    vertex i, are skipped; a determinant with no term is zero."""
    minors = {(): np.ones(size)}
    for i in range(n - 1, -1, -1):
        touching = [(r, row[i]) for r, row in enumerate(rows) if i in row]
        pairs = [(r, s, (c_r * c_s.conjugate()).imag)
                 for (r, c_r), (s, c_s) in itertools.combinations(touching, 2)]
        late = {r for r, row in enumerate(rows) if min(row, default=n) >= i}  # nothing before i
        wider = {}
        for rest, sub in minors.items():
            for r, s, m in pairs:
                T = tuple(sorted(rest + (r, s)))
                if r in rest or s in rest or not late.issubset(T):
                    continue
                a, b = T.index(r), T.index(s)
                term = m * sub if (a + b) % 2 else -(m * sub)  # sign (-1)^(a+b+1)
                wider[T] = wider[T] + term if T in wider else term
        minors = wider
    return minors.get(tuple(range(len(rows))), np.zeros(size))


def _vanishes(graph, edge_alphas):
    """True when the graph's form is certified zero at every point, from
    the graph and its alphas alone, read as the exact rationals of the
    floats that _disk_rows uses.  Points xi_1..xi_3 are the pinned ones (in
    the half-plane slice xi_3 is the point at infinity); boundary vertex b_j
    is the point xi_j.  Either of these suffices:

    1. Rank at a vertex.  In _disk_rows an edge v -> b_j, and an edge with
       A == 0.0 (no pair term), has a coefficient on its source alone,
       sum_k beta_k 2 / (xi_k - p) with beta = alpha - A e_j (alpha when
       A == 0.0).  Such rows of one vertex lie in its two columns, so the
       form is zero when a vertex has three of them, one with beta = 0 (a
       zero row: its pair and gauge terms cancel), or two with parallel
       betas.
    2. Symmetry.  A nonempty set U of interior vertices has at least 2|U|
       edges, each ending in U or at a pinned point or with alphas summing
       to 0; and S_U, the pinned points those edges weight or end at (but
       for the target of a zero-sum edge), has at most 2 elements.

    Proof of 2.  The angle arg((P-Q)(P-conj Q)) in the chart that sends
    xi_k to infinity is unchanged by the maps z -> az + b (a > 0, b real),
    which are the disk automorphisms fixing xi_k, and a boundary target is
    unchanged by those that fix it too.  When the alphas sum to 0 the
    edge function is, by the key lemma, one of its source alone, so it is
    unchanged by the automorphisms fixing the points it weights, wherever
    its target is.  So each edge function of U is a function of the points
    of U alone, invariant under the diagonal action of the automorphisms
    fixing S_U.  With |S_U| <= 2 they contain a one-parameter group with
    no fixed point in the open disk (hyperbolic when |S_U| = 2, parabolic
    when it is smaller); its generator X_U on D^|U| vanishes nowhere, and
    every edge form of U is zero on X_U.  So at each point those forms lie
    in a space of dimension 2|U| - 1, their wedge is zero, and so is the
    integrand, of which it is a factor.  All 2^n - 1 sets U are tried;
    n <= 3 in every caller.
    """
    n = graph.n
    local = {}  # vertex -> betas of its edges with a coefficient on the source alone
    ends = []  # (source, the vertices b_k and w besides it that the edge function reads)
    for (v, w), alphas in zip(graph.edges(), edge_alphas):
        beta = [Fraction(a) for a in alphas]
        deps = {w} if sum(beta) else set()  # alphas summing to 0: not the target
        ends.append((v, deps.union(n + k for k, b in enumerate(beta, start=1) if b)))
        A = sum(alphas)
        if w > n:
            beta[w - n - 1] -= Fraction(A)
        if w > n or A == 0.0:
            local.setdefault(v, []).append(beta)
    for betas in local.values():
        parallel = len(betas) == 2 and not any(
            a * d - b * c for (a, b), (c, d) in itertools.combinations(zip(*betas), 2))
        if len(betas) > 2 or not all(map(any, betas)) or parallel:
            return True
    for size in range(1, n + 1):
        for U in itertools.combinations(range(1, n + 1), size):
            out = [deps for v, deps in ends if v in U]
            rest = set().union(*out).difference(U)  # S_U, when it holds no interior vertex
            if len(out) >= 2 * size and len(rest) <= 2 and all(x > n for x in rest):
                return True
    return False


def _disk_points(u, v):
    """sqrt(u) * exp(2 pi i v), the uniform disk point of each (u, v) in
    [0, 1), with exp(i theta) taken from one tangent: for h = tan(theta/2)
    = tan(pi (v - rint(v))) it is ((1 - h^2) + 2ih) / (1 + h^2).  The
    temporaries are worked in place and freed on return."""
    h = np.rint(v)
    np.subtract(v, h, out=h)
    h *= math.pi
    np.tan(h, out=h)
    p = np.empty(u.shape, dtype=complex)
    np.add(h, h, out=p.imag)
    h *= h
    np.subtract(1.0, h, out=p.real)
    h += 1.0
    r = np.sqrt(u)
    r /= h
    p.real *= r
    p.imag *= r
    return p


def _disk_chunk(graph, ctx, edge_alphas, seed, chunk_index, size):
    """(sum, sum of squares) of one chunk's determinants, every sample
    kept; _sample checks that they are finite.

    ctx supplies the three boundary_angles.  The stream of (seed,
    chunk_index) gives all of u, (size, n), then all of v; each block of
    BLOCK samples draws its rows of u from one generator and of v from a
    second, advanced by size * n, so the chunk holds one block plus its
    determinants, which it squares in place."""
    n = graph.n
    angles = ctx.boundary_angles
    seq = np.random.SeedSequence((seed, chunk_index))
    u_rng = np.random.Generator(np.random.PCG64(seq))
    v_rng = np.random.Generator(np.random.PCG64(seq).advance(size * n))
    dets = np.empty(size)
    with np.errstate(over="ignore", invalid="ignore"):  # per thread: not in _sample
        for lo in range(0, size, BLOCK):
            b = min(BLOCK, size - lo)
            p = _disk_points(u_rng.random((b, n)).T.copy(), v_rng.random((b, n)).T.copy())  # (n, b)
            dets[lo:lo + b] = _laplace_det(_disk_rows(graph, angles, edge_alphas, p), n, b)
        s1 = float(np.sum(dets))
        return s1, float(np.sum(np.multiply(dets, dets, out=dets)))


def _sample(graph, ctx, edge_alphas, alphas, samples, seed, threads):
    """WeightEntry from all chunks, reduced in chunk order."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    for edge in edge_alphas:
        if not math.isfinite(sum(edge)):
            raise ValueError("graph %s: edge alphas %s have a sum that is not finite"
                             % (graph.canonical_key(), list(edge)))
    norm = math.pi ** graph.n / TWO_PI ** graph.edge_count
    if threads is None:
        threads = default_threads()
    chunks = 0 if _vanishes(graph, edge_alphas) else -(-samples // CHUNK)  # a zero form: 0.0 +- 0.0
    plan = [(c, min(CHUNK, samples - c * CHUNK)) for c in range(chunks)]
    worker = lambda c, size: _disk_chunk(graph, ctx, edge_alphas, seed, c, size)
    if threads <= 1:
        results = [worker(c, size) for c, size in plan]
    else:
        from concurrent.futures import ThreadPoolExecutor  # not loaded by 1-thread runs

        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker, c, size) for c, size in plan]
            results = [f.result() for f in futures]
    s1 = s2 = 0.0
    for a, b in results:  # strict chunk order
        s1 += a
        s2 += b
    if not math.isfinite(s2):  # inf or nan when any determinant is
        raise ValueError("graph %s at alpha=%s: the determinants overflow (their sum of squares is %r)"
                         % (graph.canonical_key(), list(alphas), s2))
    mean = s1 / samples
    var = max(s2 / samples - mean * mean, 0.0)
    if samples > 1:
        var *= samples / (samples - 1)
    return WeightEntry(
        graph_key=graph.canonical_key(),
        alphas=tuple(alphas),
        value=norm * mean,
        std_error=norm * math.sqrt(var / samples),
        samples=samples,
        seed=seed,
        exact=None,
    )


def compute_weight(graph: AdmissibleGraph, ctx: AngleContext, samples: int, seed: int,
                   threads: int | None = None) -> WeightEntry:
    """Monte Carlo weight of a top-degree graph with m = 3 boundary points
    under ctx.  The 2-boundary route, over the half-plane slice, is
    halfplane_weight."""
    return _disk_weight(graph, ctx, [ctx.alphas] * graph.edge_count, samples, seed, threads)


def _disk_weight(graph, ctx, edge_alphas, samples, seed, threads):
    """compute_weight with one alpha vector per edge in place of ctx.alphas."""
    if ctx.m != graph.m:
        raise ValueError("context boundary count %d != graph %d" % (ctx.m, graph.m))
    if graph.m != 3:
        raise ValueError("the disk route needs m == 3; use halfplane_weight for m == 2")
    E = graph.edge_count
    if E != top_edge_count(graph.n, graph.m):
        raise ValueError("graph has %d edges; top degree needs %d" % (E, top_edge_count(graph.n, graph.m)))
    return _sample(graph, ctx, edge_alphas, ctx.alphas, samples, seed, threads)


def halfplane_weight(graph: AdmissibleGraph, samples: int, seed: int,
                     threads: int | None = None) -> WeightEntry:
    """Classical 2-boundary weight over the half-plane slice (points at 0
    and 1, plain harmonic angle).  Top degree here is 2n edges: the
    quotient is by the 2-parameter affine group rather than PSL2(R)."""
    if graph.m != 2:
        raise ValueError("halfplane_weight needs m == 2")
    if graph.edge_count != 2 * graph.n:
        raise ValueError("graph has %d edges; the half-plane slice needs %d" % (graph.edge_count, 2 * graph.n))
    edge_alphas = [_HALFPLANE.alphas] * graph.edge_count
    return _sample(graph, _HALFPLANE, edge_alphas, (), samples, seed, threads)


def mixed_edge_integral(graph: AdmissibleGraph, ctx: AngleContext, replacement: AngleContext,
                        edge_index: int, samples: int, seed: int,
                        threads: int | None = None) -> WeightEntry:
    """Mixed integral with one edge's form replaced by the difference form
    d(phi_{alpha'} - phi_{alpha}).

    When sum(alpha') == sum(alpha) that difference depends only on the
    edge's start point, so retargeting the chosen edge (same source,
    same star slot) does not change the value."""
    E = graph.edge_count
    if not 0 <= edge_index < E:
        raise ValueError("edge_index out of range")
    if replacement.m != ctx.m or replacement.boundary_angles != ctx.boundary_angles:
        raise ValueError("contexts must share boundary data")
    edge_alphas = [ctx.alphas] * E
    edge_alphas[edge_index] = tuple(b - a for a, b in zip(ctx.alphas, replacement.alphas))
    return _disk_weight(graph, ctx, edge_alphas, samples, seed, threads)
