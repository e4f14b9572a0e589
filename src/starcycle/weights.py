"""Monte Carlo evaluation of graph weights.

The weight of a top-degree graph is the integral of the wedge of its
edge angle 1-forms over the gauge-fixed configuration space, normalized
by (2*pi) per edge.  Gauge fixing pins the boundary points: for m = 3
(the alpha-weighted weights) that absorbs all three PSL2(R) degrees of
freedom and the integral runs over the n interior points only; for
m = 2 (the star product) the classical half-plane slice is used
(boundary at 0 and 1, plain harmonic angle).  No other m is sampled.

One row kernel, _disk_rows, serves both routes.  The half-plane slice is
the disk chart with boundary angles (pi, 3pi/2, 0) and weight (0, 0, 1):
the Cayley map at xi = 1, i(1+w)/(1-w), sends those points to 0, 1 and
infinity, and a determinant taken in disk coordinates already carries
the area factor prod 4/|1-w|^4.

Determinism contract: sampling is split into fixed chunks of CHUNK
samples, chunk c is seeded from (seed, c), and the reduction runs in
chunk order, so results are byte-identical for any thread count.  Inside
a chunk, rows and determinants are built in sub-blocks of BLOCK samples,
small enough to stay in cache; a sample's value does not depend on its
block.

Interior points are drawn uniformly on the disk as p = sqrt(u) e^(i theta),
theta = 2 pi v, from uniform u and v.  _disk_points takes e^(i theta)
from one tangent, h = tan(pi (v - rint(v))), as ((1 - h^2) + 2ih) /
(1 + h^2), rather than a complex exp: on 2^21 draws, and at the edge
values of v (0, 1/2 and its neighbours, 1 - 2^-53), p is within 9e-16
of sqrt(u) exp(2 pi i v), and |p| < 1.  A sample is rejected when two
of its points are closer than MIN_DIST (_collisions).  Only a point with
|p| > 1 - MIN_DIST can be that close to a boundary point, so the
boundary points are tested only at samples with some
u > (1 - 2 MIN_DIST)^2, and the margin of MIN_DIST over the bound above
makes this reject exactly the samples that testing every point would.

A form that vanishes at every point is estimated as exactly 0.0 +- 0.0.
Most such forms are certified from the graph alone by _vanishes, before
anything is drawn: an edge whose form is the zero row, or a closed set of
interior vertices whose edges see at most two pinned boundary points, so
that a one-parameter Moebius group leaves all of their angles unchanged
(the proof is in its docstring).  On every star graph of orders 1, 2
and 3, on the half-plane slice and at m = 3 (order 3 tried at alpha =
(0, 0, 1)), it finds exactly the forms the float rule below finds.  That
rule is left for the forms it does not cover: the difference forms of
mixed_edge_integral, and graphs that are not star graphs.  In
"2;3;b3|1,b1,b2" at alpha = (1/2, 1/2, 0), for one, the angles of
2 -> b1 and 2 -> b2 are both constant on the circles through xi_1 and
xi_2, so the wedge vanishes, but vertex 2 has a third edge and no set of
vertices is certified.  Such forms are still sampled, and ZERO_RATIO
decides: a chunk in which every determinant is below ZERO_RATIO times
its Hadamard bound (the product of its row norms) contributes exactly
0 rather than roundoff.

Determinants are taken by _laplace_det, a Laplace expansion over the
(E, D, S) array the row kernel fills, one elementwise call per step for
every D (2 at order 1, 4 at order 2, 6 at order 3); no LAPACK call is
made.  Its rounding error is at most about D(D+1)/2 unit roundoffs times
the permanent of |A|, and that permanent is at most D^(D/2) times the
Hadamard bound, so up to D = 6 the error stays below 5e-13 of the bound
(measured on random stacks: below 1e-15).  An uncertified
pointwise-vanishing form therefore still reads under ZERO_RATIO, while a
form that does not vanish reaches a ratio near 1 in every chunk.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np

from .angles import TWO_PI, AngleContext, angle_form, cayley
from .graphs import AdmissibleGraph, top_edge_count
from .table import WeightEntry

CHUNK = 65536
BLOCK = 4096
MIN_DIST = 1e-9
ZERO_RATIO = 1e-12

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
    """Jacobian rows of all edge angle functions.

    p: (S, n) complex interior points.  Returns an (E, 2n, S) array, so
    rows[e, j] holds entry (e, j) of every sample; column layout: x_1,
    y_1, .., x_n, y_n.

    Edge v -> w carries sum_k alpha_k arg((P-Q)(P-conj Q)), with P and Q
    the images of v and w under the Cayley map that sends xi_k to
    infinity.  The chart is angles.cayley and each term's derivatives are
    angles.angle_form, the same code the scalar angle API runs.  Each
    image and its derivative are computed once per (vertex, xi_k) and
    shared by every edge.
    """
    n = graph.n
    edges = graph.edges()
    rows = np.zeros((len(edges), 2 * n, p.shape[0]))
    xi = [np.exp(1j * t) for t in boundary_angles]
    images = {}

    def image(v, k):
        """(Z, dZ) for vertex v with xi_k at infinity: the image Z and its
        motion along x_v, None for a boundary point, by angles.cayley."""
        if (v, k) not in images:
            if v <= n:
                images[v, k] = cayley(p[:, v - 1], xi[k - 1])
            else:
                images[v, k] = (cayley(xi[v - n - 1], xi[k - 1])[0].real, None)
        return images[v, k]

    for row, (v, w) in enumerate(edges):
        out = rows[row]
        cv, cw = 2 * (v - 1), 2 * (w - 1)
        for k, alpha in enumerate(edge_alphas[row], start=1):
            if alpha == 0.0 or w == n + k:
                continue  # w == n + k: the angle to the reference point itself, a zero form
            P, T = image(v, k)
            Q, U = image(w, k)
            g_px, g_py, g_qx, g_qy = angle_form(alpha, P, T, Q, U)
            out[cv] += g_px
            out[cv + 1] += g_py
            if U is not None:
                out[cw] += g_qx
                out[cw + 1] += g_qy
    return rows


def _laplace_det(a):
    """Determinants of a (D, D, S) stack, a[i, j] being entry (i, j) of
    all S matrices: Laplace expansion along each row in turn, from the
    bottom up.  The minor of the lower rows on each column subset is formed
    once and shared by every larger minor that contains it, so each step
    is one ufunc call on an (S,) slice.  D == 0 gives ones."""
    D = a.shape[0]
    if D == 0:
        return np.ones(a.shape[2])
    minors = {(j,): a[D - 1, j] for j in range(D)}
    for r in range(D - 2, -1, -1):
        wider = {}
        for cols in itertools.combinations(range(D), D - r):
            acc = a[r, cols[0]] * minors[cols[1:]]
            for i in range(1, len(cols)):
                term = a[r, cols[i]] * minors[cols[:i] + cols[i + 1:]]
                if i % 2:
                    acc -= term
                else:
                    acc += term
            wider[cols] = acc
        minors = wider
    return minors[tuple(range(D))]


def _vanishes(graph, edge_alphas):
    """True when the graph's form is certified zero at every point, from
    the graph and the nonzero alphas alone.  Points xi_1..xi_3 are the
    pinned ones (in the half-plane slice xi_3 is the point at infinity);
    boundary vertex b_j is the point xi_j.  Either of these suffices:

    1. Zero row.  Every nonzero alpha_k of some edge v -> w has w = b_k.
       _disk_rows skips exactly those terms, so the edge's form is 0.
    2. Symmetry.  A nonempty set U of interior vertices has at least 2|U|
       edges, each of them ending in U or at a pinned point, with every
       nonzero alpha on them at a pinned point; and S_U, the pinned
       points those edges end at or weight, has at most 2 elements.

    Proof of 2.  The angle arg((P-Q)(P-conj Q)) in the chart that sends
    xi_k to infinity is unchanged by the maps z -> az + b (a > 0, b real),
    which are the disk automorphisms fixing xi_k, and a boundary target is
    unchanged by those that fix it too.  So each edge function of U is a
    function of the points of U alone, invariant under the diagonal action
    of the automorphisms fixing S_U.  With |S_U| <= 2 they contain a
    one-parameter group with no fixed point in the open disk (hyperbolic
    when |S_U| = 2, parabolic when it is smaller); its generator X_U on
    D^|U| vanishes nowhere, and every edge form of U is zero on X_U.  So
    at each point those forms lie in a space of dimension 2|U| - 1, their
    wedge is zero, and so is the integrand, of which it is a factor.  All
    2^n - 1 sets U are tried; n <= 3 in every caller.
    """
    n = graph.n
    edges = graph.edges()
    refs = [{k for k, a in enumerate(alphas, start=1) if a != 0.0} for alphas in edge_alphas]
    if any(all(w == n + k for k in ks) for (_, w), ks in zip(edges, refs)):
        return True
    for size in range(1, n + 1):
        for U in itertools.combinations(range(1, n + 1), size):
            out = [(w, ks) for (v, w), ks in zip(edges, refs) if v in U]
            if len(out) < 2 * size or any(w <= n and w not in U for w, _ in out):
                continue
            points = {w - n for w, _ in out if w > n}.union(*(ks for _, ks in out))  # S_U
            if len(points) <= 2:
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


def _collisions(u, p, boundary_angles):
    """Samples with two points closer than MIN_DIST: two interior points,
    or an interior point and a boundary point.  p is _disk_points(u, v);
    the boundary points are tested only at samples with some
    u > (1 - 2 MIN_DIST)^2, the only ones that can be that close to the
    circle (see the module docstring)."""
    n = p.shape[1]
    reject = np.zeros(p.shape[0], dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            reject |= np.abs(p[:, i] - p[:, j]) < MIN_DIST
    # a sample with two such points is listed twice, and gets the same verdict twice
    near = np.flatnonzero(u > (1.0 - 2 * MIN_DIST) ** 2) // n
    if near.size:
        boundary = [np.exp(1j * t) for t in boundary_angles]
        for i in range(n):
            for xi in boundary:
                reject[near] |= np.abs(p[near, i] - xi) < MIN_DIST
    return reject


def _disk_chunk(graph, ctx, edge_alphas, seed, chunk_index, size):
    """(sum, sum of squares, rejected) of one chunk's determinants.

    ctx supplies the three boundary_angles; rows and determinants are
    built BLOCK samples at a time."""
    n = graph.n
    angles = ctx.boundary_angles
    rng = np.random.default_rng(np.random.SeedSequence((seed, chunk_index)))
    u = rng.random((size, n))
    p = _disk_points(u, rng.random((size, n)))
    reject = _collisions(u, p, angles)

    dets = np.empty(size)
    vanishing = True
    for lo in range(0, size, BLOCK):
        block = slice(lo, lo + BLOCK)
        rows = _disk_rows(graph, angles, edge_alphas, p[block])
        dets[block] = d = _laplace_det(rows)
        if vanishing:
            hadamard = np.prod(np.sqrt(np.sum(rows * rows, axis=1)), axis=0)
            vanishing = not np.any(np.abs(d) > ZERO_RATIO * hadamard)
    reject |= ~np.isfinite(dets)
    rej = int(np.count_nonzero(reject))
    if vanishing:
        return 0.0, 0.0, rej
    dets = np.where(reject, 0.0, dets)
    return float(np.sum(dets)), float(np.sum(dets * dets)), rej


def _sample(graph, ctx, edge_alphas, alphas, samples, seed, threads):
    """WeightEntry from all chunks, reduced in chunk order."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    norm = math.pi ** graph.n / TWO_PI ** graph.edge_count
    if threads is None:
        threads = default_threads()
    if _vanishes(graph, edge_alphas):
        plan = []  # a zero form: 0.0 +- 0.0 without drawing
    else:
        plan = [(c, min(CHUNK, samples - c * CHUNK)) for c in range(-(-samples // CHUNK))]
    worker = lambda c, size: _disk_chunk(graph, ctx, edge_alphas, seed, c, size)
    if threads <= 1:
        results = [worker(c, size) for c, size in plan]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(worker, c, size) for c, size in plan]
            results = [f.result() for f in futures]
    s1 = s2 = 0.0
    rej = 0
    for a, b, r in results:  # strict chunk order
        s1 += a
        s2 += b
        rej += r
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
        rejected=rej,
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
