"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is made here from the
workload seed: per-graph Monte Carlo seeds, Poisson structures written
as JSON files, and polynomial pairs passed on argv.  Polynomials are
plain {exponents: int} dicts with their own text renderer, so the
generator shares no code with the package it feeds.
"""

import itertools
import json
import os
import random

ORDER = 2
# 2^17 samples: two 65536-sample chunks per graph, so the
# thread-count determinism check has more chunks than threads.
SAMPLES = 2 * 65536
BUNDLED = (("so3", 3, True), ("moyal", 2, True), ("nondiv", 2, False))


def _monomials(dim, degree):
    return [e for e in itertools.product(range(degree + 1), repeat=dim) if sum(e) == degree]


def _coeff(rng):
    # Two-digit coefficients almost never cancel by accident, so every seed
    # keeps the same terms and does the same work.
    return rng.choice((-1, 1)) * rng.randint(10, 99)


def _derive(poly, axis):
    out = {}
    for exps, c in poly.items():
        if exps[axis]:
            e = list(exps)
            e[axis] -= 1
            out[tuple(e)] = out.get(tuple(e), 0) + c * exps[axis]
    return {e: c for e, c in out.items() if c}


def render(poly):
    """Text in the package's polynomial grammar, e.g. "3*x1^2*x3 - 2*x2"."""
    text = ""
    for exps in sorted(poly, reverse=True):
        c = poly[exps]
        body = "*".join([str(abs(c))] + ["x%d^%d" % (i + 1, e) if e > 1 else "x%d" % (i + 1)
                                         for i, e in enumerate(exps) if e])
        if text:
            text += (" - " if c < 0 else " + ") + body
        else:
            text = ("-" if c < 0 else "") + body
    return text or "0"


def casimir_structure(rng, degree):
    """pi^{ij} = eps^{ijk} d_k C on R^3 for a homogeneous C with seeded
    coefficients.

    Such a bivector is Poisson and divergence-free for every C.  Degree 2
    uses every monomial (linear coefficients), degree 3 the cyclic
    support x1^2 x2, x2^2 x3, x3^2 x1 (quadratic coefficients).  The
    support is fixed because it, not the coefficients, sets the cost of
    the checks, so runs on different seeds do the same amount of work.
    """
    support = _monomials(3, 2) if degree == 2 else [(2, 1, 0), (0, 2, 1), (1, 0, 2)]
    c = {e: _coeff(rng) for e in support}
    d1, d2, d3 = (_derive(c, k) for k in range(3))
    comps = {"1,2": d3, "1,3": {e: -v for e, v in d2.items()}, "2,3": d1}
    return {"dim": 3, "degree": 1, "components": {k: render(v) for k, v in comps.items() if v}}


def planar_structure(rng, degree):
    """f d1^d2 on R^2 with f of the given degree, every monomial present.

    Every bivector on R^2 is Poisson; a nonconstant f makes it not
    divergence-free (div = (-d2 f, d1 f))."""
    f = {e: _coeff(rng) for d in range(degree + 1) for e in _monomials(2, d)}
    return {"dim": 2, "degree": 1, "components": {"1,2": render(f)}}


def random_polynomial(rng, dim):
    """Every monomial of degree 1 or 2, with seeded coefficients."""
    return {e: _coeff(rng) for d in (1, 2) for e in _monomials(dim, d)}


def graph_seeds(seed, count):
    rng = random.Random("graphs:%d" % seed)
    return [rng.randrange(1 << 31) for _ in range(count)]


def halfplane_base_seed(seed):
    return random.Random("halfplane:%d" % seed).randrange(1 << 30)


def structures(seed, workdir):
    """(pi argument, dim, divergence-free?) for every structure of the
    checks-exact workload; generated ones are written under workdir."""
    rng = random.Random("structures:%d" % seed)
    made = [
        ("casimir2", casimir_structure(rng, 2), True),
        ("casimir3", casimir_structure(rng, 3), True),
        ("planar1", planar_structure(rng, 1), False),
        ("planar2", planar_structure(rng, 2), False),
    ]
    out = [(name, dim, divfree) for name, dim, divfree in BUNDLED]
    for name, obj, divfree in made:
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(obj, fh, sort_keys=True)
        out.append((path, obj["dim"], divfree))
    return out


def apply_pairs(seed, dims):
    rng = random.Random("pairs:%d" % seed)
    return [(render(random_polynomial(rng, d)), render(random_polynomial(rng, d))) for d in dims]


