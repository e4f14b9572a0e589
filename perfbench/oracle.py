"""Expected answers for every benchmark op, decided without the code under test.

* Graph weights follow acceptance criterion 4's rule against the bundled
  exact table, read here straight from its JSON file: a std_error of 0
  needs the value and the exact weight to both be 0, otherwise the pull
  |value - exact| / std_error must be at most 3.
* check cyclic / check closed must exit 0 on divergence-free structures
  and 1 on the others; check assoc and star apply must exit 0.  Which
  structures are divergence-free is known from how they were made.
* star apply must return hbar^0 = f*g and hbar^1 = 1/2 pi^{ij} d_i f d_j g.
  These two levels are recomputed here with Polynomial arithmetic.
"""

import json
import math
import os
from fractions import Fraction

PULL_LIMIT = 3.0
# Beyond this many sigma a miss is not sampling noise, however heavy the
# tails: it counts as an exact failure.
GROSS_PULL = 10.0
# Two-sided tail of a normal variable beyond 3 sigma: the rate at which an
# estimator with honest error bars misses the 3-sigma rule.
NOMINAL_MISS_RATE = math.erfc(PULL_LIMIT / math.sqrt(2.0))
FALSE_ALARM = 1e-3
TABLE_FILE = os.path.join("src", "starcycle", "data", "weights_exact.json")


def load_exact(path):
    """{3-boundary graph key: exact weight} at alpha (0, 0, 1)."""
    with open(path) as fh:
        entries = json.load(fh)["entries"]
    return {e["graph"]: Fraction(e["exact"]) for e in entries
            if e.get("exact") is not None and [float(a) for a in e["alphas"]] == [0.0, 0.0, 1.0]}


def embedded_key(key):
    """Key of the 3-boundary embedding of a 2-boundary star graph.

    Target names do not depend on m (boundary targets are b1, b2, ..),
    so only the m field changes."""
    n, m, body = key.split(";")
    return "%s;3;%s" % (n, body) if m == "2" else key


def order2_keys(exact):
    return sorted(k for k in exact if k.startswith("2;3;") and "b3" not in k)


def weight_failure(entry, exact):
    """None when a weight entry passes, else (kind, reason).

    kind is "sigma" for a pull above the limit (a statistical miss) and
    "exact" for anything no sampling noise can explain."""
    key = embedded_key(entry["graph"])
    if key not in exact:
        return "exact", "no exact weight for %s" % key
    want = exact[key]
    value, se = entry["value"], entry["std_error"]
    if se == 0.0:
        if value == 0.0 and want == 0:
            return None
        return "exact", "std_error 0 but value %r, exact %s" % (value, want)
    pull = abs(value - float(want)) / se
    if pull <= PULL_LIMIT:
        return None
    if not math.isfinite(pull):
        return "exact", "non-finite pull (value %r, std_error %r)" % (value, se)
    kind = "sigma" if pull <= GROSS_PULL else "exact"
    return kind, "pull %.2f sigma (value %.6f, exact %s, std_error %.2e)" % (pull, value, want, se)


def sigma_miss_limit(graphs):
    """Largest number of distinct graphs outside 3 sigma that honest error
    bars produce with probability above FALSE_ALARM."""
    p = NOMINAL_MISS_RATE
    tail = 1.0
    for k in range(graphs + 1):
        tail -= math.comb(graphs, k) * p ** k * (1 - p) ** (graphs - k)
        if tail < FALSE_ALARM:
            return k
    return graphs


def expected_exit(command, divergence_free):
    if command in ("cyclic", "closed"):
        return 0 if divergence_free else 1
    return 0


def first_levels(poly_cls, pi_components, dim, f_text, g_text):
    """(hbar^0, hbar^1) of f * g for pi given as {"i,j": text} with i < j."""
    f = poly_cls.parse(f_text, dim)
    g = poly_cls.parse(g_text, dim)
    df = [f.partial(i) for i in range(1, dim + 1)]
    dg = [g.partial(i) for i in range(1, dim + 1)]
    level1 = poly_cls.zero(dim)
    for key, text in pi_components.items():
        i, j = (int(a) for a in key.split(","))
        pij = poly_cls.parse(text, dim)
        # 1/2 pi^{ij} d_i f d_j g summed over ordered pairs, pi^{ji} = -pi^{ij}
        level1 = level1 + pij * (df[i - 1] * dg[j - 1] - df[j - 1] * dg[i - 1]) * Fraction(1, 2)
    return f * g, level1


def apply_failure(poly_cls, report, pi_components, dim, f_text, g_text, order):
    levels = report["result"]["levels"]
    if len(levels) != order + 1:
        return "expected %d levels, got %d" % (order + 1, len(levels))
    want0, want1 = first_levels(poly_cls, pi_components, dim, f_text, g_text)
    got0, got1 = (poly_cls.parse(t, dim) for t in levels[:2])
    if got0 != want0:
        return "hbar^0 is %s, expected %s" % (levels[0], want0.render())
    if got1 != want1:
        return "hbar^1 is %s, expected %s" % (levels[1], want1.render())
    return None
