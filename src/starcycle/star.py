"""Star-product assembly and the theorem-level checks built on it.

Levels are assembled as

    B_n = (1/n!) (1/2^n) sum_{Gamma in star_graphs(n, 2)} w_Gamma U_Gamma

where w_Gamma is the stored table weight (the plain normalized angle-form
integral, one (2pi) factor per edge, no extra symmetry prefactors) and
U_Gamma is the Kontsevich contraction of the graph against n copies of the
bivector.  With the harmonic angles this yields B_1 = (1/2) pi^{ij} d_i(f)
d_j(g) and the Moyal 1/8-pattern at order 2.

The sum is computed over the orbits of graphs.star_orbits: every Gamma
in the orbit of rep has U_Gamma = sign_Gamma U_rep, so

    B_n = (1/n!) (1/2^n) sum_{orbits} (sum_{Gamma in orbit} sign_Gamma w_Gamma) U_rep

with one contraction per orbit whose signed weight sum is nonzero.  This
uses only that identity of contractions, not any symmetry of the table,
so it equals the per-graph sum for every table.  Each weighted graph sum
walks the cached star_orbits map and reads weights through one reader, _entry.

Associativity at order n is d B_n = sum_{0<k<n} B_k o B_{n-k} with B_0 the
multiplication, which StarProduct requires (see assoc_defect).  Checks return
JSON-friendly report dicts; exactness-critical checks (associativity,
cyclicity, closedness) refuse Monte Carlo-backed tables.
"""

import itertools
import math
from fractions import Fraction

from .diffops import PolyDiffOperator
from .graphs import AdmissibleGraph, star_orbits
from .poly import Polynomial, _accumulate
from .polyvector import PolyVector, VolumeForm
from .table import WeightTable


def _level_prefactor(n: int) -> Fraction:
    return Fraction(1, math.factorial(n) * 2 ** n)


def graph_to_operator(graph: AdmissibleGraph, gammas) -> PolyDiffOperator:
    """Kontsevich contraction of an admissible graph against multivectors.

    Sums over all assignments of an axis to every edge.  Internal vertex k
    contributes the component of gammas[k-1] picked out by its ordered
    star; every edge pointing at k differentiates that factor; edges into
    boundary vertices become derivatives on the argument slots.  The
    result has arity m.  Only assignments that give every vertex a nonzero
    component are visited, vertex by vertex, in the order of the edges.
    """
    gammas = list(gammas)
    if len(gammas) != graph.n:
        raise ValueError("expected %d multivectors, got %d" % (graph.n, len(gammas)))
    if not gammas:
        raise ValueError("need at least one multivector to infer the dimension")
    dim = gammas[0].dim
    for k, g in enumerate(gammas):
        if g.dim != dim:
            raise ValueError("multivector %d has dim %d, expected %d" % (k + 1, g.dim, dim))
        if len(graph.stars[k]) != g.degree + 1:
            raise ValueError("vertex %d has out-degree %d but its multivector needs %d"
                             % (k + 1, len(graph.stars[k]), g.degree + 1))
    n, m = graph.n, graph.m
    choices = [[(idx, f) for idx in itertools.product(range(1, dim + 1), repeat=len(star))
                for f in [g.coefficient(idx)] if not f.is_zero()]
               for g, star in zip(gammas, graph.stars)]
    derived = {}
    out = {}
    for assign in itertools.product(*choices):
        mi = [[0] * dim for _ in range(n + m)]
        for star, (idx, _) in zip(graph.stars, assign):
            for tgt, i in zip(star, idx):
                mi[tgt - 1][i - 1] += 1
        coeff = None
        for v, (idx, f) in enumerate(assign):
            key = (v, idx, tuple(mi[v]))
            if key not in derived:
                derived[key] = f.derive(key[2])
            f = derived[key]
            if f.is_zero():
                break
            coeff = f if coeff is None else coeff * f
        else:
            _accumulate(out, tuple(tuple(b) for b in mi[n:]), coeff)
    return PolyDiffOperator._trusted(dim, m, out)


def _entry(table: WeightTable, graph: AdmissibleGraph, alphas=None):
    """The weight reader: the entry of `graph` at `alphas`, or its 2-boundary
    star entry when alphas is None; a missing one is a ValueError."""
    entry = table.lookup_star(graph) if alphas is None else table.get(graph.canonical_key(), alphas)
    if entry is None:
        key = graph.canonical_key()
        where = "graph " + key if alphas is None else "%s at alpha=%s" % (key, list(alphas))
        raise ValueError("weight table has no entry for " + where)
    return entry


def _entry_weight(entry) -> Fraction:
    return entry.exact if entry.exact is not None else Fraction(entry.value)


def _orbit_sum(pi: PolyVector, n: int, m: int, entry_of):
    """(level, is_exact) of (1/n! 2^n) sum_Gamma w_Gamma U_Gamma over
    star_orbits(n, m): each graph's entry is read once, by entry_of(graph),
    before one contraction per orbit with a nonzero signed weight sum."""
    sums = {}
    exact = True
    for g, (rep, sign) in star_orbits(n, m).items():
        entry = entry_of(g)
        exact = exact and entry.exact is not None
        sums[rep] = sums.get(rep, 0) + sign * _entry_weight(entry)
    terms = {}
    for rep, w in sums.items():
        if w:
            w *= _level_prefactor(n)
            for key, c in graph_to_operator(rep, [pi] * n).terms.items():
                _accumulate(terms, key, c * w)
    return PolyDiffOperator._trusted(pi.dim, m, terms), exact


class StarProduct:
    """Truncated star product: levels B_0..B_order, B_0 = multiplication;
    is_exact when every weight behind them is exact, as the exact checks need."""

    __slots__ = ("pi", "order", "levels", "is_exact")

    def __init__(self, pi: PolyVector, order: int, levels, is_exact: bool):
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "levels", tuple(levels))
        if self.levels[:1] != (PolyDiffOperator.multiplication(pi.dim),):
            raise ValueError("B_0 of a star product must be the multiplication")
        object.__setattr__(self, "is_exact", bool(is_exact))

    def __setattr__(self, name, value):
        raise AttributeError("StarProduct is immutable")

    def apply(self, f: Polynomial, g: Polynomial):
        """Coefficients of hbar^0..hbar^order of f * g."""
        if f.dim != self.pi.dim or g.dim != self.pi.dim:
            raise ValueError("argument dimension mismatch")
        return [level.apply((f, g)) for level in self.levels]


def assemble_star(pi: PolyVector, table: WeightTable, order: int = 2) -> StarProduct:
    """Build the star product through the given order.

    Requires a Poisson bivector and full table coverage of
    star_graphs(n, 2) for n <= order; a missing weight is an error.
    """
    if pi.degree != 1:
        raise ValueError("pi must be a bivector")
    if order < 0:
        raise ValueError("order must be >= 0")
    jac = pi.schouten(pi)
    if not jac.is_zero():
        key, comp = next(iter(sorted(jac.components.items())))
        raise ValueError("pi is not Poisson: [pi,pi] component %s = %s"
                         % (",".join(map(str, key)), comp.render()))
    dim = pi.dim
    levels = [PolyDiffOperator.multiplication(dim)]
    all_exact = True
    for n in range(1, order + 1):
        level, exact = _orbit_sum(pi, n, 2, lambda g: _entry(table, g))
        levels.append(level)
        all_exact = all_exact and exact
    return StarProduct(pi, order, levels, all_exact)


def _require_exact(s: StarProduct, what: str, vol: VolumeForm = None):
    if not s.is_exact:
        raise ValueError("%s needs an exact weight table (got Monte Carlo entries)" % what)
    if vol is not None and vol.dim != s.pi.dim:
        raise ValueError("volume form dimension mismatch")


def assoc_defect(s: StarProduct, n: int) -> PolyDiffOperator:
    """Order-n associativity defect sum_{k+l=n} B_k o_1 B_l - B_k o_2 B_l.

    A trilinear operator; the product is associative at order n exactly
    when it is zero.  As B_0 is the multiplication, the k = 0 and k = n
    terms are B_n(f,g)h - f B_n(g,h) + B_n(fg,h) - B_n(f,gh) = -(d B_n)(f,g,h)
    for (d psi)(f,g,h) = f psi(g,h) - psi(fg,h) + psi(f,gh) - psi(f,g)h, so
    the defect is -d B_n + sum_{0<k<n}, and -d B_0 = 0 at n = 0.
    """
    terms = (-s.levels[n].hochschild_differential()).terms
    for k in range(1, n):
        bk, bl = s.levels[k], s.levels[n - k]
        for key, c in bk.insert(bl, 1).terms.items():
            _accumulate(terms, key, c)
        for key, c in bk.insert(bl, 2).terms.items():
            _accumulate(terms, key, -c)
    return PolyDiffOperator._trusted(s.pi.dim, 3, terms)


def _order_report(check: str, s: StarProduct, residuals) -> dict:
    """Report of an exact per-order check from (n, residual operator)
    pairs; order n passes when its residual is zero."""
    orders = []
    for n, residual in residuals:
        ok = residual.is_zero()
        orders.append({"order": n, check: ok,
                       "residual": None if ok else residual.render()})
    return {
        "check": check,
        "order": s.order,
        "orders": orders,
        "passed": all(o[check] for o in orders),
    }


def check_associative(s: StarProduct) -> dict:
    """(f*g)*h == f*(g*h) through hbar^order as an exact operator identity.

    Decided on the defect operator of each order, so it holds for every
    triple of functions.
    """
    _require_exact(s, "associativity check")
    return _order_report("associative", s, ((n, assoc_defect(s, n)) for n in range(s.order + 1)))


def check_cyclic(s: StarProduct, vol: VolumeForm) -> dict:
    """int B_n(f,g) h Omega == int f B_n(g,h) Omega, exactly, per order.

    Per level this is C(B_n) == B_n for the cyclic shift C of
    PolyDiffOperator.cyclic_shift, whose sign is +1 at arity 2.
    """
    _require_exact(s, "cyclicity check", vol)
    return _order_report("cyclic", s, ((n, level.cyclic_shift(vol) - level)
                                       for n, level in enumerate(s.levels)))


def check_closed(s: StarProduct, vol: VolumeForm) -> dict:
    """int B_n(f,g) Omega == 0 for n >= 1, exactly, per order."""
    _require_exact(s, "closedness check", vol)
    return _order_report("closed", s, ((n, level.ibp_normal_form(vol))
                                       for n, level in enumerate(s.levels) if n))


def assemble_trilinear(pi: PolyVector, alphas, table: WeightTable, order: int) -> PolyDiffOperator:
    """Alpha-weighted trilinear operator sum_Gamma W_Gamma^alpha U_Gamma.

    Same prefactor convention as the star levels; the table must cover
    star_graphs(order, 3) at the given alphas.
    """
    if pi.degree != 1:
        raise ValueError("pi must be a bivector")
    alphas = tuple(float(a) for a in alphas)
    return _orbit_sum(pi, order, 3, lambda g: _entry(table, g, alphas))[0]


def check_alpha_independence(pi: PolyVector, alphas, alphas2, table: WeightTable,
                             order: int, vol: VolumeForm, floor: float = 1e-3) -> dict:
    """Compare slot-1 normal forms of the two alpha-weighted trilinear
    functionals, coefficient by coefficient.

    Tolerance per coefficient is max(3 * propagated std error, floor);
    weight standard errors propagate linearly through the (exact) normal
    forms, one per orbit.  Equal alpha sums are a precondition of the
    underlying statement; differing sums are flagged as misuse.
    """
    if pi.dim != vol.dim:
        raise ValueError("volume form dimension mismatch")
    a1 = tuple(float(x) for x in alphas)
    a2 = tuple(float(x) for x in alphas2)
    if abs(sum(a1) - sum(a2)) > 1e-9:
        raise ValueError("alpha sums differ (%.6g vs %.6g): the statement "
                         "compares equal-sum weight systems" % (sum(a1), sum(a2)))
    pref = _level_prefactor(order)
    orbits = star_orbits(order, 3)
    nfs = {rep: graph_to_operator(rep, [pi] * order).ibp_normal_form(vol)
           for rep in dict.fromkeys(rep for rep, sign in orbits.values() if sign)}

    def side(al):
        acc = {}
        for g, (rep, sign) in orbits.items():
            entry = _entry(table, g, al)
            if not sign:
                continue
            w, sig = _entry_weight(entry), entry.std_error
            for opkey, cpoly in nfs[rep].terms.items():
                for exps, c in cpoly.terms.items():
                    cell = acc.setdefault((opkey, exps), [Fraction(0), 0.0])
                    cell[0] += sign * w * c
                    cell[1] += (float(c) * sig) ** 2
        return acc

    s1, s2 = side(a1), side(a2)
    rows = []
    passed = True
    for cell_key in sorted(set(s1) | set(s2)):
        v1, var1 = s1.get(cell_key, (Fraction(0), 0.0))
        v2, var2 = s2.get(cell_key, (Fraction(0), 0.0))
        delta = abs(float(pref * (v1 - v2)))
        tol = max(3.0 * float(pref) * math.sqrt(var1 + var2), floor)
        ok = delta <= tol
        passed = passed and ok
        opkey, exps = cell_key
        rows.append({
            "slots": ["".join(str(e) for e in mi) for mi in opkey],
            "monomial": "".join(str(e) for e in exps),
            "delta": delta,
            "tolerance": tol,
            "ok": ok,
        })
    return {
        "check": "alpha",
        "order": order,
        "alphas": list(a1),
        "alphas2": list(a2),
        "divergence_free": pi.divergence(vol).is_zero(),
        "coefficients": rows,
        "passed": passed,
    }
