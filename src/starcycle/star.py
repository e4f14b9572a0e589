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

One assembly builds one table of pi's nonzero ordered components
(_component_table), each component with its own derivative cache, and
every orbit of every level contracts against that table (_contract), since
the same pi sits at every vertex.  A level's signed weights, its
contractions and its sum run on int numerators over one denominator, and
the level keeps that numerator table: its Polynomials are formed only when
it is read or rendered.  graph_to_operator builds one table per distinct
multivector and calls the same contraction.

Assembly first requires [pi, pi] = 0, which PolyVector.schouten sums on int
numerators.  Associativity at order n is d B_n = sum_{0<k<n} B_k o B_{n-k}
with B_0 the multiplication, which StarProduct requires; assoc_defect sums
both sides in one int numerator table, as check_cyclic sums C(B_n) - B_n.
Checks return JSON-friendly report dicts; the exact checks (associativity,
cyclicity, closedness) refuse Monte Carlo tables.
"""

import itertools
import math
from fractions import Fraction
from operator import add

from ._record import Frozen
from .diffops import PolyDiffOperator, _cyclic_residual, _d_into, _insert_into
from .graphs import AdmissibleGraph, star_orbits
from .poly import Polynomial, _derive_into, _times_into, _unit
from .polyvector import PolyVector, VolumeForm, _normalize_key
from .table import WeightTable


def _level_prefactor(n: int) -> Fraction:
    return Fraction(1, math.factorial(n) * 2 ** n)


def _component_table(gamma: PolyVector):
    """gamma's nonzero ordered components, built once for many contractions:
    (dim, den, [(idx, num, derivs)]), with den gamma's denominator and num
    the numerators of the component at idx over den: the stored map of the
    sorted idx, signed by the sort.  derivs is its derivative cache: it
    maps a packed multi-index to the numerators {exponents: int} of that
    derivative.  The nonzero components are the permutations of the stored
    keys, in index order."""
    comps = []
    for idx in sorted(idx for key in gamma._num for idx in itertools.permutations(key)):
        key, sign = _normalize_key(idx)
        num = gamma._num[key]
        comps.append((idx, num if sign > 0 else {e: -n for e, n in num.items()}, {}))
    return gamma.dim, gamma._den, comps


def _contract(graph: AdmissibleGraph, tables, out: dict, scale: int):
    """out += scale * U_graph on int numerators, for the component tables
    of the multivectors at vertices 1..n: out maps operator keys to
    {exponents: numerator} over the product of the tables' denominators.

    Sums over all assignments of an axis to every edge.  Internal vertex k
    contributes the component of its multivector picked out by its ordered
    star; every edge pointing at k differentiates that factor; edges into
    boundary vertices become derivatives on the argument slots.  Only
    assignments that give every vertex a nonzero component are visited, and
    one whose derivative at some vertex vanishes adds nothing.  The packed
    multi-indices of all n + m vertices, each the sum of its chosen in-edges
    (at most 2n, so far below 2^31), are held as one list.
    """
    n, m, dim = graph.n, graph.m, tables[0][0]
    choices = []
    for star, (_, _, comps) in zip(graph.stars, tables):
        opts = []
        for idx, num, derivs in comps:
            orders = [0] * (n + m)
            for tgt, i in zip(star, idx):
                orders[tgt - 1] += _unit(i - 1)
            opts.append((orders, num, derivs))
        choices.append(opts)
    for assign in itertools.product(*choices):
        orders = assign[0][0]
        for other, _, _ in assign[1:]:
            orders = list(map(add, orders, other))
        factors = []
        for k, (_, num, derivs) in zip(orders, assign):
            f = derivs.get(k)
            if f is None:
                f = derivs[k] = _derive_into({}, num, k, 1)
            if not f:
                break
            factors.append(f)
        else:
            *head, last = factors  # the last product adds into out
            prod = head[0] if head else {0: 1}
            for f in head[1:]:
                prod = _times_into({}, prod, f, 1, dim)
            _times_into(out.setdefault(tuple(orders[n:]), {}), prod, last, scale, dim)


def graph_to_operator(graph: AdmissibleGraph, gammas) -> PolyDiffOperator:
    """Kontsevich contraction of an admissible graph against multivectors.

    Internal vertex k carries gammas[k-1]; the result has arity m.  Each
    distinct multivector gets one component table, which _contract reads
    (see there for the sum).
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
    by_id = {}
    for g in gammas:
        if id(g) not in by_id:
            by_id[id(g)] = _component_table(g)
    tables = [by_id[id(g)] for g in gammas]
    out = {}
    _contract(graph, tables, out, 1)
    return PolyDiffOperator._trusted(dim, graph.m, out, math.prod(den for _, den, _ in tables))


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


def _orbit_sum(pi_table, table: WeightTable, n: int):
    """(level, is_exact) of (1/n! 2^n) sum_Gamma w_Gamma U_Gamma over
    star_orbits(n, 2).  Every graph's entry is read first, by _entry.  Each
    orbit's signed weights are summed as int numerators over the common
    denominator of the level's weights, and each orbit with a nonzero sum
    is contracted once against pi's component table pi_table."""
    entries = [(rep, sign, _entry(table, g)) for g, (rep, sign) in star_orbits(n, 2).items()]
    weights = [(rep, sign, _entry_weight(entry)) for rep, sign, entry in entries]
    den = math.lcm(*(w.denominator for _, _, w in weights))
    sums = {}
    for rep, sign, w in weights:
        sums[rep] = sums.get(rep, 0) + sign * w.numerator * (den // w.denominator)
    out = {}
    for rep, s in sums.items():
        if s:
            _contract(rep, [pi_table] * n, out, s)
    dim, pi_den, _ = pi_table
    den *= _level_prefactor(n).denominator * pi_den ** n
    return PolyDiffOperator._trusted(dim, 2, out, den), all(e.exact is not None for _, _, e in entries)


class StarProduct(Frozen):
    """Truncated star product: levels B_0..B_order, B_0 = multiplication;
    is_exact when every weight behind them is exact, as the exact checks need.
    The order is read off the levels, so it cannot disagree with them."""

    __slots__ = ("pi", "levels", "is_exact")

    def __init__(self, pi: PolyVector, levels, is_exact: bool):
        levels = tuple(levels)
        if levels[:1] != (PolyDiffOperator.multiplication(pi.dim),):
            raise ValueError("B_0 of a star product must be the multiplication")
        self._assign(pi, levels, bool(is_exact))

    @property
    def order(self) -> int:
        return len(self.levels) - 1

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
    pi_table = _component_table(pi)
    for n in range(1, order + 1):
        level, exact = _orbit_sum(pi_table, table, n)
        levels.append(level)
        all_exact = all_exact and exact
    return StarProduct(pi, levels, all_exact)


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
    the defect is -d B_n + sum_{0<k<n}, and -d B_0 = 0 at n = 0.  It is summed
    as int numerators in one table, and it forms no Polynomial.
    """
    levels, dens = s.levels, [b._den for b in s.levels]
    den = math.lcm(dens[n], *(dens[k] * dens[n - k] for k in range(1, n)))
    out = {}
    _d_into(levels[n], out, -(den // dens[n]))
    for k in range(1, n):
        m = den // (dens[k] * dens[n - k])
        _insert_into(levels[k], levels[n - k], 1, out, m)
        _insert_into(levels[k], levels[n - k], 2, out, -m)
    return PolyDiffOperator._trusted(s.pi.dim, 3, out, den)


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
    PolyDiffOperator.cyclic_shift, whose sign is +1 at arity 2; the residual
    C(B_n) - B_n is summed in one int numerator table.
    """
    _require_exact(s, "cyclicity check", vol)
    return _order_report("cyclic", s, ((n, _cyclic_residual(level, vol))
                                       for n, level in enumerate(s.levels)))


def check_closed(s: StarProduct, vol: VolumeForm) -> dict:
    """int B_n(f,g) Omega == 0 for n >= 1, exactly, per order."""
    _require_exact(s, "closedness check", vol)
    return _order_report("closed", s, ((n, level.ibp_normal_form(vol))
                                       for n, level in enumerate(s.levels) if n))


def _check_alpha_sums(a1, a2):
    """Equal alpha sums are a precondition of the alpha-independence
    statement; the CLI checks them before it samples either side."""
    if abs(sum(a1) - sum(a2)) > 1e-9:
        raise ValueError("alpha sums differ (%.6g vs %.6g): the statement "
                         "compares equal-sum weight systems" % (sum(a1), sum(a2)))


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
    _check_alpha_sums(a1, a2)
    pref = _level_prefactor(order)
    orbits = star_orbits(order, 3)
    cells = {}  # per orbit: the ((slots, monomial), coefficient) of its normal form
    for rep in dict.fromkeys(rep for rep, sign in orbits.values() if sign):
        nf = graph_to_operator(rep, [pi] * order).ibp_normal_form(vol)
        cells[rep] = [((opkey, exps), c) for opkey, cpoly in nf.terms.items()
                      for exps, c in cpoly.terms.items()]

    def side(al):
        acc = {}
        for g, (rep, sign) in orbits.items():
            entry = _entry(table, g, al)
            if not sign:
                continue
            w, sig = _entry_weight(entry), entry.std_error
            for cell_key, c in cells[rep]:
                cell = acc.setdefault(cell_key, [Fraction(0), 0.0])
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
