"""Exact multivariate polynomials over the rationals, and the linear
structure of operators and multivectors with polynomial coefficients.

Variables are fixed as x1..xd.  A Polynomial holds int numerators over one
positive denominator, in lowest terms (their gcd is 1).  So every identity
checked downstream (brackets, integration by parts, star products) is exact
rather than floating-point, and its sums run on ints.  The view terms reads
each coefficient as a canonical rational: an int when integral, otherwise a
Fraction with a denominator above 1.  Equal values compare, hash and render alike.
_Table stores a sum of basis elements with Polynomial coefficients the
same way, as one table of numerators over one denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, perm
from operator import add, sub
from types import MappingProxyType

from ._record import Frozen


def _accumulate(terms, key, c):
    """terms[key] += c in place, dropping the key when the sum is zero.
    Values are numbers or Polynomials, which are false exactly at zero."""
    s = terms.get(key)
    s = c if s is None else s + c
    if not s:
        terms.pop(key, None)
    else:
        terms[key] = s


def _add(acc, num, m):
    """acc += m * num in place, on numerator maps {exponents: int}; a zero sum drops its key."""
    get = acc.get
    for e, n in num.items():
        if s := get(e, 0) + n * m:
            acc[e] = s
        else:
            acc.pop(e, None)


def _derive_num(num, multi_index):
    """d^multi_index of the numerators num, over num's denominator."""
    out = {}
    for exps, n in num.items():
        for e, k in zip(exps, multi_index):
            if e < k:
                break
            n *= perm(e, k)
        else:
            out[tuple(map(sub, exps, multi_index))] = n
    return out


def _times(num1, num2):
    """The numerators of the product of two numerator maps."""
    out = {}
    get = out.get
    for e1, c1 in num1.items():
        for e2, c2 in num2.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c} if 0 in out.values() else out


class Polynomial(Frozen):
    """Polynomial in x1..x{dim} with rational coefficients.

    _num maps exponent tuples (length dim) to nonzero int numerators over
    the denominator _den (see the module docstring for both and for terms).
    All operations return new instances.  The constructor validates and
    canonicalises; _trusted does not (see there).
    """

    __slots__ = ("dim", "_num", "_den")

    def __init__(self, dim: int, terms=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != dim:
                raise ValueError("exponent tuple %r does not have length %d" % (exps, dim))
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent in %r" % (exps,))
            c = Fraction(coeff)
            if c != 0:
                clean[exps] = c
        den = lcm(*(c.denominator for c in clean.values()))
        self._assign(dim, {e: c.numerator * den // c.denominator for e, c in clean.items()}, den)

    @classmethod
    def _trusted(cls, dim: int, num: dict, den: int = 1) -> "Polynomial":
        """num/den in lowest terms, for the package's own results only: num
        maps dim-tuples of non-negative ints to nonzero int numerators and
        is changed by no one later, and den > 0.  Outside input goes through
        the constructor or parse, which checks its text first."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {e: n // g for e, n in num.items()}
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "_num", num)
        object.__setattr__(p, "_den", den)
        return p

    @property
    def terms(self):
        """Read-only {exponents: canonical coefficient}."""
        d = self._den
        return MappingProxyType(self._num if d == 1 else
                                {e: Fraction(n, d) if n % d else n // d for e, n in self._num.items()})

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "Polynomial":
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def one(cls, dim: int) -> "Polynomial":
        return cls.constant(dim, 1)

    @classmethod
    def variable(cls, dim: int, i: int) -> "Polynomial":
        """x_i, 1-based."""
        if not 1 <= i <= dim:
            raise ValueError("variable index %d out of range for dim %d" % (i, dim))
        exps = [0] * dim
        exps[i - 1] = 1
        return cls(dim, {tuple(exps): 1})

    @classmethod
    def monomial(cls, dim: int, exps, coeff=1) -> "Polynomial":
        return cls(dim, {tuple(exps): coeff})

    # -- ring structure ---------------------------------------------------

    def _check_dim(self, other: "Polynomial"):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))

    def _merge(self, other, negate):
        """self + other, or self - other when negate, in one pass over the
        lcm of the two denominators."""
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.dim, other)
        self._check_dim(other)
        den = lcm(self._den, other._den)
        m1, m2 = den // self._den, (-den if negate else den) // other._den
        out = dict(self._num) if m1 == 1 else {e: n * m1 for e, n in self._num.items()}
        _add(out, other._num, m2)
        return Polynomial._trusted(self.dim, out, den)

    def __add__(self, other):
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.dim, {e: -n for e, n in self._num.items()}, self._den)

    def __sub__(self, other):
        return self._merge(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            p = other.numerator
            num = {e: n * p for e, n in self._num.items()} if p else {}
            return Polynomial._trusted(self.dim, num, self._den * other.denominator)
        self._check_dim(other)
        return Polynomial._trusted(self.dim, _times(self._num, other._num), self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.constant(self.dim, other)
        return self.dim == other.dim and self._den == other._den and self._num == other._num

    def __hash__(self):
        # a constant hashes as its value, since it compares equal to it
        one = (0,) * self.dim
        if not self._num or (len(self._num) == 1 and one in self._num):
            return hash(Fraction(self._num.get(one, 0), self._den))
        return hash((self.dim, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self._num)

    def is_zero(self) -> bool:
        return not self._num

    # -- calculus ---------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.dim:
            raise ValueError("axis %d out of range for dim %d" % (i, self.dim))
        return self.derive(tuple(int(a == i) for a in range(1, self.dim + 1)))

    def derive(self, multi_index) -> "Polynomial":
        """Iterated partial derivative for an exponent multi-index."""
        if len(multi_index) != self.dim:
            raise ValueError(f"multi-index length {len(multi_index)} != dim {self.dim}")
        return Polynomial._trusted(self.dim, _derive_num(self._num, multi_index), self._den)

    # -- text form ----------------------------------------------------------

    _TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[\^\*\+\-])|(?P<bad>\S))")

    @classmethod
    def parse(cls, text: str, dim: int) -> "Polynomial":
        """Polynomial from text.  Grammar: terms joined by + or - (the first
        may carry a sign); a term is factors joined by *; a factor is an
        integer, a rational a/b, xK or xK^E; whitespace is ignored.  A
        ValueError names a position; a character outside the grammar is
        reported first, at the whitespace before it."""
        tokens = []
        for m in cls._TOKEN.finditer(text):
            kind, at = m.lastgroup, m.start()
            if kind == "bad":
                raise ValueError("syntax error at position %d: %r" % (at, text[at:at + 10]))
            tokens.append((kind, m.group(kind), m.start(kind)))
        if not tokens:
            raise ValueError("empty polynomial text")
        tokens.append(("end", "", len(text)))

        terms = {}
        i = 1 if tokens[0][1] in ("+", "-") else 0
        coeff, exps = (-1 if tokens[0][1] == "-" else 1), [0] * dim
        while True:
            kind, val, at = tokens[i]
            if kind == "num":
                try:
                    coeff *= Fraction(val) if "/" in val else int(val)
                except ZeroDivisionError:
                    raise ValueError("zero denominator at position %d" % at) from None
                except ValueError:  # more digits than int() converts
                    raise ValueError("too many digits at position %d" % at) from None
            elif kind == "var":
                try:
                    k = int(val[1:])
                except ValueError:
                    raise ValueError("too many digits at position %d" % at) from None
                if not 1 <= k <= dim:
                    raise ValueError("unknown variable %s at position %d (dim=%d)" % (val, at, dim))
                power = 1
                if tokens[i + 1][1] == "^":
                    i += 2
                    kind, val, at = tokens[i]
                    if kind != "num" or "/" in val:
                        raise ValueError("expected integer exponent after ^ at position %d" % at)
                    try:
                        power = int(val)
                    except ValueError:
                        raise ValueError("too many digits at position %d" % at) from None
                exps[k - 1] += power
            else:
                raise ValueError("expected a term at position %d" % at)
            i += 1
            kind, val, at = tokens[i]
            if val == "*":
                i += 1
                if tokens[i][0] not in ("num", "var"):
                    raise ValueError("dangling * in term at position %d" % tokens[i][2])
                continue
            _accumulate(terms, tuple(exps), coeff)
            if kind == "end":  # the grammar made terms' keys valid and its values nonzero
                den = lcm(*(c.denominator for c in terms.values()))
                num = {e: c.numerator * den // c.denominator for e, c in terms.items()}
                return cls._trusted(dim, num, den)
            if val not in ("+", "-"):
                raise ValueError("expected + or - at position %d" % at)
            i += 1
            if tokens[i][0] == "end":
                raise ValueError("dangling %r at end of input" % val)
            coeff, exps = (-1 if val == "-" else 1), [0] * dim

    def render(self) -> str:
        """Inverse of parse: parse(p.render(), p.dim) == p."""
        terms = self.terms
        if not terms:
            return "0"
        keys = sorted(terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        parts = []
        for idx, exps in enumerate(keys):
            c = terms[exps]
            factors = []
            for axis, e in enumerate(exps, start=1):
                if e == 1:
                    factors.append("x%d" % axis)
                elif e > 1:
                    factors.append("x%d^%d" % (axis, e))
            mag = abs(c)
            if not factors or mag != 1:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if idx == 0:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return "Polynomial(%d, %s)" % (self.dim, self.render())


class _Table(Frozen):
    """A sum of basis elements with Polynomial coefficients in x1..x{dim}:
    the linear structure of PolyDiffOperator and PolyVector.  _num maps each
    basis key to the numerators {exponents: int} of its coefficient, no map
    empty, all over one positive denominator _den, in lowest terms, so equal
    values have equal fields.  The package's routines read _num and _den
    directly; _view forms Polynomials, which share the stored maps, on each
    read, and nothing changes a stored map.  A subclass sets __slots__ to
    (dim, its grade, _num, _den), publishes _view under its own name, and
    gives _basis, the text of a key, and _sum_grade, its rule for sums.
    """

    __slots__ = ()

    def _assign_polys(self, dim, grade, polys):
        """Set the fields from {key: nonzero Polynomial}: the last step of a validating constructor."""
        den = lcm(*(p._den for p in polys.values()))
        self._assign(dim, grade, {key: {e: n * (den // p._den) for e, n in p._num.items()}
                                  for key, p in polys.items()}, den)

    @classmethod
    def _trusted(cls, dim: int, grade: int, num: dict, den: int = 1):
        """The value num/den, for the package's own results only: num maps
        valid keys to numerator maps that no one changes later, and den > 0.
        Empty maps are dropped and the common gcd is taken out."""
        g = gcd(den, *(n for m in num.values() for n in m.values())) if den != 1 else 1
        t = object.__new__(cls)
        t._assign(dim, grade, {key: m if g == 1 else {e: n // g for e, n in m.items()}
                               for key, m in num.items() if m}, den // g)
        return t

    @property
    def _grade(self):
        return getattr(self, self.__slots__[1])

    def _view(self):
        """Read-only {key: Polynomial coefficient}."""
        dim, den = self.dim, self._den
        return MappingProxyType({key: Polynomial._trusted(dim, m, den) for key, m in self._num.items()})

    def is_zero(self) -> bool:
        return not self._num

    def _label(self):
        """What equality and hash read besides the coefficients."""
        return self.dim, self._grade

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._den == other._den and self._label() == other._label() and self._num == other._num

    def __hash__(self):
        return hash((self._label(), self._den,
                     frozenset((key, frozenset(m.items())) for key, m in self._num.items())))

    _check_dim = Polynomial._check_dim

    def _merge(self, other, sign):
        """self + sign * other, on numerators over the lcm of the two denominators."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        grade = self._sum_grade(other)
        den = lcm(self._den, other._den)
        m1, m2 = den // self._den, sign * den // other._den
        out = {key: {e: n * m1 for e, n in m.items()} for key, m in self._num.items()}
        for key, m in other._num.items():
            _add(out.setdefault(key, {}), m, m2)
        return self._trusted(self.dim, grade, out, den)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, scalar):
        """self times a rational or a Polynomial of the same dim."""
        if isinstance(scalar, (int, Fraction)):
            scalar = Polynomial.constant(self.dim, scalar)
        if not isinstance(scalar, Polynomial):
            return NotImplemented
        self._check_dim(scalar)
        num = {key: _times(m, scalar._num) for key, m in self._num.items()}
        return self._trusted(self.dim, self._grade, num, self._den * scalar._den)

    __rmul__ = __mul__

    def render(self) -> str:
        """'(c) basis(key) + ...' over the keys in order, '(c)' alone where
        the basis text is empty, or '0': the text form of the sum."""
        return " + ".join(("(%s) %s" % (p.render(), self._basis(key))).rstrip()
                          for key, p in sorted(self._view().items())) or "0"

    def __repr__(self):
        return "%s(%d, %d, %s)" % (type(self).__name__, self.dim, self._grade, self.render())
