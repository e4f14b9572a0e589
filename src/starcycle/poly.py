"""Exact multivariate polynomials over the rationals.

Variables are fixed as x1..xd.  Coefficients are exact rationals in one
canonical form: an int when integral, otherwise a Fraction with a
denominator above 1.  So every identity checked downstream (brackets,
integration by parts, star products) is exact rather than floating-point,
and the common integral coefficients take plain int arithmetic.  An int
and a Fraction of equal value compare, hash and render alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add


def _accumulate(terms, key, c):
    """terms[key] += c in place, dropping the key when the sum is zero.
    Values are numbers or Polynomials, which are false exactly at zero.
    A sum is stored as it comes, so a Fraction stays a Fraction; the
    coefficients of a Polynomial go through _add_coeff instead."""
    s = terms.get(key)
    s = c if s is None else s + c
    if not s:
        terms.pop(key, None)
    else:
        terms[key] = s


def _canonical(c):
    """The rational c as a coefficient: an int when integral, else c."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _add_coeff(terms, key, c):
    """terms[key] += c for a rational c, keeping terms canonical: a zero sum
    drops the key and an integral one is stored as an int."""
    s = terms.get(key)
    s = _canonical(c if s is None else s + c)
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def _position(tokens, i, text):
    """Where a parse error at token i points: its start, or the end of text."""
    return tokens[i][2] if i < len(tokens) else len(text)


class Polynomial:
    """Polynomial in x1..x{dim} with rational coefficients.

    terms maps exponent tuples (length dim) to nonzero coefficients in the
    canonical form of the module docstring: an int when integral, else a
    Fraction with a denominator above 1.  Instances are treated as
    immutable; all operations return new ones.  The constructor validates
    and canonicalises; _trusted does not (see there).
    """

    __slots__ = ("dim", "terms")

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
                clean[exps] = _canonical(c)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(cls, dim: int, terms: dict) -> "Polynomial":
        """Wrap terms as they are: only for results of the package's own
        arithmetic, whose terms already map dim-tuples of non-negative ints
        to nonzero canonical coefficients (an int when integral, else a
        Fraction) and are held by no one else.  Outside input
        goes through the constructor or parse."""
        p = object.__new__(cls)
        object.__setattr__(p, "dim", dim)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

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
        """self + other, or self - other when negate, in one pass."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            _add_coeff(out, exps, -c if negate else c)
        return Polynomial._trusted(self.dim, out)

    def __add__(self, other):
        return self._merge(other, False)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._merge(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            terms = {e: _canonical(v * other) for e, v in self.terms.items()} if other else {}
            return Polynomial._trusted(self.dim, terms)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _add_coeff(out, tuple(map(add, e1, e2)), c1 * c2)
        return Polynomial._trusted(self.dim, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        # a constant hashes as its value, since it compares equal to it
        one = (0,) * self.dim
        if not self.terms or (len(self.terms) == 1 and one in self.terms):
            return hash(self.terms.get(one, 0))
        return hash((self.dim, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # -- calculus ---------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.dim:
            raise ValueError("axis %d out of range for dim %d" % (i, self.dim))
        a = i - 1
        out = {}
        for exps, c in self.terms.items():
            if exps[a] == 0:
                continue
            e = list(exps)
            e[a] -= 1
            out[tuple(e)] = _canonical(c * exps[a])
        return Polynomial._trusted(self.dim, out)

    def derive(self, multi_index) -> "Polynomial":
        """Iterated partial derivative for an exponent multi-index."""
        if len(multi_index) != self.dim:
            raise ValueError(
                f"multi-index length {len(multi_index)} != dim {self.dim}"
            )
        p = self
        for axis, k in enumerate(multi_index, start=1):
            for _ in range(k):
                p = p.partial(axis)
                if p.is_zero():
                    return p
        return p

    # -- text form ----------------------------------------------------------
    #
    # Grammar: terms joined by + / -; a term is a rational "a/b" or integer
    # and/or "*"-joined powers "xK^E"; whitespace ignored.

    _TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[\^\*\+\-]))")

    @classmethod
    def parse(cls, text: str, dim: int) -> "Polynomial":
        tokens = []
        pos = 0
        while pos < len(text):
            m = cls._TOKEN.match(text, pos)
            if m is None:
                if text[pos:].strip() == "":
                    break
                raise ValueError("syntax error at position %d: %r" % (pos, text[pos:pos + 10]))
            kind = m.lastgroup
            tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        if not tokens:
            raise ValueError("empty polynomial text")

        result = cls.zero(dim)
        i = 0
        sign = 1
        if tokens[0][0] == "op" and tokens[0][1] in "+-":
            sign = -1 if tokens[0][1] == "-" else 1
            i = 1
        while True:
            term, i = cls._parse_term(tokens, i, dim, text)
            result = result + sign * term
            if i >= len(tokens):
                break
            kind, val, at = tokens[i]
            if kind != "op" or val not in "+-":
                raise ValueError("expected + or - at position %d" % at)
            sign = -1 if val == "-" else 1
            i += 1
            if i >= len(tokens):
                raise ValueError("dangling %r at end of input" % val)
        return result

    @classmethod
    def _parse_term(cls, tokens, i, dim, text):
        coeff = Fraction(1)
        exps = [0] * dim
        seen = False
        while True:
            if i >= len(tokens):
                break
            kind, val, at = tokens[i]
            if kind == "num":
                try:
                    coeff *= Fraction(val)
                except ZeroDivisionError:
                    raise ValueError("zero denominator at position %d" % at) from None
                seen = True
                i += 1
            elif kind == "var":
                k = int(val[1:])
                if not 1 <= k <= dim:
                    raise ValueError("unknown variable %s at position %d (dim=%d)" % (val, at, dim))
                power = 1
                i += 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "num" or "/" in tokens[i][1]:
                        raise ValueError("expected integer exponent after ^ at position %d"
                                         % _position(tokens, i, text))
                    power = int(tokens[i][1])
                    i += 1
                exps[k - 1] += power
                seen = True
            else:
                break
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                if i >= len(tokens) or tokens[i][0] == "op":
                    raise ValueError("dangling * in term at position %d" % _position(tokens, i, text))
                continue
            break
        if not seen:
            raise ValueError("expected a term at position %d" % _position(tokens, i, text))
        return cls.monomial(dim, exps, coeff), i

    def render(self) -> str:
        """Inverse of parse: parse(p.render(), p.dim) == p."""
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda e: (-sum(e), tuple(-x for x in e)))
        parts = []
        for idx, exps in enumerate(keys):
            c = self.terms[exps]
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
