"""Polyvector fields on R^d: wedge product, Schouten bracket, divergence.

A k-vector field is stored through its strictly increasing basis keys,
i.e. as an element of the odd polynomial algebra in theta_1..theta_d
with Polynomial coefficients.  The Lie grading of the bracket is
degree = arity - 1, so functions sit in degree -1 and bivectors in
degree 1.  A multivector is stored as one {key: {exponents: int}}
numerator table over one denominator (poly._Table), exponents packed.  The
wedge and the bracket read those tables, take each d_x_i of a component
once, and add int numerators into a new table; the divergence adds Polynomials.
"""

from __future__ import annotations

import re
from ._record import Record, _json_int
from .poly import Polynomial, _accumulate, _derive_into, _Table, _times_into, _unit


def _normalize_key(key):
    """Sort a basis key, returning (sorted_key, parity_sign) or None if repeated."""
    key = list(key)
    sign = 1
    for i in range(1, len(key)):
        j = i
        while j > 0 and key[j - 1] > key[j]:
            key[j - 1], key[j] = key[j], key[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(key)):
        if key[i - 1] == key[i]:
            return None
    return tuple(key), sign


# an axis of a component key: a 1-based index in ASCII digits, no leading zero
_AXIS = re.compile(r"[1-9][0-9]*")


def _wedge_into(out, ka, kb, num1, num2, m, dim):
    """out[ka ^ kb] += m * num1 * num2 in place, on numerator maps in dim
    axes, signed by the sort of ka + kb; nothing when the keys share an axis."""
    norm = _normalize_key(ka + kb)
    if norm is not None and num1 and num2:
        key, sign = norm
        _times_into(out.setdefault(key, {}), num1, num2, sign * m, dim)


class PolyVector(_Table):
    """Skew multivector field with Polynomial coefficients.

    components is a read-only view {strictly increasing axes: Polynomial};
    poly._Table stores it and gives the linear structure.  The zero
    multivector may carry any degree label (wedge overflow returns such a
    zero): zeros of any degree are equal and add as the identity.
    """

    __slots__ = ("dim", "degree", "_num", "_den")

    def __init__(self, dim: int, degree: int, components=None):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if degree < -1:
            raise ValueError("degree must be >= -1")
        arity = degree + 1
        clean = {}
        for key, poly in (components or {}).items():
            key = tuple(int(i) for i in key)
            if len(key) != arity:
                raise ValueError("key %r has arity %d, expected %d" % (key, len(key), arity))
            if any(not 1 <= i <= dim for i in key):
                raise ValueError("axis out of range in key %r (dim=%d)" % (key, dim))
            norm = _normalize_key(key)
            if norm is None:
                continue
            skey, sign = norm
            if not isinstance(poly, Polynomial):
                poly = Polynomial.constant(dim, poly)
            if poly.dim != dim:
                raise ValueError("component polynomial dim %d != %d" % (poly.dim, dim))
            _accumulate(clean, skey, sign * poly)
        self._assign_polys(dim, degree, clean)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int) -> "PolyVector":
        return cls(dim, degree, {})

    # -- bookkeeping --------------------------------------------------------

    @property
    def arity(self) -> int:
        return self.degree + 1

    components = property(_Table._view)

    @staticmethod
    def _basis(key):
        return "^".join("d%d" % i for i in key)

    def _label(self):
        # zero vectors of any degree are equal, so they hash alike
        return self.dim, self.degree if self._num else None

    def _sum_grade(self, other):
        self._check_dim(other)
        if self._num and other._num and self.degree != other.degree:
            raise ValueError("degree mismatch: %d vs %d" % (self.degree, other.degree))
        return self.degree if self._num else other.degree

    def coefficient(self, indices) -> Polynomial:
        """Full skew tensor component for an arbitrary index tuple."""
        norm = _normalize_key(tuple(indices))
        if norm is None:
            return Polynomial.zero(self.dim)
        skey, sign = norm
        num = self._num.get(skey)
        if num is None:
            return Polynomial.zero(self.dim)
        return sign * Polynomial._trusted(self.dim, num, self._den)

    # -- odd calculus --------------------------------------------------------

    def wedge(self, other: "PolyVector") -> "PolyVector":
        """Exterior product; returns a zero multivector on degree overflow."""
        self._check_dim(other)
        out = {}
        for ka, na in self._num.items():
            for kb, nb in other._num.items():
                _wedge_into(out, ka, kb, na, nb, 1, self.dim)
        return PolyVector._trusted(self.dim, self.degree + other.degree + 1, out, self._den * other._den)

    def schouten(self, other: "PolyVector") -> "PolyVector":
        """Schouten-Nijenhuis bracket.

        In the odd-coordinate picture, with |A| the geometric arity,
            [A, B] = sum_i ( (-1)^{|A|+1} (d_theta_i A) ^ (d_x_i B)
                             - (d_x_i A) ^ (d_theta_i B) ),
        where d_theta_i takes theta_i out of a key at (0-based) position
        pos with the sign (-1)^pos.  On two vector fields this is the Lie
        bracket; on a vector field and a function it is the directional
        derivative.
        """
        self._check_dim(other)
        if self.degree + other.degree < -1:
            raise ValueError("degree must be >= -1")
        a, b = self._num, other._num
        units = [_unit(i) for i in range(self.dim)]
        grad_a = {k: [_derive_into({}, n, u, 1) for u in units] for k, n in a.items()}
        grad_b = {k: [_derive_into({}, n, u, 1) for u in units] for k, n in b.items()}
        sign_a = 1 if self.arity % 2 else -1
        out, dim = {}, self.dim
        for ka, na in a.items():
            for kb, nb in b.items():
                for pos, i in enumerate(ka):
                    _wedge_into(out, ka[:pos] + ka[pos + 1:], kb, na, grad_b[kb][i - 1],
                                -sign_a if pos % 2 else sign_a, dim)
                for pos, i in enumerate(kb):
                    _wedge_into(out, ka, kb[:pos] + kb[pos + 1:], grad_a[ka][i - 1], nb,
                                1 if pos % 2 else -1, dim)
        return PolyVector._trusted(self.dim, self.degree + other.degree, out, self._den * other._den)

    def divergence(self, vol: "VolumeForm") -> "PolyVector":
        """Divergence with respect to vol; degree drops by one.

        div(A) = sum_i ( d_x_i (d_theta_i A) + (d_x_i rho) * (d_theta_i A) )
        for the density exp(rho).
        """
        if self.dim != vol.dim:
            raise ValueError("dimension mismatch with volume form")
        if self.degree < 0:
            raise ValueError("divergence of a function (degree -1) is undefined")
        grad_rho = [vol.log_density.partial(i) for i in range(1, self.dim + 1)]
        out = {}
        for key, p in self.components.items():
            for pos, i in enumerate(key):
                d = p.partial(i) + grad_rho[i - 1] * p
                _accumulate(out, key[:pos] + key[pos + 1:], -d if pos % 2 else d)
        return PolyVector(self.dim, self.degree - 1, out)

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "PolyVector":
        """Keys list their axes strictly increasing, one key per basis
        element: the constructor would fold a key "2,1" into "1,2" by sign.
        A key is written as its axes joined by single commas ("" for a
        function), so " 1,+2", "01,2" and "1, 2" are refused."""
        dim = _json_int(obj["dim"], "dim")
        degree = _json_int(obj["degree"], "degree")
        comps = {}
        for key, text in obj.get("components", {}).items():
            indices = tuple(map(int, _AXIS.findall(key)))
            if (",".join(map(str, indices)) != key or indices in comps
                    or any(a >= b for a, b in zip(indices, indices[1:]))):
                raise ValueError('key %r: axes must increase, written as in "1,2", one key per element'
                                 % key)
            comps[indices] = Polynomial.parse(text, dim)
        return cls(dim, degree, comps)


class VolumeForm(Record):
    """Volume form exp(rho) dx1^...^dxd with polynomial log-density rho."""

    __slots__ = ("dim", "log_density")

    def __init__(self, dim: int, log_density: Polynomial | None = None):
        if log_density is None:
            log_density = Polynomial.zero(dim)
        if log_density.dim != dim:
            raise ValueError("log_density dim mismatch")
        self._assign(dim, log_density)

    @classmethod
    def constant(cls, dim: int) -> "VolumeForm":
        return cls(dim)

    @classmethod
    def from_json(cls, obj: dict) -> "VolumeForm":
        dim = _json_int(obj["dim"], "dim")
        return cls(dim, Polynomial.parse(obj.get("log_density", "0"), dim))

    def __repr__(self):
        return "VolumeForm(%d, %s)" % (self.dim, self.log_density.render())
