"""Exact base-field arithmetic: rationals and cyclotomic extensions Q(zeta_n).

Rational scalars are plain ``fractions.Fraction`` values.  Cyclotomic scalars
are ``Cyc`` values: a coefficient vector of length phi(n) over Q representing
a residue modulo the n-th cyclotomic polynomial, with the generator printed
as ``z``.  Both are immutable, hashable, and canonical, so scalar equality is
syntactic.

A ``Field`` object (RationalField or CyclotomicField) carries parsing,
formatting, coercion, and inversion.  Cyclotomic orders 1 and 2 are
canonicalized to the rationals by ``make_field``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import FieldMismatch, ParseError

__all__ = [
    "Cyc",
    "CyclotomicField",
    "Field",
    "RationalField",
    "QQ",
    "cyclotomic_polynomial",
    "make_field",
]


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def euler_phi(n):
    count = 0
    for k in range(1, n + 1):
        if gcd(k, n) == 1:
            count += 1
    return count


def _poly_div_exact(num, den):
    # Exact division of integer polynomials (lists, index = power).
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        q, r = divmod(num[k + len(den) - 1], den[-1])
        assert r == 0, "inexact cyclotomic division"
        out[k] = q
        for i, c in enumerate(den):
            num[k + i] -= q * c
    assert all(c == 0 for c in num), "nonzero remainder in cyclotomic division"
    return out


_CYCLOTOMIC_CACHE = {}


def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n (index = power, monic)."""
    if n in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n)[:-1]:
        poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    _CYCLOTOMIC_CACHE[n] = poly
    return poly


class _CycContext:
    """Per-order data shared by all Cyc scalars of that order."""

    def __init__(self, n):
        self.n = n
        self.phi = euler_phi(n)
        mod = cyclotomic_polynomial(n)
        assert len(mod) == self.phi + 1
        self.modulus = tuple(Fraction(c) for c in mod)
        # power_rows[k] = coefficients of z^(phi + k) reduced mod Phi_n,
        # enough rows to reduce any product of two residues and any z^k, k < n.
        rows = []
        top = [-Fraction(c) for c in mod[:-1]]  # z^phi
        cur = list(top)
        rows.append(tuple(cur))
        needed = max(2 * self.phi - 2, n - 1)
        for _ in range(self.phi, needed):
            shifted = [Fraction(0)] + cur[:-1]
            lead = cur[-1]
            if lead:
                shifted = [a + lead * b for a, b in zip(shifted, top)]
            cur = shifted
            rows.append(tuple(cur))
        self.power_rows = rows

    def reduce(self, coeffs):
        # coeffs: list of Fractions of any length -> tuple of length phi
        out = list(coeffs[: self.phi]) + [Fraction(0)] * max(0, self.phi - len(coeffs))
        for k in range(self.phi, len(coeffs)):
            c = coeffs[k]
            if c:
                row = self.power_rows[k - self.phi]
                for i, r in enumerate(row):
                    if r:
                        out[i] += c * r
        return tuple(out)


_CONTEXTS = {}


def _context(n):
    ctx = _CONTEXTS.get(n)
    if ctx is None:
        ctx = _CONTEXTS[n] = _CycContext(n)
    return ctx


class Cyc:
    """Residue in Q[z]/(Phi_n), i.e. an element of Q(zeta_n)."""

    __slots__ = ("n", "c")

    def __init__(self, n, coeffs, _reduce=True):
        self.n = n
        if _reduce:
            coeffs = _context(n).reduce([Fraction(x) for x in coeffs])
        self.c = coeffs

    @staticmethod
    def from_rational(n, q):
        ctx = _context(n)
        return Cyc(n, (Fraction(q),) + (Fraction(0),) * (ctx.phi - 1), _reduce=False)

    def _coerce(self, other):
        if isinstance(other, Cyc):
            if other.n != self.n:
                raise FieldMismatch(f"Q(zeta_{self.n}) vs Q(zeta_{other.n})")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyc.from_rational(self.n, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.n, tuple(a + b for a, b in zip(self.c, o.c)), _reduce=False)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Cyc(self.n, tuple(a - b for a, b in zip(self.c, o.c)), _reduce=False)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return Cyc(self.n, tuple(-a for a in self.c), _reduce=False)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.c, o.c
        prod = [Fraction(0)] * (2 * len(a) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        return Cyc(self.n, _context(self.n).reduce(prod), _reduce=False)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse via extended Euclid against Phi_n."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        # Work in Q[z]: r0 = Phi_n, r1 = self; track s only for r1-side.
        ctx = _context(self.n)
        r0 = list(ctx.modulus)
        r1 = list(self.c)
        while r1 and not r1[-1]:
            r1.pop()
        s0, s1 = [], [Fraction(1)]
        while True:
            # degree check
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                c = r1[0]
                return Cyc(self.n, ctx.reduce([x / c for x in s1]), _reduce=False)
            assert r1, "cyclotomic polynomial not coprime with nonzero residue"
            q, r = _poly_divmod_q(r0, r1)
            s0, s1 = s1, _poly_sub_q(s0, _poly_mul_q(q, s1))
            r0, r1 = r1, r

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

    def __eq__(self, other):
        if isinstance(other, Cyc):
            return self.n == other.n and self.c == other.c
        if isinstance(other, (int, Fraction)):
            return all(x == 0 for x in self.c[1:]) and self.c[0] == other
        return NotImplemented

    def __hash__(self):
        if all(x == 0 for x in self.c[1:]):
            return hash(self.c[0])
        return hash((self.n,) + self.c)

    def __bool__(self):
        return any(self.c)

    def __repr__(self):
        return f"Cyc({self.n}, {CyclotomicField(self.n).format(self)!r})"


def _poly_divmod_q(num, den):
    num = [Fraction(x) for x in num]
    dd = len(den) - 1
    out = [Fraction(0)] * max(len(num) - dd, 0)
    lead = den[-1]
    for k in range(len(out) - 1, -1, -1):
        q = num[k + dd] / lead
        out[k] = q
        if q:
            for i, c in enumerate(den):
                num[k + i] -= q * c
    while num and not num[-1]:
        num.pop()
    return out, num


def _poly_mul_q(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_sub_q(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    while out and not out[-1]:
        out.pop()
    return out


_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_TERM_RE = re.compile(r"^(\d+(?:/\d+)?)?(?:\*?z(?:\^(\d+))?)?$")


def _parse_fraction(text, source):
    """Fraction of a grammar-checked numeral; a zero denominator is a ParseError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar {source!r}") from None


class Field:
    """Common interface of the two scalar fields."""

    kind = None
    order = None

    def zero(self):
        return self.from_int(0)

    def one(self):
        return self.from_int(1)

    def coerce(self, x):
        raise NotImplementedError

    def spec(self):
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "cyclotomic", "order": self.order}

    def __eq__(self, other):
        return isinstance(other, Field) and (self.kind, self.order) == (other.kind, other.order)

    def __hash__(self):
        return hash((self.kind, self.order))


_ZERO = Fraction(0)
_ONE = Fraction(1)


class RationalField(Field):
    kind = "rational"

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

    def from_int(self, k):
        return Fraction(k)

    def from_fraction(self, q):
        return Fraction(q)

    def coerce(self, x):
        # Fractions are immutable, so an exact Fraction is returned as is;
        # rebuilding it would redo an ABC isinstance check per entry.
        if type(x) is Fraction:
            return x
        if isinstance(x, (int, Fraction)):
            return Fraction(x)
        raise FieldMismatch(f"cannot coerce {x!r} into Q")

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def parse(self, text):
        text = text.strip().replace(" ", "")
        if not _RAT_RE.match(text):
            raise ParseError(f"not a rational scalar: {text!r}")
        return _parse_fraction(text, text)

    def format(self, a):
        return str(Fraction(a))

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class CyclotomicField(Field):
    kind = "cyclotomic"

    def __init__(self, order):
        if order < 3:
            raise ValueError("orders 1 and 2 canonicalize to the rationals; use make_field")
        self.order = order
        self.phi = euler_phi(order)

    def from_int(self, k):
        return Cyc.from_rational(self.order, k)

    def from_fraction(self, q):
        return Cyc.from_rational(self.order, q)

    def coerce(self, x):
        if isinstance(x, Cyc):
            if x.n != self.order:
                raise FieldMismatch(f"Q(zeta_{x.n}) scalar in Q(zeta_{self.order})")
            return x
        if isinstance(x, (int, Fraction)):
            return Cyc.from_rational(self.order, x)
        raise FieldMismatch(f"cannot coerce {x!r} into Q(zeta_{self.order})")

    def zeta(self, power=1):
        """The root of unity z^power as a field element."""
        power %= self.order
        coeffs = [Fraction(0)] * (power + 1)
        coeffs[power] = Fraction(1)
        return Cyc(self.order, coeffs)

    def inv(self, a):
        return self.coerce(a).inv()

    def div(self, a, b):
        return self.coerce(a) * self.coerce(b).inv()

    def parse(self, text):
        src = text.strip().replace(" ", "")
        if not src:
            raise ParseError("empty scalar")
        # Split into signed terms.
        terms = []
        sign = 1
        buf = ""
        if src[0] in "+-":
            sign = -1 if src[0] == "-" else 1
            src = src[1:]
        for ch in src:
            if ch in "+-":
                terms.append((sign, buf))
                sign = -1 if ch == "-" else 1
                buf = ""
            else:
                buf += ch
        terms.append((sign, buf))
        total = Cyc.from_rational(self.order, 0)
        for sgn, term in terms:
            m = _TERM_RE.match(term)
            if not m or not term:
                raise ParseError(f"bad cyclotomic term {term!r} in {text!r}")
            coef_s, pow_s = m.groups()
            if coef_s is None and "z" not in term:
                raise ParseError(f"bad cyclotomic term {term!r} in {text!r}")
            coef = _parse_fraction(coef_s, text) if coef_s else Fraction(1)
            if "z" in term:
                power = int(pow_s) if pow_s else 1
                total = total + sgn * coef * self.zeta(power)
            else:
                total = total + Cyc.from_rational(self.order, sgn * coef)
        return total

    def format(self, a):
        a = self.coerce(a)
        parts = []
        for k, c in enumerate(a.c):
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                zpart = "z" if k == 1 else f"z^{k}"
                body = zpart if mag == 1 else f"{mag}*{zpart}"
            parts.append((sign, body))
        if not parts:
            return "0"
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += sign + body
        return out

    def __repr__(self):
        return f"QQ(zeta_{self.order})"


def make_field(kind, order=None):
    """FieldSpec constructor; cyclotomic orders 1 and 2 collapse to Q."""
    if kind == "rational":
        return QQ
    if kind == "cyclotomic":
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ValueError("cyclotomic field needs a positive order")
        if order <= 2:
            return QQ
        return CyclotomicField(order)
    raise ValueError(f"unknown field kind {kind!r}")
