"""Exact base-field arithmetic: rationals and cyclotomic extensions Q(zeta_n).

Rational scalars are ``int`` when integral and ``fractions.Fraction``
otherwise: the field's entry points hand out an ``int`` whenever the
denominator is 1, and since the two types compare and hash equal, an
integral ``Fraction`` left by arithmetic is an equally valid scalar.
Integer arithmetic is many times cheaper than ``Fraction`` arithmetic, and
most structure constants are integers.

Cyclotomic scalars are ``Cyc`` values: a residue modulo the n-th cyclotomic
polynomial Phi_n, stored as phi(n) integer numerators over one positive
integer denominator with no common factor (zero is 0/1), with the generator
printed as ``z``.  Phi_n is monic with integer coefficients, so a product is
one integer convolution that folds each term of degree phi or more along
the stored row of z^phi, z^(phi+1), ..., and one gcd.  A rational operand
only scales the other vector, 0 and 1 return an operand, and an inverse is
the product of the other Galois conjugates over the norm.  Both kinds are immutable and hashable, and equal
scalars hash equal; a ``Cyc`` is canonical, so its equality is syntactic.

A ``Field`` object (RationalField or CyclotomicField) carries parsing,
formatting, coercion, and inversion.  Cyclotomic orders 1 and 2 are
canonicalized to the rationals by ``make_field``.

A field also maps a table of its scalars to integers, for scans and
products that only add and multiply entries (``scaling``, ``image`` and
``radix``; back again, ``image_zero`` and ``from_image``).  Each
scalar is multiplied by the lcm D of the table's denominators.  Over Q
that is an int.  Over Q(zeta_n) the phi scaled integer coefficients c_t are
packed into the one int sum_t c_t 2^(K t), the Kronecker substitution
z -> 2^K (``_pack``).  Then a product of scalars is a product of ints and
a sum is a sum of ints, as long as no digit of a result reaches 2^(K-1):
``radix`` picks K from a bound on the digits.  A packed int is not
canonical, since it is never reduced mod Phi_n, so a value is tested for
zero by its signed digits (``_unpack``), folded by z^n = 1 and reduced
mod Phi_n once, and a product's output is read back to one scalar the
same way, over D (``from_image``).

For the modular step of ``solve_antipode`` a field also maps its scalars
into F_p (``Field.modular``).  Over Q(zeta_n), p is the largest prime below
2^61 with p = 1 (mod n), so Phi_n has phi distinct roots w mod p, and each
gives one ring map z -> w of the scalars whose denominators p does not
divide (one embedding per prime above p; Encarnacion 1995).  ``_Modular``
lifts the images of a value under all of them back to the field, by
interpolation and rational reconstruction.  The prime, its roots and the
interpolation matrix are found once per order, on first use, and kept in
its ``_CycContext``; Q is order 1, with the one map z -> 1.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm, prod
from operator import add, mul, sub

from .errors import FieldMismatch, Inconsistent, InvalidPresentation, ParseError
from .linalg import _reconstruct

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
    return [d for d in range(1, n + 1) if n % d == 0]


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# polynomials over an exact field: coefficient lists, index = power


def _poly_eval(f, x, field):
    acc = field.zero()
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _poly_mul(f, g, field):
    if not f or not g:
        return []
    out = [field.zero()] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _poly_divmod(f, g, field):
    f = list(f)
    dg = len(g) - 1
    lead = g[-1]
    out = [field.zero()] * max(len(f) - dg, 0)
    for k in range(len(out) - 1, -1, -1):
        q = field.div(f[k + dg], lead)
        out[k] = q
        if q:
            for i, c in enumerate(g):
                f[k + i] -= q * c
    while f and not f[-1]:
        f.pop()
    return out, f


def _poly_ext_gcd(f, g, field):
    """(u, w, d) with u f + w g = d = gcd(f, g), d monic."""
    r0, r1 = list(f), list(g)
    s0, s1 = [field.one()], []
    t0, t1 = [], [field.one()]
    while r1:
        q, r = _poly_divmod(r0, r1, field)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1, field), field)
        t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1, field), field)
    lead = r0[-1]
    inv = field.inv(lead)
    return tuple([c * inv for c in p] for p in (s0, t0, r0))


def _poly_sub(f, g, field):
    out = [field.zero()] * max(len(f), len(g))
    for i, c in enumerate(f):
        out[i] += c
    for i, c in enumerate(g):
        out[i] -= c
    while out and not out[-1]:
        out.pop()
    return out


_CYCLOTOMIC_CACHE = {}


def cyclotomic_polynomial(n):
    """Integer coefficients of Phi_n (index = power, monic)."""
    if n in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[n]
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in _divisors(n)[:-1]:
        poly, rem = _poly_divmod(poly, cyclotomic_polynomial(d), QQ)
        if rem:
            raise Inconsistent(f"Phi_{d} does not divide x^{n} - 1 exactly")
    _CYCLOTOMIC_CACHE[n] = poly
    return poly


class _CycContext:
    """Per-order data shared by all Cyc scalars of that order."""

    def __init__(self, n):
        self.n = n
        self.phi = phi = euler_phi(n)
        mod = cyclotomic_polynomial(n)
        if len(mod) != phi + 1:
            raise Inconsistent(f"Phi_{n} has degree {len(mod) - 1}, expected phi({n}) = {phi}")
        # Phi_n is monic with integer coefficients, so every z^(phi + k)
        # reduces to an integer row.  power_rows[k] holds the nonzero
        # (index, coefficient) pairs of that row, enough rows to reduce any
        # product of two residues and any z^k, k < n.
        top = [-c for c in mod[:-1]]  # z^phi
        cur = list(top)
        rows = [cur]
        for _ in range(phi, max(2 * phi - 2, n - 1)):
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                cur = [a + lead * b for a, b in zip(cur, top)]
            rows.append(cur)
        self.power_rows = [tuple((i, r) for i, r in enumerate(row) if r) for row in rows]
        self.fold_rows = [((t, 1),) for t in range(phi)] + self.power_rows[: n - phi]  # z^t, t < n
        self.zero_tail = (0,) * (phi - 1)
        self.zero = _cyc(n, (0,) * phi, 1)
        self.one = _cyc(n, (1,) + self.zero_tail, 1)
        # The Galois automorphisms z -> z^k other than the identity.
        self.conjugations = [k for k in range(2, n) if gcd(k, n) == 1]

    def reduce(self, coeffs):
        """List of ints of length at most phi + len(power_rows) -> list of length phi."""
        phi = self.phi
        out = list(coeffs[:phi]) + [0] * (phi - len(coeffs))
        for k in range(phi, len(coeffs)):
            c = coeffs[k]
            if c:
                for i, r in self.power_rows[k - phi]:
                    out[i] += c * r
        return out

    def mul(self, a, b):
        """Integer numerators of the product of residues a and b, reduced in the same pass.

        x_i y_j goes to slot i + j below phi, and along the row
        ``power_rows[i + j - phi]`` of z^(i + j) above it.
        """
        phi, rows = self.phi, self.power_rows
        out = [0] * phi
        for i, x in enumerate(a):
            if x:
                k = i
                for y in b:
                    if y:
                        if k < phi:
                            out[k] += x * y
                        else:
                            xy = x * y
                            for m, r in rows[k - phi]:
                                out[m] += xy * r
                    k += 1
        return out

    def conjugate(self, a, k):
        """Integer numerators of the image of residue a under z -> z^k."""
        n = self.n
        out = [0] * n
        for i, x in enumerate(a):
            if x:
                out[i * k % n] += x
        return self.reduce(out)

    def fold(self, digits):
        """The residue of sum_t digits[t] z^t: z^t is z^(t mod n), reduced mod Phi_n (``fold_rows``)."""
        n, rows, out = self.n, self.fold_rows, [0] * self.phi
        for t, d in enumerate(digits):
            if d:
                for i, r in rows[t % n]:
                    out[i] += d * r
        return out

    @cached_property
    def modular(self):
        """Q(zeta_n) modulo the prime of ``_prime_root`` (``_Modular``), made on first use; None without one."""
        got = _prime_root(self.n)
        return got and _Modular(self, *got)


# ---------------------------------------------------------------------------
# Q(zeta_n) modulo a word-size prime, for the modular step of ``solve_antipode``

_PRIME_BOUND = 1 << 61
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m):
    """Miller-Rabin on the first twelve prime bases, which decides every m below 3.3 * 10^24."""
    if m < 2:
        return False
    for q in _BASES:
        if not m % q:
            return m == q
    d, r = m - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in _BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime_root(n):
    """(p, w): the largest prime p below ``_PRIME_BOUND`` with p = 1 (mod n), and a primitive n-th
    root of unity w mod p; None if there is no such prime."""
    p = (_PRIME_BOUND - 2) // n * n + 1
    while p > 1 and not _is_prime(p):
        p -= n
    if p < 2:
        return None
    factors = [q for q in _divisors(n) if _is_prime(q)]
    # F_p^* is cyclic of order p - 1, so g^((p-1)/n) has order n for some g
    for g in range(1, p):
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in factors):
            return p, w
    return None


class _Modular:
    """Q(zeta_n) modulo a prime p = 1 (mod n): its phi embeddings z -> w_k into F_p, and back.

    Phi_n splits mod p into the distinct factors z - w_k, for w_k = w^k with k
    prime to n, so a residue f of degree below phi is fixed by its values
    f(w_k): f = sum_k f(w_k) L_k for the Lagrange polynomials
    L_k = (Phi_n / (z - w_k)) / (Phi_n / (z - w_k))(w_k).  ``lagrange[t][k]``
    is the coefficient of z^t in L_k.  Order 1 is Q, with the one embedding
    z -> 1.
    """

    def __init__(self, ctx, p, w):
        n, phi = self.n, self.phi = ctx.n, ctx.phi
        self.p = p
        mod = cyclotomic_polynomial(n)
        self.powers, cols = [], []
        for k in [1] + ctx.conjugations:
            root = pow(w, k, p)
            powers = [pow(root, t, p) for t in range(phi)]
            # Phi_n / (z - root) by synthetic division, from the top coefficient down
            quotient, acc = [0] * phi, 0
            for t in range(phi, 0, -1):
                acc = (acc * root + mod[t]) % p
                quotient[t - 1] = acc
            scale = pow(sum(map(mul, quotient, powers)), -1, p)
            self.powers.append(powers)
            cols.append([c * scale % p for c in quotient])
        self.lagrange = list(zip(*cols))

    def embeddings(self):
        """One ``_Embedding`` per root w_k, made afresh."""
        return [_Embedding(self.p, powers) for powers in self.powers]

    def lift(self, values):
        """The scalar with images ``values`` under the embeddings, or None when a rational
        reconstruction (``linalg._reconstruct``) fails.

        Equal values, or a single one, lift to a rational scalar.  Otherwise
        each coefficient is interpolated mod p and reconstructed on its own.
        """
        p = self.p
        if values.count(values[0]) == len(values):
            coeffs = values[:1]
        else:
            coeffs = [sum(map(mul, row, values)) % p for row in self.lagrange]
        pairs = list(map(_reconstruct, coeffs, repeat(p)))
        if None in pairs:
            return None
        if self.n == 1:
            (r, s), = pairs
            return r if s == 1 else Fraction(r, s)
        den = lcm(*(s for _, s in pairs))
        nums = [r * (den // s) for r, s in pairs]
        return _canonical(self.n, nums + [0] * (self.phi - len(nums)), den)


class _Embedding:
    """The ring map z -> w of the field's scalars whose denominators p does not divide into F_p.

    ``irrational`` turns True once it has read a scalar outside Q.  Images of
    fractions are kept by (numerator, denominator).
    """

    __slots__ = ("p", "powers", "irrational", "memo")

    def __init__(self, p, powers):
        self.p, self.powers, self.irrational, self.memo = p, powers, False, {}

    def __call__(self, x):
        """An int congruent mod p to the image of x (an int scalar is itself); ZeroDivisionError
        when p divides the denominator of x."""
        if type(x) is int:
            return x
        if type(x) is Cyc:
            key = num, den = x.num, x.den
            if den == 1 and not any(num[1:]):
                return num[0]
        else:
            key = num, den = x.numerator, x.denominator
        v = self.memo.get(key)
        if v is None:
            p = self.p
            if type(num) is tuple and any(num[1:]):
                self.irrational = True
            v = sum(map(mul, num, self.powers)) if type(num) is tuple else num
            if not den % p:
                raise ZeroDivisionError(f"{p} divides the denominator {den}")
            v = self.memo[key] = v * pow(den, -1, p) % p
        return v


def _radix(bound):
    """The least K >= 2 with 2^(K-1) > 2 bound.

    When every digit of two packed values is at most ``bound`` in absolute
    value, every digit of their difference lies strictly between -2^(K-1)
    and 2^(K-1), so ``_unpack`` reads it back exactly.
    """
    return (2 * bound + 1).bit_length() + 1


def _pack(coeffs, k):
    """sum_t coeffs[t] 2^(k t), the coefficient list evaluated at z = 2^k (Kronecker substitution)."""
    v = 0
    for c in reversed(coeffs):
        v = (v << k) + c
    return v


def _unpack(v, k):
    """The signed digits d_t of v = sum_t d_t 2^(k t), -2^(k-1) <= d_t < 2^(k-1), lowest first."""
    base = 1 << k
    mask, half = base - 1, base >> 1
    digits = []
    while v:
        d = v & mask
        if d >= half:
            d -= base
        digits.append(d)
        v = (v - d) >> k
    return digits


_CONTEXTS = {}


def _context(n):
    ctx = _CONTEXTS.get(n)
    if ctx is None:
        ctx = _CONTEXTS[n] = _CycContext(n)
    return ctx


_new = object.__new__


def _cyc(n, num, den):
    """Cyc from a canonical pair: gcd(den, *num) == 1 and den > 0."""
    x = _new(Cyc)
    x.n = n
    x.num = num
    x.den = den
    return x


def _canonical(n, num, den):
    """Cyc of num / den for a nonzero int den, with the common factor removed."""
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num = [x // g for x in num]
            den //= g
    return _cyc(n, tuple(num), den)


class Cyc:
    """Residue in Q[z]/(Phi_n), i.e. an element of Q(zeta_n).

    Stored as integer numerators ``num`` (length phi(n)) over one positive
    integer ``den`` with gcd(den, *num) == 1; zero is (0, ..., 0) / 1.

    Each operator lifts an ``int`` or ``Fraction`` operand to a Cyc, raises
    FieldMismatch on a Cyc of another order, and only then takes the
    short-cuts: x * 1 and 1 * x are x, a zero factor gives the field's
    cached zero, x + 0, 0 + x and x - 0 are x, and 0 - x is -x.  So a result
    may be an operand itself, which is safe as no Cyc is ever mutated.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n, coeffs):
        coeffs = [Fraction(x) for x in coeffs]
        den = lcm(*(x.denominator for x in coeffs))
        ints = [x.numerator * (den // x.denominator) for x in coeffs]
        c = _canonical(n, _context(n).reduce(ints), den)
        self.n, self.num, self.den = n, c.num, c.den

    @property
    def c(self):
        """The coefficients as a tuple of Fractions."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    @staticmethod
    def from_rational(n, q):
        ctx = _context(n)
        if isinstance(q, int):
            return _cyc(n, (int(q),) + ctx.zero_tail, 1)
        q = Fraction(q)
        return _cyc(n, (q.numerator,) + ctx.zero_tail, q.denominator)

    def _lift(self, other):
        """An int or Fraction operand as a Cyc of this order, else None; FieldMismatch for another order."""
        if type(other) is Cyc:
            raise FieldMismatch(f"Q(zeta_{self.n}) vs Q(zeta_{other.n})")
        if isinstance(other, (int, Fraction)):
            return Cyc.from_rational(self.n, other)
        return None

    def __add__(self, other):
        if (type(other) is not Cyc or other.n != self.n) and (other := self._lift(other)) is None:
            return NotImplemented
        a, da = self.num, self.den
        b, db = other.num, other.den
        if not any(a):
            return other
        if not any(b):
            return self
        if da == db:
            return _canonical(self.n, tuple(map(add, a, b)), da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _canonical(self.n, [x * fa + y * fb for x, y in zip(a, b)], da * fa)

    __radd__ = __add__

    def __sub__(self, other):
        if (type(other) is not Cyc or other.n != self.n) and (other := self._lift(other)) is None:
            return NotImplemented
        a, da = self.num, self.den
        b, db = other.num, other.den
        if not any(b):
            return self
        if not any(a):
            return -other
        if da == db:
            return _canonical(self.n, tuple(map(sub, a, b)), da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _canonical(self.n, [x * fa - y * fb for x, y in zip(a, b)], da * fa)

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other - self

    def __neg__(self):
        return _cyc(self.n, tuple(-x for x in self.num), self.den)

    def __mul__(self, other):
        if (type(other) is not Cyc or other.n != self.n) and (other := self._lift(other)) is None:
            return NotImplemented
        n = self.n
        x, a, da = self, self.num, self.den
        b, db = other.num, other.den
        if any(b[1:]):
            if any(a[1:]):
                return _canonical(n, _context(n).mul(a, b), da * db)
            x, a, da, b, db = other, b, db, a, da
        elif a[0] == da and not any(a[1:]):
            return other
        # x = a / da times the rational b[0] / db: a scaling, no convolution
        b0 = b[0]
        if b0 == db:  # x * 1, about 40% of the products made on make's dyn-z3
            return x
        if not b0 or not any(a):
            return _context(n).zero
        return _canonical(n, [b0 * y for y in a], da * db)

    __rmul__ = __mul__

    def inv(self):
        """Multiplicative inverse: the product of the other Galois conjugates over the norm."""
        num = self.num
        if not any(num):
            raise ZeroDivisionError("inverse of zero cyclotomic scalar")
        n = self.n
        if not any(num[1:]):
            return _canonical(n, (self.den,) + num[1:], num[0])
        ctx = _context(n)
        cofactor = ctx.conjugate(num, ctx.conjugations[0])
        for k in ctx.conjugations[1:]:
            cofactor = ctx.mul(cofactor, ctx.conjugate(num, k))
        norm = ctx.mul(num, cofactor)
        if not norm[0] or any(norm[1:]):
            raise Inconsistent(f"norm of a nonzero residue in Q(zeta_{n}) is {norm}")
        return _canonical(n, [x * self.den for x in cofactor], norm[0])

    def __truediv__(self, other):
        if (type(other) is not Cyc or other.n != self.n) and (other := self._lift(other)) is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other * self.inv()

    def __eq__(self, other):
        if type(other) is Cyc:
            return self.n == other.n and self.num == other.num and self.den == other.den
        num = self.num
        if isinstance(other, int):
            return self.den == 1 and num[0] == other and not any(num[1:])
        if isinstance(other, Fraction):
            return num[0] == other.numerator and self.den == other.denominator and not any(num[1:])
        return NotImplemented

    def __hash__(self):
        num = self.num
        if not any(num[1:]):
            return hash(num[0]) if self.den == 1 else hash(Fraction(num[0], self.den))
        return hash((self.n,) + self.c)

    def __bool__(self):
        return any(self.num)

    def __repr__(self):
        return f"Cyc({self.n}, {CyclotomicField(self.n).format(self)!r})"


_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_TERM_RE = re.compile(r"^(\d+(?:/\d+)?)?(?:\*?z(?:\^(\d+))?)?$")


def _parse_fraction(text, source):
    """Fraction of a grammar-checked numeral; a zero denominator is a ParseError, and so is an
    integer above ``sys.get_int_max_str_digits()`` digits, which ``int`` refuses with a ValueError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in scalar {source!r}") from None
    except ValueError as exc:
        raise ParseError(f"numeral in scalar: {exc}") from None


class Field:
    """Common interface of the two scalar fields."""

    kind = None
    order = None

    def coerce(self, x):
        raise NotImplementedError

    def accepts(self, values):
        """Whether ``coerce`` takes each of values: an int, a Fraction or, over Q(zeta_n), a Cyc of order n."""
        return all(map(isinstance, values, repeat((int, Fraction)))) or all(
            isinstance(x, (int, Fraction)) or isinstance(x, Cyc) and x.n == self.order for x in values
        )

    def spec(self):
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "cyclotomic", "order": self.order}

    def __eq__(self, other):
        return isinstance(other, Field) and (self.kind, self.order) == (other.kind, other.order)

    def __hash__(self):
        return hash((self.kind, self.order))


def _rational_scalar(q):
    """The int numerator of an integral Fraction, else the Fraction itself."""
    return q.numerator if q.denominator == 1 else q


class RationalField(Field):
    """The rationals, with integral values handed out as ``int``.

    ``coerce``, ``parse``, ``from_fraction``, ``inv`` and ``div`` return the
    numerator whenever the denominator is 1.  Arithmetic results are left as
    Python computes them, so an integral ``Fraction`` from a product stays a
    valid scalar.
    """

    kind = "rational"

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, k):
        return int(k)

    def from_fraction(self, q):
        return _rational_scalar(Fraction(q))

    def coerce(self, x):
        # coerce runs once per stored entry, so the common int comes first;
        # bool is rebuilt as a plain int.
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return _rational_scalar(x)
        if isinstance(x, int):
            return int(x)
        raise FieldMismatch(f"cannot coerce {x!r} into Q")

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        if a == 1 or a == -1:
            return int(a)
        return _rational_scalar(1 / Fraction(a))

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return _rational_scalar(Fraction(a) / b)

    def parse(self, text):
        text = text.strip().replace(" ", "")
        if not _RAT_RE.match(text):
            raise ParseError(f"not a rational scalar: {text!r}")
        return _rational_scalar(_parse_fraction(text, text))

    def format(self, a):
        return str(a) if type(a) is int else str(Fraction(a))

    def modular(self):
        """Q modulo a word-size prime (``_Modular`` of order 1), or None without one."""
        return _context(1).modular

    # -- the integer image of a table (module docstring) --

    def scaling(self, scalars):
        """(D, A) of a list of scalars: the lcm D of their denominators and the largest |x D|."""
        d = lcm(*{x.denominator for x in scalars})
        if d == 1:  # ints: the common case of a table over Q
            return 1, max(map(abs, scalars), default=0)
        return d, max((abs(x.numerator) * (d // x.denominator) for x in scalars), default=0)

    def image(self, x, d, k):
        """x D for D = ``d``, an int: no radix is needed."""
        return x.numerator * (d // x.denominator)

    def radix(self, *sides):
        """None: ints need no radix, and they are compared as they are."""
        return None

    def from_image(self, v, d, k):
        """v / D for D = ``d``, the scalar whose image is v; an int when D divides v."""
        return Fraction(v, d) if v % d else v // d

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class CyclotomicField(Field):
    kind = "cyclotomic"

    def __init__(self, order):
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise InvalidPresentation(f"Q(zeta_n) needs n >= 1, got {order!r}")
        if order < 3:
            raise InvalidPresentation(f"Q(zeta_{order}) is the rationals; make_field returns QQ for it")
        self.order = order
        self.phi = euler_phi(order)
        self._context = _context(order)

    def zero(self):
        return _context(self.order).zero

    def one(self):
        return _context(self.order).one

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

    def modular(self):
        """Q(zeta_n) modulo a word-size prime p = 1 (mod n) (``_Modular``), or None without one."""
        return self._context.modular

    def zeta(self, power=1):
        """The root of unity z^power as a field element."""
        return Cyc(self.order, [0] * (power % self.order) + [1])

    def inv(self, a):
        return self.coerce(a).inv()

    def div(self, a, b):
        return self.coerce(a) * self.coerce(b).inv()

    def parse(self, text):
        """One coefficient list over the powers z^0 .. z^(n-1), summed term by term, and one Cyc."""
        src = text.strip().replace(" ", "")
        if not src:
            raise ParseError("empty scalar")
        # signed terms: the pieces alternate sign and term
        pieces = re.split(r"([+-])", src)
        if pieces[0]:
            pieces.insert(0, "+")
        else:
            del pieces[0]
        n = self.order
        coeffs = [0] * n
        for sign, term in zip(pieces[::2], pieces[1::2]):
            m = _TERM_RE.match(term)
            if not m or not term:
                raise ParseError(f"bad cyclotomic term {term!r} in {text!r}")
            coef_s, pow_s = m.groups()
            coef = _parse_fraction(coef_s, text) if coef_s else 1
            power = (int(_parse_fraction(pow_s, text)) if pow_s else 1) if "z" in term else 0
            coeffs[power % n] += -coef if sign == "-" else coef
        return Cyc(n, coeffs)

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
        return "".join(sign + body for sign, body in parts).lstrip("+")

    # -- the integer image of a table (module docstring) --

    def scaling(self, scalars):
        """(D, A) of a list of scalars: the lcm D of their denominators and the largest |c_t| of any
        x D = sum_t c_t z^t."""
        d = lcm(*{x.den for x in scalars})
        return d, max((max(map(abs, x.num)) * (d // x.den) for x in scalars), default=0)

    def image(self, x, d, k):
        """The coefficients of x D for D = ``d``, packed at radix k."""
        f = d // x.den
        return _pack([c * f for c in x.num] if f != 1 else x.num, k)

    def radix(self, *sides):
        """The radix K of one scan that compares two sides of an identity.

        A side (s, N, A_1, ..., A_m) is s times a sum of N products of m
        images whose coefficients are at most A_1, ..., A_m in absolute
        value.  Such a product of m residues of degree below phi has digits
        at most phi^(m-1) A_1 ... A_m, so each digit of the side is at most
        s N phi^(m-1) A_1 ... A_m; K bounds the largest side (``_radix``),
        rounded up to a multiple of 16 so that the scans of one algebra
        mostly share one packing of its tables.
        """
        return -(-_radix(max(s * t * self.phi ** (len(a) - 1) * prod(a) for s, t, *a in sides)) // 16) * 16

    def image_zero(self, v, k):
        """Whether the packed int v at radix k is zero in Q(zeta_n)."""
        return not v or not any(self._context.fold(_unpack(v, k)))

    def from_image(self, v, d, k):
        """The scalar with image v at radix k over D = ``d``: v's digits, folded and reduced, over D."""
        return _canonical(self.order, self._context.fold(_unpack(v, k)), d)

    def __repr__(self):
        return f"QQ(zeta_{self.order})"


def make_field(kind, order=None):
    """FieldSpec constructor; cyclotomic orders 1 and 2 collapse to Q, and a bad spec is a ParseError."""
    if kind == "rational":
        return QQ
    if kind == "cyclotomic":
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ParseError("cyclotomic field needs a positive order")
        if order <= 2:
            return QQ
        return CyclotomicField(order)
    raise ParseError(f"unknown field kind {kind!r}")
