from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whopf import docio
from whopf.constructors import groupoid_algebra, pair_groupoid
from whopf.errors import FieldMismatch, InvalidPresentation, ParseError
from whopf.fields import (
    QQ,
    Cyc,
    CyclotomicField,
    RationalField,
    _context,
    _pack,
    _poly_divmod,
    _radix,
    _unpack,
    cyclotomic_polynomial,
    make_field,
)
from whopf.linalg import rref
from whopf.wha import WeakHopfAlgebra, _differ

Z3 = CyclotomicField(3)
Z4 = CyclotomicField(4)
Z12 = CyclotomicField(12)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_rational_arithmetic():
    assert QQ.parse("1/2") + QQ.parse("1/3") == Fraction(5, 6)
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert QQ.parse("0/5") == 0
    assert QQ.format(Fraction(-1, 2)) == "-1/2"
    with pytest.raises(ParseError):
        QQ.parse("z")


LONG = "1" * 5000  # above the default limit of int() on decimal strings (4300 digits)


@pytest.mark.parametrize(
    "field, text",
    [
        (QQ, LONG),
        (QQ, "-" + LONG),
        (QQ, "1/" + LONG),
        (Z3, LONG),
        (Z3, "2+" + LONG + "*z"),
        (Z3, "1/" + LONG + "z"),
        (Z3, "z^" + LONG),
    ],
    ids=["qq", "qq-negative", "qq-denominator", "z3-constant", "z3-coefficient", "z3-denominator", "z3-power"],
)
def test_overlong_numerals_are_parse_errors(field, text):
    """int() refuses a decimal string above sys.get_int_max_str_digits() with a bare ValueError."""
    with pytest.raises(ParseError, match="numeral in scalar"):
        field.parse(text)


def test_overlong_json_integer_is_a_parse_error():
    with pytest.raises(ParseError, match="invalid JSON"):
        docio.loads('{"dim": ' + LONG + "}")


def test_zeta4_squares_to_minus_one():
    z = Z4.zeta()
    assert z * z == Z4.from_int(-1)


def test_inverse_of_zeta3():
    # oracle: brute-force a + b*z with (a + b*z) * z = 1 over small rationals
    z = Z3.zeta()
    found = None
    for a in range(-2, 3):
        for b in range(-2, 3):
            cand = Z3.from_int(a) + Z3.from_int(b) * z
            if cand * z == Z3.one():
                found = cand
    assert found == Z3.from_int(-1) - z  # zeta3^2 = -1 - zeta3
    assert z.inv() == found
    assert Z3.parse("z^2") == found


def test_zeta_order_and_vanishing_sum():
    for field in (Z3, Z4, Z12):
        n = field.order
        z = field.zeta()
        power = field.one()
        for k in range(1, n):
            power = power * z
            assert power != field.one(), (n, k)
        assert power * z == field.one()
        total = field.zero()
        for k in range(n):
            total = total + field.zeta(k)
        assert not total


def test_parse_format_roundtrip_examples():
    for text in ["0", "1", "-1/2", "z", "-z", "2*z^2", "1-2*z^2", "-1/2+3*z-z^2"]:
        v = Z4.parse(text)
        assert Z4.parse(Z4.format(v)) == v
    assert Z3.format(Z3.parse("1-2*z^2")) == "3+2*z"  # reduced mod z^2+z+1


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        Z3.zeta() + Z4.zeta()


def test_make_field_canonicalizes_small_orders():
    assert make_field("cyclotomic", 1) is QQ
    assert make_field("cyclotomic", 2) is QQ
    assert make_field("cyclotomic", 5).order == 5
    assert make_field("rational") is QQ


@pytest.mark.parametrize(
    "args, message",
    [
        ((0,), "unknown field kind 0"),
        (("x",), "unknown field kind 'x'"),
        (("cyclotomic", 0), "cyclotomic field needs a positive order"),
    ],
    ids=["kind-0", "kind-x", "order-0"],
)
def test_a_bad_field_spec_is_a_parse_error(args, message):
    with pytest.raises(ParseError) as info:
        make_field(*args)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "order, message",
    [
        (0, "Q(zeta_n) needs n >= 1, got 0"),
        (-3, "Q(zeta_n) needs n >= 1, got -3"),
        (2.5, "Q(zeta_n) needs n >= 1, got 2.5"),
        (True, "Q(zeta_n) needs n >= 1, got True"),
        ("3", "Q(zeta_n) needs n >= 1, got '3'"),
        (3.0, "Q(zeta_n) needs n >= 1, got 3.0"),
        (1, "Q(zeta_1) is the rationals; make_field returns QQ for it"),
        (2, "Q(zeta_2) is the rationals; make_field returns QQ for it"),
    ],
    ids=["0", "-3", "float", "bool", "str", "integral-float", "1", "2"],
)
def test_a_cyclotomic_order_below_one_is_an_invalid_presentation(order, message):
    """Every order that is not an int (not a bool) of at least 3, also under python -O."""
    with pytest.raises(InvalidPresentation) as info:
        CyclotomicField(order)
    assert str(info.value) == message


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def cyc3(draw):
    a = draw(rationals)
    b = draw(rationals)
    return Z3.from_fraction(a) + Z3.from_fraction(b) * Z3.zeta()


@settings(max_examples=60, deadline=None)
@given(cyc3(), cyc3(), cyc3())
def test_field_axioms_cyclotomic(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a:
        assert a * a.inv() == Z3.one()
    assert a + (-a) == Z3.zero()


@settings(max_examples=60, deadline=None)
@given(cyc3())
def test_parse_format_identity_cyclotomic(a):
    assert Z3.parse(Z3.format(a)) == a


def test_mixed_fraction_cyc_coercion():
    z = Z3.zeta()
    assert Fraction(1, 2) + z == z + Fraction(1, 2)
    assert 2 * z == z + z
    assert (1 - z) - 1 == -z
    assert hash(Z3.from_int(7)) == hash(7)


# ---------------------------------------------------------------------------
# the integer-numerator kernel against Fraction-vector reference arithmetic


class RefCyc:
    """Reference arithmetic in Q[z]/(Phi_n) on tuples of phi(n) Fractions.

    Products are reduced by long division by Phi_n and inverses come from the
    extended Euclidean algorithm over Q, independently of the power-row
    reduction and the Galois-norm inverse of ``Cyc``.
    """

    def __init__(self, n):
        self.n = n
        self.mod = [Fraction(c) for c in cyclotomic_polynomial(n)]
        self.phi = len(self.mod) - 1

    def reduce(self, coeffs):
        c = [Fraction(x) for x in coeffs]
        for k in range(len(c) - 1, self.phi - 1, -1):
            q = c[k]
            if q:
                for i, m in enumerate(self.mod):
                    c[k - self.phi + i] -= q * m
        return tuple(c[: self.phi]) + (Fraction(0),) * (self.phi - len(c))

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        return self.reduce(_ref_poly_mul(a, b))

    def inv(self, a):
        r0, r1 = list(self.mod), _ref_strip(list(a))
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _ref_poly_divmod(r0, r1)
            s0, s1 = s1, _ref_strip(self.add_poly(s0, _ref_poly_mul(q, s1), -1))
            r0, r1 = r1, r
        return self.reduce([x / r1[0] for x in s1])

    @staticmethod
    def add_poly(a, b, sign):
        out = [Fraction(0)] * max(len(a), len(b))
        for i, x in enumerate(a):
            out[i] += x
        for i, x in enumerate(b):
            out[i] += sign * x
        return out

    def hash(self, a):
        if not any(a[1:]):
            return hash(a[0])
        return hash((self.n,) + a)

    def format(self, a):
        parts = []
        for k, c in enumerate(a):
            if c:
                zpart = "z" if k == 1 else f"z^{k}"
                mag = abs(c)
                body = str(mag) if k == 0 else zpart if mag == 1 else f"{mag}*{zpart}"
                parts.append(("-" if c < 0 else "+", body))
        if not parts:
            return "0"
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        return out + "".join(sign + body for sign, body in parts[1:])


def _ref_strip(p):
    while p and not p[-1]:
        p.pop()
    return p


def _ref_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ref_poly_divmod(num, den):
    num = list(num)
    dd = len(den) - 1
    out = [Fraction(0)] * max(len(num) - dd, 0)
    for k in range(len(out) - 1, -1, -1):
        q = out[k] = num[k + dd] / den[-1]
        for i, c in enumerate(den):
            num[k + i] -= q * c
    return out, _ref_strip(num)


ORACLE_ORDERS = (3, 4, 5, 7, 8, 9, 12)
small_q = st.fractions(min_value=-6, max_value=6, max_denominator=12)


def assert_canonical(x, phi):
    assert type(x) is Cyc and len(x.num) == phi
    assert all(type(v) is int for v in x.num) and type(x.den) is int
    assert x.den > 0 and gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


@st.composite
def cyc_case(draw):
    """An order, a Cyc drawn with a sparse z-part, and its reference vector."""
    n = draw(st.sampled_from(ORACLE_ORDERS))
    ref = RefCyc(n)
    length = draw(st.integers(1, 2 * ref.phi - 1))
    coeffs = draw(st.lists(st.one_of(st.just(Fraction(0)), small_q), min_size=length, max_size=length))
    return n, Cyc(n, coeffs), ref.reduce(coeffs)


def operand(draw, n, ref):
    """A Cyc, int or Fraction operand and its reference vector."""
    kind = draw(st.sampled_from(["cyc", "rational-cyc", "int", "fraction"]))
    if kind == "int":
        k = draw(st.integers(-7, 7))
        return k, ref.reduce([k])
    if kind == "fraction":
        q = draw(small_q)
        return q, ref.reduce([q])
    if kind == "rational-cyc":
        q = draw(small_q)
        return CyclotomicField(n).from_fraction(q), ref.reduce([q])
    coeffs = draw(st.lists(small_q, min_size=ref.phi, max_size=ref.phi))
    return Cyc(n, coeffs), ref.reduce(coeffs)


@settings(max_examples=300, deadline=None)
@given(cyc_case(), st.data())
def test_cyc_kernel_matches_fraction_reference(case, data):
    n, x, xr = case
    ref = RefCyc(n)
    field = CyclotomicField(n)
    y, yr = operand(data.draw, n, ref)
    assert x.c == xr
    assert_canonical(x, ref.phi)
    results = [
        (x + y, ref.add(xr, yr)),
        (y + x, ref.add(xr, yr)),
        (x - y, ref.add(xr, ref.neg(yr))),
        (y - x, ref.add(yr, ref.neg(xr))),
        (x * y, ref.mul(xr, yr)),
        (y * x, ref.mul(xr, yr)),
        (-x, ref.neg(xr)),
    ]
    if any(yr):
        results.append((x / y, ref.mul(xr, ref.inv(yr))))
    if any(xr):
        results.append((x.inv(), ref.inv(xr)))
        results.append((y / x, ref.mul(yr, ref.inv(xr))))
    for got, want in results:
        assert_canonical(got, ref.phi)
        assert got.c == want
        assert hash(got) == ref.hash(want)
        assert field.format(got) == ref.format(want)
        assert field.parse(ref.format(want)) == got
        assert (got == y) == (want == yr)
        assert (got == x) == (want == xr)
    if not any(yr[1:]):
        assert (x == yr[0]) == (xr == yr)
        assert (yr[0] == x) == (xr == yr)


def test_cyc_zero_and_one_are_cached_constants():
    for n in ORACLE_ORDERS:
        field = CyclotomicField(n)
        assert field.zero() is CyclotomicField(n).zero()
        assert field.one() is CyclotomicField(n).one()
        assert field.zero().num == (0,) * field.phi and field.zero().den == 1
        assert field.one() * field.zeta() == field.zeta() * field.one() == field.zeta()


def test_poly_divmod_leaves_the_remainder():
    # x^2 + 1 = (x - 1)(x + 1) + 2
    assert _poly_divmod([1, 0, 1], [1, 1], QQ) == ([-1, 1], [2])


# ---------------------------------------------------------------------------
# the short-cuts of Cyc arithmetic and the one-pass product

SHORTCUT_ORDERS = (3, 4, 5, 7, 8, 12)


@st.composite
def shortcut_operand(draw, n, den):
    """(operand, reference vector): 0, +-1, a rational or an irrational Cyc, or an int or Fraction.

    Half the irrational draws are over ``den``, the other operand's
    denominator, so both the same- and the mixed-denominator sums are reached.
    """
    ref = RefCyc(n)
    field = CyclotomicField(n)
    kinds = ["zero", "fresh-zero", "one", "minus-one", "rational", "irrational", "int", "fraction"]
    kind = draw(st.sampled_from(kinds))
    if kind == "zero":
        return field.zero(), ref.reduce([0])
    if kind == "fresh-zero":
        x = field.zeta() * Fraction(1, 3)
        return x - x, ref.reduce([0])
    if kind in ("one", "minus-one"):
        k = 1 if kind == "one" else -1
        return field.from_int(k), ref.reduce([k])
    if kind == "int":
        k = draw(st.sampled_from([0, 1, -1, draw(st.integers(-9, 9))]))
        return k, ref.reduce([k])
    if kind == "fraction":
        q = draw(st.sampled_from([Fraction(0), Fraction(1), draw(small_q)]))
        return q, ref.reduce([q])
    if kind == "rational":
        q = draw(small_q)
        return field.from_fraction(q), ref.reduce([q])
    d = den if draw(st.booleans()) else draw(st.integers(1, 12))
    nums = draw(st.lists(st.integers(-9, 9), min_size=ref.phi, max_size=ref.phi))
    coeffs = [Fraction(k, d) for k in nums]
    return Cyc(n, coeffs), ref.reduce(coeffs)


def _check_result(got, want, n):
    ref = RefCyc(n)
    assert_canonical(got, ref.phi)
    assert got.c == want
    assert hash(got) == ref.hash(want)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SHORTCUT_ORDERS), st.data())
def test_cyc_shortcuts_match_the_fraction_reference(n, data):
    ref = RefCyc(n)
    field = CyclotomicField(n)
    x, xr = data.draw(shortcut_operand(n, 6))
    y, yr = data.draw(shortcut_operand(n, x.den if type(x) is Cyc else 6))
    if type(x) is not Cyc and type(y) is not Cyc:
        x = field.coerce(x)
    for got, want in [
        (x + y, ref.add(xr, yr)),
        (y + x, ref.add(xr, yr)),
        (x - y, ref.add(xr, ref.neg(yr))),
        (y - x, ref.add(yr, ref.neg(xr))),
        (x * y, ref.mul(xr, yr)),
        (y * x, ref.mul(xr, yr)),
    ]:
        _check_result(got, want, n)
    assert (x == y) == (xr == yr) and (y == x) == (xr == yr)
    assert (x != y) == (xr != yr)
    # the short-cuts hand back an operand, or the cached zero of the field;
    # for a = 0 or 1 two short-cuts apply, and either operand is a valid result
    zero, one = field.zero(), field.one()
    fresh_zero = one - one
    for a in (x, y):
        if type(a) is not Cyc:
            continue
        _check_result(zero - a, ref.neg(a.c), n)
        if a == 0 or a == 1:
            continue
        assert a * one is a and one * a is a and a * 1 is a and 1 * a is a
        assert a + zero is a and zero + a is a and a - zero is a
        assert a + 0 is a and 0 + a is a and a - 0 is a and a + fresh_zero is a
        assert a * zero is zero and zero * a is zero
        assert a * fresh_zero is zero and fresh_zero * a is zero and a * 0 is zero


def _convolve_then_reduce(ctx, a, b):
    prod = [0] * (2 * ctx.phi - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ctx.reduce(prod)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ORACLE_ORDERS), st.data())
def test_one_pass_product_equals_convolve_then_reduce(n, data):
    ctx = _context(n)
    residue = st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=ctx.phi, max_size=ctx.phi)
    a, b = data.draw(residue), data.draw(residue)
    assert ctx.mul(a, b) == _convolve_then_reduce(ctx, a, b)
    ref = RefCyc(n)
    assert tuple(Fraction(x) for x in ctx.mul(a, b)) == ref.mul(a, b)


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_zero_and_one_of_one_order_do_not_meet_another(op):
    z3, z5 = CyclotomicField(3), CyclotomicField(5)
    apply = {"+": lambda a, b: a + b, "-": lambda a, b: a - b, "*": lambda a, b: a * b, "/": lambda a, b: a / b}[op]
    for small in (z3.zero(), z3.one()):
        for other in (z5.zero(), z5.one(), z5.zeta(), z5.from_fraction(Fraction(2, 3))):
            with pytest.raises(FieldMismatch):
                apply(small, other)
            if op != "/" or other:
                with pytest.raises(FieldMismatch):
                    apply(other, small)


# ---------------------------------------------------------------------------
# the int fast path of QQ against an all-Fraction reference


class FractionField(RationalField):
    """Reference Q that stores every scalar as a Fraction, integral or not."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k):
        return Fraction(k)

    def from_fraction(self, q):
        return Fraction(q)

    def coerce(self, x):
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
        return Fraction(RationalField.parse(self, text))

    def format(self, a):
        return str(Fraction(a))


FQ = FractionField()

# ints, integral Fractions and proper Fractions, with zero common
mixed_rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


def same_scalar(got, want):
    """Equal values and equal hashes: interchangeable as dict keys and in comparisons."""
    return got == want and hash(got) == hash(want)


def _is_fast(x):
    """An entry-point result is an int exactly when it is integral."""
    return (type(x) is int) == (Fraction(x).denominator == 1)


@settings(max_examples=300, deadline=None)
@given(mixed_rationals, mixed_rationals)
def test_rational_field_ops_match_the_fraction_reference(x, y):
    fx, fy = Fraction(x), Fraction(y)
    text = f"{fx.numerator * 2}/{fx.denominator * 2}"  # an unreduced numeral
    pairs = [
        (QQ.zero(), FQ.zero()),
        (QQ.one(), FQ.one()),
        (QQ.from_int(fx.numerator), FQ.from_int(fx.numerator)),
        (QQ.from_fraction(x), FQ.from_fraction(fx)),
        (QQ.coerce(x), FQ.coerce(fx)),
        (QQ.parse(QQ.format(x)), FQ.parse(FQ.format(fx))),
        (QQ.parse(text), FQ.parse(text)),
    ]
    if y:
        pairs.append((QQ.div(x, y), FQ.div(fx, fy)))
        pairs.append((QQ.inv(y), FQ.inv(fy)))
    for got, want in pairs:
        assert same_scalar(got, want)
        assert _is_fast(got)
        assert QQ.format(got) == FQ.format(want)
    a, b = QQ.coerce(x), QQ.coerce(y)
    for got, want in [(a + b, fx + fy), (a - b, fx - fy), (a * b, fx * fy), (-a, -fx)]:
        assert same_scalar(got, want)
        assert QQ.format(got) == FQ.format(want)  # an integral Fraction from a product formats alike
    assert QQ.format(x) == FQ.format(fx)
    assert bool(a) == bool(fx)
    if not y:
        for field in (QQ, FQ):
            with pytest.raises(ZeroDivisionError):
                field.inv(y)
            with pytest.raises(ZeroDivisionError):
                field.div(x, y)


@st.composite
def mixed_structure(draw):
    """Structure-constant tables of dim 1..3 with mixed int/Fraction entries (axioms not required)."""
    n = draw(st.integers(1, 3))
    idx = st.integers(0, n - 1)
    mult = {
        key: {k: draw(mixed_rationals) for k in draw(st.sets(idx, max_size=n))}
        for key in draw(st.sets(st.tuples(idx, idx), max_size=n * n))
    }
    comult = [
        {jk: draw(mixed_rationals) for jk in draw(st.sets(st.tuples(idx, idx), max_size=n))}
        for _ in range(n)
    ]
    vec = lambda: [draw(mixed_rationals) for _ in range(n)]
    antipode = [vec() for _ in range(n)] if draw(st.booleans()) else None
    return [f"e{i}" for i in range(n)], mult, vec(), comult, vec(), antipode


@settings(max_examples=100, deadline=None)
@given(mixed_structure())
def test_document_emission_matches_the_fraction_reference(structure):
    labels, mult, unit, comult, counit, antipode = structure
    emitted = [
        docio.dumps(docio.wha_to_document(WeakHopfAlgebra(field, labels, mult, unit, comult, counit, antipode)))
        for field in (QQ, FQ)
    ]
    assert emitted[0] == emitted[1]


def test_integral_rationals_are_stored_as_int():
    assert type(QQ.parse("4/2")) is int
    assert type(QQ.coerce(Fraction(3))) is int
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    # every pivot met during the elimination is +-1, so nothing leaves int
    rows, pivots = rref([[1, 2, 3, 4], [0, -1, 5, 1], [2, 4, 6, 8]], QQ)
    assert pivots == [0, 1] and rows == [(1, 0, 13, 6), (0, 1, -5, -1)]
    assert all(type(x) is int for row in rows for x in row)
    h = groupoid_algebra(pair_groupoid(5), name="pair-5")
    assert h.mult and all(type(c) is int for cell in h.mult.values() for c in cell.values())


# ---------------------------------------------------------------------------
# integer images: a table times the lcm of its denominators, packed over Q(zeta_n)

PACK_FIELDS = [QQ] + [CyclotomicField(n) for n in (3, 4, 5, 7, 8, 12)]


def image_scalars(field, count):
    """``count`` scalars of field, each coefficient a small fraction or 0."""
    phi = 1 if field is QQ else field.phi
    coeff = st.one_of(st.just(Fraction(0)), small_q)
    vec = st.lists(coeff, min_size=phi, max_size=phi)
    if field is QQ:
        return st.lists(coeff.map(field.coerce), min_size=count, max_size=count)
    return st.lists(vec.map(lambda c: Cyc(field.order, c)), min_size=count, max_size=count)


def read_back(field, v, d, radix):
    """The scalar whose image under the scale d is v: over Q(zeta_n) the sum of its digits times
    z^t / d in the field's own arithmetic, which neither ``fold`` nor ``from_image`` takes part in."""
    if radix is None:
        return field.from_fraction(Fraction(v, d))
    return sum((Fraction(c, d) * field.zeta(t) for t, c in enumerate(_unpack(v, radix))), field.zero())


def check_products(field, tables):
    """sum_i prod_t tables[t][i] from the images of the tables, against the field's own arithmetic.

    Each table is scaled by its own lcm D_t, so the sum of products of
    images is the scalar sum times prod_t D_t.  It must read back as that
    scalar, compare equal to the image of the scalar (a representative
    that is reduced mod Phi_n, unlike the sum), and differ from it after a
    bump of one unit in any digit below phi.
    """
    terms = len(tables[0])
    scalings = [field.scaling(table) for table in tables]
    scale = prod(d for d, _ in scalings)
    want = field.zero()
    for i in range(terms):
        want = want + prod((table[i] for table in tables), start=field.one())
    _, a_want = field.scaling([want, field.from_fraction(Fraction(1, scale))])
    radix = field.radix((1, terms, *(a for _, a in scalings)), (1, 1, a_want))
    total = 0
    for i in range(terms):
        total += prod(field.image(table[i], d, radix) for table, (d, _) in zip(tables, scalings))
    assert read_back(field, total, scale, radix) == want == field.from_image(total, scale, radix)
    image = field.image(want, scale, radix)
    assert not _differ(field, radix, {0: total}, {0: image})
    for t in range(1 if field is QQ else field.phi):
        bumped = total + (1 if radix is None else 1 << (radix * t))
        assert _differ(field, radix, {0: bumped}, {0: image})


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PACK_FIELDS), st.integers(1, 6), st.integers(1, 3), st.data())
def test_images_multiply_and_add_like_the_scalars(field, terms, factors, data):
    check_products(field, [data.draw(image_scalars(field, terms)) for _ in range(factors)])


def extreme_scalars(field, count):
    """``count`` scalars whose coefficients are all +top or all -top over one denominator: every digit of
    their images, and of products of them, is as large as the radix bound allows."""
    phi = 1 if field is QQ else field.phi
    top = st.sampled_from([1, 7, 2**15 - 1, 2**16 + 1, 3**40])
    signs = st.lists(st.sampled_from([1, -1]), min_size=count, max_size=count)
    den = st.sampled_from([1, 2, 12, 2**20 + 7])
    lift = field.from_fraction if field is QQ else lambda q: Cyc(field.order, [q] * phi)
    return st.tuples(top, signs, den).map(lambda t: [lift(Fraction(sign * t[0], t[2])) for sign in t[1]])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PACK_FIELDS), st.integers(1, 5), st.integers(1, 12), st.booleans(), st.data())
def test_from_image_inverts_image(field, count, multiple, extreme, data):
    """from_image(image(x, D, K), D, K) == x for the table's own D and a multiple of it, at the least
    radix that holds its digits; the result is the field's own scalar, an int over Q when integral."""
    xs = data.draw((extreme_scalars if extreme else image_scalars)(field, count))
    d, a = field.scaling(xs)
    d, a = d * multiple, a * multiple
    k = field.radix((1, 1, a))
    for x in xs:
        back = field.from_image(field.image(x, d, k), d, k)
        assert back == x and back == read_back(field, field.image(x, d, k), d, k)
        if field is QQ:
            assert type(back) is (int if Fraction(x).denominator == 1 else Fraction)
        else:
            assert_canonical(back, field.phi)
    assert field.from_image(0, d, k) == field.zero()


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 90), st.lists(st.sampled_from([-1, 0, 0, 1]), min_size=1, max_size=13))
def test_extreme_digits_decode(k, signs):
    top = (1 << (k - 1)) - 1
    coeffs = [sign * top for sign in signs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    assert _unpack(_pack(coeffs, k), k) == coeffs


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PACK_FIELDS[1:] + [CyclotomicField(n) for n in (6, 9, 15, 30)]),
       st.lists(st.integers(-(2**70), 2**70), max_size=70))
def test_fold_is_the_residue_of_the_digits(field, digits):
    """fold reads digit t at z^(t mod n), reduced mod Phi_n: the field's own sum of the digits times z^t."""
    want = sum((c * field.zeta(t) for t, c in enumerate(digits)), field.zero())
    assert Cyc(field.order, _context(field.order).fold(digits)) == want


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 7, 8, 1000, 2**64 - 1, 2**64])
def test_radix_is_the_least_with_room_for_a_difference(bound):
    k = _radix(bound)
    assert 2 ** (k - 1) > 2 * bound and (k == 2 or not 2 ** (k - 2) > 2 * bound)
    assert _unpack(_pack([2 * bound, -2 * bound, 1], k), k) == [2 * bound, -2 * bound, 1]


@pytest.mark.parametrize("field", PACK_FIELDS[1:], ids=str)
@pytest.mark.parametrize("terms, top", [(1, 1), (5, 3), (3, 2**20 + 3)])
def test_radix_holds_the_largest_digit_of_a_product(field, terms, top):
    """Coefficients all +top: the product of two has the digit phi top^2, the most the bound allows."""
    x = Cyc(field.order, [top] * field.phi)
    check_products(field, [[x] * terms, [x] * terms])
    check_products(field, [[x] * terms, [-x] * terms, [x] * terms])
    # the radix covers the larger side, whichever is named first
    sides = [(1, 1, 1), (3, terms, top, top)]
    k = field.radix(*sides)
    assert k == field.radix(*reversed(sides)) and k % 16 == 0
    assert 2 ** (k - 1) > 2 * 3 * terms * field.phi * top * top


@pytest.mark.parametrize("k", [3, 16, 61])
def test_representatives_equal_only_after_reduction(k):
    # 1 + z + z^2 = Phi_3 and 1 + z^2 = Phi_4 vanish; z^3 = 1 in Q(zeta_3) by folding
    for field, zero_rep in ((Z3, [1, 1, 1]), (Z4, [1, 0, 1]), (Z3, [-1, 0, 0, 1])):
        v = _pack(zero_rep, k)
        assert v and field.image_zero(v, k) and read_back(field, v, 1, k) == field.zero()
        assert not _differ(field, k, {0: v, 1: 1}, {1: 1})
        for t in range(len(zero_rep)):
            bumped = v + (1 << (k * t))
            assert not field.image_zero(bumped, k)
            assert _differ(field, k, {0: bumped}, {})
    assert Z12.image_zero(_pack(cyclotomic_polynomial(12), k), k)


def test_images_of_4000_digit_numerators_and_denominators():
    """Scalars just under the 4300-digit parse limit: the images are exact big ints."""
    a, b = 10**3999 + 7, 7**4700 + 1  # 4000 and 3972 digits
    c, d = 3 * 10**3998 - 11, 2**13000 + 1  # 3999 and 3914 digits
    check_products(QQ, [[Fraction(a, b), Fraction(-c, d)], [Fraction(c, a), Fraction(b, d)]])
    for n in (3, 12):
        phi = CyclotomicField(n).phi
        x = Cyc(n, [Fraction(a, b), Fraction(-c, d)] + [0] * (phi - 2))
        y = Cyc(n, [Fraction(b, d)] * phi)
        w = Cyc(n, [Fraction(c, a), 0, Fraction(-a, c)] + [0] * (phi - 3))
        check_products(CyclotomicField(n), [[x, y], [w, x], [y, y]])


# ---------------------------------------------------------------------------
# modulo a word-size prime: the embeddings z -> w_k into F_p, and the lift back

MODULAR_ORDERS = (3, 4, 5, 7, 8, 12)
small_fractions = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)


@pytest.mark.parametrize("n", (1,) + MODULAR_ORDERS)
def test_the_prime_and_its_roots(n):
    """p = 1 (mod n) below 2^61, and the embeddings send z to the phi(n) distinct roots of Phi_n mod p."""
    modular = _context(n).modular
    p = modular.p
    assert (p - 1) % n == 0 and p < 2**61 and 2**61 - p < 1000
    roots = [powers[1] if len(powers) > 1 else 1 for powers in modular.powers]
    assert len(set(roots)) == len(modular.embeddings()) == _context(n).phi
    mod = cyclotomic_polynomial(n)
    assert all(sum(c * pow(w, t, p) for t, c in enumerate(mod)) % p == 0 for w in roots)
    assert (QQ.modular() if n == 1 else CyclotomicField(n).modular()) is modular


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(MODULAR_ORDERS), st.data())
def test_embed_then_interpolate_round_trips(n, data):
    """The images of x under every embedding lift back to x, and each embedding is a ring map."""
    modular = CyclotomicField(n).modular()
    p, phi = modular.p, _context(n).phi
    x, y = (Cyc(n, data.draw(st.lists(small_fractions, min_size=phi, max_size=phi))) for _ in range(2))
    images = modular.embeddings()
    got = modular.lift(tuple(image(x) % p for image in images))
    assert type(got) is Cyc and got == x
    for image in images:
        assert image(x * y) % p == image(x) * image(y) % p
        assert image(x + y) % p == (image(x) + image(y)) % p
        assert image(-x) % p == -image(x) % p


@settings(max_examples=200, deadline=None)
@given(small_fractions)
def test_rationals_lift_from_one_value(q):
    """Q has one embedding; a rational of Q(zeta_n) has equal images, and lifts from any one of them."""
    (image,) = QQ.modular().embeddings()
    got = QQ.modular().lift((image(q) % QQ.modular().p,))
    assert got == q and type(got) is (int if q.denominator == 1 else Fraction)
    for n in (3, 12):
        x, modular = Z3.coerce(q) if n == 3 else Z12.coerce(q), CyclotomicField(n).modular()
        images = modular.embeddings()
        values = {image(x) % modular.p for image in images}
        assert len(values) == 1 and modular.lift(tuple(values)) == x
        assert not any(image.irrational for image in images)


def test_an_embedding_refuses_a_denominator_of_p_and_marks_irrational_scalars():
    modular = Z3.modular()
    image = modular.embeddings()[0]
    with pytest.raises(ZeroDivisionError):
        image(Z3.coerce(Fraction(2, modular.p)))
    with pytest.raises(ZeroDivisionError):
        QQ.modular().embeddings()[0](Fraction(1, QQ.modular().p))
    assert image(Z3.from_int(5)) == 5 and not image.irrational
    image(Z3.zeta())
    assert image.irrational


# ---------------------------------------------------------------------------
# docio parses and formats each distinct scalar of a document once


def _memo_free(monkeypatch):
    """Make docio parse and format every scalar afresh, as it did before the memos."""
    monkeypatch.setattr(docio, "_formatter", lambda field: field.format)
    scalar = docio._scalar
    monkeypatch.setattr(docio, "_scalar", lambda field, text, parsed=None: scalar(field, text))


def test_memos_keep_the_bytes_and_the_tables(monkeypatch):
    """Emission and parsing of the zoo, the duals and a Q(zeta_7) group algebra, with and without the
    memos: the same bytes, so the same sha256 digests, and the same tables back."""
    import hashlib

    from whopf.constructors import cyclic_table, group_algebra
    from whopf.zoo import ZOO_NAMES, build_member

    algebras = [build_member(name) for name in ZOO_NAMES]
    algebras += [h.dual for h in algebras] + [group_algebra(cyclic_table(7), field=CyclotomicField(7))]
    texts = [docio.dumps(docio.wha_to_document(h)) for h in algebras]
    parsed = [docio.document_to_wha(docio.loads(text)) for text in texts]
    with monkeypatch.context() as m:
        _memo_free(m)
        plain = [docio.dumps(docio.wha_to_document(h)) for h in algebras]
        reparsed = [docio.document_to_wha(docio.loads(text)) for text in texts]
    assert [hashlib.sha256(t.encode()).hexdigest() for t in texts] == [
        hashlib.sha256(t.encode()).hexdigest() for t in plain
    ]
    for a, b in zip(parsed, reparsed):
        assert (a.mult, a.comult, a.unit, a.counit, a.antipode) == (b.mult, b.comult, b.unit, b.counit, b.antipode)
        assert [type(c) for cell in a.mult.values() for c in cell.values()] == [
            type(c) for cell in b.mult.values() for c in cell.values()
        ]


@pytest.mark.parametrize("bad", ["1/0", 5, None, LONG, "1/" + LONG, "2x"], ids=repr)
def test_a_bad_scalar_after_repeats_of_a_good_one_raises_the_same_error(bad, monkeypatch):
    """The first bad scalar in document order raises what it raised without the memos."""
    from whopf.constructors import cyclic_table, group_algebra

    doc = docio.wha_to_document(group_algebra(cyclic_table(4)))
    assert all(entry[-1] == "1" for entry in doc["mult"])
    doc["mult"][-1][-1] = bad
    doc["counit"][0][-1] = "1/0"  # a later bad scalar is never reached

    def error():
        with pytest.raises(ParseError) as info:
            docio.document_to_wha(doc)
        return str(info.value)

    with monkeypatch.context() as m:
        _memo_free(m)
        want = error()
    assert error() == want
