"""The sparse Element and Functional against the dense bodies they replaced.

``DenseVector``, ``DenseElement`` and ``DenseFunctional`` are the earlier
classes, which stored one coerced scalar per basis element in ``coeffs``.
Their products, multiplication matrices and inverses are written here as
dense loops over the structure constants ``mult``, so the reference reads
none of the library's sparse kernels.  Every operation is compared on
seeded random vectors over QQ, Q(zeta_3) and Q(zeta_5), with the zero vector
and one-entry vectors among them.
"""

import random
import sys
import zlib
from fractions import Fraction

import pytest

from whopf.constructors import cyclic_table, group_algebra
from whopf.errors import FieldMismatch, InvalidOperand, NotInvertible
from whopf.fields import QQ, CyclotomicField
from whopf.linalg import Matrix, try_solve
from whopf import linalg, wha
from whopf.wha import Element, Functional
from whopf.zoo import ZOO_NAMES, _builders, build_member, check_member


def dense_product(h, a, b):
    """ab from the structure constants, one dense loop over mult."""
    out = [h.field.zero()] * h.dim
    for (i, j), cell in h.mult.items():
        if a[i] and b[j]:
            for k, c in cell.items():
                out[k] += a[i] * b[j] * c
    return out


def dense_left_matrix(h, a):
    """The Matrix of x -> a x, column j the dense product a e_j."""
    rows = [[h.field.zero()] * h.dim for _ in range(h.dim)]
    for (i, j), cell in h.mult.items():
        if a[i]:
            for k, c in cell.items():
                rows[k][j] += a[i] * c
    return Matrix(h.field, rows)


def dense_inverse(h, a):
    sol = try_solve(dense_left_matrix(h, a), h.unit)
    if sol is None or sol[1].dim:
        raise NotInvertible("element has no two-sided inverse")
    x = sol[0]
    if tuple(dense_product(h, x, a)) != h.unit:
        raise NotInvertible("left inverse is not a right inverse")
    return x


class DenseVector:
    """The earlier coefficient vector: a read-only sequence over ``coeffs``."""

    _suffix = ""

    def __init__(self, algebra, coeffs):
        f = algebra.field
        self.algebra = algebra
        self.coeffs = tuple(f.coerce(c) for c in coeffs)
        assert len(self.coeffs) == algebra.dim

    def __iter__(self):
        return iter(self.coeffs)

    def __len__(self):
        return len(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def _new(self, coeffs):
        return type(self)(self.algebra, coeffs)

    def __add__(self, other):
        return self._new([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return self._new([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return self._new([-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._new(self._product(other))
        return self._new([a * other for a in self.coeffs])

    def __rmul__(self, scalar):
        return self._new([scalar * a for a in self.coeffs])

    def __eq__(self, other):
        return type(other) is type(self) and self.algebra is other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        h = self.algebra
        parts = [f"{h.field.format(c)}*{h.labels[i]}{self._suffix}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"


class DenseElement(DenseVector):
    def _product(self, other):
        return dense_product(self.algebra, self.coeffs, other.coeffs)

    def is_invertible(self):
        return dense_left_matrix(self.algebra, self.coeffs).is_invertible()

    def inv(self):
        return DenseElement(self.algebra, dense_inverse(self.algebra, self.coeffs))


class DenseFunctional(DenseVector):
    _suffix = "^"

    def __call__(self, x):
        return sum((a * b for a, b in zip(self.coeffs, x) if a and b), self.algebra.field.zero())

    def _product(self, other):
        # convolution: (phi psi)(e_i) = sum over Delta(e_i)
        h = self.algebra
        out = [h.field.zero()] * h.dim
        for i in range(h.dim):
            acc = h.field.zero()
            for (j, k), c in h.comult[i].items():
                a, b = self.coeffs[j], other.coeffs[k]
                if a and b:
                    acc += c * a * b
            out[i] = acc
        return out

    def as_dual_element(self):
        return DenseElement(self.algebra.dual, self.coeffs)

    def is_invertible(self):
        return self.as_dual_element().is_invertible()

    def inv(self):
        return DenseFunctional(self.algebra, self.as_dual_element().inv().coeffs)


ALGEBRAS = {
    "sweedler4": lambda: build_member("sweedler4"),
    "s3-group": lambda: build_member("s3-group"),
    "pair-2": lambda: build_member("pair-2"),
    "z3-group-cyclotomic": lambda: build_member("z3-group-cyclotomic"),
    "z5-over-Qz5": lambda: group_algebra(cyclic_table(5), field=CyclotomicField(5)),
}


def random_scalar(rng, field):
    """A nonzero-or-zero scalar; over QQ a raw Fraction, integral about a third of the time."""
    q = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
    if field is QQ:
        return q
    return field.from_fraction(q) * field.zeta(rng.randrange(field.order)) + field.from_int(rng.randint(-1, 1))


def random_vectors(h, seed):
    """The zero vector, one one-entry vector per basis index and six random ones, as lists of scalars."""
    rng = random.Random(seed)
    zero = h.field.zero()
    out = [[zero] * h.dim]
    for i in range(h.dim):
        v = [zero] * h.dim
        v[i] = random_scalar(rng, h.field) or h.field.one()
        out.append(v)
    for _ in range(6):
        out.append([random_scalar(rng, h.field) if rng.random() < 0.6 else zero for _ in range(h.dim)])
    return out


def same(got, want):
    """The sparse vector agrees with the dense reference: same kind, coefficients and repr."""
    assert isinstance(got, Element) == isinstance(want, DenseElement)
    assert got.terms == {i: c for i, c in enumerate(want.coeffs) if c}
    assert got.coeffs == want.coeffs and repr(got) == repr(want) and len(got) == len(want)
    assert bool(got) == bool(want)


def outcome(fn):
    """fn(), or the type of the NotInvertible it raised."""
    try:
        return fn()
    except NotInvertible:
        return NotInvertible


@pytest.mark.parametrize("name", list(ALGEBRAS))
@pytest.mark.parametrize("kind", ["element", "functional"])
def test_sparse_vectors_match_the_dense_bodies(name, kind):
    h = ALGEBRAS[name]()
    new, old = (Element, DenseElement) if kind == "element" else (Functional, DenseFunctional)
    vectors = random_vectors(h, seed=zlib.crc32(f"{name}/{kind}".encode()))
    rng = random.Random(7)
    pairs = [(new(h, v), old(h, v)) for v in vectors]
    for a, da in pairs:
        same(a, da)
        same(-a, -da)
        for c in (0, 3, random_scalar(rng, h.field)):
            same(a * c, da * c)
            same(c * a, c * da)
        invertible = a.is_invertible()
        assert invertible == da.is_invertible()
        got, want = outcome(a.inv), outcome(da.inv)
        assert (got is NotInvertible) == (want is NotInvertible) == (not invertible)
        if invertible:
            same(got, want)
        if kind == "functional":
            for x in (vectors[-1], vectors[1], Element(h, vectors[-2])):
                assert a(x) == da(x)
    for a, da in pairs[::2]:
        for b, db in pairs[1::3]:
            same(a + b, da + db)
            same(a - b, da - db)
            same(a * b, da * db)
            assert (a == b) == (da == db)
            assert (a == b) <= (hash(a) == hash(b))


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_equal_vectors_hash_equal(name):
    """However a vector is built: from ints, integral Fractions, or arithmetic that cancels."""
    h = ALGEBRAS[name]()
    for v in random_vectors(h, seed=11):
        a = Element(h, v)
        equal = [
            Element(h, list(v)),
            (a + h.one) - h.one,  # the same terms, summed through another vector
            Element._of(h, dict(reversed(list(a.terms.items())))),  # the same terms in another order
        ]
        if h.field is QQ:
            # integral Fractions, as arithmetic leaves them, through the constructor and as trusted terms
            equal.append(Element(h, [Fraction(2 * x, 2) for x in v]))
            equal.append(Element._of(h, {k: Fraction(x) for k, x in a.terms.items()}))
        for other in equal:
            assert other == a and hash(other) == hash(a)
        assert Functional(h, v) != a and a != tuple(v)


def test_operands_of_another_algebra_or_kind_are_typed_errors():
    h, g = ALGEBRAS["pair-2"](), ALGEBRAS["s3-group"]()
    a = h.one
    for bad in (lambda: a + g.one, lambda: a - g.one, lambda: a * g.one, lambda: a + (1, 0, 0, 1), lambda: a * "x"):
        with pytest.raises(FieldMismatch):
            bad()


def test_a_vector_of_another_algebra_of_the_same_dim_is_refused():
    """pair-2 and dual-pair-2 both have dim 4: o's unit (1, 1, 1, 1) used to be read in pair-2's basis,
    so h.mul_vec(o.one, o.one) returned (2, 2, 2, 2) and Element(h, o.one) wrapped o's unit as h's."""
    h, o = build_member("pair-2"), build_member("dual-pair-2")
    calls = [
        lambda: h.mul_vec(o.one, o.one), lambda: h.mul_vec(h.one, o.one), lambda: Element(h, o.one),
        lambda: Functional(h, o.eps), lambda: h.eps(o.one), lambda: h.apply_S(o.one), lambda: h.lact(o.eps, h.one),
    ]
    for call in calls:
        with pytest.raises(InvalidOperand, match="another algebra"):
            call()
    assert h.mul_vec(o.one.coeffs, h.one) == h.mul_vec(tuple(o.one), h.one)  # a dense view is read as h's


def callers(depth):
    """The names of the ``depth`` functions up the stack from the caller of the function that calls this."""
    frame, names = sys._getframe(2), set()
    for _ in range(depth):
        names.add(frame.f_code.co_name)
        frame = frame.f_back
    return names


def test_a_zoo_pass_reads_every_solution_sparse(monkeypatch):
    """``_inverse`` and ``dual_integral`` take the particular solution of ``linalg._solve`` as its nonzeros,
    and ``minimal_data`` builds its Gram matrix from sparse rows.

    Before, the solution was an n-entry tuple that both read back through the public constructors, one dense
    ``_terms`` conversion each (56 and 18 in one ``check_member`` pass over the zoo), and ``minimal_data``
    built a dense ``Matrix(field, rows)``.  An Element or Functional of the algebra read through ``_terms``
    is its own terms, not a conversion, so only other vectors are counted.  The algebras are built afresh,
    so no cached property skips a solve, and each of the three callers must solve at least once.
    """
    dense, matrices, solvers = [], [], []
    terms, init, solve = wha._terms, Matrix.__init__, linalg._solve

    def terms_spy(h, vec):
        if not (isinstance(vec, wha._Vector) and vec.algebra is h):
            dense.append(callers(2))
        return terms(h, vec)

    def init_spy(self, field, rows):
        matrices.append(callers(1))
        init(self, field, rows)

    def solve_spy(m, b):
        solvers.append(callers(2))
        return solve(m, b)

    monkeypatch.setattr(wha, "_terms", terms_spy)
    monkeypatch.setattr(Matrix, "__init__", init_spy)
    monkeypatch.setattr(wha, "_solve", solve_spy)
    monkeypatch.setattr("whopf.integrals._solve", solve_spy)
    monkeypatch.setattr("whopf.linalg._solve", solve_spy)
    for name in ZOO_NAMES:
        check_member(_builders()[name]())
    assert {"_inverse", "dual_integral", "minimal_data"} <= set().union(*solvers)
    assert [names for names in dense if names & {"_inverse", "dual_integral"}] == []
    assert {"minimal_data"} not in matrices
