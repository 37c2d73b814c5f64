import random
from fractions import Fraction
from math import gcd as math_gcd, isqrt as math_isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fields import FQ, mixed_rationals, same_scalar
from whopf.errors import FieldMismatch, InvalidOperand, InvalidPresentation, NoSolution, Singular, WhopfError
from whopf.fields import QQ, CyclotomicField
from whopf.linalg import (
    Matrix,
    Subspace,
    _insert,
    _reconstruct,
    _solve_mod,
    invert,
    kernel,
    kernel_on,
    rref,
    solve,
    solve_sparse,
    try_solve,
)
from whopf.search import grid_vectors, height_vectors


def reference_rref(rows, field):
    """Plain dense Gauss-Jordan elimination, independent of whopf.linalg: (rows, pivots)."""
    work = [list(row) for row in rows]
    width = len(work[0]) if work else 0
    pivots = []
    for col in range(width):
        r = len(pivots)
        hit = next((i for i in range(r, len(work)) if work[i][col]), None)
        if hit is None:
            continue
        work[r], work[hit] = work[hit], work[r]
        inv = field.inv(work[r][col])
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][col]:
                m = work[i][col]
                work[i] = [a - m * b for a, b in zip(work[i], work[r])]
        pivots.append(col)
    return [tuple(row) for row in work[: len(pivots)]], pivots


def reference_solve(m, b):
    """(particular, kernel basis) of Mx = b read off reference_rref of [M | b], or None."""
    n = m.ncols
    rows, pivots = reference_rref([list(r) + [x] for r, x in zip(m.rows, b)], m.field)
    if n in pivots:
        return None
    zero, one = m.field.zero(), m.field.one()
    particular = [zero] * n
    for row, p in zip(rows, pivots):
        particular[p] = row[n]
    basis = []
    for f in (f for f in range(n) if f not in pivots):
        v = [zero] * n
        v[f] = one
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(particular), basis


def densified(got, ncols, zero=0):
    """The sparse (particular, kernel) of solve_sparse as the dense (tuple, list of tuples) of reference_solve."""
    if got is None:
        return None
    dense = lambda x: tuple(x.get(j, zero) for j in range(ncols))
    return dense(got[0]), [dense(kv) for kv in got[1]]


def reference_span(field, vectors):
    """Canonical (rows, pivots) of the span of vectors, by reference_rref."""
    return reference_rref(vectors, field) if vectors else ([], [])


def rand_matrix(rng, nrows, ncols, field=QQ):
    return Matrix(field, [[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(ncols)] for _ in range(nrows)])


def test_solve_identity():
    a = Matrix.identity(QQ, 2)
    x, ker = solve(a, (1, 2))
    assert x == (1, 2)
    assert ker.dim == 0


def test_solve_underdetermined():
    a = Matrix(QQ, [[1, 1]])
    x, ker = solve(a, (0,))
    assert a.matvec(x) == (0,)
    assert ker.dim == 1
    assert ker.contains((1, -1))


def test_solve_inconsistent():
    a = Matrix.zero(QQ, 2, 2)
    assert try_solve(a, (1, 0)) is None
    with pytest.raises(NoSolution):
        solve(a, (1, 0))


def test_invert_examples():
    eye = Matrix.identity(QQ, 3)
    assert invert(eye) == eye
    swap = Matrix(QQ, [[0, 1], [1, 0]])
    assert invert(swap) == swap
    with pytest.raises(Singular):
        invert(Matrix(QQ, [[1, 1], [1, 1]]))


def test_kronecker_identity_and_diagonal():
    eye2 = Matrix.identity(QQ, 2)
    assert eye2.kronecker(eye2) == Matrix.identity(QQ, 4)
    a = Matrix(QQ, [[2, 0], [0, 3]])
    b = Matrix(QQ, [[5, 0], [0, 7]])
    kron = a.kronecker(b)
    assert [kron[i, i] for i in range(4)] == [10, 14, 15, 21]


def test_kronecker_trace_multiplicative():
    rng = random.Random(7)
    m = rand_matrix(rng, 3, 3)
    n = rand_matrix(rng, 3, 3)
    # oracle: direct expansion of the 9x9 diagonal
    kron = m.kronecker(n)
    direct = sum((kron[i, i] for i in range(9)), Fraction(0))
    assert direct == m.trace() * n.trace()
    assert kron.trace() == m.trace() * n.trace()


def test_trace_examples():
    assert Matrix.identity(QQ, 3).trace() == 3
    assert Matrix(QQ, [[0, 1], [0, 0]]).trace() == 0
    assert Matrix(QQ, [[1, 2], [3, 4]]).trace() == 5


def test_solve_reproduces_rhs_randomized():
    rng = random.Random(1)
    for _ in range(12):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_matrix(rng, nr, nc)
        b = a.matvec([Fraction(rng.randint(-4, 4)) for _ in range(nc)])
        x, ker = solve(a, b)
        assert a.matvec(x) == tuple(b)
        assert a.rank() + ker.dim == nc


def test_rref_idempotent():
    rng = random.Random(2)
    for field in (QQ, CyclotomicField(3)):
        for _ in range(8):
            vecs = [[field.coerce(Fraction(rng.randint(-3, 3))) for _ in range(4)] for _ in range(3)]
            if field is not QQ:
                z = field.zeta()
                vecs = [[x + (z * rng.randint(0, 2)) for x in row] for row in vecs]
            rows1, piv1 = rref(vecs, field)
            rows2, piv2 = rref(rows1, field)
            assert rows1 == rows2 and piv1 == piv2


def test_cyclotomic_inverse_roundtrip():
    f = CyclotomicField(4)
    z = f.zeta()
    m = Matrix(f, [[1, z], [z, 1]])
    mi = invert(m)
    assert m @ mi == Matrix.identity(f, 2)


def test_subspace_equality_and_intersection():
    u = Subspace.from_vectors(QQ, 3, [(1, 1, 0), (0, 0, 1)])
    v = Subspace.from_vectors(QQ, 3, [(2, 2, 0), (0, 0, 5)])
    assert u == v
    w = Subspace.from_vectors(QQ, 3, [(1, 0, 0), (0, 0, 1)])
    cap = u.intersect(w)
    assert cap.dim == 1
    assert cap.contains((0, 0, 1))
    assert u.plus(w).dim == 3


def test_subspace_coords():
    u = Subspace.from_vectors(QQ, 3, [(1, 2, 0), (0, 0, 1)])
    assert u.coords((2, 4, 3)) == (2, 3)
    assert u.coords((1, 0, 0)) is None
    assert any(u.reduce((1, 0, 0)))


def test_solve_sparse_matches_dense():
    rng = random.Random(3)
    for _ in range(10):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        a = rand_matrix(rng, nr, nc)
        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(nc)]
        b = a.matvec(x0)
        rows = [{j: v for j, v in enumerate(r) if v} for r in a.rows]
        got = densified(solve_sparse(rows, list(b), nc, QQ), nc)
        assert got is not None
        part, basis = got
        assert a.matvec(part) == tuple(b)
        assert got == reference_solve(a, b)


def test_solve_sparse_inconsistent():
    rows = [{0: Fraction(1)}, {0: Fraction(1)}]
    assert solve_sparse(rows, [Fraction(1), Fraction(2)], 1, QQ) is None


Q3 = CyclotomicField(3)


@st.composite
def kernel_case(draw):
    """A field, a subspace of field^n (proper or the whole space) and sparse rows over its basis."""
    field = draw(st.sampled_from([QQ, Q3]))
    small = st.integers(-3, 3)

    def scalar():
        x = field.from_int(draw(small))
        return x + field.zeta() * draw(small) if field is Q3 else x

    n = draw(st.integers(1, 5))
    if draw(st.booleans()):
        space = Subspace.full(field, n)
    else:
        vecs = [[scalar() for _ in range(n)] for _ in range(draw(st.integers(0, n)))]
        space = Subspace.from_vectors(field, n, vecs)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = {c: scalar() for c in range(space.dim) if draw(st.booleans())}
        rows.append({c: v for c, v in row.items() if v})
    return field, space, rows


def dense_kernel_on(field, space, rows):
    """Dense oracle: the reference kernel of the row matrix, lifted through the basis of space."""
    zero = field.zero()
    dense = [[row.get(c, zero) for c in range(space.dim)] for row in rows]
    m = Matrix(field, dense + [[zero] * space.dim])  # the zero row fixes ncols
    vecs = []
    for kv in reference_solve(m, [zero] * m.nrows)[1]:
        v = [zero] * space.ambient
        for x, basis_row in zip(kv, space.rows):
            v = [a + x * b for a, b in zip(v, basis_row)]
        vecs.append(v)
    return reference_span(field, vecs)


@settings(max_examples=150, deadline=None)
@given(kernel_case())
def test_kernel_on_matches_dense_kernel(case):
    field, space, rows = case
    got = kernel_on(space, rows)
    assert (list(got.rows), list(got.pivots)) == dense_kernel_on(field, space, rows)
    assert got <= space
    if not rows:
        assert got == space


@settings(max_examples=150, deadline=None)
@given(kernel_case(), st.data())
def test_vector_inverts_coords_and_matches_the_dense_sum(case, data):
    field, space, _rows = case
    small = st.integers(-3, 3)
    coeffs = []
    for _ in range(space.dim):
        c = field.from_int(data.draw(small))
        coeffs.append(c + field.zeta() * data.draw(small) if field is Q3 else c)
    dense = [field.zero()] * space.ambient
    for c, row in zip(coeffs, space.rows):
        dense = [a + c * b for a, b in zip(dense, row)]
    v = space.vector(coeffs)
    assert v == tuple(dense)
    assert space.coords(v) == tuple(coeffs)


@st.composite
def matrix_case(draw):
    """A matrix over QQ or Q(zeta_3), wide or tall, with zero, repeated and scaled rows."""
    field = draw(st.sampled_from([QQ, Q3]))
    small = st.integers(-3, 3)

    def scalar():
        if not draw(st.integers(0, 2)):
            return field.zero()
        x = field.from_fraction(Fraction(draw(small), draw(st.integers(1, 3))))
        return x + field.zeta() * draw(small) if field is Q3 else x

    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat"]))
        if kind == "zero":
            rows.append([field.zero()] * ncols)
        elif kind == "repeat" and rows:
            c = scalar()
            rows.append([c * x for x in draw(st.sampled_from(rows))])
        else:
            rows.append([scalar() for _ in range(ncols)])
    return Matrix(field, rows), [scalar() for _ in range(len(rows))], [scalar() for _ in range(ncols)]


@settings(max_examples=200, deadline=None)
@given(matrix_case())
def test_eliminator_matches_the_reference(case):
    m, b, x0 = case
    field = m.field
    want_rows, want_pivots = reference_rref(m.rows, field)
    assert rref(m.rows, field) == (want_rows, want_pivots)
    assert m.rank() == len(want_pivots)
    ker = kernel(m)
    want_kernel = reference_span(field, reference_solve(m, [field.zero()] * m.nrows)[1])
    assert (list(ker.rows), list(ker.pivots)) == want_kernel
    for rhs in (b, m.matvec(x0)):
        got, want = try_solve(m, rhs), reference_solve(m, rhs)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0]
            assert (list(got[1].rows), list(got[1].pivots)) == reference_span(field, want[1])
    if m.nrows == m.ncols:
        n = m.nrows
        eye = Matrix.identity(field, n).rows
        aug_rows, _ = reference_rref([r + e for r, e in zip(m.rows, eye)], field)
        if len(want_pivots) == n:
            assert invert(m).rows == tuple(row[n:] for row in aug_rows)
        else:
            with pytest.raises(Singular):
                invert(m)


@settings(max_examples=150, deadline=None)
@given(matrix_case())
def test_insert_step_matches_the_reference_rank(case):
    """Rows inserted one at a time add a pivot exactly when the reference rank grows."""
    m, _, _ = case
    field = m.field
    forward = {}
    rank = 0
    for k, row in enumerate(m.rows):
        before = {c: dict(r) for c, r in forward.items()}
        added = _insert(forward, enumerate(row), field)
        want = len(reference_rref(m.rows[: k + 1], field)[1])
        assert len(forward) == want
        if want == rank:
            assert added is None and forward == before
        else:
            # a new pivot row, scaled to 1 at its smallest column
            assert added not in before and min(forward[added]) == added and forward[added][added] == 1
            assert {c: forward[c] for c in before} == before
        rank = want
    dense = [[row.get(j, field.zero()) for j in range(m.ncols)] for row in forward.values()]
    assert reference_span(field, dense) == reference_rref(m.rows, field)


@settings(max_examples=150, deadline=None)
@given(matrix_case(), st.data())
def test_intersect_matches_the_reference(case, data):
    m, _, _ = case
    field, n, zero = m.field, m.ncols, m.field.zero()
    us = reference_span(field, m.rows[: data.draw(st.integers(0, m.nrows))])[0]
    ws = reference_span(field, m.rows[data.draw(st.integers(0, m.nrows)) :])[0]
    want = ([], [])
    if us and ws:
        # u = sum_k x_k us[k] lies in W iff u = sum_k y_k ws[k]: the kernel of [U^T | -W^T]
        stacked = Matrix(field, [[u[i] for u in us] + [-w[i] for w in ws] for i in range(n)])
        lifted = []
        for kv in reference_solve(stacked, [zero] * n)[1]:
            v = [zero] * n
            for x, u in zip(kv, us):
                v = [a + x * b for a, b in zip(v, u)]
            lifted.append(v)
        want = reference_span(field, lifted)
    got = Subspace.from_vectors(field, n, us).intersect(Subspace.from_vectors(field, n, ws))
    assert (list(got.rows), list(got.pivots)) == want


@st.composite
def mixed_system(draw):
    """Rows over Q mixing int, integral-Fraction and Fraction entries, a right-hand side, and the width."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.just(0), mixed_rationals)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(draw(st.integers(1, 6)))]
    if draw(st.booleans()):  # a unimodular-looking row keeps some pivots at +-1
        rows.insert(0, [draw(st.sampled_from([1, -1]))] + [draw(st.integers(-3, 3)) for _ in range(ncols - 1)])
    return rows, [draw(entry) for _ in rows], ncols


@settings(max_examples=200, deadline=None)
@given(mixed_system())
def test_eliminator_on_mixed_scalars_matches_the_fraction_reference(case):
    rows, rhs, ncols = case
    frows = [[Fraction(x) for x in row] for row in rows]
    frhs = [Fraction(x) for x in rhs]

    def same_vectors(got, want):
        assert len(got) == len(want)
        for u, v in zip(got, want):
            assert len(u) == len(v) and all(same_scalar(a, b) for a, b in zip(u, v))
        assert hash(tuple(map(tuple, got))) == hash(tuple(map(tuple, want)))

    got, want = rref(rows, QQ), rref(frows, FQ)
    assert got[1] == want[1]
    same_vectors(got[0], want[0])

    sparse = lambda rs: [{j: x for j, x in enumerate(r) if x} for r in rs]
    got = densified(solve_sparse(sparse(rows), rhs, ncols, QQ), ncols, QQ.zero())
    want = densified(solve_sparse(sparse(frows), frhs, ncols, FQ), ncols, FQ.zero())
    assert (got is None) == (want is None)
    if got is not None:
        same_vectors([got[0]], [want[0]])
        same_vectors(got[1], want[1])

    got = kernel_on(Subspace.full(QQ, ncols), sparse(rows))
    want = kernel_on(Subspace.full(FQ, ncols), sparse(frows))
    assert got == want and hash(got) == hash(want) and got.pivots == want.pivots
    same_vectors(got.rows, want.rows)


def test_full_subspace_is_canonical():
    for field in (QQ, Q3):
        for n in range(4):
            full = Subspace.full(field, n)
            eye = Subspace.from_vectors(field, n, Matrix.identity(field, n).rows)
            assert full == eye and full.pivots == eye.pivots


Q5 = CyclotomicField(5)


@st.composite
def subspace_case(draw):
    """Two lists of vectors in field^n (zero, repeated and scaled ones among them), coefficients,
    a probe vector and an n x n table, over QQ, Q(zeta_3) or Q(zeta_5)."""
    field = draw(st.sampled_from([QQ, Q3, Q5]))
    small = st.integers(-3, 3)

    def scalar():
        if not draw(st.integers(0, 2)):
            return field.zero()
        x = field.from_fraction(Fraction(draw(small), draw(st.integers(1, 3))))
        return x if field is QQ else x + field.zeta(draw(st.integers(1, 4))) * draw(small)

    n = draw(st.integers(1, 5))

    def vectors():
        out = []
        for _ in range(draw(st.integers(0, 4))):
            if out and draw(st.booleans()):
                c = scalar()
                out.append([c * x for x in draw(st.sampled_from(out))])
            else:
                out.append([scalar() for _ in range(n)])
        return out

    table = [[scalar() for _ in range(n)] for _ in range(n)]
    return field, n, vectors(), vectors(), [scalar() for _ in range(n)], [scalar() for _ in range(n)], table


def dense_combination(field, n, coeffs, rows):
    v = [field.zero()] * n
    for c, row in zip(coeffs, rows):
        v = [a + c * b for a, b in zip(v, row)]
    return tuple(v)


def reference_rank(field, rows):
    return len(reference_span(field, [list(r) for r in rows])[1])


@settings(max_examples=200, deadline=None)
@given(subspace_case())
def test_sparse_subspace_matches_the_dense_reference(case):
    field, n, us, ws, coeffs, probe, table = case
    u, w = Subspace.from_vectors(field, n, us), Subspace.from_vectors(field, n, ws)
    u_rows, u_pivots = reference_span(field, us)
    w_rows, _ = reference_span(field, ws)
    d = len(u_rows)

    # storage: the canonical basis, its dense view and the dense view rref returns
    assert (list(u.rows), list(u.pivots), u.dim) == (u_rows, u_pivots, d)
    assert u.sparse_rows == tuple({j: x for j, x in enumerate(r) if x} for r in u_rows)
    assert rref(us, field) == (u_rows, u_pivots)

    # vector and coords are inverse; contains and reduce agree with the reference rank
    inside = dense_combination(field, n, coeffs[:d], u_rows)
    assert u.vector(coeffs[:d]) == inside
    assert u.coords(inside) == tuple(coeffs[:d])
    assert u.contains(inside) and not any(u.reduce(inside))
    member = reference_rank(field, u_rows + [probe]) == d
    got = u.coords(probe)
    assert u.contains(probe) == member == (got is not None)
    if member:
        assert dense_combination(field, n, got, u_rows) == tuple(probe)
    # the residue vanishes at every pivot and differs from the probe by a vector of u
    residue = u.reduce(probe)
    assert len(residue) == n and not any(residue[p] for p in u_pivots)
    assert reference_rank(field, u_rows + [[a - b for a, b in zip(probe, residue)]]) == d
    assert any(residue) != member

    # matrix_of reads back the table M from the images sum_i M[i][k] rows[i]
    images = [dense_combination(field, n, [table[i][k] for i in range(d)], u_rows) for k in range(d)]
    assert u.matrix_of(images).rows == tuple(tuple(table[i][:d]) for i in range(d))
    if d and not member:
        assert u.matrix_of(images[:-1] + [tuple(probe)]) is None

    # plus, intersect and <= against ranks of the stacked reference bases
    total = u.plus(w)
    assert (list(total.rows), list(total.pivots)) == reference_span(field, us + ws)
    cap = u.intersect(w)
    assert (list(cap.rows), list(cap.pivots)) == reference_span(field, list(cap.rows))
    assert cap.dim == d + len(w_rows) - total.dim
    assert all(reference_rank(field, u_rows + [r]) == d for r in cap.rows)
    assert all(reference_rank(field, w_rows + [r]) == len(w_rows) for r in cap.rows)
    assert (u <= w) == (reference_rank(field, w_rows + u_rows) == len(w_rows))

    # equality and hash follow the canonical basis, whatever spanning vectors built it
    assert (u == w) == (u_rows == w_rows)
    c = coeffs[0] or field.one()
    again = Subspace.from_vectors(field, n, [[c * x for x in r] for r in reversed(u_rows)])
    assert again == u and hash(again) == hash(u)
    if u == w:
        assert hash(u) == hash(w)
    if field is QQ:
        # the same span with every entry an integral or proper Fraction
        fq = Subspace.from_vectors(FQ, n, [[Fraction(x) for x in r] for r in us])
        assert fq == u and hash(fq) == hash(u)
        assert any(type(x) is Fraction for r in fq.sparse_rows for x in r.values()) or not d


def test_matrix_of_is_none_when_an_image_leaves_the_subspace():
    u = Subspace.from_vectors(QQ, 3, [(1, 2, 0), (0, 0, 1)])
    assert u.matrix_of([(2, 4, 0), (1, 2, 3)]).rows == ((2, 1), (0, 3))
    assert u.matrix_of([(2, 4, 0), (1, 0, 0)]) is None
    assert u.matrix_of([(1, 0, 0), (1, 2, 3)]) is None


def test_shape_errors_are_typed():
    """Shape mismatches raise InvalidOperand, also under python -O."""
    m23 = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    m22 = Matrix.identity(QQ, 2)
    u2 = Subspace.full(QQ, 2)
    u3 = Subspace.full(QQ, 3)
    bad = [
        lambda: Matrix(QQ, [[1, 2], [3]]),
        lambda: Matrix(QQ, 5),
        lambda: Matrix(QQ, [5]),
        lambda: m23 + m22,
        lambda: m23 - m22,
        lambda: m23 @ m22,
        lambda: m23.trace(),
        lambda: m23.power(2),
        lambda: m22.power(-1),
        lambda: invert(m23),
        lambda: u2.plus(u3),
        lambda: u2.intersect(u3),
    ]
    for call in bad:
        with pytest.raises(InvalidOperand):
            call()
    assert issubclass(InvalidOperand, WhopfError)


# ---------------------------------------------------------------------------
# the sparse Matrix against the dense body it replaced


class DenseMatrix:
    """The earlier dense ``Matrix``: all nrows x ncols scalars as a tuple of tuples."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field, rows):
        rows = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        self.field = field
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        if any(len(r) != self.ncols for r in rows):
            raise InvalidOperand("matrix rows of unequal length")
        self.rows = rows

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one(), field.zero()
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def __add__(self, other):
        return DenseMatrix(self.field, [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return DenseMatrix(self.field, [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self):
        return DenseMatrix(self.field, [[-a for a in r] for r in self.rows])

    def scale(self, c):
        c = self.field.coerce(c)
        return DenseMatrix(self.field, [[c * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        zero = self.field.zero()
        other_rows = [[(j, y) for j, y in enumerate(row) if y] for row in other.rows]
        out = []
        for r in self.rows:
            acc = [zero] * other.ncols
            for k, x in enumerate(r):
                if x:
                    for j, y in other_rows[k]:
                        acc[j] += x * y
            out.append(acc)
        return DenseMatrix(self.field, out)

    def matvec(self, v):
        zero = self.field.zero()
        nzv = [(j, x) for j, x in enumerate(v) if x]
        return tuple(sum((r[j] * x for j, x in nzv), zero) for r in self.rows)

    def transpose(self):
        return DenseMatrix(self.field, list(zip(*self.rows)) if self.rows else [])

    def trace(self):
        return sum((self.rows[i][i] for i in range(self.nrows)), self.field.zero())

    def kronecker(self, other):
        return DenseMatrix(self.field, [[a * b for a in r for b in s] for r in self.rows for s in other.rows])

    def rank(self):
        return len(rref(self.rows, self.field)[0])

    def power(self, k):
        out = DenseMatrix.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out


def dense_invert(m):
    n = m.nrows
    one, zero = m.field.one(), m.field.zero()
    aug = [list(m.rows[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    rows, pivots = rref(aug, m.field)
    if pivots[:n] != list(range(n)):
        rank = sum(1 for p in pivots if p < n)
        raise Singular(f"matrix of rank {rank} < {n}")
    return DenseMatrix(m.field, [row[n:] for row in rows])


def dense_kernel(m):
    return kernel_on(Subspace.full(m.field, m.ncols), [dict(enumerate(row)) for row in m.rows])


def dense_try_solve(m, b):
    rows = [dict(enumerate(row)) for row in m.rows]
    got = densified(solve_sparse(rows, [m.field.coerce(x) for x in b], m.ncols, m.field), m.ncols, m.field.zero())
    if got is None:
        return None
    return got[0], Subspace.from_vectors(m.field, m.ncols, got[1])


def same_dense(got, want):
    """Equal shapes and dense rows, entry for entry of the same type (int, Fraction or Cyc).

    Dense rows keep no width when there are none: the dense transpose of an
    n x 0 matrix is 0 x 0, the sparse one 0 x n.
    """
    assert got.nrows == want.nrows and (got.ncols == want.ncols or not want.nrows)
    assert got.rows == want.rows
    assert [[type(x) for x in r] for r in got.rows] == [[type(x) for x in r] for r in want.rows]
    for row, dense in zip(got.sparse_rows, got.rows):
        assert row == {j: x for j, x in enumerate(dense) if x} and all(row.values())


Q5 = CyclotomicField(5)


@st.composite
def matrix_pair(draw):
    """A field, raw rows of an n x m matrix A (ints, integral and proper Fractions, roots of unity,
    mostly zero), one more n x m, an m x p and a square one, a vector of length m and a scalar."""
    field = draw(st.sampled_from([QQ, Q3, Q5]))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), mixed_rationals)

    def scalar():
        x = draw(entry)
        if field is not QQ and draw(st.integers(0, 3)) == 0:
            x = field.coerce(x) + field.zeta(draw(st.integers(1, field.order - 1)))
        return x

    def rows(nrows, ncols):
        return [[scalar() for _ in range(ncols)] for _ in range(nrows)]

    # dense rows fix the width only when there is one: A gets at least one row
    n, m, p = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    k = draw(st.integers(0, 4))
    return field, rows(n, m), rows(n, m), rows(m, p), rows(k, k), [scalar() for _ in range(m)], scalar()


@settings(max_examples=200, deadline=None)
@given(matrix_pair(), st.integers(0, 3))
def test_sparse_matrix_matches_the_dense_body(case, k):
    field, a_rows, b_rows, c_rows, d_rows, v, c = case
    a, b, cm, d = (Matrix(field, r) for r in (a_rows, b_rows, c_rows, d_rows))
    da, db, dc, dd = (DenseMatrix(field, r) for r in (a_rows, b_rows, c_rows, d_rows))
    for got, want in (
        (a, da),
        (a @ cm, da @ dc),
        (a.transpose(), da.transpose()),
        (a + b, da + db),
        (a - b, da - db),
        (-a, -da),
        (a.scale(c), da.scale(c)),
        (a.kronecker(d), da.kronecker(dd)),
        (d.power(k), dd.power(k)),
        (d @ d, dd @ dd),
    ):
        same_dense(got, want)
    vec = [field.coerce(x) for x in v]
    got, want = a.matvec(vec), da.matvec(vec)
    assert len(got) == len(want) and all(same_scalar(x, y) for x, y in zip(got, want))
    for j in range(a.ncols):
        assert a.col(j) == da.col(j)
        assert [type(x) for x in a.col(j)] == [type(x) for x in da.col(j)]
    got, want = d.trace(), dd.trace()
    assert same_scalar(got, want) and type(got) is type(want)
    assert a.rank() == da.rank() and d.rank() == dd.rank()
    assert a.is_invertible() == (a.nrows == a.ncols == da.rank())
    try:
        want = dense_invert(dd)
    except Singular as exc:
        with pytest.raises(Singular) as got:
            invert(d)
        assert str(got.value) == str(exc)
    else:
        same_dense(invert(d), want)
    assert kernel(a) == dense_kernel(da) and kernel(a).pivots == dense_kernel(da).pivots
    for rhs in ([x for x in a.matvec(vec)], [field.coerce(x) for x in (b_rows[0] if b_rows else [])][: a.nrows]):
        if len(rhs) != a.nrows:  # the second when A has more rows than columns
            with pytest.raises(InvalidOperand):
                try_solve(a, rhs)
            continue
        got, want = try_solve(a, rhs), dense_try_solve(da, rhs)
        assert (got is None) == (want is None)
        if got is not None:
            assert got[0] == want[0] and got[1] == want[1]


def test_equality_and_hash_read_the_dense_rows():
    half = Fraction(1, 2)
    a = Matrix(QQ, [[2, half], [0, -1]])
    b = Matrix._of(QQ, ({0: Fraction(2), 1: half}, {1: Fraction(-1)}), 2)
    assert type(b[0, 0]) is Fraction and a == b and hash(a) == hash(b)
    assert a == Matrix(QQ, [[Fraction(4, 2), half], [Fraction(0), -1]]) and a.rows == b.rows
    assert a != Matrix(QQ, [[2, half], [0, 1]]) and a != a.transpose()
    assert Matrix.zero(QQ, 0, 3) == Matrix.zero(QQ, 0, 5) == Matrix(QQ, [])
    assert hash(Matrix.zero(QQ, 0, 3)) == hash(Matrix.zero(QQ, 0, 5)) == hash(Matrix(QQ, []))
    assert Matrix.zero(QQ, 2, 3) != Matrix.zero(QQ, 2, 4) and Matrix.zero(QQ, 2, 3) != Matrix.zero(QQ, 3, 3)
    assert Matrix.zero(QQ, 2, 2) == Matrix(QQ, [[0, 0], [0, Fraction(0)]])
    assert Matrix.identity(QQ, 1) != ((1,),) and len({a, b, Matrix(QQ, a.rows)}) == 1
    z = Q3.zeta()
    assert Matrix(Q3, [[z, 0], [1, z * z]]) == Matrix(Q3, [[z, Q3.zero()], [Q3.one(), z * z]])
    assert hash(Matrix(Q3, [[1, 0]])) == hash(Matrix(Q3, [[Q3.one(), Q3.zero()]]))
    assert Matrix.zero(QQ, 2).sparse_rows == ({}, {}) and Matrix.identity(Q3, 2).sparse_rows == ({0: 1}, {1: 1})


def test_entries_and_columns_are_read_from_the_sparse_rows():
    m = Matrix(QQ, [[0, 3, 0], [Fraction(1, 2), 0, 0]])
    assert m.sparse_rows == ({1: 3}, {0: Fraction(1, 2)})
    assert m.rows == ((0, 3, 0), (Fraction(1, 2), 0, 0))
    assert [m[i, j] for i in range(2) for j in range(3)] == [0, 3, 0, Fraction(1, 2), 0, 0]
    assert m[-1, -3] == Fraction(1, 2) and m.col(-2) == (3, 0) and m.col(2) == (0, 0)
    for bad in ((2, 0), (0, 3), (0, -4)):
        with pytest.raises(IndexError):
            m[bad]
    with pytest.raises(IndexError):
        m.col(3)
    assert Matrix.from_columns(QQ, [(0, Fraction(2, 2)), (5, 0), (0, 0)]) == Matrix(QQ, [[0, 5, 0], [1, 0, 0]])
    assert type(Matrix.from_columns(QQ, [(Fraction(4, 2),)])[0, 0]) is int
    with pytest.raises(InvalidOperand):
        Matrix.from_columns(QQ, [(1, 0), (1,)])


@pytest.mark.parametrize("field", [QQ, Q3], ids=["QQ", "Q(zeta3)"])
def test_the_constructor_coerces_every_entry_zeros_included(field):
    for bad in (None, "", [], 1.5):
        for rows in ([[bad]], [[0, bad]], [[1, 0], [0, bad]]):
            with pytest.raises(FieldMismatch):
                Matrix(field, rows)
    for rows in ([[1, 2], [3]], [[1], []], [[], [0]]):
        with pytest.raises(InvalidOperand):
            Matrix(field, rows)


def test_the_antipode_setter_checks_the_shape_of_a_matrix_and_of_nested_lists():
    """A Matrix is checked by nrows and ncols, nested lists row by row; both raise InvalidPresentation."""
    from whopf.wha import WeakHopfAlgebra

    def kz2():
        mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
        return WeakHopfAlgebra(QQ, ["e", "g"], mult, [1, 0], [{(0, 0): 1}, {(1, 1): 1}], [1, 1])

    h = kz2()
    for bad in (
        Matrix.zero(QQ, 2, 3),
        Matrix.zero(QQ, 3, 2),
        Matrix(QQ, []),
        Matrix.identity(QQ, 3),
        [[1, 0]],
        [[1], [0]],
        [[1, 0], [0]],
        [[1, 0, 0], [0, 1, 0]],
        5,
        [[1, 0], 5],
    ):
        with pytest.raises(InvalidPresentation, match="2x2"):
            h.antipode = bad
        assert h.antipode is None
    h.antipode = [[1, 0], [0, Fraction(2, 2)]]
    assert h.antipode == Matrix.identity(QQ, 2) and type(h.antipode[1, 1]) is int
    h = kz2()
    h.antipode = Matrix.identity(QQ, 2)
    assert h.antipode == Matrix.identity(QQ, 2)


def test_solver_and_span_shapes_are_checked():
    """A right-hand side needs one entry per row, and a spanning vector one per ambient coordinate.

    Before the checks ``zip`` cut the longer side short: solve(I_2, [1]) gave
    ((1, 0), a line) and try_solve(I_2, [1, 2, 3]) gave (1, 2), and
    Subspace.from_vectors took [1] as a row [1] and [1, 2, 3] in ambient 2.
    """
    eye = Matrix.identity(QQ, 2)
    for call in (
        lambda: solve(eye, [1]),
        lambda: try_solve(eye, [1, 2, 3]),
        lambda: Subspace.from_vectors(QQ, 2, [[1, 2], [1]]),
        lambda: Subspace.from_vectors(QQ, 2, [[1, 2, 3]]),
    ):
        with pytest.raises(InvalidOperand):
            call()
    particular, kern = solve(eye, [1, 2])
    assert particular == (1, 2) and kern.dim == 0
    assert Subspace.from_vectors(QQ, 2, [[1, 2], [2, 4]]).rows == ((1, 2),)


@pytest.mark.parametrize(
    "call",
    [
        lambda: solve_sparse([{0: 1}, {1: 1}], [1], 2, QQ),  # zip dropped the second row
        lambda: solve_sparse([{0: 1}], [1, 2], 1, QQ),  # the extra right-hand side entry was ignored
        lambda: solve_sparse([{-1: 1}], [1], 2, QQ),  # written into particular[-1]
        lambda: solve_sparse([{5: 1}], [1], 2, QQ),  # a bare KeyError
        lambda: solve_sparse([{0: 1, 2: 1}], [1], 2, QQ),  # column ncols, where the right-hand side rides
        lambda: kernel_on(Subspace.full(QQ, 2), [{3: 1}]),  # a misleading Inconsistent
    ],
    ids=["short-rhs", "long-rhs", "negative-column", "column-past-ncols", "column-ncols", "kernel-on-column"],
)
def test_malformed_sparse_systems_are_refused(call):
    """A right-hand side of another length than the rows, or a column outside range(ncols), raises
    InvalidOperand; each used to give a silent wrong answer or an untyped error."""
    with pytest.raises(InvalidOperand):
        call()


U3 = Subspace.from_vectors(QQ, 3, [(1, 2, 0), (0, 0, 1)])


@pytest.mark.parametrize(
    "call",
    [
        lambda: U3.vector([1, 2, 3]),  # gave (1, 2, 0)
        lambda: U3.vector([1]),  # gave (1, 0, 0)
        lambda: U3.coords([1, 0]),  # read as (1, 0, 0)
        lambda: U3.contains([1, 0]),
        lambda: U3.reduce([1, 0, 0, 5]),  # a residual of length 4
        lambda: U3.matrix_of([[1, 0, 0]]),  # a 2 x 1 Matrix
        lambda: rref([[1, 2], [3]], QQ),  # a ragged row
        lambda: Matrix.identity(QQ, 2).power(2.5),  # a TypeError
        lambda: Matrix.identity(QQ, 2).power("2"),
    ],
    ids=["vector-long", "vector-short", "coords", "contains", "reduce", "matrix-of", "rref", "power-float", "power-str"],
)
def test_dense_adapters_refuse_vectors_of_the_wrong_length(call):
    """The dense adapters read a vector through one checked routine: one entry per coordinate, else
    InvalidOperand; each of these used to answer silently or raise an untyped error."""
    with pytest.raises(InvalidOperand):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Matrix.identity(QQ, -1),  # gave Matrix(0x-1)
        lambda: Subspace.full(QQ, -1),  # gave "dim 0 of -1"
        lambda: solve_sparse([], [], -1, QQ),  # gave ({}, [])
        lambda: Matrix.zero(QQ, 2.5),  # a TypeError
        lambda: Subspace.full(QQ, 2.5),  # a TypeError
        lambda: list(height_vectors(-1)),  # a ValueError
        lambda: list(grid_vectors(2, -1)),  # a ValueError
        lambda: list(grid_vectors(-1, 2)),  # an empty grid, as if every point had been tried
        lambda: list(height_vectors(1, max_height=0)),  # no vector, as if every height had been tried
        lambda: list(height_vectors(1, max_height=2.5)),  # ran heights 1 and 2
        lambda: list(height_vectors(1, max_height=True)),
        lambda: list(height_vectors(0, max_height=-1)),
    ],
    ids=[
        "identity-negative", "full-negative", "solve-sparse-negative", "zero-float", "full-float", "heights-negative",
        "grid-dim-negative", "grid-degree-negative", "height-cap-zero", "height-cap-float", "height-cap-bool",
        "height-cap-negative-dim-zero",
    ],
)
def test_bad_sizes_are_refused(call):
    """A size, row or column count is an int (not a bool) of at least 0, else InvalidOperand."""
    with pytest.raises(InvalidOperand):
        call()


def test_a_height_cap_of_one_runs_height_one():
    assert list(height_vectors(1, max_height=1)) == [(1,), (-1,)]
    assert list(height_vectors(1, max_height=3)) == [(1,), (-1,), (2,), (-2,)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: kernel_on(Subspace.full(QQ, 2), [{0: 0.1, 1: 1}]),  # a basis row holding the float's binary value
        lambda: solve_sparse([{0: 0.5}], [1], 1, QQ),  # answered ({0: 2}, [])
        lambda: kernel_on(Subspace.full(QQ, 2), [{0: "x"}]),  # a bare ValueError from Fraction
        lambda: solve_sparse([{0: 1}], [0.5], 1, QQ),  # answered ({0: 0.5}, [])
        lambda: solve_sparse([{0: CyclotomicField(3).zeta()}], [1], 1, QQ),
        lambda: solve_sparse([{0: CyclotomicField(5).zeta()}], [1], 1, CyclotomicField(3)),
    ],
    ids=["kernel-on-float", "solve-float", "kernel-on-str", "rhs-float", "cyc-in-QQ", "cyc-of-another-order"],
)
def test_scalars_the_field_would_refuse_are_refused(call):
    """solve_sparse (and so kernel_on) checks that every scalar is one ``field.coerce`` takes."""
    with pytest.raises(InvalidOperand):
        call()


def test_accepted_scalars_keep_their_type_and_value():
    """The scalar check converts nothing: rationals over Q(zeta_3) stay int and Fraction in the answer."""
    k = CyclotomicField(3)
    particular, kern = solve_sparse([{0: 1, 1: Fraction(1, 2)}], [Fraction(3, 2)], 2, k)
    assert particular == {0: Fraction(3, 2)} and type(particular[0]) is Fraction
    assert kern == [{0: Fraction(-1, 2), 1: k.one()}]
    assert solve_sparse([{0: True}], [k.zeta()], 1, k) == ({0: k.zeta()}, [])


def test_a_size_of_zero_stays_valid():
    assert Matrix.identity(QQ, 0) == Matrix.zero(QQ, 0) and Matrix.zero(QQ, 0).ncols == 0
    assert Subspace.full(QQ, 0).dim == 0 and solve_sparse([], [], 0, QQ) == ({}, [])
    assert list(height_vectors(0)) == [] and list(grid_vectors(0, 0)) == [()]


@pytest.mark.parametrize(
    "call",
    [
        lambda: Matrix(QQ, [{0: 5, 1: 6}]),  # gave the row (0, 1)
        lambda: Subspace.from_vectors(QQ, 2, [{0: 5, 1: 6}]),  # gave the span of (0, 1)
    ],
    ids=["matrix-row", "spanning-vector"],
)
def test_a_mapping_is_refused_where_a_dense_vector_is_expected(call):
    """Iterating a dict reads its keys, so a mapping would be taken for the vector of its keys."""
    with pytest.raises(InvalidOperand, match="mapping"):
        call()


def test_dense_adapters_coerce_through_the_boundary():
    """An integral Fraction comes back as an int, and a valid call answers as before."""
    assert U3.vector([Fraction(2, 2), 3]) == (1, 2, 3) and type(U3.vector([Fraction(2, 2), 0])[0]) is int
    assert U3.coords((Fraction(4, 2), 4, 3)) == (2, 3) and type(U3.coords((Fraction(4, 2), 4, 0))[0]) is int
    assert U3.reduce((1, 0, 0)) == (0, -2, 0) and U3.contains((2, 4, 0))
    assert rref([[Fraction(2, 1), 4], [1, 2]], QQ) == ([(1, 2)], [0])
    assert Matrix.identity(QQ, 2).matvec([Fraction(3, 1), 0]) == (3, 0)
    with pytest.raises(FieldMismatch):
        U3.coords((1, None, 0))


@settings(max_examples=150, deadline=None)
@given(matrix_case())
def test_solve_sparse_answers_in_sorted_sparse_dicts(case):
    """The particular solution and each kernel vector are dicts of nonzeros in increasing column order;
    kernel vector k ends at the k-th free column, where it is 1."""
    m, b, _ = case
    got = solve_sparse(m.sparse_rows, b, m.ncols, m.field)
    if got is None:
        return
    particular, kern = got
    pivots = reference_rref(m.rows, m.field)[1]
    free = [f for f in range(m.ncols) if f not in pivots]
    for v in [particular] + kern:
        assert all(v.values()) and list(v) == sorted(v)
    assert [max(kv) for kv in kern] == free and all(kv[f] == 1 for kv, f in zip(kern, free))
    assert densified(got, m.ncols, m.field.zero()) == reference_solve(m, b)


# ---------------------------------------------------------------------------
# the modular step of solve_antipode: elimination mod p and rational reconstruction

PRIMES = (5, 13, 10007, 2**31 - 1, 2**61 - 1)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_rational_reconstruction_round_trips(p, data):
    """r / s with |r| and s within sqrt(p / 2) comes back from r s^-1 mod p, and only it."""
    bound = math_isqrt(p // 2)
    r = data.draw(st.integers(-bound, bound))
    s = data.draw(st.integers(1, bound).filter(lambda s: math_gcd(r, s) == 1))
    assert _reconstruct(r * pow(s, -1, p) % p, p) == (r, s)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES), st.data())
def test_a_reconstruction_is_a_small_preimage(p, data):
    """Any (r, s) returned for a residue a satisfies r = a s (mod p) within the bounds."""
    a = data.draw(st.integers(0, p - 1))
    got = _reconstruct(a, p)
    bound = math_isqrt(p // 2)
    if got is not None:
        r, s = got
        assert (r - a * s) % p == 0 and abs(r) <= bound and 0 < s <= bound and math_gcd(r, s) == 1


def test_elimination_mod_p_matches_the_exact_solution():
    """Random sparse integer systems: x mod p is the exact unique solution mapped mod p, read off the
    first ncols rows that pivot; a rank short of ncols over Q gives None."""
    rng = random.Random(2026)
    seen = set()
    for _ in range(300):
        p = rng.choice(PRIMES)
        n = rng.randint(1, 6)
        rows = [
            {j: rng.randint(-3, 3) for j in rng.sample(range(n), rng.randint(0, n))}
            for _ in range(rng.randint(n, 2 * n + 2))
        ]
        rhs = [rng.randint(-4, 4) for _ in rows]
        exact = densified(solve_sparse(rows, [QQ.coerce(b) for b in rhs], n, QQ), n)
        got = _solve_mod(zip(rows, rhs), n, p)
        if exact is not None and exact[1]:
            assert got is None  # rank short of n over Q, so also mod p
            seen.add("kernel")
        elif exact is not None and got is not None:
            x, pivoted = got
            assert x == [Fraction(v).numerator * pow(Fraction(v).denominator, -1, p) % p for v in exact[0]]
            assert sum(pivoted) == n and pivoted[-1] and len(pivoted) <= len(rows)
            seen.add("unique")
        else:
            seen.add("inconsistent" if exact is None else "p divides a pivot")
    assert {"kernel", "unique", "inconsistent", "p divides a pivot"} <= seen
