import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fields import FQ, mixed_rationals, same_scalar
from whopf.errors import InvalidOperand, NoSolution, Singular, WhopfError
from whopf.fields import QQ, CyclotomicField
from whopf.linalg import (
    Matrix,
    Subspace,
    _insert,
    invert,
    kernel,
    kernel_on,
    rref,
    solve,
    solve_sparse,
    try_solve,
)


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
        got = solve_sparse(rows, list(b), nc, QQ)
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
    got, want = solve_sparse(sparse(rows), rhs, ncols, QQ), solve_sparse(sparse(frows), frhs, ncols, FQ)
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


def test_shape_errors_are_typed():
    """Shape mismatches raise InvalidOperand, also under python -O."""
    m23 = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    m22 = Matrix.identity(QQ, 2)
    u2 = Subspace.full(QQ, 2)
    u3 = Subspace.full(QQ, 3)
    bad = [
        lambda: Matrix(QQ, [[1, 2], [3]]),
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
