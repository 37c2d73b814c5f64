import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whopf.errors import InvalidOperand, NoSolution, Singular, WhopfError
from whopf.fields import QQ, CyclotomicField
from whopf.linalg import (
    Matrix,
    Subspace,
    invert,
    kernel,
    kernel_on,
    rref,
    solve,
    solve_sparse,
    try_solve,
)


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
        ker = kernel(a)
        assert Subspace.from_vectors(QQ, nc, basis) == ker


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
    """Dense oracle: linalg.kernel of the row matrix, lifted through the basis of space."""
    zero = field.zero()
    dense = [[row.get(c, zero) for c in range(space.dim)] for row in rows]
    coords = kernel(Matrix(field, dense + [[zero] * space.dim]))  # the zero row fixes ncols
    vecs = []
    for kv in coords.rows:
        v = [zero] * space.ambient
        for x, basis_row in zip(kv, space.rows):
            v = [a + x * b for a, b in zip(v, basis_row)]
        vecs.append(v)
    return Subspace.from_vectors(field, space.ambient, vecs)


@settings(max_examples=150, deadline=None)
@given(kernel_case())
def test_kernel_on_matches_dense_kernel(case):
    field, space, rows = case
    got = kernel_on(space, rows)
    want = dense_kernel_on(field, space, rows)
    assert got == want and got.pivots == want.pivots
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
