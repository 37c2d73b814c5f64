"""Dense exact linear algebra over a scalar field.

Everything is immutable and exact.  Over the rationals the echelon pass is
fraction-free (Bareiss): rows are scaled to integers and eliminated with the
two-term division rule, which keeps intermediate entries as minors of the
input; the final normalization to reduced row echelon form reintroduces
fractions only once.  Over cyclotomic fields plain ordered elimination is
used.  Reduced row echelon form is unique, so Subspace equality is decidable
by comparing canonical bases.

Large sparse systems go through ``solve_sparse``, which eliminates
dict-backed rows instead; ``kernel_on`` solves the homogeneous ones (the
kernel of linear maps restricted to a subspace) and lifts the kernel back to
a canonical Subspace.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd

from .errors import Inconsistent, InvalidOperand, NoSolution, Singular
from .fields import QQ

__all__ = [
    "Matrix", "Subspace", "rref", "solve", "try_solve", "invert", "kernel", "kernel_on", "solve_sparse"
]


# ---------------------------------------------------------------------------
# reduced row echelon form


def _rref_bareiss(rows):
    """Fraction-free echelon + rational reduction; rows of Fractions."""
    work = []
    for row in rows:
        denom = 1
        for x in row:
            denom = denom * x.denominator // gcd(denom, x.denominator)
        work.append([int(x * denom) for x in row])
    nrows = len(work)
    ncols = len(rows[0]) if rows else 0
    prev = 1
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if work[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pr = work[rank]
        p = pr[col]
        for i in range(rank + 1, nrows):
            ri = work[i]
            m = ri[col]
            for j in range(col, ncols):
                q, r = divmod(p * ri[j] - m * pr[j], prev)
                if r:
                    raise Inconsistent("Bareiss division not exact")
                ri[j] = q
            for j in range(col):
                ri[j] = 0
        prev = p
        pivots.append(col)
        rank += 1
    reduced = [[Fraction(x) for x in work[i]] for i in range(rank)]
    return _back_reduce(reduced, pivots, QQ)


def _rref_field(rows, field):
    work = [list(row) for row in rows]
    nrows = len(work)
    ncols = len(rows[0]) if rows else 0
    rank = 0
    pivots = []
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, nrows):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = field.inv(work[rank][col])
        work[rank] = [x * inv for x in work[rank]]
        pr = work[rank]
        for i in range(nrows):
            if i != rank and work[i][col]:
                m = work[i][col]
                work[i] = [a - m * b for a, b in zip(work[i], pr)]
        pivots.append(col)
        rank += 1
    return _back_reduce(work[:rank], pivots, field)


def _back_reduce(rows, pivots, field):
    # Normalize pivots to 1 and clear entries above them.
    for k in range(len(pivots) - 1, -1, -1):
        col = pivots[k]
        inv = field.inv(rows[k][col])
        if inv != 1:
            rows[k] = [x * inv for x in rows[k]]
        for i in range(k):
            m = rows[i][col]
            if m:
                rows[i] = [a - m * b for a, b in zip(rows[i], rows[k])]
    return [tuple(r) for r in rows], list(pivots)


def rref(rows, field):
    """Canonical reduced row echelon form; returns (rows, pivot columns)."""
    rows = [tuple(row) for row in rows if any(row)]
    if not rows:
        return [], []
    if field is QQ or field.kind == "rational":
        return _rref_bareiss(rows)
    return _rref_field(rows, field)


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable dense matrix over a Field."""

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

    @classmethod
    def zero(cls, field, nrows, ncols=None):
        z = field.zero()
        ncols = nrows if ncols is None else ncols
        return cls(field, [[z] * ncols for _ in range(nrows)])

    @classmethod
    def from_columns(cls, field, cols):
        return cls(field, list(zip(*cols))) if cols else cls(field, [])

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def _same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InvalidOperand(
                f"shapes {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols} differ"
            )

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(self.field, [[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(self.field, [[a - b for a, b in zip(r, s)] for r, s in zip(self.rows, other.rows)])

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.rows])

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix(self.field, [[c * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise InvalidOperand(f"cannot multiply {self!r} by {other!r}")
        cols = list(zip(*other.rows))
        zero = self.field.zero()
        out = []
        for r in self.rows:
            nz = [(j, x) for j, x in enumerate(r) if x]
            out.append([sum((x * c[j] for j, x in nz), zero) for c in cols])
        return Matrix(self.field, out)

    def matvec(self, v):
        zero = self.field.zero()
        nzv = [(j, x) for j, x in enumerate(v) if x]
        return tuple(sum((r[j] * x for j, x in nzv), zero) for r in self.rows)

    def transpose(self):
        return Matrix(self.field, list(zip(*self.rows)) if self.rows else [])

    def _square(self, what):
        if self.nrows != self.ncols:
            raise InvalidOperand(f"{what} of a non-square {self!r}")

    def trace(self):
        self._square("trace")
        return sum((self.rows[i][i] for i in range(self.nrows)), self.field.zero())

    def kronecker(self, other):
        """(M (x) N)(x (x) y) = Mx (x) Ny with index (i, j) -> i*dim + j."""
        rows = []
        for r in self.rows:
            for s in other.rows:
                rows.append([a * b for a in r for b in s])
        return Matrix(self.field, rows)

    def rank(self):
        return len(rref(self.rows, self.field)[0])

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def power(self, k):
        self._square("power")
        if k < 0:
            raise InvalidOperand(f"negative power {k}")
        out = Matrix.identity(self.field, self.nrows)
        base = self
        while k:
            if k & 1:
                out = out @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return out

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


def invert(m):
    """Exact inverse; raises Singular."""
    m._square("inverse")
    n = m.nrows
    one, zero = m.field.one(), m.field.zero()
    aug = [list(m.rows[i]) + [one if j == i else zero for j in range(n)] for i in range(n)]
    rows, pivots = rref(aug, m.field)
    if pivots[:n] != list(range(n)):
        rank = sum(1 for p in pivots if p < n)
        raise Singular(f"matrix of rank {rank} < {n}")
    return Matrix(m.field, [row[n:] for row in rows])


def kernel(m):
    """Null space {x : Mx = 0} as a Subspace of dimension ncols."""
    rows, pivots = rref(m.rows, m.field)
    free = [j for j in range(m.ncols) if j not in pivots]
    one, zero = m.field.one(), m.field.zero()
    basis = []
    for f in free:
        v = [zero] * m.ncols
        v[f] = one
        for k, col in enumerate(pivots):
            v[col] = -rows[k][f]
        basis.append(v)
    return Subspace.from_vectors(m.field, m.ncols, basis)


def try_solve(m, b):
    """Solve Mx = b; returns (particular, kernel Subspace) or None."""
    b = [m.field.coerce(x) for x in b]
    aug = [list(row) + [bx] for row, bx in zip(m.rows, b)]
    rows, pivots = rref(aug, m.field)
    if m.ncols in pivots:
        return None
    zero = m.field.zero()
    x = [zero] * m.ncols
    for k, col in enumerate(pivots):
        x[col] = rows[k][m.ncols]
    return tuple(x), kernel(m)


def solve(m, b):
    out = try_solve(m, b)
    if out is None:
        raise NoSolution("right-hand side outside the column space")
    return out


# ---------------------------------------------------------------------------
# sparse elimination for structure-constant systems


def solve_sparse(rows, rhs, ncols, field):
    """Solve a sparse linear system; rows are dicts col -> scalar.

    Returns (particular tuple, kernel basis as list of tuples) or None if
    inconsistent.  Deterministic: pivots are the smallest column of each
    reduced row, rows processed in the given order.
    """
    pivot_rows = {}  # col -> (dict row, aug scalar)
    for row, aug in zip(rows, rhs):
        cur = dict(row)
        cur_aug = aug
        while cur:
            c = min(cur)
            if c in pivot_rows:
                prow, paug = pivot_rows[c]
                m = cur.pop(c)
                for j, v in prow.items():
                    if j == c:
                        continue
                    nv = cur.get(j, field.zero()) - m * v
                    if nv:
                        cur[j] = nv
                    elif j in cur:
                        del cur[j]
                cur_aug = cur_aug - m * paug
            else:
                inv = field.inv(cur[c])
                if inv != 1:
                    cur = {j: v * inv for j, v in cur.items()}
                    cur_aug = cur_aug * inv
                pivot_rows[c] = (cur, cur_aug)
                cur = None
                break
        if cur is not None and cur_aug:
            return None  # inconsistent
    # Back-substitute so every pivot row is supported on free columns only.
    for c in sorted(pivot_rows, reverse=True):
        row, aug = pivot_rows[c]
        for j in [j for j in row if j != c and j in pivot_rows]:
            m = row.pop(j)
            prow, paug = pivot_rows[j]
            for k, v in prow.items():
                if k == j:
                    continue
                nv = row.get(k, field.zero()) - m * v
                if nv:
                    row[k] = nv
                elif k in row:
                    del row[k]
            aug = aug - m * paug
        pivot_rows[c] = (row, aug)
    zero = field.zero()
    one = field.one()
    particular = [zero] * ncols
    for c, (_row, aug) in pivot_rows.items():
        particular[c] = aug
    free = [j for j in range(ncols) if j not in pivot_rows]
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for c, (row, _aug) in pivot_rows.items():
            coeff = row.get(f)
            if coeff:
                v[c] = -coeff
        basis.append(tuple(v))
    return tuple(particular), basis


def kernel_on(space, rows):
    """{v in space : every row vanishes on v} as a canonical Subspace of space.ambient.

    Each row is a sparse dict c -> scalar (nonzero entries only) over the
    coordinates of ``space.rows``: the linear condition sum_c row[c] x_c = 0
    on v = sum_c x_c space.rows[c].
    """
    field = space.field
    got = solve_sparse(rows, repeat(field.zero()), space.dim, field)
    if got is None:
        raise Inconsistent("homogeneous system reported inconsistent")
    return Subspace.from_vectors(field, space.ambient, [space.vector(kv) for kv in got[1]])


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Row space with a canonical (reduced row echelon) basis."""

    __slots__ = ("field", "ambient", "rows", "pivots")

    def __init__(self, field, ambient, rows, pivots):
        self.field = field
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        vectors = [tuple(field.coerce(x) for x in v) for v in vectors]
        rows, pivots = rref(vectors, field) if vectors else ([], [])
        return cls(field, ambient, rows, pivots)

    @classmethod
    def full(cls, field, n):
        """The whole of field^n with the identity basis (already canonical)."""
        one, zero = field.one(), field.zero()
        rows = [[one if i == j else zero for j in range(n)] for i in range(n)]
        return cls(field, n, rows, range(n))

    @property
    def dim(self):
        return len(self.rows)

    def coords(self, v):
        """Coefficients of v in the canonical basis, or None if v outside."""
        v = list(v)
        coeffs = []
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            coeffs.append(c)
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        if any(v):
            return None
        return tuple(coeffs)

    def vector(self, coeffs):
        """sum_k coeffs[k] rows[k] as a tuple, the inverse of ``coords``.

        Reads only the nonzero coefficients and the nonzero row entries.
        """
        v = [self.field.zero()] * self.ambient
        for c, row in zip(coeffs, self.rows):
            if c:
                for j, y in enumerate(row):
                    if y:
                        v[j] += c * y
        return tuple(v)

    def contains(self, v):
        return self.coords(v) is not None

    def reduce(self, v):
        """Residual of v modulo the subspace (zero iff contained)."""
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return tuple(v)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __le__(self, other):
        return all(other.contains(r) for r in self.rows)

    def _same_ambient(self, other):
        if self.ambient != other.ambient:
            raise InvalidOperand(f"ambient dimensions {self.ambient} and {other.ambient} differ")

    def plus(self, other):
        self._same_ambient(other)
        return Subspace.from_vectors(self.field, self.ambient, list(self.rows) + list(other.rows))

    def intersect(self, other):
        """Intersection via the kernel of [U^T | -W^T]."""
        self._same_ambient(other)
        r1, r2 = self.dim, other.dim
        if r1 == 0 or r2 == 0:
            return Subspace.from_vectors(self.field, self.ambient, [])
        rows = []
        for i in range(self.ambient):
            rows.append([self.rows[k][i] for k in range(r1)] + [-other.rows[k][i] for k in range(r2)])
        null = kernel(Matrix(self.field, rows))
        return Subspace.from_vectors(self.field, self.ambient, [self.vector(kv[:r1]) for kv in null.rows])

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"
