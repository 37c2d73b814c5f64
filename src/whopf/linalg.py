"""Exact linear algebra over a scalar field.

Everything is immutable and exact.  One eliminator serves every entry point:
``_reduce`` runs Gauss-Jordan elimination on sparse rows and returns the fully
back-substituted pivot rows; its forward step ``_insert`` adds one row and
reports whether it added a pivot.  ``solve_sparse`` carries the right-hand
side as one more column and reads the particular solution and the kernel off
the pivot rows.  ``kernel_on`` lifts the kernel of linear conditions on a
subspace back to a canonical Subspace (``kernel`` and ``intersect`` use it).

One vector format runs through the private bodies: a dict index -> nonzero
scalar, the row format of ``Matrix.sparse_rows``.  ``solve_sparse``, ``_solve``,
``_solve_modular`` and ``Subspace._residue`` answer in it; ``_combine`` reads it.
A dense vector enters only through a public adapter, and every adapter reads
it through one checked routine, ``_entries``: a sequence, not a mapping, of one
entry per coordinate (else InvalidOperand), each coerced into the field,
nonzeros kept.  Likewise every size, count and power passes ``_size``.

A ``Subspace`` keeps the pivot rows of ``_reduce``, sorted by pivot, so
equality compares canonical bases; ``rref`` is the dense view of a span.  A
``Matrix`` holds only its nonzeros, in the eliminator's row form.  Its one
product is the row-wise sparse join of Gustavson (ACM TOMS 1978): each
nonzero A[i, k] scatters the nonzeros of row k of B into row i of AB.  It
runs on the integer images of A and B (``_Columns``, ``Field.image``), so each
entry of AB is one int sum, read back to one scalar (``Field.from_image``).

The modular step of ``solve_antipode`` is the one place that works mod a
prime.  ``_solve_modular`` solves a system over F_p once per embedding of the
field (``Field.modular``) with ``_solve_mod``, a forward step like ``_insert``
on ints, and lifts each coefficient by rational reconstruction
(``_reconstruct``; Wang 1981).  ``solve_antipode`` certifies the result with
exact checks, and otherwise falls back on ``_reduce``, the one exact eliminator.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain, compress
from math import gcd, isqrt

from .errors import InvalidOperand, NoSolution, Singular

__all__ = [
    "Matrix", "Subspace", "rref", "solve", "try_solve", "invert", "kernel", "kernel_on", "solve_sparse"
]


# ---------------------------------------------------------------------------
# the eliminator


def _size(n, what):
    """n, once it is an int (not a bool) of at least 0; else InvalidOperand "<what> <n> is not an int of at least 0"."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise InvalidOperand(f"{what} {n!r} is not an int of at least 0")
    return n


def _entries(field, v, n, what="vector"):
    """The nonzero (index, scalar) pairs of a dense vector v of n entries, each coerced; else InvalidOperand."""
    if isinstance(v, Mapping):  # iterating a dict would read its keys as the entries
        raise InvalidOperand(f"{what} given as a mapping; a dense vector is a sequence of scalars")
    if len(v := tuple(v)) != n:
        raise InvalidOperand(f"{what} of length {len(v)} where {n} entries are needed")
    coerce = field.coerce
    return [(j, c) for j, x in enumerate(v) if (c := coerce(x))]


def _coerced(field, x):
    """The sparse vector x of computed scalars without its zeros, the rest coerced (int for integral on QQ)."""
    coerce = field.coerce
    return {j: coerce(v) for j, v in x.items() if v}


class _Columns:
    """The integer image of a table, line by line: a line maps a key to a nonzero scalar, or, with
    ``cells``, to a cell k -> nonzero scalar, as in the index ``mult_rows``.

    ``d`` is the lcm of the denominators of every scalar, ``a`` the largest
    absolute coefficient of an image (``Field.scaling``) and ``width`` the
    most entries of one line.
    """

    def __init__(self, field, lines, cells=False):
        self.field, self.lines, self.cells = field, lines, cells
        scalars = [v for line in lines for v in line.values()]
        self.d, self.a = field.scaling([c for cell in scalars for c in cell.values()] if cells else scalars)
        self.width = max(map(len, lines), default=0)
        self._at = {}

    def at(self, radix):
        """The lines of images at ``radix``, made once per radix; over Q with d = 1, ``lines`` itself."""
        got = self._at.get(radix)
        if got is None:
            image, d, got = self.field.image, self.d, self.lines
            if radix is not None or d != 1:
                if self.cells:
                    got = [{j: {k: image(c, d, radix) for k, c in v.items()} for j, v in line.items()} for line in got]
                else:
                    got = [{j: image(v, d, radix) for j, v in line.items()} for line in got]
            self._at[radix] = got
        return got


def _from_images(field, lines, d, radix):
    """Each line of images over D = ``d`` at ``radix`` as its nonzero scalars (``Field.from_image``)."""
    if radix is None and d == 1:
        return tuple({j: v for j, v in line.items() if v} for line in lines)
    read = field.from_image
    return tuple({j: x for j, v in line.items() if v and (x := read(v, d, radix))} for line in lines)


def _reduce(rows, field, stop):
    """Reduced row echelon form of sparse rows as {pivot column: row dict}.

    Each row is an iterable of (column, scalar) pairs, taken in order by
    ``_insert``.  Back-substitution then clears every pivot column from the
    other pivot rows.  Returns None as soon as a pivot falls at column
    ``stop`` or beyond.
    """
    zero = field.zero()
    pivot_rows = {}
    for row in rows:
        c = _insert(pivot_rows, row, field)
        if c is not None and c >= stop:
            return None
    # Forward rows are supported on columns >= their pivot, so clearing from
    # the last pivot backwards leaves every row on its pivot and free columns.
    for c in sorted(pivot_rows, reverse=True):
        row = pivot_rows[c]
        for j in [j for j in row if j != c and j in pivot_rows]:
            _subtract(row, row.pop(j), pivot_rows[j], j, zero)
    return pivot_rows


def _insert(pivot_rows, row, field):
    """One forward step of ``_reduce``: add a sparse row to the forward pivot rows.

    The row is reduced by ``pivot_rows`` (pivot column -> row dict, each
    supported on columns >= its pivot).  If anything is left, it pivots on
    its smallest remaining column, scaled to 1 there, and is stored under
    that column, which is returned.  A row in the span of ``pivot_rows``
    leaves them unchanged and returns None.
    """
    zero = field.zero()
    cur = {j: v for j, v in row if v}
    while cur:
        c = min(cur)
        if c not in pivot_rows:
            if cur[c] != 1:
                inv = field.inv(cur[c])
                cur = {j: v * inv for j, v in cur.items()}
            pivot_rows[c] = cur
            return c
        _subtract(cur, cur.pop(c), pivot_rows[c], c, zero)
    return None


def _subtract(row, m, prow, pivot, zero):
    """row -= m * prow in place, skipping the pivot column of prow and dropping zeros."""
    for j, v in prow.items():
        if j != pivot:
            nv = row.get(j, zero) - m * v
            if nv:
                row[j] = nv
            else:
                row.pop(j, None)


def _solve_mod(system, ncols, p):
    """The solution over F_p of a system of (sparse int row, int b) pairs, and which rows pivoted;
    None if fewer than ncols rows pivot.

    ``_insert``'s forward step with every entry reduced mod p, taking the rows
    in order until ncols of them have pivots; the solution of those rows is
    read off by back-substitution.  A row that reduces to 0 = b with b != 0
    before that gives None too.  The rows after the last pivot are not read.
    The second value holds one flag per row read, True where it pivoted.
    """
    pivot_rows, pivoted = {}, []
    for row, b in system:
        cur = {j: r for j, v in row.items() if (r := v % p)}
        if b := b % p:
            cur[ncols] = b
        while cur:
            c = min(cur)
            m = cur.pop(c)
            prow = pivot_rows.get(c)
            if prow is None:
                if c == ncols:
                    return None
                if m != 1:
                    inv = m if m == p - 1 else pow(m, -1, p)
                    cur = {j: v * inv % p for j, v in cur.items()}
                pivot_rows[c] = cur
                pivoted.append(True)
                break
            for j, v in prow.items():
                if nv := (cur.get(j, 0) - m * v) % p:
                    cur[j] = nv
                else:
                    del cur[j]
        else:
            pivoted.append(False)
        if len(pivot_rows) == ncols:
            break
    else:
        return None
    # Pivot row c, stored without its pivot entry 1, reads x_c = b - sum_j a_j x_j
    # over j > c; with x[ncols] = -1 that is -sum_j a_j x_j over all its entries.
    x = [0] * ncols + [-1]
    for c in range(ncols - 1, -1, -1):
        if row := pivot_rows[c]:
            x[c] = -sum(a * x[j] for j, a in row.items()) % p
    return x[:ncols], pivoted


def _reconstruct(a, p):
    """(r, s) with r = a s (mod p), |r| and 0 < s at most sqrt(p / 2) and gcd(r, s) = 1, or None.

    Wang's rational reconstruction (1981): the extended Euclidean algorithm
    on (p, a) stopped at the first remainder within the bound.  Such (r, s)
    is unique when it exists.
    """
    bound = isqrt(p >> 1)
    r0, r1, s0, s1 = p, a % p, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    return (r1, s1) if s1 <= bound and gcd(r1, s1) == 1 else None


def _solve_modular(build, ncols, field):
    """``solve_antipode``'s modular step: the solution of a system mod p, lifted to the field.

    ``build(image)`` iterates over the (row, right-hand side) pairs of the
    system with every scalar read through ``image``, one embedding of the
    field's scalars into F_p (``Field.modular``); entries may be any ints.
    Each embedding's system is solved by ``_solve_mod``, and each unknown is
    lifted from its values under all embeddings (``_Modular.lift``).  The
    embeddings after the first read only the rows that pivoted under it: a
    solution of ncols rows of rank ncols is the image of any solution of the
    whole system.  When the first embedding reads only rational scalars,
    every embedding gives the same system, and it is solved once.

    Returns the lifted solution as a dict unknown -> nonzero scalar, in
    increasing order, or None when there is no prime, p divides a
    denominator, fewer than ncols rows pivot or a lift fails.  The caller
    certifies the result: rank mod p never exceeds rank over the field, so
    when ncols rows pivot mod p the system has at most one solution, and a
    lifted x that satisfies every row exactly is that solution.
    """
    modular = field.modular()
    if modular is None:
        return None
    solutions, pivoted = [], None
    for image in modular.embeddings():
        system = build(image) if pivoted is None else compress(build(image), pivoted)
        try:
            got = _solve_mod(system, ncols, modular.p)
        except ZeroDivisionError:
            return None
        if got is None:
            return None
        solutions.append(got[0])
        if pivoted is None:
            pivoted = got[1]
        if not image.irrational:
            break
    out, lifted = {}, {}
    for j, values in enumerate(zip(*solutions)):
        if any(values):
            v = lifted.get(values)
            if v is None:
                v = lifted[values] = modular.lift(values)
                if v is None:
                    return None
            out[j] = v
    return out


def rref(rows, field):
    """Canonical reduced row echelon form of dense rows, the dense view of their span; returns (rows, pivots)."""
    rows = list(rows)
    width = len(rows[0]) if rows else 0
    span = Subspace._span(field, width, [_entries(field, row, width, "row") for row in rows])
    return list(span.rows), list(span.pivots)


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable sparse matrix over a Field: ``sparse_rows[i]`` maps column j to entry (i, j), nonzeros only.

    Operations read only the nonzeros; ``rows`` is the dense view, built on
    each read, and equality is equality of the dense rows.
    ``Matrix(field, rows)`` coerces every entry of dense rows.  ``_of`` takes
    read-only sparse rows of the field's own scalars as they are, and
    ``_sums`` sparse rows of computed scalars, whose zeros it drops and whose
    nonzeros it coerces (an integral Fraction becomes int on QQ).
    """

    __slots__ = ("field", "nrows", "ncols", "sparse_rows")

    def __init__(self, field, rows):
        try:
            rows = list(rows)
            ncols = len(rows[0]) if rows else 0
            self.sparse_rows = tuple(dict(_entries(field, row, ncols, "matrix row")) for row in rows)
        except TypeError:
            raise InvalidOperand("a matrix needs rows of scalars") from None
        self.field, self.nrows, self.ncols = field, len(rows), ncols

    @classmethod
    def _of(cls, field, rows, ncols):
        """The ncols-column Matrix on a tuple of sparse rows of the field's own nonzero scalars."""
        m = object.__new__(cls)
        m.field, m.sparse_rows, m.nrows, m.ncols = field, rows, len(rows), ncols
        return m

    @classmethod
    def _sums(cls, field, rows, ncols):
        """The ncols-column Matrix on sparse rows of computed scalars: zeros dropped, the rest coerced."""
        return cls._of(field, tuple(_coerced(field, row) for row in rows), ncols)

    @classmethod
    def identity(cls, field, n):
        one = field.one()
        return cls._of(field, tuple({i: one} for i in range(_size(n, "size"))), n)

    @classmethod
    def zero(cls, field, nrows, ncols=None):
        rows = tuple({} for _ in range(_size(nrows, "row count")))
        return cls._of(field, rows, _size(nrows if ncols is None else ncols, "column count"))

    @classmethod
    def from_columns(cls, field, cols):
        """The Matrix whose column j is the dense vector cols[j], the transpose of the rows cols."""
        nrows = len(cols[0]) if cols else 0
        return cls._of(field, tuple(dict(_entries(field, c, nrows, "matrix column")) for c in cols), nrows).transpose()

    @property
    def rows(self):
        """The dense rows, as a tuple of tuples."""
        zero, width = self.field.zero(), range(self.ncols)
        return tuple(tuple(row.get(j, zero) for j in width) for row in self.sparse_rows)

    def __getitem__(self, idx):
        i, j = idx
        return self.sparse_rows[i].get(range(self.ncols)[j], self.field.zero())

    def col(self, j):
        j, zero = range(self.ncols)[j], self.field.zero()
        return tuple(row.get(j, zero) for row in self.sparse_rows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.nrows == other.nrows
            and (self.ncols == other.ncols or not self.nrows)
            and self.sparse_rows == other.sparse_rows
        )

    def __hash__(self):
        return hash(tuple(frozenset(row.items()) for row in self.sparse_rows))

    def _same_shape(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise InvalidOperand(
                f"shapes {self.nrows}x{self.ncols} and {other.nrows}x{other.ncols} differ"
            )

    def __add__(self, other):
        self._same_shape(other)
        zero = self.field.zero()
        out = [dict(r) for r in self.sparse_rows]
        for acc, s in zip(out, other.sparse_rows):
            for j, y in s.items():
                acc[j] = acc.get(j, zero) + y
        return Matrix._sums(self.field, out, self.ncols)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Matrix._of(self.field, tuple({j: -x for j, x in r.items()} for r in self.sparse_rows), self.ncols)

    def scale(self, c):
        c = self.field.coerce(c)
        return Matrix._sums(self.field, [{j: c * x for j, x in r.items()} for r in self.sparse_rows], self.ncols)

    def __matmul__(self, other):
        """The product, joined on the images of both operands; each entry is read back once."""
        if self.ncols != other.nrows:
            raise InvalidOperand(f"cannot multiply {self!r} by {other!r}")
        field = self.field
        if other.field != field:  # its entries are read as scalars of this field, or FieldMismatch
            other = Matrix._sums(field, other.sparse_rows, other.ncols)
        a, b = _Columns(field, self.sparse_rows), _Columns(field, other.sparse_rows)
        radix = field.radix((1, self.ncols, a.a, b.a))
        other_rows, d, out = b.at(radix), a.d * b.d, []
        for r in a.at(radix):
            acc = {}
            for k, x in r.items():
                for j, y in other_rows[k].items():
                    acc[j] = acc.get(j, 0) + x * y
            out.append(acc)
        return Matrix._of(field, _from_images(field, out, d, radix), other.ncols)

    def matvec(self, v):
        """M v for a dense vector v, as a tuple: the dense adapter of ``_apply``."""
        zero, got = self.field.zero(), self._apply(dict(_entries(self.field, v, self.ncols)))
        return tuple(got.get(i, zero) for i in range(self.nrows))

    def _apply(self, x):
        """M x for a sparse vector x (column -> scalar), as a sparse dict without zeros."""
        zero = self.field.zero()
        sums = (sum((a * x[j] for j, a in r.items() if j in x), zero) for r in self.sparse_rows)
        return {i: s for i, s in enumerate(sums) if s}

    def transpose(self):
        cols = tuple({} for _ in range(self.ncols))
        for i, r in enumerate(self.sparse_rows):
            for j, x in r.items():
                cols[j][i] = x
        return Matrix._of(self.field, cols, self.nrows)

    def _square(self, what):
        if self.nrows != self.ncols:
            raise InvalidOperand(f"{what} of a non-square {self!r}")

    def trace(self):
        self._square("trace")
        zero = self.field.zero()
        return sum((r.get(i, zero) for i, r in enumerate(self.sparse_rows)), zero)

    def kronecker(self, other):
        """(M (x) N)(x (x) y) = Mx (x) Ny with index (i, j) -> i*dim + j."""
        width = other.ncols
        rows = [
            {j * width + l: a * b for j, a in r.items() for l, b in s.items()}
            for r in self.sparse_rows
            for s in other.sparse_rows
        ]
        return Matrix._sums(self.field, rows, self.ncols * width)

    def rank(self):
        pivot_rows = {}
        for r in self.sparse_rows:
            _insert(pivot_rows, r.items(), self.field)
        return len(pivot_rows)

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def power(self, k):
        self._square("power")
        _size(k, "power")
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


def _n_by_n(m, n):
    """m, once it is an n x n Matrix; else InvalidOperand."""
    if not (isinstance(m, Matrix) and m.nrows == m.ncols == n):
        raise InvalidOperand(f"operator {m!r} is not a {n}x{n} Matrix")
    return m


def invert(m):
    """Exact inverse, read off the reduced rows of [M | I]; raises Singular."""
    m._square("inverse")
    n = m.nrows
    one = m.field.one()
    reduced = _reduce((chain(r.items(), [(n + i, one)]) for i, r in enumerate(m.sparse_rows)), m.field, 2 * n)
    rank = sum(1 for p in reduced if p < n)
    if rank < n:
        raise Singular(f"matrix of rank {rank} < {n}")
    return Matrix._sums(m.field, [{j - n: x for j, x in reduced[i].items() if j >= n} for i in range(n)], n)


def kernel(m):
    """Null space {x : Mx = 0} as a Subspace of dimension ncols."""
    return kernel_on(Subspace.full(m.field, m.ncols), m.sparse_rows)


def try_solve(m, b):
    """Solve Mx = b for a dense b of one entry per row: (particular tuple, kernel Subspace) or None."""
    got = _solve(m, dict(_entries(m.field, b, m.nrows, "right-hand side")))
    return got and (tuple(got[0].get(j, m.field.zero()) for j in range(m.ncols)), got[1])


def _solve(m, b):
    """``try_solve`` for a sparse right-hand side b (row -> scalar of the field), with a sparse particular solution."""
    got = solve_sparse(m.sparse_rows, [b.get(i, m.field.zero()) for i in range(m.nrows)], m.ncols, m.field)
    return got and (got[0], Subspace._span(m.field, m.ncols, map(dict.items, got[1])))


def solve(m, b):
    out = try_solve(m, b)
    if out is None:
        raise NoSolution("right-hand side outside the column space")
    return out


# ---------------------------------------------------------------------------
# sparse elimination for structure-constant systems


def solve_sparse(rows, rhs, ncols, field):
    """Solve the rows (dicts col -> scalar) = rhs: (particular, kernel) read off the pivot rows, or None.

    The right-hand side rides along as column ``ncols``, so the system is
    inconsistent exactly when that column would become a pivot.  ``particular``
    is a dict col -> nonzero scalar, and ``kernel`` has one per free column f,
    in column order; a pivot row holds its pivot and free columns after it, so
    each dict lists its columns in increasing order, a kernel dict ending at f.
    InvalidOperand unless rhs has one entry per row, every column lies in range(ncols) and every scalar is
    one that ``field.coerce`` takes (``field.accepts``, which converts none).
    """
    _size(ncols, "column count")
    accepts = field.accepts
    if len(rhs) != len(rows) or not accepts(rhs) or any(
        row and (min(row) < 0 or max(row) >= ncols or not accepts(row.values())) for row in rows
    ):
        raise InvalidOperand(f"{len(rows)} rows need one right-hand side each, columns < {ncols} and {field} scalars")
    pivot_rows = _reduce((chain(row.items(), [(ncols, b)]) for row, b in zip(rows, rhs)), field, ncols)
    if pivot_rows is None:
        return None
    particular, kernel = {}, {f: {} for f in range(ncols) if f not in pivot_rows}
    for c in sorted(pivot_rows):
        for j, x in pivot_rows[c].items():
            if j == ncols:
                particular[c] = x
            elif j != c:
                kernel[j][c] = -x
    return particular, [{**v, f: field.one()} for f, v in kernel.items()]


def kernel_on(space, rows):
    """{v in space : every row vanishes on v} as a canonical Subspace of space.ambient.

    Each row is a sparse dict c -> scalar (zero entries may be left out) over
    the coordinates of ``space.rows`` (else InvalidOperand): the linear
    condition sum_c row[c] x_c = 0 on v = sum_c x_c space.rows[c].
    """
    field = space.field
    kern = solve_sparse(rows, [field.zero()] * len(rows), space.dim, field)[1]
    return Subspace._span(field, space.ambient, (space._combine(kv.items()).items() for kv in kern))


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Row space with a canonical (reduced row echelon) basis: ``sparse_rows[k]`` maps column j to entry j of row k.

    The rows are the eliminator's, nonzeros only and sorted by pivot; ``rows``
    is the dense view.  ``_span`` takes the field's own scalars as they are.
    One residue routine, ``_residue``, serves ``coords``, ``reduce``,
    ``contains``, ``<=``, ``intersect`` and ``matrix_of``.
    """

    __slots__ = ("field", "ambient", "pivots", "sparse_rows")

    @classmethod
    def _span(cls, field, ambient, rows):
        """The span in field^ambient of rows of (column, scalar) pairs over the field's own scalars."""
        reduced = _reduce(rows, field, ambient)
        space = object.__new__(cls)
        space.field, space.ambient, space.pivots = field, ambient, tuple(sorted(reduced))
        space.sparse_rows = tuple(reduced[c] for c in space.pivots)
        return space

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        """The span of ``vectors`` in field^ambient; InvalidOperand unless each has ambient entries."""
        return cls._span(field, ambient, [_entries(field, v, ambient) for v in vectors])

    @classmethod
    def full(cls, field, n):
        """The whole of field^n with the identity basis."""
        one = field.one()
        return cls._span(field, n, (((i, one),) for i in range(_size(n, "size"))))

    @property
    def rows(self):
        """The dense basis rows, as a tuple of tuples."""
        zero, width = self.field.zero(), range(self.ambient)
        return tuple(tuple(row.get(j, zero) for j in width) for row in self.sparse_rows)

    @property
    def dim(self):
        return len(self.sparse_rows)

    def _residue(self, pairs):
        """(c, r) for the vector v with nonzeros ``pairs``: c maps k to v at pivot k (row k is 1 there, 0 at
        the other pivots), nonzeros only and k increasing, and r = v - sum_k c_k rows[k] is a sparse dict,
        empty iff v lies in the span.  Reads only the nonzeros of v and of the rows with c_k != 0."""
        zero = self.field.zero()
        r = {j: x for j, x in pairs if x}
        coeffs = {}
        for k, (p, row) in enumerate(zip(self.pivots, self.sparse_rows)):
            if p in r:
                c = coeffs[k] = r.pop(p)
                _subtract(r, c, row, p, zero)
        return coeffs, r

    def coords(self, v):
        """Coefficients of the dense vector v in the canonical basis, or None if v outside."""
        coeffs, rest = self._residue(_entries(self.field, v, self.ambient))
        return None if rest else tuple(coeffs.get(k, self.field.zero()) for k in range(self.dim))

    def _combine(self, pairs):
        """sum_k c rows[k] over the (k, c) pairs, a sparse dict; reads only nonzero coefficients and entries."""
        zero, v, rows = self.field.zero(), {}, self.sparse_rows
        for k, c in pairs:
            if c:
                for j, y in rows[k].items():
                    v[j] = v.get(j, zero) + c * y
        return {j: x for j, x in v.items() if x}

    def vector(self, coeffs):
        """sum_k coeffs[k] rows[k] as a tuple, the inverse of ``coords``; one coefficient per basis row."""
        zero, v = self.field.zero(), self._combine(_entries(self.field, coeffs, self.dim, "coefficient vector"))
        return tuple(v.get(j, zero) for j in range(self.ambient))

    def contains(self, v):
        return not self._residue(_entries(self.field, v, self.ambient))[1]

    def _has(self, x):
        """``contains`` for a sparse vector x (column -> scalar)."""
        return not self._residue(x.items())[1]

    def reduce(self, v):
        """Residual of v modulo the subspace (zero iff contained)."""
        rest = self._residue(_entries(self.field, v, self.ambient))[1]
        return tuple(rest.get(j, self.field.zero()) for j in range(self.ambient))

    def matrix_of(self, images):
        """The matrix, in this basis, of the map sending basis row k to the dense vector images[k], or None
        when an image lies outside."""
        images = [_entries(self.field, v, self.ambient, "image") for v in images]
        if len(images) != self.dim:
            raise InvalidOperand(f"{len(images)} images for a basis of {self.dim} rows")
        return self._matrix_of(images)

    def _matrix_of(self, images):
        """``matrix_of`` for images given by their (column, scalar) pairs, one per basis row."""
        rows = [{} for _ in self.sparse_rows]
        for i, pairs in enumerate(images):
            coeffs, rest = self._residue(pairs)
            if rest:
                return None
            for k, c in coeffs.items():
                rows[k][i] = c
        return Matrix._sums(self.field, rows, len(rows))

    def __eq__(self, other):
        return isinstance(other, Subspace) and (self.ambient, self.sparse_rows) == (other.ambient, other.sparse_rows)

    def __hash__(self):
        return hash((self.ambient, tuple(frozenset(row.items()) for row in self.sparse_rows)))

    def __le__(self, other):
        return not any(other._residue(row.items())[1] for row in self.sparse_rows)

    def _same_ambient(self, other):
        if self.ambient != other.ambient:
            raise InvalidOperand(f"ambient dimensions {self.ambient} and {other.ambient} differ")

    def plus(self, other):
        self._same_ambient(other)
        return Subspace._span(self.field, self.ambient, map(dict.items, self.sparse_rows + other.sparse_rows))

    def intersect(self, other):
        """{v in self : v reduces to 0 modulo other}, the kernel of that reduction on self."""
        self._same_ambient(other)
        residues = Matrix._of(self.field, tuple(other._residue(r.items())[1] for r in self.sparse_rows), self.ambient)
        return kernel_on(self, [row for row in residues.transpose().sparse_rows if row])

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient})"
