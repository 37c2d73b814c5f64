"""Builders for the weak Hopf algebra zoo.

Groupoid algebras kG carry the group-like structure Delta(g) = g (x) g,
eps(g) = 1, S(g) = g^{-1}; their duals are the function algebras on G.
Minimal weak Hopf algebras are built from classifying data (B, A, g): a
split semisimple algebra B given by block sizes, a central subalgebra A
given by a partition of the blocks, and an invertible g in B whose trace in
every irreducible representation equals that representation's degree.  The
underlying algebra is B tensor_A B^op and the coalgebra structure is written
through the unique two-sided separability element of B.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FieldMismatch, Inconsistent, InvalidPresentation, NotSeparable, Singular, TraceConditionViolated
from .fields import QQ
from .linalg import Matrix, invert
from .wha import WeakHopfAlgebra

__all__ = [
    "Groupoid",
    "SemisimplePresentation",
    "function_algebra",
    "group_algebra",
    "groupoid_algebra",
    "matrix_wha",
    "minimal_wha",
    "pair_groupoid",
    "one_object_groupoid",
    "disjoint_union",
    "cyclic_table",
    "symmetric_table",
    "separability_element",
    "spectrum_invariant",
    "sweedler_hopf",
    "tensor_product",
]


# ---------------------------------------------------------------------------
# groupoids


@dataclass
class Groupoid:
    """Finite groupoid: morphism list with source/target, composition, inverses.

    ``compose[(i, j)]`` is the index of morphism i o j when defined (i.e. when
    source(i) == target(j)), absent otherwise.  ``groupoid_algebra`` and
    ``function_algebra`` ``check`` every groupoid they get, once.
    """

    objects: tuple
    morphisms: tuple  # labels
    source: tuple
    target: tuple
    compose: dict
    inverse: tuple
    identity: dict  # object -> identity morphism index

    def check(self):
        n = len(self.morphisms)
        if not len(self.source) == len(self.target) == len(self.inverse) == n:
            raise InvalidPresentation(f"{n} morphism labels for {len(self.source)} morphisms")
        for (i, j), k in self.compose.items():
            if self.source[i] != self.target[j]:
                raise InvalidPresentation(f"composition {i}o{j} defined but types mismatch")
            if self.source[k] != self.source[j] or self.target[k] != self.target[i]:
                raise InvalidPresentation(f"composition {i}o{j} has wrong type")
        for i in range(n):
            for j in range(n):
                if self.source[i] == self.target[j] and (i, j) not in self.compose:
                    raise InvalidPresentation(f"missing composition {i}o{j}")
        for x in self.objects:
            e = self.identity[x]
            if self.source[e] != x or self.target[e] != x:
                raise InvalidPresentation(f"identity of {x} has wrong type")
        for i in range(n):
            j = self.inverse[i]
            if self.compose.get((i, j)) != self.identity[self.target[i]]:
                raise InvalidPresentation(f"{i} o {i}^-1 is not an identity")
            if self.compose.get((j, i)) != self.identity[self.source[i]]:
                raise InvalidPresentation(f"{i}^-1 o {i} is not an identity")
        # associativity on all composable triples
        for (i, j) in self.compose:
            for k in range(n):
                if (j, k) in self.compose:
                    if self.compose[(self.compose[(i, j)], k)] != self.compose[(i, self.compose[(j, k)])]:
                        raise InvalidPresentation(f"non-associative at ({i},{j},{k})")
        return self


def _size(n, need):
    """n, once it is an int (not a bool) of at least 1; else InvalidPresentation "<need>, got <n>"."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidPresentation(f"{need}, got {n!r}")
    return n


def pair_groupoid(n_objects):
    """Pair groupoid: one morphism (a, b) from b to a for every object pair."""
    objs = tuple(range(_size(n_objects, "a pair groupoid needs n >= 1 objects")))
    morphs = []
    src, tgt = [], []
    index = {}
    for a in objs:
        for b in objs:
            index[(a, b)] = len(morphs)
            morphs.append(f"m{a + 1}{b + 1}")
            tgt.append(a)
            src.append(b)
    compose = {}
    for a in objs:
        for b in objs:
            for c in objs:
                compose[(index[(a, b)], index[(b, c)])] = index[(a, c)]
    inverse = [index[(b, a)] for (a, b) in sorted(index, key=index.get)]
    identity = {a: index[(a, a)] for a in objs}
    return Groupoid(objs, tuple(morphs), tuple(src), tuple(tgt), compose, tuple(inverse), identity)


def one_object_groupoid(table, labels=None):
    """A finite group (multiplication table of indices) as a one-object groupoid."""
    n = len(table)
    shaped = all(isinstance(row, (list, tuple)) and len(row) == n for row in table)
    if not shaped or not all(isinstance(k, int) and 0 <= k < n for row in table for k in row):
        raise InvalidPresentation(f"a group table needs {n} rows of {n} indices in range({n})")
    labels = labels or [f"g{i}" for i in range(n)]
    eye = None
    for e in range(n):
        if all(table[e][j] == j and table[j][e] == j for j in range(n)):
            eye = e
    if eye is None:
        raise InvalidPresentation("table has no identity")
    inverse = []
    for i in range(n):
        inv = [j for j in range(n) if table[i][j] == eye and table[j][i] == eye]
        if len(inv) != 1:
            raise InvalidPresentation(f"element {i} lacks a unique inverse")
        inverse.append(inv[0])
    compose = {(i, j): table[i][j] for i in range(n) for j in range(n)}
    return Groupoid((0,), tuple(labels), (0,) * n, (0,) * n, compose, tuple(inverse), {0: eye})


def disjoint_union(g1, g2):
    """Disjoint union of two groupoids."""
    n1 = len(g1.morphisms)
    objs = tuple((0, x) for x in g1.objects) + tuple((1, x) for x in g2.objects)
    morphs = tuple(f"a.{m}" for m in g1.morphisms) + tuple(f"b.{m}" for m in g2.morphisms)
    src = tuple((0, x) for x in g1.source) + tuple((1, x) for x in g2.source)
    tgt = tuple((0, x) for x in g1.target) + tuple((1, x) for x in g2.target)
    compose = dict(g1.compose)
    for (i, j), k in g2.compose.items():
        compose[(i + n1, j + n1)] = k + n1
    inverse = tuple(g1.inverse) + tuple(k + n1 for k in g2.inverse)
    identity = {(0, x): k for x, k in g1.identity.items()}
    identity.update({(1, x): k + n1 for x, k in g2.identity.items()})
    return Groupoid(objs, morphs, src, tgt, compose, inverse, identity)


def cyclic_table(n):
    _size(n, "Z_n needs n >= 1")
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table(n):
    """Multiplication table of the symmetric group on n letters (composition)."""
    import itertools

    perms = sorted(itertools.permutations(range(_size(n, "S_n needs n >= 1"))))
    index = {p: i for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            comp = tuple(p[q[i]] for i in range(n))
            row.append(index[comp])
        table.append(row)
    return table


def groupoid_algebra(g, field=QQ, name=None):
    """Groupoid algebra kG with group-like comultiplication on morphisms."""
    g.check()
    n = len(g.morphisms)
    one, zero = field.one(), field.zero()
    mult = {(i, j): {k: one} for (i, j), k in g.compose.items()}
    comult = [{(i, i): one} for i in range(n)]
    unit = [zero] * n
    for e in g.identity.values():
        unit[e] = one
    counit = [one] * n
    return WeakHopfAlgebra(
        field, g.morphisms, mult, unit, comult, counit,
        antipode=_inverse_antipode(g, field), name=name or f"k[{len(g.objects)}-obj groupoid]",
    )


def function_algebra(g, field=QQ, name=None):
    """Algebra of functions on a finite groupoid (idempotents p_g)."""
    g.check()
    n = len(g.morphisms)
    one, zero = field.one(), field.zero()
    labels = tuple(f"p_{m}" for m in g.morphisms)
    mult = {(i, i): {i: one} for i in range(n)}
    comult = [dict() for _ in range(n)]
    for (u, v), w in g.compose.items():
        comult[w][(u, v)] = one
    unit = [one] * n
    identities = set(g.identity.values())
    counit = [one if i in identities else zero for i in range(n)]
    return WeakHopfAlgebra(
        field, labels, mult, unit, comult, counit,
        antipode=_inverse_antipode(g, field), name=name or "functions",
    )


def _inverse_antipode(g, field):
    """S(e_j) = e_(j^-1), for the groupoid algebra and the function algebra alike: one entry per row."""
    rows = tuple({} for _ in g.morphisms)
    for j, i in enumerate(g.inverse):
        rows[i][j] = field.one()
    return Matrix._of(field, rows, len(rows))


def group_algebra(table, field=QQ, labels=None, name=None):
    """Group algebra k[Gamma] for a finite group multiplication table."""
    return groupoid_algebra(one_object_groupoid(table, labels), field, name=name or "k[group]")


def matrix_wha(n, field=QQ, labels=None, name=None):
    """M_n with matrix-unit group-like comultiplication (pair groupoid algebra)."""
    g = pair_groupoid(_size(n, "M_n needs n >= 1"))
    if labels:
        g = Groupoid(g.objects, tuple(labels), g.source, g.target, g.compose, g.inverse, g.identity)
    return groupoid_algebra(g, field, name=name or f"M{n}-wha")


# ---------------------------------------------------------------------------
# minimal weak Hopf algebras H_min(B, A, g)


@dataclass
class SemisimplePresentation:
    """Split semisimple B = sum of matrix blocks, central A, invertible g.

    ``blocks`` are the matrix sizes n_1..n_r.  ``core_partition`` partitions
    the block indices; A is spanned by the sums of block identities over each
    part (the unital subalgebras of Z(B) = k^r are exactly these).  ``g`` is
    given blockwise, each entry an n_i x n_i matrix of rationals (or a list of
    diagonal entries).
    """

    blocks: tuple
    core_partition: tuple = None  # default: single part = k1
    g: tuple = None  # default: identity

    def __post_init__(self):
        self.blocks = tuple(self.blocks)
        if any(type(b) is bool or not isinstance(b, int) for b in self.blocks):
            raise InvalidPresentation(f"block sizes must be integers, got {self.blocks!r}")
        if any(b < 1 for b in self.blocks):
            raise InvalidPresentation("block sizes must be positive")
        r = len(self.blocks)
        if self.core_partition is None:
            self.core_partition = (tuple(range(r)),)
        parts = [tuple(p) for p in self.core_partition]
        if not all(parts):
            raise InvalidPresentation("core partition has an empty part")
        seen = sorted(i for p in parts for i in p)
        if seen != list(range(r)):
            raise InvalidPresentation("core partition must partition the block indices")
        self.core_partition = tuple(parts)
        if self.g is None:
            self.g = tuple(_eye_block(n) for n in self.blocks)
        else:
            if len(self.g) != r:
                raise InvalidPresentation(f"g has {len(self.g)} blocks for {r} block sizes")
            gs = []
            for n, blk in zip(self.blocks, self.g):
                blk = list(blk)
                if blk and not isinstance(blk[0], (list, tuple)):
                    if len(blk) != n:
                        raise InvalidPresentation("diagonal g block has wrong size")
                    blk = [[QQ.coerce(blk[i]) if i == j else QQ.zero() for j in range(n)] for i in range(n)]
                else:
                    blk = [[QQ.coerce(x) for x in row] for row in blk]
                    if len(blk) != n or any(len(row) != n for row in blk):
                        raise InvalidPresentation("g block has wrong shape")
                gs.append(tuple(tuple(row) for row in blk))
            self.g = tuple(gs)


def _eye_block(n):
    return tuple(tuple(QQ.one() if i == j else QQ.zero() for j in range(n)) for i in range(n))


class _BlockAlgebra:
    """Index bookkeeping for B = directsum M_{n_i}: basis = matrix units."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.index = {}
        self.units = []
        for bi, n in enumerate(blocks):
            for a in range(n):
                for b in range(n):
                    self.index[(bi, a, b)] = len(self.units)
                    self.units.append((bi, a, b))

    def unit_product(self, u, v):
        """Product of two matrix units (block, row, column): a unit triple, or None for zero."""
        (bi, a, b), (bj, c, d) = u, v
        if bi != bj or b != c:
            return None
        return (bi, a, d)


def separability_element(pres, field=QQ):
    """The unique two-sided separability element of split semisimple B.

    For a block M_n the element is (1/n) sum_{a,b} E_ab (x) E_ba; blocks sum.
    Returned as a list of (unit_index_1, unit_index_2, coefficient).
    """
    blk = _BlockAlgebra(pres.blocks)
    out = []
    for bi, n in enumerate(pres.blocks):
        w = field.div(field.one(), field.from_int(n))
        if not w:
            raise NotSeparable("block size vanishes in the field")
        for a in range(n):
            for b in range(n):
                out.append((blk.index[(bi, a, b)], blk.index[(bi, b, a)], w))
    return out


def _check_trace_condition(pres):
    # Tr(pi_i(g)) = n_i per block, stated on the regular trace as
    # Tr_reg(p_i g) = n_i^2.
    for n, blk in zip(pres.blocks, pres.g):
        tr = sum(blk[a][a] for a in range(n))
        if tr != n:
            raise TraceConditionViolated(f"block of size {n} has Tr(g) = {tr}")


def _invert_block(blk):
    try:
        return invert(Matrix(QQ, [list(row) for row in blk]))
    except Singular as exc:
        raise InvalidPresentation(f"g block not invertible: {exc}") from exc


def minimal_wha(pres, field=QQ, name=None):
    """Minimal weak Hopf algebra from classifying data (B, A, g).

    The algebra is B tensor_A B^op: the quotient of B (x) B^op by the span of
    u a (x) vbar - u (x) (a v)bar for a in A.  A is spanned by the sums 1_P of
    block identities over the parts P of the core partition, so for matrix
    units u and v the relation of 1_P is ([block(u) in P] - [block(v) in P])
    u (x) vbar.  The relations are therefore exactly the pairs of matrix units
    whose blocks lie in different parts, and the quotient basis is the classes
    of the pairs whose blocks lie in one part, in product-basis order; a pair
    outside that basis is zero in the quotient.
    """
    _check_trace_condition(pres)
    blk = _BlockAlgebra(pres.blocks)
    units, index = blk.units, blk.index
    zero, one = field.zero(), field.one()
    part = {bi: p for p, members in enumerate(pres.core_partition) for bi in members}
    basis_pairs = [
        (iu, iv)
        for iu, u in enumerate(units)
        for iv, v in enumerate(units)
        if part[u[0]] == part[v[0]]
    ]
    pos = {pair: t for t, pair in enumerate(basis_pairs)}

    # multiplication: class(u, v) class(u', v') = class(u u', v' v), whose
    # blocks are those of (u, v)
    mult = {}
    for t1, (iu, iv) in enumerate(basis_pairs):
        for t2, (ju, jv) in enumerate(basis_pairs):
            uu = blk.unit_product(units[iu], units[ju])
            vv = blk.unit_product(units[jv], units[iv])
            if uu is not None and vv is not None:
                mult[t1, t2] = {pos[index[uu], index[vv]]: one}

    # unit = class(1, 1), the sum of the classes of pairs of diagonal units
    diagonal = [a == b for _, a, b in units]
    unit = [one if diagonal[iu] and diagonal[iv] else zero for iu, iv in basis_pairs]

    g = [[[field.coerce(x) for x in row] for row in b] for b in pres.g]
    g_inv = [_invert_block(b) for b in pres.g]

    # counit: eps(class(u, v)) = Tr_reg(g^{-1} v u); for u = E_ab and v = E_cd
    # in block i, v u = [d = a] E_cb and Tr_reg(g^{-1} E_cb) = n_i (g^{-1})_bc
    counit = []
    for iu, iv in basis_pairs:
        (bi, a, b), (bj, c, d) = units[iu], units[iv]
        counit.append(pres.blocks[bi] * field.coerce(g_inv[bi][b, c]) if bi == bj and d == a else zero)

    # comultiplication: Delta(class(u, v)) = sum_e class(u, g e1) (x) class(e2, v)
    # over the separability element e, with g E_ab = sum_x g_xa E_xb; both
    # classes are basis classes when the block of e lies in the part of (u, v),
    # and zero otherwise (the constructor drops the zero coefficients)
    sep = separability_element(pres, field)
    comult = []
    for iu, iv in basis_pairs:
        acc = {}
        for ie1, ie2, w in sep:
            right = pos.get((ie2, iv))
            if right is None:
                continue
            bi, a, b = units[ie1]
            for x in range(pres.blocks[bi]):
                acc[pos[iu, index[bi, x, b]], right] = w * g[bi][x][a]
        comult.append(acc)

    # antipode: S(class(u, v)) = class(g^{-1} v g, u); for v = E_cd,
    # g^{-1} v g = sum_{x,y} (g^{-1})_xc g_dy E_xy
    s_rows = [{} for _ in basis_pairs]
    for t, (iu, iv) in enumerate(basis_pairs):
        bj, c, d = units[iv]
        for x in range(pres.blocks[bj]):
            for y in range(pres.blocks[bj]):
                s_rows[pos[index[bj, x, y], iu]][t] = field.coerce(g_inv[bj][x, c]) * g[bj][d][y]

    labels = [f"{_unit_label(blk, iu)}.{_unit_label(blk, iv)}~" for (iu, iv) in basis_pairs]
    return WeakHopfAlgebra(
        field, labels, mult, unit, comult, counit, antipode=Matrix._sums(field, s_rows, len(basis_pairs)),
        name=name or f"Hmin{pres.blocks}",
    )


def _unit_label(blk, idx):
    bi, a, b = blk.units[idx]
    if len(blk.blocks) == 1:
        return f"E{a + 1}{b + 1}"
    return f"B{bi + 1}E{a + 1}{b + 1}"


def spectrum_invariant(h):
    """Characteristic polynomial of left multiplication by g on H_t.

    Minimal weak Hopf algebras with different invariants are non-isomorphic
    (spectra of g are preserved by any isomorphism); equal invariants decide
    nothing.
    """
    from .wha import minimal_data

    md = minimal_data(h)
    ht = md.target
    m = ht._matrix_of(h._mul(md.g.terms, b).items() for b in ht.sparse_rows)
    if m is None:
        raise Inconsistent("H_t not invariant under left multiplication by g")
    return _char_poly(m)


def _char_poly(m):
    """Characteristic polynomial coefficients via exact Faddeev-LeVerrier."""
    n = m.nrows
    field = m.field
    coeffs = [field.one()]  # leading
    mk = Matrix.identity(field, n)
    for k in range(1, n + 1):
        mk = m @ mk
        ck = field.div(-mk.trace(), field.from_int(k))
        coeffs.append(ck)
        if k < n:
            mk = mk + Matrix.identity(field, n).scale(ck)
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# tensor products and negative controls


def tensor_product(h1, h2, name=None):
    """Componentwise tensor product weak Hopf algebra; index (i, j) -> i*dim2 + j."""
    if h1.field != h2.field:
        raise FieldMismatch("tensor factors over different fields")
    field = h1.field
    n1, n2 = h1.dim, h2.dim
    dim = n1 * n2
    labels = [f"{a}|{b}" for a in h1.labels for b in h2.labels]
    mult = {}
    for (i1, j1), cell1 in h1.mult.items():
        for (i2, j2), cell2 in h2.mult.items():
            cell = {}
            for k1, c1 in cell1.items():
                for k2, c2 in cell2.items():
                    cell[k1 * n2 + k2] = c1 * c2
            mult[(i1 * n2 + i2, j1 * n2 + j2)] = cell
    comult = [dict() for _ in range(dim)]
    for i1 in range(n1):
        for i2 in range(n2):
            acc = comult[i1 * n2 + i2]
            for (j1, k1), c1 in h1.comult[i1].items():
                for (j2, k2), c2 in h2.comult[i2].items():
                    acc[(j1 * n2 + j2, k1 * n2 + k2)] = c1 * c2
    unit = [a * b for a in h1.unit for b in h2.unit]
    counit = [a * b for a in h1.counit for b in h2.counit]
    s = h1.S.kronecker(h2.S) if (h1.antipode is not None and h2.antipode is not None) else None
    return WeakHopfAlgebra(
        field, labels, mult, unit, comult, counit, antipode=s,
        name=name or f"{h1.name}(x){h2.name}",
    )


def sweedler_hopf(field=QQ):
    """The four-dimensional non-semisimple Hopf algebra (negative control).

    Basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx; Delta(g) = g (x) g,
    Delta(x) = x (x) 1 + g (x) x, S(g) = g, S(x) = -gx.
    """
    one, zero = field.one(), field.zero()
    minus = field.from_int(-1)
    E, G, X, GX = 0, 1, 2, 3
    mult = {
        (E, E): {E: one}, (E, G): {G: one}, (E, X): {X: one}, (E, GX): {GX: one},
        (G, E): {G: one}, (G, G): {E: one}, (G, X): {GX: one}, (G, GX): {X: one},
        (X, E): {X: one}, (X, G): {GX: minus}, (X, X): {}, (X, GX): {},
        (GX, E): {GX: one}, (GX, G): {X: minus}, (GX, X): {}, (GX, GX): {},
    }
    # x*x = 0 and x*gx = x(gx) = (xg)x = -gxx = 0; gx*x = g x x = 0; gx*gx = g(xg)x = -x x = 0
    comult = [
        {(E, E): one},
        {(G, G): one},
        {(X, E): one, (G, X): one},
        # Delta(gx) = Delta(g)Delta(x) = (g(x)g)(x(x)1 + g(x)x) = gx (x) g + e (x) gx
        {(GX, G): one, (E, GX): one},
    ]
    unit = [one, zero, zero, zero]
    counit = [one, one, zero, zero]
    # columns are S(e_j): S(x) = -gx and S(gx) = S(x)S(g) = -gxg = x
    s_mat = Matrix(field, [
        [one, zero, zero, zero],
        [zero, one, zero, zero],
        [zero, zero, zero, one],
        [zero, zero, minus, zero],
    ])
    return WeakHopfAlgebra(
        field, ("e", "g", "x", "gx"), mult, unit, comult, counit,
        antipode=s_mat, name="sweedler4",
    )
