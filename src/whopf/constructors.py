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

from .errors import FieldMismatch, InvalidPresentation, NotSeparable, Singular, TraceConditionViolated
from .fields import QQ
from .linalg import Matrix, Subspace, invert
from .wha import WeakHopfAlgebra, _pruned

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
    source(i) == target(j)), absent otherwise.
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


def pair_groupoid(n_objects):
    """Pair groupoid: one morphism (a, b) from b to a for every object pair."""
    objs = tuple(range(n_objects))
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
    return Groupoid(objs, tuple(morphs), tuple(src), tuple(tgt), compose, tuple(inverse), identity).check()


def one_object_groupoid(table, labels=None):
    """A finite group (multiplication table of indices) as a one-object groupoid."""
    n = len(table)
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
    return Groupoid(
        (0,), tuple(labels), (0,) * n, (0,) * n, compose, tuple(inverse), {0: eye}
    ).check()


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
    return Groupoid(objs, morphs, src, tgt, compose, inverse, identity).check()


def cyclic_table(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table(n):
    """Multiplication table of the symmetric group on n letters (composition)."""
    import itertools

    perms = sorted(itertools.permutations(range(n)))
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
    s = [[one if i == g.inverse[j] else zero for j in range(n)] for i in range(n)]
    return WeakHopfAlgebra(
        field, g.morphisms, mult, unit, comult, counit,
        antipode=Matrix(field, s), name=name or f"k[{len(g.objects)}-obj groupoid]",
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
    s = [[one if i == g.inverse[j] else zero for j in range(n)] for i in range(n)]
    return WeakHopfAlgebra(
        field, labels, mult, unit, comult, counit,
        antipode=Matrix(field, s), name=name or "functions",
    )


def group_algebra(table, field=QQ, labels=None, name=None):
    """Group algebra k[Gamma] for a finite group multiplication table."""
    return groupoid_algebra(one_object_groupoid(table, labels), field, name=name or "k[group]")


def matrix_wha(n, field=QQ, labels=None, name=None):
    """M_n with matrix-unit group-like comultiplication (pair groupoid algebra)."""
    if n < 1:
        raise InvalidPresentation(f"M_n needs n >= 1, got {n}")
    g = pair_groupoid(n)
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
        self.blocks = tuple(int(b) for b in self.blocks)
        if any(b < 1 for b in self.blocks):
            raise InvalidPresentation("block sizes must be positive")
        r = len(self.blocks)
        if self.core_partition is None:
            self.core_partition = (tuple(range(r)),)
        parts = [tuple(p) for p in self.core_partition]
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
        self.dim = len(self.units)

    def unit_product(self, u, v):
        """Product of two matrix units: (index, None) or None."""
        (bi, a, b), (bj, c, d) = u, v
        if bi != bj or b != c:
            return None
        return (bi, a, d)

    def vector_of_blocks(self, blocks_matrices, field):
        vec = [field.zero()] * self.dim
        for bi, blk in enumerate(blocks_matrices):
            n = self.blocks[bi]
            for a in range(n):
                for b in range(n):
                    vec[self.index[(bi, a, b)]] = field.coerce(blk[a][b])
        return vec


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
    u a (x) vbar - u (x) (a v)bar for a in A.  The quotient basis is the first
    independent images of the standard product basis (echelon order), so the
    construction is deterministic.
    """
    _check_trace_condition(pres)
    blk = _BlockAlgebra(pres.blocks)
    nb = blk.dim
    dim_big = nb * nb
    zero, one = field.zero(), field.one()

    # A basis: sums of block identities over each partition part.
    a_basis = []
    for part in pres.core_partition:
        vec = [zero] * nb
        for bi in part:
            n = pres.blocks[bi]
            for a in range(n):
                vec[blk.index[(bi, a, a)]] = one
        a_basis.append(vec)

    # Relation span: for every pair of B-units (u, v) and every A-basis a:
    #   (u a) (x) vbar - u (x) (a v)bar
    relations = []
    for avec in a_basis:
        nz = [(i, c) for i, c in enumerate(avec) if c]
        for iu, u in enumerate(blk.units):
            for iv, v in enumerate(blk.units):
                rel = [zero] * dim_big
                touched = False
                for ia, c in nz:
                    ua = blk.unit_product(u, blk.units[ia])
                    if ua is not None:
                        rel[blk.index[ua] * nb + iv] += c
                        touched = True
                    av = blk.unit_product(blk.units[ia], v)
                    if av is not None:
                        rel[iu * nb + blk.index[av]] -= c
                        touched = True
                if touched and any(rel):
                    relations.append(rel)
    rel_space = Subspace.from_vectors(field, dim_big, relations)

    # Quotient basis: the standard pairs off the pivot columns of the relation
    # space, in order.  Each relation is zero or +-e_x, because a is a sum of
    # block identities, so the relation space is a coordinate subspace and
    # these pairs are exactly the ones whose images stay independent.
    pivots = set(rel_space.pivots)
    basis_pairs = [divmod(pos, nb) for pos in range(dim_big) if pos not in pivots]
    dim = len(basis_pairs)
    pair_pos = {p: t for t, p in enumerate(basis_pairs)}

    def project(vec):
        """Reduce a B (x) B^op vector to quotient coordinates."""
        red = rel_space.reduce(vec)
        out = [zero] * dim
        # rel_space.reduce leaves a vector supported off the pivot columns of
        # the relation space; those columns are exactly the chosen basis pairs.
        for pos, c in enumerate(red):
            if c:
                iu, iv = divmod(pos, nb)
                out[pair_pos[(iu, iv)]] += c
        return out

    def project_pair(iu, iv, coeff=one):
        vec = [zero] * dim_big
        vec[iu * nb + iv] = coeff
        return project(vec)

    # multiplication: class(u, v) class(u', v') = class(u u', v' v)
    mult = {}
    for t1, (iu, iv) in enumerate(basis_pairs):
        u, v = blk.units[iu], blk.units[iv]
        for t2, (ju, jv) in enumerate(basis_pairs):
            uu = blk.unit_product(u, blk.units[ju])
            if uu is None:
                continue
            vv = blk.unit_product(blk.units[jv], v)
            if vv is None:
                continue
            cell = {}
            for k, c in enumerate(project_pair(blk.index[uu], blk.index[vv])):
                if c:
                    cell[k] = c
            if cell:
                mult[(t1, t2)] = cell

    # unit = class(1, 1)
    eye = [zero] * nb
    for bi, n in enumerate(pres.blocks):
        for a in range(n):
            eye[blk.index[(bi, a, a)]] = one
    unit_vec = [zero] * dim
    for iu, cu in enumerate(eye):
        if not cu:
            continue
        for iv, cv in enumerate(eye):
            if cv:
                contrib = project_pair(iu, iv, cu * cv)
                unit_vec = [x + y for x, y in zip(unit_vec, contrib)]

    g_vec = blk.vector_of_blocks(pres.g, field)
    g_inv_blocks = [_invert_block(b) for b in pres.g]
    g_inv_vec = blk.vector_of_blocks([m.rows for m in g_inv_blocks], field)

    def b_mul(x, y):
        out = [zero] * nb
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if yj:
                    p = blk.unit_product(blk.units[i], blk.units[j])
                    if p is not None:
                        out[blk.index[p]] += xi * yj
        return out

    def b_trace_reg(x):
        # regular trace of B: sum over blocks of n_i * matrix trace
        tr = zero
        for bi, n in enumerate(pres.blocks):
            for a in range(n):
                tr += n * x[blk.index[(bi, a, a)]]
        return tr

    # counit: eps(class(u, v)) = Tr_reg(g^{-1} v u)
    counit = []
    for (iu, iv) in basis_pairs:
        u = [one if t == iu else zero for t in range(nb)]
        v = [one if t == iv else zero for t in range(nb)]
        counit.append(b_trace_reg(b_mul(g_inv_vec, b_mul(v, u))))

    # comultiplication: Delta(class(u, v)) = sum_e class(u, g e1) (x) class(e2, v)
    sep = separability_element(pres, field)
    comult = [dict() for _ in range(dim)]
    for t, (iu, iv) in enumerate(basis_pairs):
        acc = {}
        for (ie1, ie2, w) in sep:
            ge1 = b_mul(g_vec, [one if t2 == ie1 else zero for t2 in range(nb)])
            left_big = [zero] * dim_big
            for ig, cg in enumerate(ge1):
                if cg:
                    left_big[iu * nb + ig] += cg
            left = project(left_big)
            right = project_pair(ie2, iv)
            for a, ca in enumerate(left):
                if not ca:
                    continue
                for b, cb in enumerate(right):
                    if cb:
                        acc[a, b] = acc.get((a, b), zero) + w * ca * cb
        comult[t] = _pruned(acc)

    # antipode: S(class(u, v)) = class(g^{-1} v g, u)
    s_cols = []
    for (iu, iv) in basis_pairs:
        v = [one if t2 == iv else zero for t2 in range(nb)]
        gvg = b_mul(g_inv_vec, b_mul(v, g_vec))
        big = [zero] * dim_big
        for ig, cg in enumerate(gvg):
            if cg:
                big[ig * nb + iu] += cg
        s_cols.append(project(big))
    s_mat = Matrix.from_columns(field, s_cols)

    labels = [f"{_unit_label(blk, iu)}.{_unit_label(blk, iv)}~" for (iu, iv) in basis_pairs]
    return WeakHopfAlgebra(
        field, labels, mult, unit_vec, comult, counit, antipode=s_mat,
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
    rows = []
    for b in ht.rows:
        rows.append(ht.coords(h.mul_vec(md.g.coeffs, b)))
    m = Matrix(h.field, rows).transpose()
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
