"""The sparse axiom, trace-form, integral and group-like kernels against brute force.

Each oracle below is the plain textbook form of a kernel: associativity,
multiplicativity and coassociativity scanned over every basis row (the
library scans the rows of a generating set), the weak-unit products as full
triple tensors, the weak-counit identity over all n^3 basis triples (and
for both weak axioms a sparse form that folds the unit slots or tabulates
E2 per g, fast enough for the dim-27 dyn-z3), the antipode axioms from dense products of basis vectors and
columns of S, the trace form from dense products of left multiplication
matrices, the integral and centralizer systems from dense difference
matrices, the dual arrows from transposed multiplication matrices, pairing
tables and the dual group-like test from products of basis vectors, and
non-degeneracy from the full rank alone.  They run on every zoo member and
on seeded single-constant corruptions of ``mult``, ``comult``, ``unit`` and
``counit`` (and of S for the antipode axioms), which include non-unital and
non-associative algebras; verdicts and witnesses must match exactly.

The group-like solves keep their dense forms too: the L_gamma/R_gamma
systems as differences of multiplication matrices, the trivial group-like
system as S^2 - I and L_g - S on H_s, the intertwiners from right
multiplication matrices, and the conjugators of an automorphism as
L_phi(e_i) - R_e_i intersected with H_min.  They run on every zoo member
with its distinguished group-likes and on the group-likes of
``test_grouplikes.py``.

The witness searches keep the loops that ``search.first`` replaced: the
invertible-element search (heights, then the grid), the non-degenerate
integral search with ``skip`` and the two-sided search, each enumerating,
assembling the vector densely and testing it in one loop.

The antipode solver keeps its earlier form, the joint system of all three
antipode axioms (3n^2 rows), as ``full_system_antipode``; the library solves
the 2n^2 target and composite rows and reads the source rows off the final
check.  Both must return the same S, or raise the same class with the same
message, on the zoo members and their duals, the ``whopf make``
constructions and the ladder members, and seeded bumps of ``mult`` and
``comult``; each branch of the solver is pinned by a small table.  The
twisted antipode is compared with the dense product L(v^{-1}) R(v) S.

``validate_full`` reuses the bialgebra checks of an algebra and the
antipode checks of an S object.  Its report, asked for twice, must equal
the uncached ``validate_weak_bialgebra`` and ``antipode_axiom_checks`` on a
fresh copy: on the zoo members and their duals, the ``whopf make``
constructions and seeded bumps.  A set antipode cannot be reassigned; a
new S taken through ``with_antipode`` after a validation is checked again,
with the verdict an uncached run gives.  ``dualize(h)`` starts with h's passing
verdicts: after h validates, the dual's report must equal the uncached one
with no scan of its own, on the zoo members and their duals, the ladder
members and the ``make`` constructions, and it must hold once h is
collected.  What makes the handover sound is checked as an oracle: the
tables of ``dualize(h)`` are h's, transposed (``_transposed``).  A
``dualize`` that bumps one constant, an h unvalidated when its dual is
built, and seeded corruptions of h make the dual run its own scans for each
kind of check that is not handed over.  No dual that ``check_member``
validates runs a scan of its own.

``Matrix.__matmul__`` is a sparse row join.  Its earlier dense body (one
dot product per output entry, ``dense_matmul``) and the table product that
``is_dual_grouplike`` used to carry (``table_product``) are kept: the three
must agree on the powers of S and S* of every zoo member, on rectangular,
zero and identity matrices and on seeded random matrices over QQ and
Q(zeta_3), and ``is_dual_grouplike`` must give the verdicts of its earlier
body.  S^2, S_inv and the dual read S once, and ``check_member`` squares
each antipode once.

The product kernels read the table through its index of nonzero products
(``mult_rows``, ``mult_cols``); their earlier bodies, which probe ``mult``
at every pair of nonzero coordinates, are kept as ``probe_*`` oracles for
``mul_vec``, the two multiplication matrices, ``mul_pair_dicts``,
``mul_triple_dicts`` and the associativity scan.  They must give equal
values, and the same first associativity witness, on the zoo members and
their duals, the ``whopf make`` constructions, the ladder members, seeded
non-associative bumps of ``mult``, a table with a basis element whose every
product is zero, and zero vectors and tensors.  The antipode solver's
target and composite rows must equal, entry order included, the rows built
from ``mult`` and the dense matrices L(eps_s(e_j)) (``probe_antipode_rows``).

The semisimplicity battery keeps its earlier bodies: the greedy generating
indices of the full space (``oracle_generating_indices``), the eager
``primitive_idempotents`` that makes every candidate p a up front
(compared in list order) with the earlier ``_min_poly_in``, which solves a
matrix of every earlier power at each degree (``solve_min_poly_in``, also
compared with the echelon one on every component the report splits), the
block traces as ``restricted_trace`` over
``Subspace.from_vectors`` of pH, pHp and H* pi, and the dense
``_invariance_failures``.  They run on every zoo member and its dual and
on the ladder members, with perturbed lambdas and rho for non-empty
invariance lists.  ``centralizer_in`` runs on generating rows and is
compared with the dense system for ``against`` in {H, H_t, H_s, H_min},
for an ``against`` that is not closed under products, and on
non-associative tables, where every row is used.

The associativity, multiplicativity, coassociativity and antipode scans run
on the integer image of the tables.  Dense tables with large numerators
stress its radix: ``rebase(h, P)`` carries mult, comult, unit, counit and
S to the basis f_a = sum_j P[j][a] e_j for a seeded unit upper triangular
P with off-diagonal entries from {0, 0, 1, -1, 2}.  On every zoo member of
dim <= 9 and its dual the rebased algebra must keep every verdict, and its
witnesses must be the oracles' over every row; seeded bumps of the members
of dim <= 6 and of S must keep failing after transport.  Bumps by 1/5,
-2/7 and 3/11 bring denominators that only some columns of eps_t or eps_s
carry, plain and transported.

``Matrix.__matmul__``, ``mul_pair_dicts`` and ``contraction_matrix`` run on
the integer images of their operands, and the unit, counit, weak-unit and
weak-counit scans on the image of the tables.  Their earlier field-scalar
bodies are kept (``field_*``): the producers must agree with them on the
zoo's own operands and on operands whose coefficients all have the largest
size a radix allows, over Q and Q(zeta_n) for n in {3, 4, 5, 7, 8, 12}; the
scans must give their verdicts and witnesses on every case above, on dyn-z3
and its corruptions, on the rebased members, on fractional bumps, plain and
rebased, and on seeded corruptions of each part of the tables a scan reads.

The mirrored pairs that share one body in the library keep one oracle per
side: eps_t and eps_s from eps(1_(1) e_i) 1_(2) and 1_(1) eps(e_i 1_(2)),
eps_s^gamma and eps_t^gamma from <gamma, x 1_(1)> S(1_(2)) and
S(1_(1)) <gamma, 1_(2) x>, the two hand-written invariance loops (also on
perturbed lambdas and rho), the arrows from convolution products of H*,
and both multiplication matrices from products of basis vectors.
"""

import gc
import itertools
import random
import sys
import weakref
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whopf.fields as fields
import whopf.grouplikes as grouplikes
import whopf.integrals as integrals
import whopf.search as search
import whopf.semisimplicity as semisimplicity
import whopf.wha as wha
import whopf.zoo as zoo
from whopf.constructors import (
    SemisimplePresentation,
    cyclic_table,
    function_algebra,
    group_algebra,
    groupoid_algebra,
    minimal_wha,
    one_object_groupoid,
    pair_groupoid,
    symmetric_table,
    tensor_product,
)
from whopf.errors import (
    Axiom26Failure,
    FieldMismatch,
    Inconsistent,
    NoAntipode,
    NonSplit,
    NotFrobenius,
    NotUnique,
    PreconditionUnmet,
    Undecidable,
    WhopfError,
)
from whopf.fields import QQ, CyclotomicField, _poly_divmod, _poly_ext_gcd, _poly_mul
from whopf.grouplikes import (
    _intertwiner_space,
    distinguished_pair,
    grouplike_automorphism,
    is_dual_grouplike,
    is_grouplike,
    is_trivial_automorphism,
    is_trivial_grouplike,
    twisted_counitals,
    twisted_integral_spaces,
)
from whopf.integrals import (
    DualPair,
    canonical_dual_pair,
    find_nondegenerate_integral,
    has_nondegenerate_two_sided_integral,
    integral_space,
    invariance_check,
    is_nondegenerate,
    nondegeneracy_matrix,
    semisimple_by_trace_form,
)
from whopf.linalg import Matrix, Subspace, kernel_on, rref, solve_sparse, try_solve
from whopf.search import height_vectors, invertible_in, max_height
from whopf.semisimplicity import primitive_idempotents, restricted_trace
from whopf.twisting import DynamicalTwistData, Twist, dynamical_theta, regularize, twist, twist_conjugator
from whopf.wha import (
    Element,
    Functional,
    ValidationReport,
    WeakHopfAlgebra,
    antipode_axiom_checks,
    generating_rows,
    solve_antipode,
    validate_full,
    validate_weak_bialgebra,
)
from whopf.zoo import ZOO_NAMES, build_member, check_member

MAX_DIM = 16
CORRUPTIONS_PER_MEMBER = 8


def oracle_weak_unit(h):
    zero = h.field.zero()
    d1 = h.delta_one
    lhs = {}
    for (j, k), c in d1.items():
        for (a, b), c2 in h.comult[j].items():
            key = (a, b, k)
            lhs[key] = lhs.get(key, zero) + c * c2
    lhs = {key: v for key, v in lhs.items() if v}
    one_idx = [(i, c) for i, c in enumerate(h.unit) if c]
    d1_left = {}  # Delta(1) (x) 1
    d1_right = {}  # 1 (x) Delta(1)
    for (j, k), c in d1.items():
        for i, ci in one_idx:
            d1_left[(j, k, i)] = c * ci
            d1_right[(i, j, k)] = c * ci
    mid = h.mul_triple_dicts(d1_left, d1_right)
    alt = h.mul_triple_dicts(d1_right, d1_left)
    return lhs == mid == alt


def oracle_weak_counit(h):
    """First (f, g, t) in (g, f, t) order where the three forms differ."""
    n = h.dim
    zero = h.field.zero()
    e2 = oracle_pairing_table(h, h.counit)
    for g in range(n):
        dg = list(h.comult[g].items())
        for f in range(n):
            cell = list(h.mult.get((f, g), {}).items())
            row_f = e2[f]
            for t in range(n):
                lhs = mid = alt = zero
                for k, c in cell:
                    if e2[k][t]:
                        lhs += c * e2[k][t]
                for (j, k), c in dg:
                    if row_f[j] and e2[k][t]:
                        mid += c * row_f[j] * e2[k][t]
                    if row_f[k] and e2[j][t]:
                        alt += c * row_f[k] * e2[j][t]
                if not (lhs == mid == alt):
                    return (f, g, t)
    return None


def sparse_weak_unit(h):
    """The weak-unit products with the unit slots folded into the legs of Delta(1).

    Both products of Delta(1) (x) 1 and 1 (x) Delta(1) are multilinear, so
    each unit slot folds into one leg of Delta(1) and only the middle slot
    multiplies two legs, summed over the distinct folded legs:
      mid = sum (1_(1) 1) (x) 1_(2) 1'_(1) (x) (1 1'_(2))
      alt = sum (1 1'_(1)) (x) 1_(1) 1'_(2) (x) (1_(2) 1)
    """
    zero = h.field.zero()
    d1 = h.delta_one
    lhs = {}
    for (j, k), c in d1.items():
        for (a, b), c2 in h.comult[j].items():
            lhs[(a, b, k)] = lhs.get((a, b, k), zero) + c * c2
    lhs = {key: v for key, v in lhs.items() if v}
    one_idx = [(i, c) for i, c in enumerate(h.unit) if c]

    def fold(key_leg, vec_leg, one_first):
        """Group Delta(1) by one leg; each group sums c (1 e_x) or c (e_x 1), x the other leg."""
        out = {}
        for pair, c in d1.items():
            acc = out.setdefault(pair[key_leg], {})
            for i, ci in one_idx:
                cell = h.mult.get((i, pair[vec_leg]) if one_first else (pair[vec_leg], i))
                if cell:
                    for m, cm in cell.items():
                        acc[m] = acc.get(m, zero) + c * ci * cm
        return {x: {m: v for m, v in acc.items() if v} for x, acc in out.items()}

    def middle_product(terms):
        """sum of f (x) e_x e_y (x) g over (x, y, f, g) in terms, sparse."""
        out = {}
        for x, y, f, g in terms:
            cell = h.mult.get((x, y))
            if not cell or not f or not g:
                continue
            for a, fa in f.items():
                for m, cm in cell.items():
                    for b, gb in g.items():
                        out[(a, m, b)] = out.get((a, m, b), zero) + fa * cm * gb
        return {key: v for key, v in out.items() if v}

    right_one = fold(1, 0, False)  # 1_(2) -> 1_(1) 1
    left_one = fold(0, 1, True)  # 1'_(1) -> 1 1'_(2)
    mid = middle_product((x, y, f, g) for x, f in right_one.items() for y, g in left_one.items())
    right_one = fold(0, 1, False)  # 1_(1) -> 1_(2) 1
    left_one = fold(1, 0, True)  # 1'_(2) -> 1 1'_(1)
    alt = middle_product((x, y, f, g) for y, f in left_one.items() for x, g in right_one.items())
    return lhs == mid == alt


def sparse_weak_counit(h):
    """The weak-counit identity tabulated sparsely over (f, t) for each g.

    The tables come from the nonzero rows and columns of E2[i][j] =
    eps(e_i e_j); the witness is the least (f, t) of the first g that fails.
    """
    n = h.dim
    zero = h.field.zero()
    e2_rows = [[(t, v) for t, v in enumerate(row) if v] for row in oracle_pairing_table(h, h.counit)]
    e2_cols = [[] for _ in range(n)]
    for f, row in enumerate(e2_rows):
        for j, v in row:
            e2_cols[j].append((f, v))
    cells_by_g = {}
    for (f, g), cell in h.mult.items():
        cells_by_g.setdefault(g, []).append((f, cell))

    def contract(terms):
        """(f, t) -> sum of c eps(f e_j) eps(e_k t) over (j, k, c) in terms."""
        rows = {}
        for j, k, c in terms:
            row = rows.setdefault(j, {})
            for t, w in e2_rows[k]:
                row[t] = row.get(t, zero) + c * w
        table = {}
        for j, row in rows.items():
            for f, v in e2_cols[j]:
                for t, w in row.items():
                    if w:
                        table[f, t] = table.get((f, t), zero) + v * w
        return table

    for g in range(n):
        lhs = {}
        for f, cell in cells_by_g.get(g, ()):
            for k, c in cell.items():
                for t, v in e2_rows[k]:
                    lhs[f, t] = lhs.get((f, t), zero) + c * v
        dg = h.comult[g].items()
        mid = contract((j, k, c) for (j, k), c in dg)
        alt = contract((k, j, c) for (j, k), c in dg)
        differ = [
            ft
            for ft in lhs.keys() | mid.keys() | alt.keys()
            if not (lhs.get(ft, zero) == mid.get(ft, zero) == alt.get(ft, zero))
        ]
        if differ:
            f, t = min(differ)
            return (f, g, t)
    return None


def _pruned(d):
    return {k: v for k, v in d.items() if v}


def oracle_associativity(h, rows):
    """First (i, j, l), i in rows, with (e_i e_j) e_l != e_i (e_j e_l)."""
    n = h.dim
    zero = h.field.zero()
    for i in rows:
        for j in range(n):
            for l in range(n):
                lhs, rhs = {}, {}
                for k, c in h.mult.get((i, j), {}).items():
                    for m, c2 in h.mult.get((k, l), {}).items():
                        lhs[m] = lhs.get(m, zero) + c * c2
                for k, c in h.mult.get((j, l), {}).items():
                    for m, c2 in h.mult.get((i, k), {}).items():
                        rhs[m] = rhs.get(m, zero) + c * c2
                if _pruned(lhs) != _pruned(rhs):
                    return (i, j, l)
    return None


def oracle_multiplicativity(h, rows):
    """First (i, j), i in rows, with Delta(e_i e_j) != Delta(e_i) Delta(e_j)."""
    n = h.dim
    zero = h.field.zero()
    for i in rows:
        for j in range(n):
            lhs, rhs = {}, {}
            for k, c in h.mult.get((i, j), {}).items():
                for jk, c2 in h.comult[k].items():
                    lhs[jk] = lhs.get(jk, zero) + c * c2
            for (a, b), c in h.comult[i].items():
                for (x, y), c2 in h.comult[j].items():
                    for p, cp in h.mult.get((a, x), {}).items():
                        for q, cq in h.mult.get((b, y), {}).items():
                            rhs[p, q] = rhs.get((p, q), zero) + c * c2 * cp * cq
            if _pruned(lhs) != _pruned(rhs):
                return (i, j)
    return None


def oracle_coassociativity(h, rows):
    """First (i,), i in rows, with (Delta (x) id) Delta(e_i) != (id (x) Delta) Delta(e_i)."""
    zero = h.field.zero()
    for i in rows:
        lhs, rhs = {}, {}
        for (j, k), c in h.comult[i].items():
            for (a, b), c2 in h.comult[j].items():
                lhs[a, b, k] = lhs.get((a, b, k), zero) + c * c2
            for (a, b), c2 in h.comult[k].items():
                rhs[j, a, b] = rhs.get((j, a, b), zero) + c * c2
        if _pruned(lhs) != _pruned(rhs):
            return (i,)
    return None


def _basis(h, i):
    return [h.field.one() if t == i else h.field.zero() for t in range(h.dim)]


def oracle_antipode_witnesses(h):
    """First failing i of the target, source and composite antipode axioms."""
    n = h.dim
    zero = h.field.zero()
    s = h.S
    forms = (
        (lambda j, k: h.mul_vec(_basis(h, j), s.col(k)), h.eps_t_mat),
        (lambda j, k: h.mul_vec(s.col(j), _basis(h, k)), h.eps_s_mat),
        (lambda j, k: h.mul_vec(h.eps_s_mat.col(j), s.col(k)), s),
    )
    out = []
    for product, expect in forms:
        witness = None
        for i in range(n):
            acc = [zero] * n
            for (j, k), c in h.comult[i].items():
                acc = [a + c * b for a, b in zip(acc, product(j, k))]
            if tuple(acc) != expect.col(i):
                witness = [i]
                break
        out.append(witness)
    return out


def oracle_trace_form(h):
    n = h.dim
    mats = [h.left_mult_matrix(_basis(h, i)).rows for i in range(n)]
    # Tr(AB) = sum_{j,k} A[j][k] B[k][j] over the dense matrices
    gram = [
        [
            sum((a[j][k] * b[k][j] for j in range(n) for k in range(n) if a[j][k]), h.field.zero())
            for b in mats
        ]
        for a in mats
    ]
    return Matrix(h.field, gram).is_invertible()


def oracle_integral_space(h, side):
    n = h.dim
    rows = []
    for i in range(n):
        if side == "left":
            diff = h.left_mult_matrix(_basis(h, i)) - h.left_mult_matrix(h.eps_t_mat.col(i))
        else:
            diff = h.right_mult_matrix(_basis(h, i)) - h.right_mult_matrix(h.eps_s_mat.col(i))
        rows.extend({c: v for c, v in enumerate(r) if v} for r in diff.rows)
    got = solve_sparse(rows, [h.field.zero()] * len(rows), n, h.field)
    return Subspace.from_vectors(h.field, n, [[kv.get(j, h.field.zero()) for j in range(n)] for kv in got[1]])


def oracle_pairing_table(h, phi):
    fn = Functional(h, phi)
    n = h.dim
    return [[fn(h.mul_vec(_basis(h, a), _basis(h, b))) for b in range(n)] for a in range(n)]


def oracle_dual_lact(h, a, phi):
    return h.right_mult_matrix(a).transpose().matvec(phi)


def oracle_dual_ract(h, phi, a):
    return h.left_mult_matrix(a).transpose().matvec(phi)


def oracle_centralizer_in(h, space, against=None):
    if space.dim == 0:
        return space
    test = [_basis(h, i) for i in range(h.dim)] if against is None else list(against.rows)
    rows = []
    for w in test:
        mw = h.right_mult_matrix(w) - h.left_mult_matrix(w)  # y -> yw - wy
        cols = [mw.matvec(a) for a in space.rows]
        for r in range(h.dim):
            rows.append({c: cols[c][r] for c in range(space.dim) if cols[c][r]})
    got = solve_sparse(rows, [h.field.zero()] * len(rows), space.dim, h.field)
    vecs = []
    for kv in got[1]:
        v = [h.field.zero()] * h.dim
        for c, coeff in kv.items():
            v = [x + coeff * y for x, y in zip(v, space.rows[c])]
        vecs.append(v)
    return Subspace.from_vectors(h.field, h.dim, vecs)


def oracle_is_dual_grouplike(h, gamma):
    """Both factorizations per basis pair, with Delta(1) summed for each pair."""
    fn = Functional(h, gamma)
    if not fn.is_invertible():
        return False
    n = h.dim
    e = lambda i: _basis(h, i)
    g2 = [[fn(h.mul_vec(e(a), e(b))) for b in range(n)] for a in range(n)]
    first = [[fn(h.mul_vec(h.apply_S(e(a)), e(b))) for b in range(n)] for a in range(n)]
    second = [[fn(h.mul_vec(e(a), h.apply_S(e(b)))) for b in range(n)] for a in range(n)]
    zero = h.field.zero()
    d1 = h.delta_one
    for a in range(n):
        for b in range(n):
            rhs1 = sum((c * g2[a][j] * first[k][b] for (j, k), c in d1.items()), zero)
            rhs2 = sum((c * second[a][j] * g2[k][b] for (j, k), c in d1.items()), zero)
            if not (g2[a][b] == rhs1 == rhs2):
                return False
    return True


def oracle_is_nondegenerate(h, ell):
    return nondegeneracy_matrix(h, ell).is_invertible()


def generic_vector(h):
    """A fixed vector with zero, positive and negative coordinates."""
    return [h.field.from_int((k * k + 1) % 5 - 2) for k in range(h.dim)]


def expected_report(h, sparse=False):
    """validate_full's report with every axiom but unit and counit taken from the oracles.

    Associativity, multiplicativity and coassociativity scan every basis row.
    The weak axioms come from the textbook forms, or from the sparse folded
    and tabulated forms when ``sparse`` (fast enough for dim 27).
    """
    weak_unit, weak_counit = (
        (sparse_weak_unit, sparse_weak_counit) if sparse else (oracle_weak_unit, oracle_weak_counit)
    )
    rows = range(h.dim)
    witnesses = {
        "associativity": oracle_associativity(h, rows),
        "coassociativity": oracle_coassociativity(h, rows),
        "comult_multiplicative": oracle_multiplicativity(h, rows),
        "weak_unit": None if weak_unit(h) else ("Delta(1)",),
        "weak_counit": weak_counit(h),
    }
    report = validate_full(h).as_dict()
    for check in report["checks"]:
        name = check["axiom"]
        if name in witnesses:
            witness = witnesses[name]
            check.clear()
            check.update({"axiom": name, "ok": witness is None})
            if witness is not None:
                check.update({"witness": list(witness), "detail": ""})
    if h.antipode is not None:
        antipode = [c for c in report["checks"] if c["axiom"].startswith("antipode_")]
        assert [c["axiom"] for c in antipode] == [
            "antipode_target",
            "antipode_source",
            "antipode_composite",
        ]
        for check, witness in zip(antipode, oracle_antipode_witnesses(h)):
            name = check["axiom"]
            check.clear()
            check.update({"axiom": name, "ok": witness is None})
            if witness is not None:
                check.update({"witness": witness, "detail": ""})
    report["ok"] = all(c["ok"] for c in report["checks"])
    return report


def rebuild(h, mult=None, comult=None, unit=None, counit=None):
    return WeakHopfAlgebra(
        h.field,
        h.labels,
        h.mult if mult is None else mult,
        h.unit if unit is None else unit,
        h.comult if comult is None else comult,
        h.counit if counit is None else counit,
        antipode=h.antipode,
        name=h.name,
    )


def bump(h, key, k, value):
    """h with value added to the e_k coefficient of the product at key."""
    mult = {ij: dict(cell) for ij, cell in h.mult.items()}
    cell = mult.setdefault(key, {})
    cell[k] = cell.get(k, h.field.zero()) + value
    return rebuild(h, mult=mult)


BUMPS = (-2, -1, 1, 2, 3)
FRACTIONAL_BUMPS = (Fraction(1, 5), Fraction(-2, 7), Fraction(3, 11), 1, -1)


def corrupt(h, rng, parts=("mult", "comult", "unit", "counit"), values=BUMPS):
    """Add or drop one structure constant of one of ``parts``; an added one is drawn from ``values``."""
    n = h.dim
    part = rng.choice(parts)
    drop = rng.random() < 0.5
    value = h.field.from_fraction(Fraction(rng.choice(values)))
    if part == "mult":
        keys = [(ij, k) for ij, cell in sorted(h.mult.items()) for k in sorted(cell)]
        if drop and keys:
            ij, k = rng.choice(keys)
            return bump(h, ij, k, -h.mult[ij][k])
        return bump(h, (rng.randrange(n), rng.randrange(n)), rng.randrange(n), value)
    if part == "comult":
        comult = [dict(d) for d in h.comult]
        i = rng.randrange(n)
        if drop and comult[i]:
            del comult[i][rng.choice(sorted(comult[i]))]
        else:
            jk = (rng.randrange(n), rng.randrange(n))
            comult[i][jk] = comult[i].get(jk, h.field.zero()) + value
        return rebuild(h, comult=comult)
    vec = list(h.unit if part == "unit" else h.counit)
    i = rng.randrange(n)
    vec[i] = h.field.zero() if drop else vec[i] + value
    return rebuild(h, **{part: vec})


def corrupt_antipode(h, rng):
    """h with one entry of S shifted by a nonzero integer."""
    rows = [list(row) for row in h.S.rows]
    m, k = rng.randrange(h.dim), rng.randrange(h.dim)
    rows[m][k] += h.field.from_int(rng.choice([-2, -1, 1, 2]))
    return WeakHopfAlgebra(
        h.field, h.labels, h.mult, h.unit, h.comult, h.counit, antipode=rows, name=h.name
    )


def one_sided_corruptions(h, rng):
    """Corrupt a product that only mid, then one that only alt, reads.

    mid multiplies 1_(2) 1'_(1) and alt multiplies 1_(1) 1'_(2) in the
    middle slot.  A product e_a e_b with a a second leg and b a first leg of
    Delta(1), but not the other way round, and with neither in the support of
    1, changes mid alone; swapping the roles changes alt alone.  An
    implementation that mixes up the two middle slots gets these verdicts
    wrong.
    """
    first = {j for j, _ in h.delta_one}
    second = {k for _, k in h.delta_one}
    units = {i for i, c in enumerate(h.unit) if c}
    out = []
    for left, right in ((second, first), (first, second)):
        keys = [
            (a, b)
            for a in sorted(left - units)
            for b in sorted(right - units)
            if not (a in right and b in left)
        ]
        if keys:
            out.append(bump(h, rng.choice(keys), rng.randrange(h.dim), h.field.one()))
    return out


def rotated_unit(h):
    """h with its unit scaled by zeta_3: the unit axiom fails, the weak one holds.

    Delta(1) (x) Delta(1) picks up zeta^2 and the two one-sided products by 1
    another zeta^2, so both products scale by zeta^4 = zeta, like the
    left-hand side.  Dropping the products by 1 would scale them by zeta^2.
    """
    zeta = h.field.zeta()
    return rebuild(h, unit=[zeta * c for c in h.unit])


def _cases():
    """name -> the member followed by its seeded corruptions."""
    rng = random.Random(20010106)
    cases = {}
    for name in ZOO_NAMES:
        h = build_member(name)
        if h.dim <= MAX_DIM:
            cases[name] = [h] + [corrupt(h, rng) for _ in range(CORRUPTIONS_PER_MEMBER)]
            cases[name] += one_sided_corruptions(h, rng)
    cases["z3-group-cyclotomic"].append(rotated_unit(build_member("z3-group-cyclotomic")))
    return cases


CASES = _cases()


def test_cases_cover_malformed_algebras():
    assert len(CASES) >= 15
    failing = set()
    for algebras in CASES.values():
        for h in algebras:
            failing.update(c.name for c in validate_full(h).failures())
    assert {"associativity", "unit", "counit", "weak_unit", "weak_counit"} <= failing
    rng = random.Random(0)
    one_sided = [
        bad
        for name in ("hmin-m2-1", "hmin-m2-g31")
        for bad in one_sided_corruptions(build_member(name), rng)
    ]
    assert len(one_sided) == 4 and not any(oracle_weak_unit(h) for h in one_sided)
    rotated = rotated_unit(build_member("z3-group-cyclotomic"))
    assert "unit" in {c.name for c in validate_full(rotated).failures()}
    assert oracle_weak_unit(rotated)


@pytest.mark.parametrize("name", sorted(CASES))
def test_validate_full_matches_oracles(name):
    for h in CASES[name]:
        assert validate_full(h).as_dict() == expected_report(h) == expected_report(h, sparse=True)


@lru_cache(maxsize=None)
def dyn_build(n):
    """The host M_n (x) k[Z_n] and the dynamical twist of ``whopf make dyntwist-host --cyclic n``."""
    u = group_algebra(cyclic_table(n), field=CyclotomicField(n) if n > 2 else QQ)
    return dynamical_theta(DynamicalTwistData(u=u, grouplikes=[u.basis_element(j) for j in range(n)]))


@lru_cache(maxsize=None)
def dyn_z3():
    """The dim-27 dynamical twist of k[Z3] over Q(zeta_3), above MAX_DIM."""
    build = dyn_build(3)
    return twist(build.host, build.twist, name="dyn-twist-z3")


def test_dyn_z3_matches_the_sparse_oracles():
    """On dyn-z3 G has 6 of 27 indices and E2 rank 3, so the reduced checks read least of H.

    Its Delta(1) legs meet the support of 1, so ``one_sided_corruptions``
    finds no product to corrupt; ``rotated_unit`` gives a non-unit 1 whose
    products the weak-unit check must keep.
    """
    h = dyn_z3()
    rng = random.Random(30)
    cases = [h, rotated_unit(h)] + [corrupt(h, rng) for _ in range(4)]
    failing = set()
    for bad in cases:
        report = validate_full(bad)
        failing.update(c.name for c in report.failures())
        assert report.as_dict() == expected_report(bad, sparse=True)
    assert validate_full(h).ok and not one_sided_corruptions(h, rng)
    assert {"associativity", "coassociativity", "unit", "counit", "weak_unit", "weak_counit"} <= failing


def _words_span(h, gens):
    """Span of the right-nested words g_1(g_2(...g_k)) over gens, by dense products to a fixed point."""
    span = Subspace.from_vectors(h.field, h.dim, [_basis(h, g) for g in gens])
    while True:
        products = [h.mul_vec(_basis(h, g), w) for g in gens for w in span.rows]
        grown = span.plus(Subspace.from_vectors(h.field, h.dim, products)) if products else span
        if grown == span:
            return span
        span = grown


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_generating_indices_span_in_order(name, monkeypatch):
    """The words over G span H, and e_i lies in the span of the words over the generators up to i.

    With Light's test this makes the first failing row of each reduced scan a
    generator: if every generator below i passes, so does every word over
    them, and so does e_i.  The reduced scans therefore report the witness of
    the full scan without rescanning.
    """
    calls = []
    join = wha._join
    monkeypatch.setattr(wha, "_join", lambda *a: calls.append(a) or join(*a))
    for h in (build_member(name), build_member(name).dual):
        calls.clear()
        gens = generating_rows(h, _full(h))
        assert gens == sorted(set(gens)) and len(calls) <= len(gens) * h.dim
        assert _words_span(h, gens).dim == h.dim
        for i in range(h.dim):
            prefix = [g for g in gens if g <= i]
            assert _words_span(h, prefix).contains(_basis(h, i))


def test_generating_set_sizes():
    pair5 = groupoid_algebra(pair_groupoid(5))
    sizes = {
        name: len(generating_rows(h, _full(h)))
        for name, h in [
            ("dyn-z3", dyn_z3()),
            ("dyn-z3 dual", dyn_z3().dual),
            ("pair-5", pair5),
            ("dual pair-5", pair5.dual),
            ("hmin-12", minimal_wha(SemisimplePresentation(blocks=(1, 2)))),
        ]
    }
    assert sizes == {"dyn-z3": 6, "dyn-z3 dual": 15, "pair-5": 9, "dual pair-5": 25, "hmin-12": 14}


def test_first_failing_row_is_a_generator():
    """Where its reduction holds, each reduced scan's first failing row over all rows is in G.

    No case needs a rescan, and a non-associative case can pass
    multiplicativity on the rows of G yet fail it elsewhere, so that check
    scans every row once associativity fails.
    """
    guarded = 0
    for h in itertools.chain.from_iterable(CASES.values()):
        gens, rows = generating_rows(h, _full(h)), range(h.dim)
        assoc = oracle_associativity(h, rows)
        multiplicative = oracle_multiplicativity(h, rows)
        assert assoc is None or assoc[0] in gens
        if assoc is None:
            assert multiplicative is None or multiplicative[0] in gens
            coassoc = oracle_coassociativity(h, rows)
            if multiplicative is None:
                assert coassoc is None or coassoc[0] in gens
        elif multiplicative and oracle_multiplicativity(h, gens) is None:
            guarded += 1
    assert guarded >= 1


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_form_matches_dense_gram(name):
    for h in CASES[name]:
        assert semisimple_by_trace_form(h) == oracle_trace_form(h)


@pytest.mark.parametrize("name", sorted(CASES))
def test_integral_space_matches_dense_system(name):
    for h in CASES[name]:
        for side in ("left", "right"):
            assert integral_space(h, side) == oracle_integral_space(h, side)


@pytest.mark.parametrize("name", sorted(CASES))
def test_pairing_table_and_dual_arrows_match_dense(name):
    for h in CASES[name]:
        phis = [h.counit, generic_vector(h), _basis(h, h.dim - 1)]
        elements = [_basis(h, i) for i in range(h.dim)] + [h.unit, generic_vector(h)]
        for phi in phis:
            assert h.pairing_table(phi) == Matrix(h.field, oracle_pairing_table(h, phi))
            for a in elements:
                assert h.dual_lact(a, phi) == oracle_dual_lact(h, a, phi)
                assert h.dual_ract(phi, a) == oracle_dual_ract(h, phi, a)


@pytest.mark.parametrize("name", sorted(CASES))
def test_centralizer_matches_dense_system(name):
    member = CASES[name][0]
    full = Subspace.from_vectors(member.field, member.dim, [_basis(member, i) for i in range(member.dim)])
    assert member.centralizer_in(full) == oracle_centralizer_in(member, full)
    for h in CASES[name]:
        for space in (h.source_base, h.target_base):
            assert h.centralizer_in(space) == oracle_centralizer_in(h, space)
        hmin = h.minimal_subalgebra
        assert h.centralizer_in(hmin, against=hmin) == oracle_centralizer_in(h, hmin, hmin)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_dual_grouplike_matches_per_pair_sums(name):
    """Against the per-pair sums and the earlier table-product body, ``table_product_is_dual_grouplike``."""
    reg, _q = regularize(build_member(name))
    alpha = list(distinguished_pair(reg, canonical_dual_pair(reg)).alpha.coeffs)
    bent = []
    for i in sorted({0, reg.dim // 2, reg.dim - 1}):
        bent.append(list(alpha))
        bent[-1][i] += reg.field.one()
    gammas = [alpha, list(reg.counit), generic_vector(reg), list(_basis(reg, 0))] + bent
    verdicts = [is_dual_grouplike(reg, gamma) for gamma in gammas]
    assert verdicts == [oracle_is_dual_grouplike(reg, gamma) for gamma in gammas]
    assert verdicts == [table_product_is_dual_grouplike(reg, gamma) for gamma in gammas]
    assert verdicts[:2] == [True, True] and not any(verdicts[4:])


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_is_nondegenerate_matches_full_rank(name):
    h = build_member(name)
    space = integral_space(h, "left")
    candidates = [generic_vector(h), h.unit, [h.field.one()] * h.dim]
    for t, coeffs in enumerate(height_vectors(space.dim, max_height=2)):
        if t == 40:
            break
        vec = [h.field.zero()] * h.dim
        for c, row in zip(coeffs, space.rows):
            vec = [x + c * y for x, y in zip(vec, row)]
        candidates.append(vec)
    for ell in candidates:
        assert is_nondegenerate(h, ell) == oracle_is_nondegenerate(h, ell)


def test_full_support_singular_candidate_takes_the_rank():
    """The all-ones vector of dual-s3-group has Delta with full support but is singular."""
    h = build_member("dual-s3-group")
    ones = [h.field.one()] * h.dim
    pairs = h.comul_vec(ones)
    assert {a for a, _ in pairs} == {b for _, b in pairs} == set(range(h.dim))
    assert not oracle_is_nondegenerate(h, ones)
    assert not is_nondegenerate(h, ones)


def test_antipode_checks_match_dense_products():
    rng = random.Random(20010107)
    failing = set()
    for name in ZOO_NAMES:
        h = build_member(name)
        for bad in [h] + [corrupt_antipode(h, rng) for _ in range(4)]:
            checks = antipode_axiom_checks(bad)
            failing.update(c.name for c in checks if not c.ok)
            got = [None if c.ok else list(c.witness) for c in checks]
            assert got == oracle_antipode_witnesses(bad), name
    assert failing == {"antipode_target", "antipode_source", "antipode_composite"}


# ---------------------------------------------------------------------------
# witness searches: the hand-rolled enumerate -> assemble -> test loops


def oracle_find_invertible_in_subspace(h, space):
    """Invertible element of ``space`` by heights, then the (dim H + 1)^d grid: (vector, coefficients) or None."""
    zero = h.field.zero()
    d = space.dim
    if d == 0:
        return None

    def assemble(coeffs):
        vec = [zero] * h.dim
        for c, row in zip(coeffs, space.rows):
            if c:
                vec = [x + c * y for x, y in zip(vec, row)]
        return vec

    for coeffs in height_vectors(d, max_height=max_height()):
        vec = assemble(coeffs)
        if h.left_mult_matrix(vec).is_invertible():
            return vec, coeffs
    # Grid decision: det is a polynomial of degree <= dim in each coordinate.
    grid = h.dim + 1
    if grid**d > 200_000:
        raise Undecidable(f"grid of size {grid}^{d} exceeds the cap")
    for coeffs in itertools.product(range(grid), repeat=d):
        vec = assemble(coeffs)
        if h.left_mult_matrix(vec).is_invertible():
            return vec, coeffs
    return None


def oracle_find_nondegenerate_integral(h, skip=0):
    space = integral_space(h, "left")
    if space.dim != h.target_base.dim:
        raise NotFrobenius(f"dim integral space {space.dim} != dim H_t {h.target_base.dim}")
    zero = h.field.zero()
    hits = 0
    for coeffs in height_vectors(space.dim, max_height=1 << 16):
        vec = [zero] * h.dim
        for c, row in zip(coeffs, space.rows):
            if c:
                vec = [x + c * y for x, y in zip(vec, row)]
        if is_nondegenerate(h, vec):
            if hits == skip:
                return Element(h, vec)
            hits += 1
    raise NotFrobenius("height search exhausted")


def oracle_has_nondegenerate_two_sided_integral(h):
    two_sided = integral_space(h, "left").intersect(integral_space(h, "right"))
    if two_sided.dim == 0:
        return False
    zero = h.field.zero()
    cap = max_height()
    for coeffs in height_vectors(two_sided.dim, max_height=cap):
        vec = [zero] * h.dim
        for c, row in zip(coeffs, two_sided.rows):
            if c:
                vec = [x + c * y for x, y in zip(vec, row)]
        if is_nondegenerate(h, vec):
            return True
    raise Undecidable(f"no non-degenerate element up to height {cap}")


def _outcome(fn, *args):
    """The value of fn(*args), or the type of the WhopfError it raised."""
    try:
        return fn(*args)
    except WhopfError as exc:
        return type(exc)


def _oracle_invertible(h, space):
    hit = oracle_find_invertible_in_subspace(h, space)
    return None if hit is None else Element(h, hit[0])


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_witness_searches_match_the_loops(name):
    h = build_member(name)
    for alg in (h, h.dual):
        for skip in (0, 1, 2):
            got = find_nondegenerate_integral(alg, skip=skip)
            assert got.coeffs == oracle_find_nondegenerate_integral(alg, skip).coeffs
        assert _outcome(has_nondegenerate_two_sided_integral, alg) == _outcome(
            oracle_has_nondegenerate_two_sided_integral, alg
        )
        assert invertible_in(alg, alg.source_base) == _oracle_invertible(alg, alg.source_base)


def _no_heights(dim, max_height):
    return iter(())


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_grid_matches_the_loop_without_heights(name, monkeypatch):
    monkeypatch.setattr(search, "height_vectors", _no_heights)
    monkeypatch.setattr(sys.modules[__name__], "height_vectors", _no_heights)
    h = build_member(name)
    got = _outcome(invertible_in, h, h.source_base)
    assert got == _outcome(_oracle_invertible, h, h.source_base)
    assert got is Undecidable or h.left_mult_matrix(got).is_invertible()


def test_grid_cap_is_reached_only_after_the_heights(monkeypatch):
    h = build_member("pair-2")
    monkeypatch.setattr(search, "_GRID_CAP", 0)
    # a hit among the heights is returned although the grid is over the cap
    assert invertible_in(h, h.source_base) == _oracle_invertible(h, h.source_base)
    heights = []

    def recording(dim, max_height):
        for vec in height_vectors(dim, max_height=max_height):
            heights.append(vec)
            yield vec
        heights.append("exhausted")

    monkeypatch.setattr(search, "height_vectors", recording)
    m11 = Subspace.from_vectors(h.field, h.dim, [_basis(h, 0)])  # no invertible multiple
    with pytest.raises(Undecidable):
        invertible_in(h, m11)
    assert heights[-1] == "exhausted" and len(heights) > 1


def test_witness_above_height_one_matches_the_oracle():
    # every height-1 combination of the two rows is non-invertible in k^(Z/5),
    # so the first witness is a height-2 one; the grid alone would give (1, 3, 2, 4, 1)
    h = function_algebra(one_object_groupoid(cyclic_table(5)))
    space = Subspace.from_vectors(h.field, h.dim, [(1, 0, -1, 1, -2), (0, 1, 1, 1, 1)])
    got = invertible_in(h, space)
    assert got.coeffs == (1, -2, -3, -1, -4)
    assert got == _oracle_invertible(h, space)


# ---------------------------------------------------------------------------
# group-like solves


def _dense_kernel_in(h, space, mats):
    """{v in space : M v = 0 for every M in mats}, from dense columns of each M."""
    rows = []
    for mat in mats:
        cols = [mat.matvec(row) for row in space.rows]
        for r in range(mat.nrows):
            rows.append({c: cols[c][r] for c in range(space.dim) if cols[c][r]})
    got = solve_sparse(rows, [h.field.zero()] * len(rows), space.dim, h.field)
    vecs = []
    for kv in got[1]:
        v = [h.field.zero()] * h.dim
        for c, coeff in kv.items():
            v = [x + coeff * y for x, y in zip(v, space.rows[c])]
        vecs.append(v)
    return Subspace.from_vectors(h.field, h.dim, vecs)


def _full(h):
    return Subspace.from_vectors(h.field, h.dim, [_basis(h, i) for i in range(h.dim)])


def oracle_twisted_integral_spaces(h, gamma):
    maps = twisted_counitals(h, gamma)
    eps_sg, eps_tg = maps["eps_s_gamma"], maps["eps_t_gamma"]
    n = h.dim
    left = [h.left_mult_matrix(_basis(h, i)) - h.left_mult_matrix(eps_tg.col(i)) for i in range(n)]
    right = [h.right_mult_matrix(_basis(h, i)) - h.right_mult_matrix(eps_sg.col(i)) for i in range(n)]
    return {"L": _dense_kernel_in(h, _full(h), left), "R": _dense_kernel_in(h, _full(h), right)}


def oracle_trivial_grouplike_space(h, g):
    eye = Matrix.identity(h.field, h.dim)
    return _dense_kernel_in(h, h.source_base, [h.S @ h.S - eye, h.left_mult_matrix(g) - h.S])


def oracle_is_trivial_grouplike(h, g):
    space = oracle_trivial_grouplike_space(h, g)
    hit = oracle_find_invertible_in_subspace(h, space) if space.dim else None
    return (False, None) if hit is None else (True, Element(h, hit[0]))


def oracle_intertwiner_space(h, gamma1, gamma2):
    eps1 = twisted_counitals(h, gamma1)["eps_s_gamma"]
    eps2 = twisted_counitals(h, gamma2)["eps_s_gamma"]
    mats = [
        h.right_mult_matrix(eps1.col(j)) - eps2 @ h.right_mult_matrix(_basis(h, j))
        for j in range(h.dim)
    ]
    return _dense_kernel_in(h, h.source_base, mats)


def oracle_conjugators(h, phi):
    mats = [h.left_mult_matrix(phi.col(i)) - h.right_mult_matrix(_basis(h, i)) for i in range(h.dim)]
    return _dense_kernel_in(h, _full(h), mats).intersect(h.minimal_subalgebra)


def oracle_is_trivial_automorphism(h, phi):
    """The decision of is_trivial_automorphism over the dense conjugator space."""
    n = h.dim
    conjugators = oracle_conjugators(h, phi)
    if conjugators.dim == 0:
        return "no", None
    cols = [list(h.eps_t(row)) + list(h.eps_s(row)) for row in conjugators.rows]
    sol = try_solve(Matrix.from_columns(h.field, cols), list(h.unit) + list(h.unit))
    if sol is None:
        return "no", None
    particular, kern = sol

    def assemble(coeffs):
        vec = [h.field.zero()] * n
        for c, row in zip(coeffs, conjugators.rows):
            vec = [x + c * y for x, y in zip(vec, row)]
        return vec

    undecidable = []

    def qualifies(u):
        if not h.left_mult_matrix(u).is_invertible() or not is_grouplike(h, u):
            return None
        try:
            ok, y = oracle_is_trivial_grouplike(h, u)
        except Undecidable:
            undecidable.append(True)
            return None
        return (Element(h, u), y) if ok else None

    if phi == Matrix.identity(h.field, n):
        got = qualifies(list(h.unit))
        if got:
            return "yes", got
    if kern.dim == 0:
        got = qualifies(assemble(particular))
        if got:
            return "yes", got
        return ("undecided", None) if undecidable else ("no", None)
    candidates = [tuple(particular)]
    for shift in height_vectors(kern.dim, max_height=max_height()):
        coeffs = list(particular)
        for t, krow in zip(shift, kern.rows):
            coeffs = [x + t * y for x, y in zip(coeffs, krow)]
        candidates.append(tuple(coeffs))
        if len(candidates) >= 4000:
            break
    for coeffs in candidates:
        got = qualifies(assemble(coeffs))
        if got:
            return "yes", got
    return "undecided", None


def _constructed_gamma(h):
    """gamma2 = eps * S(xi) xi^{-1} on pair-2, as in test_grouplikes.py."""
    dual = h.dual
    rows = dual.source_base.rows
    xi = Element(dual, [a + 2 * b for a, b in zip(rows[0], rows[1])])
    s_xi = Element(dual, dual.apply_S(xi.coeffs))
    return list((Element(dual, h.counit) * s_xi * xi.inv()).coeffs)


def _trivial_grouplikes(h, count):
    """S(y) y^{-1} for the first invertible y = sum c_k (H_s)_k, c in {-1, 0, 1, 2}^dim, as in test_grouplikes.py."""
    out = []
    for combo in itertools.product((-1, 0, 1, 2), repeat=h.source_base.dim):
        y = [h.field.zero()] * h.dim
        for c, row in zip(combo, h.source_base.rows):
            y = [a + c * b for a, b in zip(y, row)]
        if any(y) and Element(h, y).is_invertible():
            out.append(list(grouplikes.make_trivial_grouplike(h, y).coeffs))
            if len(out) == count:
                return out
    return out


@lru_cache(maxsize=None)
def grouplike_case(name):
    """The regularized member with its group-like functionals, elements and automorphisms."""
    h, _q = regularize(build_member(name))
    dp = distinguished_pair(h, canonical_dual_pair(h))
    gammas = [list(h.counit), list(dp.alpha.coeffs)]
    elements = [list(h.unit), list(dp.a.coeffs)]
    if name == "z2-group":
        gammas.append([1, -1])  # the sign character
    if name == "pair-2":
        gammas.append(_constructed_gamma(h))
        elements.append([0, 1, 1, 0])  # m12 + m21
        elements.append(list(grouplikes.make_trivial_grouplike(h, [1, 0, 0, 2]).coeffs))
    if name == "z2-z2-groupoid":
        elements.append([0, 1, 0, 1])  # sum of the two generators
    if name == "hmin-m2-1":
        elements += _trivial_grouplikes(h, 4)
    elements = [g for g in elements if is_grouplike(h, g)]
    autos = [Matrix.identity(h.field, h.dim), h.S.power(4)]
    autos += [grouplike_automorphism(h, g=g) for g in elements[1:]]
    autos.append(grouplike_automorphism(h, gamma=dp.alpha))
    return h, gammas, elements, autos


@pytest.fixture
def kernels(monkeypatch):
    """Every Subspace that grouplikes.kernel_on returns, in call order."""
    got = []

    def spy(space, rows):
        out = kernel_on(space, rows)
        got.append(out)
        return out

    monkeypatch.setattr(grouplikes, "kernel_on", spy)
    return got


def test_grouplike_cases_cover_the_grouplikes_tests():
    assert len(grouplike_case("z2-group")[1]) == 3
    _h, gammas, elements, _autos = grouplike_case("pair-2")
    assert len(gammas) == 3 and len(elements) == 4
    h, _gammas, elements, _autos = grouplike_case("hmin-m2-1")
    assert len(elements) == 6
    # a trivial group-like that does not commute with H_s tells g y from y g
    g = elements[2]
    assert any(h.mul_vec(g, y) != h.mul_vec(y, g) for y in h.source_base.rows)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_twisted_integral_spaces_match_dense(name):
    h, gammas, elements, _autos = grouplike_case(name)
    for gamma in gammas:
        if is_dual_grouplike(h, gamma):
            assert twisted_integral_spaces(h, gamma=gamma) == oracle_twisted_integral_spaces(h, gamma)
    for g in elements:
        dual = h.dual
        want = oracle_twisted_integral_spaces(dual, Functional(dual, g))
        assert twisted_integral_spaces(h, g=g) == want


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_intertwiners_match_dense(name):
    h, gammas, _elements, _autos = grouplike_case(name)
    for gamma1 in gammas:
        for gamma2 in gammas:
            space = _intertwiner_space(h, gamma1, gamma2)
            assert space == oracle_intertwiner_space(h, gamma1, gamma2)
            assert _outcome(invertible_in, h, space) == _outcome(_oracle_invertible, h, space)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_trivial_grouplike_matches_dense(name, kernels):
    h, _gammas, elements, _autos = grouplike_case(name)
    # the predicate takes any g; 1 + e_i tells g y from y g where the group-likes do not
    shifted = [[a + b for a, b in zip(h.unit, _basis(h, i))] for i in range(h.dim)]
    for g in elements + shifted:
        kernels.clear()
        got = is_trivial_grouplike(h, g)
        assert kernels == [oracle_trivial_grouplike_space(h, g)]
        if g in elements:
            assert got == oracle_is_trivial_grouplike(h, g)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_trivial_automorphism_matches_dense(name, kernels):
    h, _gammas, _elements, autos = grouplike_case(name)
    verdicts = set()
    for phi in autos:
        kernels.clear()
        got = is_trivial_automorphism(h, phi)
        assert got == oracle_is_trivial_automorphism(h, phi)
        assert kernels[0] == oracle_conjugators(h, phi)
        verdicts.add(got[0])
    assert "yes" in verdicts


# ---------------------------------------------------------------------------
# mirrored pairs: counital maps, twisted counital maps, invariance, arrows


def oracle_counital_maps(h):
    """eps_t(e_i) = eps(1_(1) e_i) 1_(2) and eps_s(e_i) = 1_(1) eps(e_i 1_(2)), from products."""
    n = h.dim
    zero = h.field.zero()
    t_cols, s_cols = [], []
    for i in range(n):
        t_col = s_col = [zero] * n
        for (a, b), w in h.delta_one.items():
            t = w * h.counit_of(h.mul_vec(_basis(h, a), _basis(h, i)))
            t_col = [x + t * y for x, y in zip(t_col, _basis(h, b))]
            s = w * h.counit_of(h.mul_vec(_basis(h, i), _basis(h, b)))
            s_col = [x + s * y for x, y in zip(s_col, _basis(h, a))]
        t_cols.append(t_col)
        s_cols.append(s_col)
    return Matrix.from_columns(h.field, t_cols), Matrix.from_columns(h.field, s_cols)


def oracle_twisted_counitals(h, gamma):
    """<gamma, x 1_(1)> S(1_(2)) and S(1_(1)) <gamma, 1_(2) x>, from products and S."""
    fn = Functional(h, gamma)
    n = h.dim
    zero = h.field.zero()
    s_cols, t_cols = [], []
    for i in range(n):
        s_col = t_col = [zero] * n
        for (a, b), w in h.delta_one.items():
            s = w * fn(h.mul_vec(_basis(h, i), _basis(h, a)))
            s_col = [x + s * y for x, y in zip(s_col, h.apply_S(_basis(h, b)))]
            t = w * fn(h.mul_vec(_basis(h, b), _basis(h, i)))
            t_col = [x + t * y for x, y in zip(t_col, h.apply_S(_basis(h, a)))]
        s_cols.append(s_col)
        t_cols.append(t_col)
    return {
        "eps_s_gamma": Matrix.from_columns(h.field, s_cols),
        "eps_t_gamma": Matrix.from_columns(h.field, t_cols),
    }


def oracle_invariance_check(h, lam, rho=None):
    """The two hand-written loops of left and right invariance, one per identity."""
    n = h.dim
    zero = h.field.zero()
    lam2 = oracle_pairing_table(h, lam)
    failures = []
    for a in range(n):
        for b in range(n):
            lhs = [zero] * n
            for (j, k), c in h.comult[a].items():
                lhs[j] += c * lam2[b][k]
            rhs = [zero] * n
            for (j, k), c in h.comult[b].items():
                rhs = [x + c * lam2[k][a] * y for x, y in zip(rhs, h.S.col(j))]
            if lhs != rhs:
                failures.append(("left_invariance", a, b))
    if rho is None:
        rho = h.S.transpose().matvec(lam)
    rho2 = oracle_pairing_table(h, rho)
    for a in range(n):
        for b in range(n):
            lhs = [zero] * n
            for (j, k), c in h.comult[a].items():
                lhs[k] += c * rho2[j][b]
            rhs = [zero] * n
            for (j, k), c in h.comult[b].items():
                rhs = [x + c * rho2[a][j] * y for x, y in zip(rhs, h.S.col(k))]
            if lhs != rhs:
                failures.append(("right_invariance", a, b))
    return failures


def oracle_lact(h, phi, a):
    """<e^j, phi -> a> = (e^j phi)(a), the convolution product of H* evaluated at a."""
    fn = Functional(h, phi)
    return tuple((Functional(h, _basis(h, j)) * fn)(a) for j in range(h.dim))


def oracle_ract(h, a, phi):
    """<e^k, a <- phi> = (phi e^k)(a)."""
    fn = Functional(h, phi)
    return tuple((fn * Functional(h, _basis(h, k)))(a) for k in range(h.dim))


@pytest.mark.parametrize("name", sorted(CASES))
def test_counital_maps_match_products(name):
    for h in CASES[name]:
        assert (h.eps_t_mat, h.eps_s_mat) == oracle_counital_maps(h)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_twisted_counitals_match_products(name):
    h, gammas, _elements, _autos = grouplike_case(name)
    for gamma in gammas:
        got = twisted_counitals(h, gamma)
        assert set(got) == {"eps_s_gamma", "eps_t_gamma"}
        assert got == oracle_twisted_counitals(h, gamma)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_invariance_check_matches_the_two_loops(name):
    h = build_member(name)
    pair = canonical_dual_pair(h)
    lam = list(pair.lam.coeffs)
    assert invariance_check(h, pair) == oracle_invariance_check(h, lam) == []
    sides = set()
    for bump in [_basis(h, i) for i in sorted({0, h.dim - 1})] + [generic_vector(h)]:
        bent = [x + y for x, y in zip(lam, bump)]
        bad = DualPair(ell=pair.ell, lam=Functional(h, bent))
        got = invariance_check(h, bad)
        assert got == oracle_invariance_check(h, bent)
        # an explicit rho in place of lambda o S, with lambda left intact
        assert invariance_check(h, pair, rho=bent) == oracle_invariance_check(h, lam, rho=bent)
        sides.update(side for side, _a, _b in got)
    assert sides == {"left_invariance", "right_invariance"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_arrows_and_mult_matrices_match_dense(name):
    for h in CASES[name]:
        elements = [_basis(h, i) for i in range(h.dim)] + [h.unit, generic_vector(h)]
        phis = [h.counit, generic_vector(h), _basis(h, h.dim - 1)]
        for a in elements:
            for phi in phis:
                assert h.lact(phi, a) == oracle_lact(h, phi, a)
                assert h.ract(a, phi) == oracle_ract(h, a, phi)
            left = [h.mul_vec(a, _basis(h, j)) for j in range(h.dim)]
            right = [h.mul_vec(_basis(h, j), a) for j in range(h.dim)]
            assert h.left_mult_matrix(a) == Matrix.from_columns(h.field, left)
            assert h.right_mult_matrix(a) == Matrix.from_columns(h.field, right)


# ---------------------------------------------------------------------------
# the antipode solver against the joint 3n^2-row system; the twisted antipode


def full_system_antipode(h):
    """S from the joint system of all three antipode axioms: n^2 target, source and composite rows.

    This is the library's earlier solver.  The library eliminates the target
    and composite rows only and reads the source rows off the final check.
    """
    n = h.dim
    field = h.field
    zero = field.zero()
    rows = []
    rhs = []
    by_first = {}
    by_second = {}
    for (j, m), cell in h.mult.items():
        by_first.setdefault(j, []).append((m, cell))
        by_second.setdefault(m, []).append((j, cell))
    eps_s_left_mult = {}

    def _emit(coeffs, col):
        per_p = {}
        for (p, unk), v in coeffs.items():
            if v:
                per_p.setdefault(p, {})[unk] = v
        for p in range(n):
            rows.append(per_p.get(p, {}))
            rhs.append(col[p])

    def _convolution(i, cells, kept):
        coeffs = {}
        for legs, c in h.comult[i].items():
            k = legs[1 - kept]
            for m, cell in cells.get(legs[kept], ()):
                for p, cmu in cell.items():
                    key = (p, m * n + k)
                    coeffs[key] = coeffs.get(key, zero) + c * cmu
        return coeffs

    for i in range(n):
        _emit(_convolution(i, by_first, 0), h.eps_t_mat.col(i))
        _emit(_convolution(i, by_second, 1), h.eps_s_mat.col(i))
        coeffs = {}
        for (j, k), c in h.comult[i].items():
            w = eps_s_left_mult.get(j)
            if w is None:
                w = eps_s_left_mult[j] = h.left_mult_matrix(h.eps_s_mat.col(j))
            for p in range(n):
                wrow = w.rows[p]
                for q in range(n):
                    v = wrow[q]
                    if v:
                        key = (p, q * n + k)
                        coeffs[key] = coeffs.get(key, zero) + c * v
        for p in range(n):
            key = (p, p * n + i)
            coeffs[key] = coeffs.get(key, zero) - field.one()
        _emit(coeffs, [zero] * n)
    got = solve_sparse(rows, rhs, n * n, field)
    if got is None:
        raise NoAntipode("antipode equations are inconsistent")
    particular, kern = got
    if kern:
        raise NotUnique(f"antipode solution space has dimension {len(kern)}")
    s = Matrix(field, [[particular.get(m * n + k, zero) for k in range(n)] for m in range(n)])
    for check in antipode_axiom_checks(h.with_antipode(s)):
        if not check.ok:
            raise Axiom26Failure(f"solved antipode fails {check.name} at {check.witness}")
    return s


def _solved(solver, h):
    """The S that solver(h) returns, or the (class, message) of the WhopfError it raises."""
    try:
        return solver(h)
    except WhopfError as exc:
        return type(exc), str(exc)


def _exact_only(*args):
    """A stand-in for ``wha._solve_modular`` that never finds S, so solve_antipode eliminates exactly."""
    return None


@pytest.fixture
def solver_branch(monkeypatch):
    """solve(h) -> (outcome, branch), where branch names the path solve_antipode took.

    "inconsistent": the target and composite rows have no solution;
    "unique": they fix S and the final check passes; "source_fails": they fix
    an S that fails antipode_source; "fallback": they leave a kernel and the
    source rows are appended.  A certified modular solution calls no exact
    solve and counts as "unique" or "source_fails".

    Each h is solved twice: with the modular step as it is, and with it
    monkeypatched off, so the exact elimination runs.  The two runs must give
    the same outcome (equal S with equal sparse rows, or the same exception
    class and message) and the same branch.  ``solve.certified`` records, per
    call, whether the modular step's S was taken, and ``solve.lifted`` whether
    the modular step returned one.
    """
    solves = []
    step = wha._solve_modular

    def modular(*args):
        got = step(*args)
        solve.lifted.append(got is not None)
        return got

    def spy(rows, rhs, ncols, field):
        got = solve_sparse(rows, rhs, ncols, field)
        solves.append(got)
        return got

    monkeypatch.setattr(wha, "solve_sparse", spy)

    def branch_of(got):
        if not solves:
            return "source_fails" if isinstance(got, tuple) else "unique"
        if len(solves) == 2:
            return "fallback"
        if solves[0] is None:
            return "inconsistent"
        return "source_fails" if isinstance(got, tuple) else "unique"

    def run(h, step):
        monkeypatch.setattr(wha, "_solve_modular", step)
        solves.clear()
        got = _solved(wha.solve_antipode, h.with_antipode(None))
        return got, branch_of(got), not solves

    def solve(h):
        got, branch, certified = run(h, modular)
        exact, exact_branch, _ = run(h, _exact_only)
        assert (got, branch) == (exact, exact_branch)
        if isinstance(got, Matrix):
            assert got.sparse_rows == exact.sparse_rows
            assert [list(map(type, row.values())) for row in got.sparse_rows] == [
                list(map(type, row.values())) for row in exact.sparse_rows
            ]
        solve.certified.append(certified)
        return got, branch

    solve.certified, solve.lifted = [], []
    return solve


def _stripped(h):
    return h.with_antipode(None)


def _make_builders():
    """The seven constructions of ``whopf make`` that the benchmark runs, dyn-z3 included."""
    g = [[1], [3, -1]]
    return {
        "dyn-z3": dyn_z3,
        "dyn-z2": lambda: build_member("dyn-twist-z2"),
        "pair2xpair2": lambda: tensor_product(groupoid_algebra(pair_groupoid(2)), groupoid_algebra(pair_groupoid(2))),
        "s3xz2": lambda: tensor_product(group_algebra(symmetric_table(3)), group_algebra(cyclic_table(2))),
        "z7-cyc": lambda: group_algebra(cyclic_table(7), field=CyclotomicField(7)),
        "hmin-12-g": lambda: minimal_wha(SemisimplePresentation(blocks=(1, 2), g=g)),
        "reg-hmin-m2-g31": lambda: regularize(minimal_wha(SemisimplePresentation(blocks=(2,), g=[[3, -1]])))[0],
    }


def _ladder_builders():
    return {
        "pair-5": lambda: groupoid_algebra(pair_groupoid(5)),
        "dual-pair-5": lambda: groupoid_algebra(pair_groupoid(5)).dual,
        "hmin-12": lambda: minimal_wha(SemisimplePresentation(blocks=(1, 2))),
    }


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_solved_antipode_matches_the_joint_system_on_the_zoo(name, solver_branch):
    h = build_member(name)
    for alg in (h, h.dual):
        got, branch = solver_branch(_stripped(alg))
        assert branch == "unique" and got == alg.S
        assert full_system_antipode(_stripped(alg)) == alg.S
    assert solver_branch.certified == [True, True]


@pytest.mark.parametrize("name", sorted(_make_builders()) + sorted(_ladder_builders()))
def test_solved_antipode_matches_the_joint_system_on_make_and_ladder(name, solver_branch):
    h = {**_make_builders(), **_ladder_builders()}[name]()
    got, branch = solver_branch(_stripped(h))
    assert branch == "unique" and got == h.S
    assert full_system_antipode(_stripped(h)) == h.S
    assert solver_branch.certified == [True]


BUMPS_PER_MEMBER = 30


def test_solved_antipode_matches_the_joint_system_on_bumped_tables(solver_branch):
    """Over 400 seeded single-constant bumps: the same S or the same (class, message)."""
    rng = random.Random(20010113)
    branches = {}
    count = 0
    for name in ZOO_NAMES:
        h = build_member(name)
        if h.dim > 9:
            continue
        for _ in range(BUMPS_PER_MEMBER):
            bent = _stripped(corrupt(h, rng, parts=("mult", "comult")))
            got, branch = solver_branch(bent)
            assert got == _solved(full_system_antipode, bent), name
            branches[branch] = branches.get(branch, 0) + 1
            count += 1
    assert count >= 400
    assert {"inconsistent", "unique", "source_fails", "fallback"} <= set(branches)
    # the modular step's S is taken on some bumps and refused on others
    assert len(set(solver_branch.certified)) == 2


@pytest.fixture
def tiny_prime(monkeypatch):
    """force(bound): the modular step works modulo the largest prime p < bound, p = 1 (mod n) over
    Q(zeta_n), or is skipped when there is none; the primes cached before are restored afterwards."""

    def force(bound):
        monkeypatch.setattr(fields, "_PRIME_BOUND", bound)
        for n in {1, *fields._CONTEXTS}:
            monkeypatch.delitem(vars(fields._context(n)), "modular", raising=False)

    yield force
    for ctx in fields._CONTEXTS.values():
        vars(ctx).pop("modular", None)


def _rescaled(h, b, s):
    """h on the basis f_i = s_i e_i, s_b = s and s_i = 1 otherwise, with its S: the same algebra, and
    1/s a denominator of its tables."""
    f = h.field
    sc = [f.one()] * h.dim
    sc[b] = f.from_fraction(s)
    mult = {(i, j): {k: f.div(c * sc[i] * sc[j], sc[k]) for k, c in cell.items()} for (i, j), cell in h.mult.items()}
    comult = [{(j, k): f.div(c * sc[i], sc[j] * sc[k]) for (j, k), c in d.items()} for i, d in enumerate(h.comult)]
    unit = [f.div(u, x) for u, x in zip(h.unit, sc)]
    counit = [e * x for e, x in zip(h.counit, sc)]
    s_rows = [{k: f.div(v * sc[k], sc[m]) for k, v in row.items()} for m, row in enumerate(h.S.sparse_rows)]
    return WeakHopfAlgebra(f, h.labels, mult, unit, comult, counit, antipode=Matrix._sums(f, s_rows, h.dim))


@pytest.mark.parametrize("bound", [6, 8, 14])
def test_a_tiny_prime_gives_the_exact_outcome(bound, tiny_prime, solver_branch):
    """Modulo 5, 7 or 13 the modular step often fails; S, or the exception class and message, stays
    the exact path's (``solver_branch`` compares the two).

    Each zoo member up to dim 9 and its dual are solved as they are, rescaled
    so that p divides a denominator of the tables, rescaled by p + 1, which
    is 1 mod p, so that a lift can be wrong, and with four bumps of
    denominator p.  Over Q(zeta_3) there is no prime p = 1 (mod 3) below 6.
    """
    tiny_prime(bound)
    rng = random.Random(bound)
    for name in ZOO_NAMES:
        h = build_member(name)
        if h.dim > 9:
            continue
        modular = h.field.modular()
        p = modular.p if modular else 5
        assert p < bound
        b = rng.randrange(h.dim)
        for alg in (h, h.dual, _rescaled(h, b, p + 1), _rescaled(h, b, Fraction(1, p))):
            got, branch = solver_branch(_stripped(alg))
            assert branch == "unique" and got == alg.S
        assert solver_branch.certified[-1] is False
        for _ in range(4):
            solver_branch(_stripped(corrupt(h, rng, parts=("mult", "comult"), values=(Fraction(1, p), -1, 2))))
    runs = set(zip(solver_branch.lifted, solver_branch.certified))
    # taken, refused by the certificate, and no lift at all
    assert runs == {(True, True), (True, False), (False, False)}


def _two_dim(mult, comult, unit, counit):
    """A structure on the basis a, b over QQ, without S; products and coproducts not listed are zero."""
    return WeakHopfAlgebra(QQ, ("a", "b"), mult, unit, comult, counit)


def test_solver_branch_inconsistent(solver_branch):
    """The monoid {1, p | p^2 = p}: p S(p) = eps_t(p) = 1 has no solution, already among the target rows."""
    monoid = _two_dim(
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}},
        [{(0, 0): 1}, {(1, 1): 1}],
        (1, 0),
        (1, 1),
    )
    want = (NoAntipode, "antipode equations are inconsistent")
    assert solver_branch(monoid) == (want, "inconsistent")
    assert _solved(full_system_antipode, monoid) == want


def test_solver_branch_source_fails(solver_branch):
    """a b = b, Delta(a) = b (x) b, 1 = a, eps(b) = 1: the target and composite rows force S = 0.

    eps_t vanishes and eps_s(a) = b, so S = 0 fails S(a_(1)) a_(2) = eps_s(a)
    only: the joint system is inconsistent and the source check reports it.
    """
    h = _two_dim({(0, 1): {1: 1}}, [{(1, 1): 1}, {}], (1, 0), (0, 1))
    want = (NoAntipode, "antipode equations are inconsistent")
    assert solver_branch(h) == (want, "source_fails")
    assert _solved(full_system_antipode, h) == want
    zero = Matrix.zero(QQ, 2)
    assert [c.name for c in antipode_axiom_checks(h.with_antipode(zero)) if not c.ok] == ["antipode_source"]


@pytest.mark.parametrize(
    "mult, comult, unit, counit, want",
    [
        # a b = b, b a = a, Delta(a) = a (x) a, Delta(b) = b (x) a + b (x) b, 1 = a, eps(a) = 1: the
        # target and composite rows give S(a) = 0 and leave S(b) = s b free; the source row
        # S(b_(1)) b_(2) = eps_s(b) = a fixes s = 1
        ({(0, 1): {1: 1}, (1, 0): {0: 1}}, [{(0, 0): 1}, {(1, 0): 1, (1, 1): 1}], (1, 0), (1, 0), [[0, 0], [0, 1]]),
        # a a = a, b b = b, Delta(a) = b (x) a, Delta(b) = a (x) b, 1 = b, eps(b) = 1: a kernel
        # that the source rows make inconsistent
        (
            {(0, 0): {0: 1}, (1, 1): {1: 1}},
            [{(1, 0): 1}, {(0, 1): 1}],
            (0, 1),
            (0, 1),
            (NoAntipode, "antipode equations are inconsistent"),
        ),
    ],
)
def test_solver_branch_fallback(solver_branch, mult, comult, unit, counit, want):
    h = _two_dim(mult, comult, unit, counit)
    if isinstance(want, list):
        want = Matrix(QQ, want)
    assert solver_branch(h) == (want, "fallback")
    assert _solved(full_system_antipode, h) == want


def test_twisted_antipode_is_the_dense_conjugation():
    """S_Theta = v^{-1} S(.) v equals L(v^{-1}) R(v) S on dyn-twist-z2, dyn-z3 and the trivial twist of pair-2."""
    pair2 = groupoid_algebra(pair_groupoid(2))
    cases = [(build.host, build.twist) for build in (dyn_build(2), dyn_build(3))]
    cases.append((pair2, Twist(theta=dict(pair2.delta_one), theta_bar=dict(pair2.delta_one))))
    for h, t in cases:
        v, v_inv = twist_conjugator(h, t)
        assert twist(h, t).S == h.left_mult_matrix(v_inv) @ h.right_mult_matrix(v) @ h.S


# ---------------------------------------------------------------------------
# cached verdicts: validate_full against the uncached checks on a fresh copy


def uncached_report(h):
    """validate_full's report from the uncached checks, on a fresh copy of h with the same S object."""
    fresh = rebuild(h)
    checks = list(validate_weak_bialgebra(fresh).checks)
    if fresh.antipode is not None:
        checks += antipode_axiom_checks(fresh)
    return ValidationReport(checks).as_dict()


def _assert_cached_report_is_uncached(h):
    alg = rebuild(h)
    want = uncached_report(h)
    assert validate_full(alg).as_dict() == want
    assert validate_full(alg).as_dict() == want
    assert validate_full(h).as_dict() == want


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_cached_report_is_the_uncached_one_on_the_zoo(name):
    h = build_member(name)
    for alg in (h, h.dual):
        _assert_cached_report_is_uncached(alg)


@pytest.mark.parametrize("name", sorted(_make_builders()))
def test_cached_report_is_the_uncached_one_on_make(name):
    _assert_cached_report_is_uncached(_make_builders()[name]())


def test_cached_report_is_the_uncached_one_on_bumps():
    """At least 200 seeded single-constant bumps of the structure and of S."""
    rng = random.Random(20010114)
    count = 0
    failing = set()
    for name in ZOO_NAMES:
        h = build_member(name)
        if h.dim > 9:
            continue
        for _ in range(12):
            bad = corrupt(h, rng)
            _assert_cached_report_is_uncached(bad)
            failing.update(c.name for c in validate_full(bad).failures())
            count += 1
        for _ in range(3):
            _assert_cached_report_is_uncached(corrupt_antipode(h, rng))
            count += 1
    assert count >= 200
    assert {"associativity", "counit", "antipode_target", "antipode_source"} <= failing


@pytest.fixture
def verdict_calls(monkeypatch):
    """(kind, algebra) for each uncached bialgebra and antipode check the library runs."""
    calls = []
    antipode = wha.antipode_axiom_checks
    bialgebra = wha.validate_weak_bialgebra

    def antipode_spy(h, *args):
        calls.append(("antipode", h))
        return antipode(h, *args)

    def bialgebra_spy(h):
        calls.append(("bialgebra", h))
        return bialgebra(h)

    monkeypatch.setattr(wha, "antipode_axiom_checks", antipode_spy)
    monkeypatch.setattr(wha, "validate_weak_bialgebra", bialgebra_spy)

    def on(h):
        return [kind for kind, alg in calls if alg is h]

    on.count = lambda: len(calls)
    return on


SAME_DIM = [
    ("pair-2", "sweedler4"),
    ("sweedler4", "z2-z2-groupoid"),
    ("hmin-qq-1", "sweedler4"),
    ("dyn-host-z2", "dyn-twist-z2"),
    ("hmin-m2-g31", "hmin-m2-1"),
    ("dual-pair-2", "z2-z2-groupoid"),
]


@pytest.mark.parametrize("name, other", SAME_DIM)
def test_assigning_a_new_antipode_rechecks_it(name, other, verdict_calls):
    """Validate, take another S through ``with_antipode``, validate again: only the new S is checked.

    The set antipode itself cannot be reassigned.  The bialgebra verdict
    is handed on, and the antipode verdict only for the S object h checked.
    """
    h = rebuild(build_member(name))
    own = h.S
    assert validate_full(h).ok
    assert verdict_calls(h) == ["bialgebra", "antipode"]
    for s in (Matrix.zero(h.field, h.dim), build_member(other).S, own, Matrix(h.field, own.rows)):
        with pytest.raises(AttributeError, match="antipode"):
            h.antipode = s
        alg = h.with_antipode(s)
        got = validate_full(alg).as_dict()
        assert validate_full(alg).as_dict() == got
        assert got == uncached_report(alg)
        assert got["ok"] == (s == own)
        assert verdict_calls(alg) == ([] if s is own else ["antipode"])
    assert h.S is own and validate_full(h).ok
    assert verdict_calls(h) == ["bialgebra", "antipode"]
    assert build_member(other).S != own


def test_assigning_the_solved_antipode_reuses_its_check(verdict_calls):
    """The harness pattern ``h.antipode = solve_antipode(h)`` then ``validate_full(h)``."""
    h = _stripped(rebuild(build_member("dyn-twist-z2")))
    h.antipode = solve_antipode(h)
    assert verdict_calls(h) == ["antipode"]
    assert validate_full(h).as_dict() == uncached_report(h)
    assert verdict_calls(h) == ["antipode", "bialgebra"]
    with pytest.raises(AttributeError, match="antipode"):
        h.antipode = h.antipode


def test_twist_and_validate_full_validate_once(verdict_calls):
    """``whopf make dyntwist-host`` validates the twisted algebra in twist and again after it."""
    build = dyn_build(2)
    out = twist(build.host, build.twist, name="dyn-twist-z2")
    report = validate_full(out)
    assert report.ok and verdict_calls(out) == ["bialgebra", "antipode"]
    assert report.as_dict() == uncached_report(out)


# ---------------------------------------------------------------------------
# the dual's verdicts handed over from H


def _handoff_algebras():
    """name -> a fresh algebra: the zoo members and their duals, the ladder members, the make constructions."""
    out = {}
    for name in ZOO_NAMES:
        out[name] = lambda name=name: rebuild(build_member(name))
        out[f"{name}^*"] = lambda name=name: rebuild(build_member(name).dual)
    for name, build in {**_ladder_builders(), **_make_builders()}.items():
        out[name] = lambda build=build: rebuild(build())
    return out


HANDOFF = _handoff_algebras()


@pytest.mark.parametrize("name", sorted(HANDOFF))
def test_the_dual_of_a_validated_algebra_reads_its_verdicts(name, verdict_calls):
    """After validate_full(h) passes, dualize(h) validates with no scan of its own, as an uncached run would."""
    h = HANDOFF[name]()
    assert validate_full(h).ok
    dual = wha.dualize(h)
    got = validate_full(dual).as_dict()
    assert verdict_calls(dual) == []
    assert got == uncached_report(dual) and got["ok"]
    assert dual.associativity_witness is None and validate_full(dual).as_dict() == got
    zero = Matrix.zero(dual.field, dual.dim)  # only the dual's own S is handed over
    assert dual.antipode_checks(zero) == tuple(antipode_axiom_checks(dual, zero))
    assert verdict_calls(dual) == ["antipode"]


def test_the_dual_of_an_unvalidated_algebra_runs_its_own_scans(verdict_calls):
    h = rebuild(build_member("pair-3"))
    dual = wha.dualize(h)
    assert validate_full(dual).as_dict() == uncached_report(dual)
    assert verdict_calls(dual) == ["bialgebra", "antipode"]
    assert "bialgebra_checks" not in vars(h) and h._antipode_memo is None


def test_the_dual_keeps_no_reference_to_h_and_keeps_its_handed_verdicts(monkeypatch):
    """``dualize`` hands h's verdicts over when it builds the dual, so h can be collected at once."""
    h = rebuild(build_member("pair-3"))
    assert validate_full(h).ok
    dual = wha.dualize(h)
    ref = weakref.ref(h)
    del h
    gc.collect()
    assert ref() is None
    calls = []
    bialgebra, antipode = wha.validate_weak_bialgebra, wha.antipode_axiom_checks
    monkeypatch.setattr(wha, "validate_weak_bialgebra", lambda alg: calls.append("bialgebra") or bialgebra(alg))
    monkeypatch.setattr(wha, "antipode_axiom_checks", lambda alg, *a: calls.append("antipode") or antipode(alg, *a))
    got = validate_full(dual).as_dict()
    assert calls == []
    monkeypatch.undo()
    assert got == uncached_report(dual) and got["ok"]


def test_a_dual_built_before_h_validates_runs_its_own_scans(verdict_calls):
    """The one order that hands nothing over: the dual is built, then h is validated, then the dual."""
    h = rebuild(build_member("pair-3"))
    dual = wha.dualize(h)
    assert validate_full(h).ok
    got = validate_full(dual).as_dict()
    assert verdict_calls(dual) == ["bialgebra", "antipode"]
    assert got == uncached_report(dual) and got["ok"]


def _transposed(mult, comult):
    """True when mult[(j, k)][i] == comult[i][(j, k)] for every entry of either; neither holds zeros."""
    return sum(map(len, mult.values())) == sum(map(len, comult)) and all(
        comult[i].get(jk) == c for jk, cell in mult.items() for i, c in cell.items()
    )


@pytest.mark.parametrize("name", sorted(HANDOFF))
def test_dualize_transposes_every_table(name):
    """The handed verdicts hold because mult, comult, unit, counit and S of dualize(h) are
    h's comult, mult, counit, unit and S, transposed, entry by entry."""
    h = HANDOFF[name]()
    dual = wha.dualize(h)
    assert dual.field == h.field and (dual.unit, dual.counit) == (h.counit, h.unit)
    assert _transposed(dual.mult, h.comult) and _transposed(h.mult, dual.comult)
    assert dual.antipode == h.antipode.transpose()
    assert not any(0 in cell.values() for cell in dual.mult.values()) and not any(0 in c.values() for c in dual.comult)


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_check_member_scans_no_algebra_that_dualize_built(name, monkeypatch, verdict_calls):
    """Every dual that ``check_member`` validates starts with h's verdicts: it runs the bialgebra and
    antipode scans on h, and on the copy ``regularize`` builds where S^2 needs it, never on a dual."""
    h = rebuild(build_member(name))
    built = []
    dualize = wha.dualize

    def spy(alg):
        built.append(dualize(alg))
        return built[-1]

    monkeypatch.setattr(wha, "dualize", spy)
    monkeypatch.setattr(zoo, "dualize", spy)
    check_member(h)
    assert built and all(verdict_calls(d) == [] for d in built)
    assert verdict_calls(h) == ["bialgebra", "antipode"]
    assert verdict_calls.count() == (4 if name == "hmin-m2-g31" else 2)


def _bumped_copy(d, part):
    """d with one structure constant of ``part`` (or one entry of S) shifted by 1."""
    one = d.field.one()
    if part == "mult":
        key = min(d.mult)
        return bump(d, key, min(d.mult[key]), one)
    if part == "new-mult-entry":
        key = min(set(itertools.product(range(d.dim), repeat=2)) - set(d.mult))
        return bump(d, key, 0, one)
    if part == "dropped-mult-entry":
        key = min(d.mult)
        k = min(d.mult[key])
        return bump(d, key, k, -d.mult[key][k])
    if part == "comult":
        comult = [dict(c) for c in d.comult]
        jk = min(comult[0])
        comult[0][jk] += one
        return rebuild(d, comult=comult)
    if part == "antipode":
        rows = [list(row) for row in d.S.rows]
        rows[0][0] += one
        return WeakHopfAlgebra(d.field, d.labels, d.mult, d.unit, d.comult, d.counit, antipode=rows, name=d.name)
    vec = list(getattr(d, part))
    vec[0] += one
    return rebuild(d, **{part: vec})


@pytest.mark.parametrize(
    "part", ["mult", "new-mult-entry", "dropped-mult-entry", "comult", "unit", "counit", "antipode"]
)
@pytest.mark.parametrize("name", ["pair-2", "s3-group", "hmin-m2-g31", "sweedler4"])
def test_a_bumped_dual_runs_its_own_scans_and_reports_its_own_witness(name, part, monkeypatch, verdict_calls):
    """A ``dualize`` that bumps one constant of H* builds a new algebra, which takes none of h's verdicts."""
    dualize = wha.dualize
    monkeypatch.setattr(wha, "dualize", lambda h: _bumped_copy(dualize(h), part))
    h = rebuild(build_member(name))
    assert validate_full(h).ok
    dual = h.dual
    report = validate_full(dual).as_dict()
    assert verdict_calls(dual) == ["bialgebra", "antipode"]
    assert report == uncached_report(dual) and not report["ok"]


def test_a_failing_algebra_gives_its_dual_its_own_scans(verdict_calls):
    """Seeded corruptions of H: each kind of check that fails on H is scanned again on H*.

    The antipode axioms of H* are H's, transposed, whatever the bialgebra
    verdict, so a kind that passes on H is still handed over.
    """
    rng = random.Random(20010119)
    count = 0
    failing = set()
    kinds = set()
    for name in ZOO_NAMES:
        h = build_member(name)
        if h.dim > 9:
            continue
        for bad in [corrupt(h, rng) for _ in range(4)] + [corrupt_antipode(h, rng)]:
            report = validate_full(bad)
            if report.ok:
                continue
            own = [
                kind
                for kind, checks in (("bialgebra", bad.bialgebra_checks), ("antipode", bad.antipode_checks(bad.S)))
                if not all(c.ok for c in checks)
            ]
            dual = wha.dualize(bad)
            got = validate_full(dual).as_dict()
            assert got == uncached_report(dual) and not got["ok"]
            assert verdict_calls(dual) == own
            kinds.update(own)
            failing.update(c["axiom"] for c in got["checks"] if not c["ok"])
            count += 1
    assert count >= 40 and kinds == {"bialgebra", "antipode"}
    assert {"associativity", "coassociativity", "unit", "counit", "antipode_target"} <= failing


# ---------------------------------------------------------------------------
# product kernels: the table index against probing every index pair


def probe_mul_vec(h, a, b):
    zero = h.field.zero()
    out = [zero] * h.dim
    nzb = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in nzb:
            cell = h.mult.get((i, j))
            if cell:
                xy = x * y
                for k, c in cell.items():
                    out[k] += xy * c
    return tuple(out)


def probe_mult_matrix(h, a, left):
    zero = h.field.zero()
    nonzeros = [(i, x) for i, x in enumerate(a) if x]
    cols = []
    for j in range(h.dim):
        col = [zero] * h.dim
        for i, x in nonzeros:
            cell = h.mult.get((i, j) if left else (j, i))
            if cell:
                for k, c in cell.items():
                    col[k] += x * c
        cols.append(col)
    return Matrix.from_columns(h.field, cols)


def probe_mul_pair_dicts(h, p, q):
    zero = h.field.zero()
    out = {}
    for (a, b), cp in p.items():
        for (c, d), cq in q.items():
            m1 = h.mult.get((a, c))
            if not m1:
                continue
            m2 = h.mult.get((b, d))
            if not m2:
                continue
            cc = cp * cq
            for k1, c1 in m1.items():
                for k2, c2 in m2.items():
                    key = (k1, k2)
                    out[key] = out.get(key, zero) + cc * c1 * c2
    return _pruned(out)


def probe_mul_triple_dicts(h, p, q):
    zero = h.field.zero()
    out = {}
    for (a1, a2, a3), cp in p.items():
        for (b1, b2, b3), cq in q.items():
            m1 = h.mult.get((a1, b1))
            if not m1:
                continue
            m2 = h.mult.get((a2, b2))
            if not m2:
                continue
            m3 = h.mult.get((a3, b3))
            if not m3:
                continue
            cc = cp * cq
            for k1, c1 in m1.items():
                for k2, c2 in m2.items():
                    cc2 = cc * c1 * c2
                    for k3, c3 in m3.items():
                        key = (k1, k2, k3)
                        out[key] = out.get(key, zero) + cc2 * c3
    return _pruned(out)


def probe_associativity(h, rows):
    n = h.dim
    zero = h.field.zero()
    for i in rows:
        for j in range(n):
            tij = h.mult.get((i, j), {})
            for l in range(n):
                lhs = {}
                for k, c in tij.items():
                    cell = h.mult.get((k, l))
                    if cell:
                        for m, c2 in cell.items():
                            lhs[m] = lhs.get(m, zero) + c * c2
                rhs = {}
                for k, c in h.mult.get((j, l), {}).items():
                    cell = h.mult.get((i, k))
                    if cell:
                        for m, c2 in cell.items():
                            rhs[m] = rhs.get(m, zero) + c * c2
                if lhs != rhs and _pruned(lhs) != _pruned(rhs):
                    return (i, j, l)
    return None


def _dead_row_table():
    """Dim 3: k[Z2] on e0, e1 and an e2 whose every product is zero (not a weak Hopf algebra)."""
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
    comult = [{(0, 0): 1}, {(1, 1): 1}, {(2, 2): 1, (0, 2): -1}]
    return WeakHopfAlgebra(QQ, ["e0", "e1", "e2"], mult, [1, 0, 0], comult, [1, 1, 0], name="dead-row")


def _kernel_algebras():
    """name -> algebra: the zoo members and their duals, the make constructions, the ladder members."""
    out = {}
    for name in ZOO_NAMES:
        h = build_member(name)
        out[name] = h
        out[name + "^*"] = h.dual
    builders = {**_make_builders(), **_ladder_builders()}
    out.update({name: build() for name, build in builders.items()})
    out["dead-row"] = _dead_row_table()
    return out


KERNEL_ALGEBRAS = _kernel_algebras()


def _sparse_vector(h, rng, support):
    vec = [h.field.zero()] * h.dim
    for i in rng.sample(range(h.dim), min(support, h.dim)):
        vec[i] = h.field.from_int(rng.choice([-2, -1, 1, 3]))
    return tuple(vec)


def _sparse_tensor(h, rng, legs, size):
    return {
        tuple(rng.randrange(h.dim) for _ in range(legs)): h.field.from_int(rng.choice([-1, 1, 2]))
        for _ in range(size)
    }


def assert_kernels_match_probes(h, rng):
    """Every product kernel of h against its probe oracle, on seeded vectors and tensors."""
    zero = (h.field.zero(),) * h.dim
    vectors = [zero, h.unit, tuple(generic_vector(h))]
    vectors += [_basis(h, i) for i in rng.sample(range(h.dim), min(3, h.dim))]
    vectors += [_sparse_vector(h, rng, support) for support in (1, 2, h.dim // 2)]
    for a in vectors:
        for left in (True, False):
            got = h.left_mult_matrix(a) if left else h.right_mult_matrix(a)
            assert got == probe_mult_matrix(h, a, left)
        for b in vectors:
            assert h.mul_vec(a, b) == probe_mul_vec(h, a, b)
    pairs = [{}, h.delta_one] + [h.comult[i] for i in rng.sample(range(h.dim), min(3, h.dim))]
    pairs += [_sparse_tensor(h, rng, 2, size) for size in (1, 4, 12)]
    for p in pairs:
        for q in pairs:
            assert h.mul_pair_dicts(p, q) == probe_mul_pair_dicts(h, p, q)
    one = [(i, c) for i, c in enumerate(h.unit) if c]
    d1_left = {(j, k, i): c * ci for (j, k), c in h.delta_one.items() for i, ci in one}
    d1_right = {(i, j, k): c * ci for (j, k), c in h.delta_one.items() for i, ci in one}
    triples = [{}, d1_left, d1_right] + [_sparse_tensor(h, rng, 3, size) for size in (1, 6, 20)]
    for p in triples:
        for q in triples:
            assert h.mul_triple_dicts(p, q) == probe_mul_triple_dicts(h, p, q)
    for rows in (range(h.dim), generating_rows(h, _full(h))):
        assert wha._associativity(h, rows) == probe_associativity(h, rows)


@pytest.mark.parametrize("name", sorted(KERNEL_ALGEBRAS))
def test_product_kernels_match_the_probes(name):
    assert_kernels_match_probes(KERNEL_ALGEBRAS[name], random.Random(name))


def test_product_kernels_match_the_probes_on_non_associative_bumps():
    """Seeded bumps of one structure constant of ``mult``; most break associativity."""
    rng = random.Random(20010115)
    witnesses = []
    for name in ZOO_NAMES:
        h = build_member(name)
        if h.dim > 9:
            continue
        for _ in range(4):
            bad = corrupt(h, rng, parts=("mult",))
            assert_kernels_match_probes(bad, rng)
            witnesses.append(probe_associativity(bad, range(bad.dim)))
            report = validate_full(bad).as_dict()["checks"][0]
            assert report["axiom"] == "associativity"
            assert report.get("witness") == (list(witnesses[-1]) if witnesses[-1] else None)
    assert len(witnesses) >= 40 and sum(w is not None for w in witnesses) >= 20


def test_dead_row_table_has_empty_index_lines():
    h = KERNEL_ALGEBRAS["dead-row"]
    assert h.mult_rows[2] == {} and h.mult_cols[2] == {}
    e2 = _basis(h, 2)
    assert h.mul_vec(e2, h.unit) == h.mul_vec(h.unit, e2) == (0, 0, 0)
    assert h.left_mult_matrix(e2) == Matrix.zero(QQ, 3) == h.right_mult_matrix(e2)
    assert h.mul_pair_dicts({(2, 0): 1}, {(0, 0): 1}) == {} == h.mul_pair_dicts({(0, 0): 1}, {(0, 2): 1})
    assert wha._associativity(h, range(3)) is None



def probe_antipode_rows(h):
    """The target and composite rows as built before the index: by_first from mult, L(eps_s(e_j)) dense."""
    n = h.dim
    zero = h.field.zero()
    by_first = {}
    for (j, m), cell in h.mult.items():
        by_first.setdefault(j, []).append((m, cell))
    rows, rhs = [], []

    def emit(coeffs, col):
        per_p = {}
        for (p, unk), v in coeffs.items():
            if v:
                per_p.setdefault(p, {})[unk] = v
        for p in range(n):
            rows.append(per_p.get(p, {}))
            rhs.append(col[p])

    for i in range(n):
        coeffs = {}
        for (j, k), c in h.comult[i].items():
            for m, cell in by_first.get(j, ()):
                for p, cmu in cell.items():
                    coeffs[p, m * n + k] = coeffs.get((p, m * n + k), zero) + c * cmu
        emit(coeffs, h.eps_t_mat.col(i))
    for i in range(n):
        coeffs = {}
        for (j, k), c in h.comult[i].items():
            w = h.left_mult_matrix(h.eps_s_mat.col(j))
            for p, wrow in enumerate(w.rows):
                for q, v in enumerate(wrow):
                    if v:
                        coeffs[p, q * n + k] = coeffs.get((p, q * n + k), zero) + c * v
        for p in range(n):
            coeffs[p, p * n + i] = coeffs.get((p, p * n + i), zero) - h.field.one()
        emit(coeffs, [zero] * n)
    return rows, rhs


def _solver_case(name):
    """A make construction, or a zoo member (its dual for a trailing ^*)."""
    if name in _make_builders():
        return _make_builders()[name]()
    h = build_member(name.removesuffix("^*"))
    return h.dual if name.endswith("^*") else h


@pytest.mark.parametrize(
    "name", sorted(_make_builders()) + ["pair-3", "hmin-m2-g31", "sweedler4^*", "dyn-twist-z2^*"]
)
def test_solver_rows_keep_their_order(name, monkeypatch):
    """The index changes how the rows are found, not the rows, their order or their entries' order.

    On the two duals some L(eps_s(e_j)) has its nonzeros out of row-major
    order when read row by row from the index.
    """
    h = _stripped(_solver_case(name))
    systems = []

    def spy(rows, rhs, ncols, field):
        systems.append(([list(row.items()) for row in rows], list(rhs)))
        return solve_sparse(rows, rhs, ncols, field)

    monkeypatch.setattr(wha, "solve_sparse", spy)
    monkeypatch.setattr(wha, "_solve_modular", _exact_only)
    solve_antipode(h)
    rows, rhs = probe_antipode_rows(h)
    assert systems[0] == ([list(row.items()) for row in rows], rhs)


@pytest.mark.parametrize(
    "name", sorted(_make_builders()) + ["pair-3", "hmin-m2-g31", "sweedler4^*", "dyn-twist-z2^*"]
)
def test_modular_rows_are_the_exact_rows_mod_p(name):
    """Under every embedding into F_p the rows are the exact rows mapped entry by entry, in the same
    order, once both are reduced mod p with zeros dropped; so are the right-hand sides."""
    h = _stripped(_solver_case(name))
    left = {}
    exact = list(wha._antipode_rows(h, left))
    modular = h.field.modular()
    p = modular.p

    def reduced(pairs):
        return [([(j, v % p) for j, v in row.items() if v % p], b % p) for row, b in pairs]

    for image in modular.embeddings():
        mapped = [({j: image(v) for j, v in row.items()}, image(b)) for row, b in exact]
        assert reduced(wha._antipode_rows(h, left, image)) == reduced(mapped)


# ---------------------------------------------------------------------------
# one matrix product and one S^2: the sparse row join against the earlier products


def dense_matmul(a, b):
    """The earlier body of ``Matrix.__matmul__``: each entry a dot product with a column of b."""
    cols = list(zip(*b.rows))
    zero = a.field.zero()
    out = []
    for r in a.rows:
        nz = [(j, x) for j, x in enumerate(r) if x]
        out.append([sum((x * c[j] for j, x in nz), zero) for c in cols])
    return Matrix(a.field, out)


def table_product(x, y, zero):
    """The earlier product of ``is_dual_grouplike``: square tables (lists of rows), zeros skipped."""
    y_rows = [[(b, t) for b, t in enumerate(row) if t] for row in y]
    out = []
    for row in x:
        acc = [zero] * len(y)
        for i, v in enumerate(row):
            if v:
                for b, t in y_rows[i]:
                    acc[b] += v * t
        out.append(acc)
    return out


def table_product_is_dual_grouplike(h, gamma):
    """The earlier body of ``is_dual_grouplike``, on ``table_product`` and lists of rows."""
    fn = Functional(h, gamma)
    if not fn.is_invertible():
        return False
    n = h.dim
    zero = h.field.zero()
    g2 = oracle_pairing_table(h, fn)
    s_rows = h.S.rows
    first = table_product(list(zip(*s_rows)), g2, zero)
    second = table_product(g2, s_rows, zero)
    c = [[zero] * n for _ in range(n)]
    for (j, k), w in h.delta_one.items():
        c[j][k] = w
    rhs1 = table_product(g2, table_product(c, first, zero), zero)
    rhs2 = table_product(table_product(second, c, zero), g2, zero)
    return g2 == rhs1 == rhs2


def assert_products_agree(a, b):
    got = a @ b
    assert got == dense_matmul(a, b)
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    if a.nrows == a.ncols == b.nrows == b.ncols:
        assert got == Matrix(a.field, table_product(a.rows, b.rows, a.field.zero()))


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_matrix_product_matches_the_earlier_products_on_the_zoo(name):
    h = build_member(name)
    s, s_dual = h.S, h.dual.S
    s2 = dense_matmul(s, s)
    s4 = dense_matmul(s2, s2)
    for a, b in ((s, s), (s2, s2), (s4, s4), (s_dual, s_dual), (s, s2), (s2, s), (h.eps_s_mat, s)):
        assert_products_agree(a, b)
    assert h.S2 == s2 and h.dual.S2 == dense_matmul(s_dual, s_dual)
    assert s.power(4) == s4 == h.S2 @ h.S2


def _random_matrix(rng, field, nrows, ncols, density):
    def entry():
        if rng.random() >= density:
            return field.zero()
        x = field.from_fraction(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        return x + field.zeta() * rng.randint(-2, 2) if field.kind == "cyclotomic" else x

    return Matrix(field, [[entry() for _ in range(ncols)] for _ in range(nrows)])


@pytest.mark.parametrize("field", [QQ, CyclotomicField(3)], ids=["QQ", "Q(zeta3)"])
def test_matrix_product_matches_the_earlier_products_on_shapes_and_seeded_matrices(field):
    rng = random.Random(19780301)
    for n, m, p in ((1, 1, 1), (2, 3, 4), (1, 5, 1), (5, 1, 5), (4, 4, 4), (7, 7, 7), (3, 6, 2)):
        for density in (0.0, 0.15, 0.5, 1.0):
            a = _random_matrix(rng, field, n, m, density)
            b = _random_matrix(rng, field, m, p, density)
            assert_products_agree(a, b)
            assert_products_agree(Matrix.identity(field, n), a)
            assert_products_agree(a, Matrix.identity(field, m))
            assert_products_agree(Matrix.zero(field, n, m), b)
            assert_products_agree(a, Matrix.zero(field, m, p))
            assert a @ Matrix.identity(field, m) == a == Matrix.identity(field, n) @ a
    empty = Matrix(field, [[] for _ in range(3)])
    assert_products_agree(empty, Matrix(field, []))
    assert (empty @ Matrix(field, [])).rows == ((), (), ())


@pytest.mark.parametrize("name", ["pair-2", "sweedler4", "dyn-twist-z2", "hmin-m2-g31"])
def test_a_set_antipode_cannot_be_reassigned_under_its_cached_values(name):
    """S_inv, the dual and S^2 are read, then S is reassigned: it raises, and all three still fit S."""
    h = rebuild(build_member(name))
    own = h.S
    s_inv, dual, s2 = h.S_inv, h.dual, h.S2
    for s in (Matrix.identity(h.field, h.dim), Matrix(h.field, own.rows), own, None):
        with pytest.raises(AttributeError, match="antipode"):
            h.antipode = s
    assert h.S is own and (h.S_inv, h.dual, h.S2) == (s_inv, dual, s2)
    assert dense_matmul(own, s_inv) == Matrix.identity(h.field, h.dim)
    assert dual.S == own.transpose()
    assert s2 == dense_matmul(own, own)
    assert validate_full(h).ok and validate_full(h.dual).ok


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_check_member_squares_each_antipode_once(name, monkeypatch):
    """``check_member`` reads S^2 (and S^4 = S2 @ S2) from the cache, and keeps no H** on the dual.

    No matrix is squared twice; the double dual it compares with h is a
    temporary, not the dual's cached ``dual``.
    """
    squared = []
    matmul = Matrix.__matmul__

    def spy(a, b):
        if a is b:
            squared.append(a)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", spy)
    h = rebuild(build_member(name))
    assert check_member(h)["ok"]
    assert sum(s is h.S for s in squared) == 1
    assert len({id(s) for s in squared}) == len(squared)
    assert "dual" not in vars(h.dual)


# ---------------------------------------------------------------------------
# the semisimplicity battery through the table index: the earlier bodies


def oracle_generating_indices(h):
    """The earlier greedy generating set of the full space: basis indices, products e_x w by probing rows."""
    n = h.dim
    field = h.field
    one = field.one()
    zero = field.zero()

    def left_product(x, w):
        out = {}
        for k, c in w.items():
            for m, cm in h.mult_rows[x].get(k, {}).items():
                out[m] = out.get(m, zero) + c * cm
        return out

    span = {}
    gens, words, todo = [], [], []
    g = 0
    while len(span) < n:
        while wha._insert(span, ((g, one),), field) is None:
            g += 1
        e = {g: one}
        todo += [(g, w) for w in words]
        gens.append(g)
        words.append(e)
        todo += [(x, e) for x in gens]
        while todo and len(span) < n:
            x, w = todo.pop()
            c = wha._insert(span, left_product(x, w).items(), field)
            if c is not None:
                words.append(span[c])
                todo += [(y, span[c]) for y in gens]
    return gens


def solve_min_poly_in(h, space, unit, x):
    """The earlier ``_min_poly_in``: a matrix of every earlier power, rebuilt and solved at each degree."""
    field = h.field
    rows = [space.coords(unit)]
    power = unit
    while True:
        power = h.mul_vec(power, x)
        coords = space.coords(power)
        if coords is None:
            raise Inconsistent("component not closed under multiplication")
        sol = try_solve(Matrix(field, rows).transpose(), coords)
        if sol is not None:
            return [-c for c in sol[0]] + [field.one()]
        rows.append(coords)


def eager_primitive_idempotents(h, space, unit=None):
    """The earlier ``primitive_idempotents``: every candidate p a made up front, every product dense."""
    field = h.field
    unit = tuple(unit if unit is not None else h.unit)
    if not space.contains(unit):
        raise PreconditionUnmet("unit must lie in the subalgebra")
    pending = [(space, unit)]
    finished = []
    while pending:
        comp, p = pending.pop()
        if comp.dim == 1:
            finished.append(Element(h, p))
            continue
        split = None
        rootless = False
        candidates = []
        seen = set()
        for a in list(space.rows) + list(comp.rows):
            x = h.mul_vec(p, a)
            if any(x) and x not in seen:
                seen.add(x)
                candidates.append(x)
        for bvec in candidates:
            f = solve_min_poly_in(h, comp, p, bvec)
            if len(f) <= 2:
                continue
            roots = semisimplicity._roots_in_field(f, field)
            if not roots:
                rootless = True
                continue
            for r in roots:
                linear = [-r, field.one()]
                power = [field.one()]
                rem = list(f)
                while True:
                    q, rr = _poly_divmod(rem, linear, field)
                    if rr:
                        break
                    rem = q
                    power = _poly_mul(power, linear, field)
                if len(rem) <= 1:
                    continue
                split = (bvec, power, rem)
                break
            if split:
                break
        if split is None:
            if rootless:
                raise NonSplit("minimal polynomial without a root in the field")
            finished.append(Element(h, p))
            continue
        xvec, power, cofactor = split
        u, _w, g = _poly_ext_gcd(power, cofactor, field)
        if len(g) != 1:
            raise Inconsistent("factors not coprime")
        e_vec = dense_eval_poly_at(h, _poly_mul(u, power, field), xvec, p)
        if h.mul_vec(e_vec, e_vec) != e_vec:
            raise Inconsistent("split element is not idempotent")
        e_comp = tuple(a - b for a, b in zip(p, e_vec))
        for q in (e_vec, e_comp):
            sub = Subspace.from_vectors(field, h.dim, [h.mul_vec(q, b) for b in comp.rows])
            pending.append((sub, q))
    finished.sort(key=lambda e: tuple(field.format(c) for c in e.coeffs))
    total = (field.zero(),) * h.dim
    for e in finished:
        for q in finished:
            if e is not q and any(h.mul_vec(e.coeffs, q.coeffs)):
                raise Inconsistent("idempotents not orthogonal")
        total = tuple(a + b for a, b in zip(total, e.coeffs))
    if total != unit:
        raise Inconsistent("idempotents do not sum to the unit")
    return finished


def dense_eval_poly_at(h, f, x, unit):
    """f(x) with the powers of x taken from unit, on dense vectors."""
    acc = (h.field.zero(),) * h.dim
    power = unit
    for c in f:
        if c:
            acc = tuple(a + c * b for a, b in zip(acc, power))
        power = h.mul_vec(power, x)
    return acc


def subspace_block_traces(h, idempotents):
    """The earlier ``_block_traces``: pH and pHp as subspaces, traced by ``restricted_trace``."""
    out = []
    for e in idempotents:
        p = e.coeffs
        p_basis = [h.mul_vec(p, _basis(h, i)) for i in range(h.dim)]
        ph = Subspace.from_vectors(h.field, h.dim, p_basis)
        php = Subspace.from_vectors(h.field, h.dim, [h.mul_vec(v, p) for v in p_basis])
        out.append((repr(e), restricted_trace(h, h.S2, ph), restricted_trace(h, h.S2, php)))
    return out


def subspace_left_ideal_trace(h, pi):
    """The earlier dual-block trace: H pi as a subspace, traced by ``restricted_trace``."""
    space = Subspace.from_vectors(h.field, h.dim, [h.mul_vec(_basis(h, i), pi) for i in range(h.dim)])
    return restricted_trace(h, h.S2, space)


def nonzero_columns(m):
    """For each column of the Matrix m, its (row, value) pairs with nonzero value, read from the dense rows."""
    return [[(r, v) for r, v in enumerate(col) if v] for col in zip(*m.rows)]


def dense_invariance_failures(h, deltas, table, name):
    """The earlier ``_invariance_failures``: two dense n-vectors per basis pair."""
    n = h.dim
    zero = h.field.zero()
    s_cols = nonzero_columns(h.S)
    failures = []
    for a in range(n):
        for b in range(n):
            lhs = [zero] * n
            for (j, k), c in deltas[a].items():
                v = c * table[b][k]
                if v:
                    lhs[j] += v
            rhs = [zero] * n
            for (j, k), c in deltas[b].items():
                v = c * table[k][a]
                if v:
                    for r, y in s_cols[j]:
                        rhs[r] += v * y
            if lhs != rhs:
                failures.append((name, a, b))
    return failures


def _raised(fn, *args):
    """The value of fn(*args), or the class and message of the WhopfError it raised."""
    try:
        return fn(*args)
    except WhopfError as exc:
        return (type(exc), str(exc))


BATTERY = [*ZOO_NAMES, *_ladder_builders()]


def battery_algebras(name):
    """The zoo member and its dual, or the ladder member itself."""
    if name in ZOO_NAMES:
        h = build_member(name)
        return [h, h.dual]
    return [_ladder_builders()[name]()]


def _centralized(h):
    """The commutative subalgebras whose idempotents the semisimplicity report splits."""
    hmin = h.minimal_subalgebra
    return [h.center_cap_source, h.centralizer_in(hmin, against=hmin)]


def _idempotent_basis_elements(h):
    """The basis elements e with e e = e: idempotents that need not be central."""
    return [h.basis_element(i) for i in range(h.dim) if h.mul_vec(_basis(h, i), _basis(h, i)) == _basis(h, i)]


def assert_rank_factors(e):
    """``_rank_factors(E)``: U V = E, V the rows of rref(E) and U the pivot columns of E; returns the rank."""
    field, zero = e.field, e.field.zero()
    us, vs = wha._rank_factors(e)
    rows, pivots = rref(e.rows, field)
    assert len(us) == len(vs) == len(pivots)
    assert [tuple(v.get(j, zero) for j in range(e.ncols)) for v in vs] == list(rows)
    assert [tuple(u.get(k, zero) for k in range(e.nrows)) for u in us] == [e.col(p) for p in pivots]
    product = [
        [sum((u.get(k, zero) * v.get(j, zero) for u, v in zip(us, vs)), zero) for j in range(e.ncols)]
        for k in range(e.nrows)
    ]
    assert Matrix(field, product) == e
    return len(vs)


@st.composite
def rank_factor_case(draw):
    """A sparse matrix over QQ or Q(zeta_3): random, zero (rank 0) or unit upper triangular (full rank)."""
    field = draw(st.sampled_from([QQ, CyclotomicField(3)]))
    small = st.integers(-3, 3)

    def scalar():
        if draw(st.booleans()):
            return field.zero()
        x = field.from_fraction(Fraction(draw(small), draw(st.integers(1, 3))))
        return x + field.zeta() * draw(small) if field is not QQ else x

    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["random", "zero", "full"]))
    rows = [[field.zero() if kind == "zero" else scalar() for _ in range(ncols)] for _ in range(nrows)]
    if kind == "full":
        for i in range(min(nrows, ncols)):
            rows[i][: i + 1] = [field.zero()] * i + [field.one()]
    return kind, Matrix(field, rows)


@settings(max_examples=150, deadline=None)
@given(rank_factor_case())
def test_rank_factors_of_random_sparse_matrices(case):
    kind, e = case
    rank = assert_rank_factors(e)
    if kind != "random":
        assert rank == (0 if kind == "zero" else min(e.nrows, e.ncols))


@pytest.mark.parametrize("name", BATTERY)
def test_rank_factors_of_delta_one_and_e2(name):
    for h in battery_algebras(name):
        assert_rank_factors(wha._matrix_of_pairs(h, h.delta_one))
        assert_rank_factors(h.counit_product)


@pytest.mark.parametrize("name", BATTERY)
def test_generating_rows_of_the_full_space_are_the_earlier_indices(name):
    for h in battery_algebras(name):
        assert generating_rows(h, _full(h)) == oracle_generating_indices(h)


@pytest.mark.parametrize("name", BATTERY)
def test_centralizers_on_generating_rows_match_the_dense_system(name):
    for h in battery_algebras(name):
        full = _full(h)
        hmin = h.minimal_subalgebra
        for space, against in [
            (full, None),
            (h.source_base, None),
            (full, h.target_base),
            (full, h.source_base),
            (full, hmin),
            (hmin, hmin),
        ]:
            assert h.centralizer_in(space, against) == oracle_centralizer_in(h, space, against)


def test_generating_rows_stop_only_when_every_row_is_spanned():
    """On M_2, against = span(m12 + m21, m22) is not closed under products.

    The words over its first row, the swap w, reach w^2 = 1 and so the
    dimension of ``against`` without containing m22: stopping there would
    leave the centralizer of w, span(1, w), in place of the scalars.
    """
    h = build_member("pair-2")
    assert h.labels == ("m11", "m12", "m21", "m22")
    against = Subspace.from_vectors(h.field, h.dim, [(0, 1, 1, 0), (0, 0, 0, 1)])
    w = against.rows[0]
    assert h.mul_vec(w, w) == h.unit
    words = Subspace.from_vectors(h.field, h.dim, [w, h.unit])  # w, w^2 = 1, w^3 = w, ...
    assert words.dim == against.dim and not words.contains(against.rows[1])
    assert generating_rows(h, against) == [0, 1]
    full = _full(h)
    got = h.centralizer_in(full, against)
    assert got == oracle_centralizer_in(h, full, against) == Subspace.from_vectors(h.field, h.dim, [h.unit])
    assert oracle_centralizer_in(h, full, Subspace.from_vectors(h.field, h.dim, against.rows[:1])).dim == 2


@pytest.mark.parametrize("name, key, k", [("pair-2", (0, 1), 0), ("pair-3", (0, 5), 0)])
def test_non_associative_centralizers_use_every_row(name, key, k):
    """With associativity failing, commuting with G no longer implies commuting with H.

    On the bumped pair-3 the generating rows alone give a different answer
    than the dense system, so only the all-rows fallback matches it.
    """
    h = bump(build_member(name), key, k, 1)
    assert not next(c for c in validate_full(h).checks if c.name == "associativity").ok
    full = _full(h)
    gens = Subspace.from_vectors(h.field, h.dim, [_basis(h, g) for g in generating_rows(h, full)])
    differs = False
    for space in (full, h.source_base, h.target_base):
        want = oracle_centralizer_in(h, space)
        assert h.centralizer_in(space) == want
        differs |= oracle_centralizer_in(h, space, gens) != want
    assert differs == (name == "pair-3")


@pytest.mark.parametrize("name", BATTERY)
def test_primitive_idempotents_match_the_eager_candidates(name):
    for h in battery_algebras(name):
        spaces = [(h, space) for space in _centralized(h)]
        dual = h.dual
        spaces.append((dual, dual.source_base.intersect(dual.target_base)))
        for alg, space in spaces:
            got = _raised(primitive_idempotents, alg, space, alg.unit)
            want = _raised(eager_primitive_idempotents, alg, space, alg.unit)
            assert got == want
            if isinstance(got, list):
                assert [e.coeffs for e in got] == [e.coeffs for e in want]


@pytest.mark.parametrize("name", BATTERY)
def test_minimal_polynomials_match_the_solved_ones(name, monkeypatch):
    """The echelon minimal polynomial is the solved one.

    On every component the semisimplicity report splits, and in the whole
    algebra for the basis elements and a generic vector, whose degrees reach
    beyond the quadratics of the split components (nilpotents included).
    """
    algebras = battery_algebras(name)
    min_poly = semisimplicity._min_poly_in
    for h in algebras:
        full = _full(h)
        for x in [generic_vector(h)] + [_basis(h, i) for i in range(h.dim)]:
            assert min_poly(h, full, h.one.terms, Element(h, x).terms) == solve_min_poly_in(h, full, h.unit, x)

    def spy(h, space, unit, x):
        """The library passes sparse vectors; the solved oracle reads their dense views."""
        got = min_poly(h, space, unit, x)
        assert got == solve_min_poly_in(h, space, Element._of(h, unit).coeffs, Element._of(h, x).coeffs)
        return got

    monkeypatch.setattr(semisimplicity, "_min_poly_in", spy)
    for h in algebras:
        semisimplicity.semisimplicity_report(h, canonical_dual_pair(h))


@pytest.mark.parametrize("name", BATTERY)
def test_block_traces_match_the_subspace_traces(name):
    for h in battery_algebras(name):
        for space in _centralized(h):
            try:
                idem = primitive_idempotents(h, space, unit=h.unit)
            except NonSplit:
                continue
            assert semisimplicity._block_traces(h, idem) == subspace_block_traces(h, idem)
        for e in _idempotent_basis_elements(h):
            assert _raised(semisimplicity._block_traces, h, [e]) == _raised(subspace_block_traces, h, [e])
        dual = h.dual
        try:
            dual_idem = primitive_idempotents(dual, dual.source_base.intersect(dual.target_base), unit=dual.unit)
        except NonSplit:
            continue
        for e in dual_idem + _idempotent_basis_elements(dual):
            got = _raised(semisimplicity._left_ideal_trace, dual, e.terms)
            assert got == _raised(subspace_left_ideal_trace, dual, e.coeffs)


@pytest.mark.parametrize(
    "p, invariant",
    [
        ((Fraction(1, 2), Fraction(1, 2), 1, 0), ()),
        ((Fraction(1, 2), Fraction(1, 2), 1, 1), ("pH",)),
    ],
    ids=["neither", "pH-only"],
)
def test_non_invariant_blocks_raise_as_before(p, invariant):
    """On Sweedler's algebra, p = (e + g)/2 + x (+ gx) is idempotent and S^2(p) != p.

    With q = S^2(p): for (e + g)/2 + x, pq != q, so pH is not invariant;
    for (e + g)/2 + x + gx, pq = q but qp != q, so pH is invariant and pHp
    is not.  Both raise what ``restricted_trace`` raises on the subspaces.
    """
    h = build_member("sweedler4")
    assert h.labels == ("e", "g", "x", "gx")
    p = Element(h, p)
    q = h.S2.matvec(p.coeffs)
    assert (p * p).coeffs == p.coeffs and q != p.coeffs
    assert (("pH",) if h.mul_vec(p.coeffs, q) == q else ()) == invariant
    assert h.mul_vec(q, p.coeffs) != q
    want = (Inconsistent, "subspace not invariant under the operator")
    assert _raised(subspace_block_traces, h, [p]) == want
    assert _raised(semisimplicity._block_traces, h, [p]) == want


@pytest.mark.parametrize("name", BATTERY)
def test_invariance_sums_match_the_dense_loops(name):
    """Both identities on lambda and lambda o S, and on perturbed ones whose failure lists are not empty."""
    for h in battery_algebras(name):
        pair = canonical_dual_pair(h)
        swapped = [{(k, j): c for (j, k), c in d.items()} for d in h.comult]
        lam = list(pair.lam.coeffs)
        bumps = [_basis(h, i) for i in sorted({0, h.dim - 1})] + [generic_vector(h)]
        bent = [[x + y for x, y in zip(lam, bump)] for bump in bumps]
        cases = [(h.pairing_table(phi), h.comult, "left_invariance") for phi in [lam, *bent]]
        for rho in [h.S.transpose().matvec(lam), *bent]:
            cases.append((h.pairing_table(rho).transpose(), swapped, "right_invariance"))
        failing = set()
        for table, deltas, side in cases:
            got = integrals._invariance_failures(h, deltas, table, side)
            assert got == dense_invariance_failures(h, deltas, table.rows, side)
            failing.update(side for side, _a, _b in got)
        assert failing == {"left_invariance", "right_invariance"}


def test_check_member_on_the_ladder_reads_products_from_the_index(monkeypatch):
    """Under a third of the earlier 10,148 products, none through ``mul_vec``; no block trace builds a subspace."""
    calls, sparse = [], []
    mul_vec, mul = WeakHopfAlgebra.mul_vec, WeakHopfAlgebra._mul
    monkeypatch.setattr(WeakHopfAlgebra, "mul_vec", lambda self, a, b: calls.append(1) or mul_vec(self, a, b))
    monkeypatch.setattr(WeakHopfAlgebra, "_mul", lambda self, x, y: sparse.append(1) or mul(self, x, y))
    inside, built = [], []
    from_vectors = Subspace.from_vectors.__func__

    def spy_from_vectors(cls, *args):
        if inside:
            built.append(args)
        return from_vectors(cls, *args)

    monkeypatch.setattr(Subspace, "from_vectors", classmethod(spy_from_vectors))
    monkeypatch.setattr(semisimplicity, "restricted_trace", lambda *a: built.append(a))
    for fname in ("_block_traces", "_left_ideal_trace"):
        body = getattr(semisimplicity, fname)

        def traced(*args, body=body):
            inside.append(body)
            try:
                return body(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(semisimplicity, fname, traced)
    blocks = []
    monkeypatch.setattr(semisimplicity, "_s2_trace", lambda *a, f=semisimplicity._s2_trace: blocks.append(1) or f(*a))
    for build in _ladder_builders().values():
        assert check_member(build())["ok"]
    assert blocks and not built
    assert not calls and 0 < len(sparse) < 10148 / 3


# ---------------------------------------------------------------------------
# dense tables: the validation scans after a change of basis

REBASE_DIM = 9


def unit_upper(field, n, rng):
    """A seeded unit upper triangular n x n P, off-diagonal entries drawn from {0, 0, 1, -1, 2}, and P^-1."""
    entry = lambda i, j: 1 if i == j else rng.choice([0, 0, 1, -1, 2]) if i < j else 0
    p = [[field.from_int(entry(i, j)) for j in range(n)] for i in range(n)]
    inv = [[field.zero()] * n for _ in range(n)]
    for j in range(n):  # P x = e_j by back substitution
        for i in reversed(range(n)):
            rest = sum((p[i][k] * inv[k][j] for k in range(i + 1, n)), field.zero())
            inv[i][j] = (field.one() if i == j else field.zero()) - rest
    return p, inv


def rebase(h, change):
    """h in the basis f_a = sum_j P[j][a] e_j, for ``change`` = (P, P^-1) from ``unit_upper``.

    mult, comult, unit, counit and S are carried through P and P^-1, dense
    products and all, so every axiom holds on the result exactly when it
    holds on h; only the witnesses, which name basis indices, may move.
    """
    p, inv = change
    n, zero = h.dim, h.field.zero()

    def coords(vec):
        """The f-coordinates of sum_l vec[l] e_l."""
        return [sum((inv[i][l] * vec[l] for l in range(n) if vec[l]), zero) for i in range(n)]

    mult = {}
    for a in range(n):
        for b in range(n):
            v = [zero] * n
            for (j, k), cell in h.mult.items():
                x = p[j][a] * p[k][b]
                if x:
                    for m, c in cell.items():
                        v[m] += x * c
            cell = {i: c for i, c in enumerate(coords(v)) if c}
            if cell:
                mult[a, b] = cell
    comult = []
    for a in range(n):
        legs = {}
        for j in range(n):
            for kl, c in h.comult[j].items():
                if p[j][a]:
                    legs[kl] = legs.get(kl, zero) + p[j][a] * c
        out = {}
        for (k, l), c in legs.items():
            for x in range(k + 1):
                for y in range(l + 1):
                    if c and inv[x][k] and inv[y][l]:
                        out[x, y] = out.get((x, y), zero) + c * inv[x][k] * inv[y][l]
        comult.append({xy: c for xy, c in out.items() if c})
    counit = [sum((p[j][a] * h.counit[j] for j in range(n)), zero) for a in range(n)]
    s = h.S.rows
    s_p = [[sum((s[m][j] * p[j][a] for j in range(n)), zero) for a in range(n)] for m in range(n)]
    antipode = [coords([row[a] for row in s_p]) for a in range(n)]
    antipode = [list(row) for row in zip(*antipode)]
    return WeakHopfAlgebra(h.field, h.labels, mult, coords(h.unit), comult, counit, antipode=antipode, name=h.name)


def _rebased():
    """name -> (h, rebase(h, P)) for the zoo members of dim <= REBASE_DIM and their duals, one P each."""
    out = {}
    for name in ZOO_NAMES:
        h = build_member(name)
        if h.dim <= REBASE_DIM:
            for alg in (h, h.dual):
                out[alg.name] = alg, rebase(alg, unit_upper(alg.field, alg.dim, random.Random(alg.name)))
    return out


REBASED = _rebased()


def _verdicts(h):
    return [(c.name, c.ok) for c in validate_full(h).checks]


def _largest_numerator(h):
    values = [c for cell in h.mult.values() for c in cell.values()] + [c for d in h.comult for c in d.values()]
    return max(max(map(abs, x.num)) if hasattr(x, "num") else abs(Fraction(x).numerator) for x in values)


def assert_kernels_match_the_oracles(h):
    """The witnesses of the image scans in validate_full against the scalar oracles over every row."""
    got = {c.name: c.witness for c in validate_full(h).checks}
    rows = range(h.dim)
    assert got["associativity"] == oracle_associativity(h, rows) == wha._associativity(h, rows)
    assert got["comult_multiplicative"] == oracle_multiplicativity(h, rows)
    assert got["coassociativity"] == oracle_coassociativity(h, rows)
    names = ["antipode_target", "antipode_source", "antipode_composite"]
    assert [list(got[name]) if got[name] else None for name in names] == oracle_antipode_witnesses(h)


def test_rebased_tables_are_dense():
    """Over all members, the rebased tables hold many more nonzeros and larger numerators than the zoo's."""
    nnz = lambda h: sum(map(len, h.mult.values())) + sum(map(len, h.comult))
    pairs = list(REBASED.values())
    assert len(pairs) == 30
    assert sum(map(nnz, (rb for _, rb in pairs))) > 4 * sum(map(nnz, (h for h, _ in pairs)))
    assert max(_largest_numerator(rb) for _, rb in pairs) > 100 >= max(_largest_numerator(h) for h, _ in pairs)


@pytest.mark.parametrize("name", sorted(REBASED))
def test_rebased_tables_keep_every_verdict(name):
    h, rebased = REBASED[name]
    assert _verdicts(rebased) == _verdicts(h)


@pytest.mark.parametrize("name", sorted(REBASED))
def test_image_scans_match_the_oracles_on_rebased_tables(name):
    assert_kernels_match_the_oracles(REBASED[name][1])


def test_rebased_bumps_still_fail():
    """Seeded corruptions of the members of dim <= 6 and of S, transported: same verdicts, oracle witnesses."""
    rng = random.Random(20010123)
    failing = set()
    for name in ZOO_NAMES:
        h = build_member(name)
        if h.dim > 6:
            continue
        for bad in [corrupt(h, rng) for _ in range(3)] + [corrupt_antipode(h, rng)]:
            rebased = rebase(bad, unit_upper(h.field, h.dim, rng))
            assert _verdicts(rebased) == _verdicts(bad)
            assert_kernels_match_the_oracles(rebased)
            failing.update(c.name for c in validate_full(rebased).failures())
    assert {"associativity", "coassociativity", "comult_multiplicative", "antipode_target"} <= failing


def test_fractional_bumps_match_the_oracles():
    """Bumps by 1/5, -2/7 and 3/11, and on the members of dim <= 4 the same bumps transported.

    A bumped unit or counit gives eps_t or eps_s a denominator that divides
    no denominator of mult, comult or S, in some columns only: the antipode
    scans must scale their sums, not the columns alone, to keep the witness.
    """
    rng = random.Random(20010125)
    failing = set()
    names = ("z3-group-cyclotomic", "dual-z3-group-cyclotomic", "pair-2", "sweedler4", "hmin-qq-1", "dyn-twist-z2")
    for name in names:
        h = build_member(name)
        for _ in range(8):
            bad = corrupt(h, rng, values=FRACTIONAL_BUMPS)
            assert validate_full(bad).as_dict() == expected_report(bad, sparse=True)
            failing.update(c.name for c in validate_full(bad).failures())
            if h.dim <= 4:
                rebased = rebase(bad, unit_upper(h.field, h.dim, rng))
                assert _verdicts(rebased) == _verdicts(bad)
                assert_kernels_match_the_oracles(rebased)
    assert {"antipode_target", "antipode_source", "comult_multiplicative", "counit", "unit"} <= failing


# ---------------------------------------------------------------------------
# one image round trip: the producers and the last four scans against their field-scalar bodies


def field_mul_pair_dicts(h, p, q):
    """The earlier body of ``mul_pair_dicts``: ``_pair_product`` on the index of field scalars."""
    return wha._pruned(wha._pair_product(h.mult_rows, p, q, h.field.zero()))


def field_matmul(a, b):
    """The earlier body of ``Matrix.__matmul__``: the row join on field scalars."""
    zero, other_rows, out = a.field.zero(), b.sparse_rows, []
    for r in a.sparse_rows:
        acc = {}
        for k, x in r.items():
            for j, y in other_rows[k].items():
                acc[j] = acc.get(j, zero) + x * y
        out.append(acc)
    return Matrix._sums(a.field, out, b.ncols)


def field_contraction_matrix(h, tensor, table, side):
    """The earlier body of ``contraction_matrix``: ``_contract_leg`` on field scalars."""
    scaled = [(h.field.one(), tensor)]
    lines, leg = (table.transpose(), 0) if side == "t" else (table, 1)
    cols = [wha._contract_leg(h.field.zero(), scaled, phi, leg) for phi in lines.sparse_rows]
    return Matrix._sums(h.field, cols, h.dim).transpose()


def field_unit_counit(h):
    """The earlier unit and counit scans on field scalars: the first failing (i,) of each, or None."""
    zero, one = h.field.zero(), h.field.one()
    unit_vec, counit_vec = h.one.terms, h.eps.terms
    lines = (h.mult_cols, h.mult_rows)
    unit = next(
        (
            (i,)
            for i in range(h.dim)
            if any(wha._pruned(wha._join(m, {i: one}, unit_vec, zero)) != {i: one} for m in lines)
        ),
        None,
    )
    counit = next(
        (
            (i,)
            for i in range(h.dim)
            if any(
                wha._pruned(wha._contract_leg(zero, [(one, h.comult[i])], counit_vec, leg)) != {i: one}
                for leg in (0, 1)
            )
        ),
        None,
    )
    return unit, counit


def field_weak_unit(h):
    """The earlier weak-unit scan on field scalars: the rank factors of Delta(1), third legs in one basis."""
    n, field = h.dim, h.field
    zero, unit_vec, rows = field.zero(), h.one.terms, h.mult_rows
    us, vs = wha._rank_factors(wha._matrix_of_pairs(h, h.delta_one))
    r = len(vs)
    one_v = [wha._join(rows, unit_vec, v, zero) for v in vs]
    v_one = [wha._join(rows, v, unit_vec, zero) for v in vs]
    thirds = Subspace._span(field, n, map(dict.items, vs + one_v + v_one))
    coords = lambda v: thirds._residue(v.items())[0].items()

    def in_thirds(terms):
        out = {}
        for pair, cw in terms:
            for (a, b), x in pair.items():
                for beta, c in cw:
                    out[a, b, beta] = out.get((a, b, beta), zero) + c * x
        return wha._pruned(out)

    lhs = in_thirds((h._comul(u), coords(v)) for u, v in zip(us, vs))
    u_one = [wha._join(rows, u, unit_vec, zero) for u in us]
    one_u = [wha._join(rows, unit_vec, u, zero) for u in us]
    cw = [coords(w) for w in one_v]
    mid = in_thirds(
        (wha._pair_of(u_one[q], wha._join(rows, vs[q], us[t], zero)), cw[t]) for t in range(r) for q in range(r)
    )
    cw = [coords(w) for w in v_one]
    alt = in_thirds(
        (wha._pair_of(one_u[q], wha._join(rows, us[t], vs[q], zero)), cw[t]) for t in range(r) for q in range(r)
    )
    return lhs == mid == alt


def field_weak_counit(h):
    """The earlier weak-counit scan on field scalars: row f of C_g^T U against row f of U V M_g U and its swap."""
    n, field = h.dim, h.field
    zero = field.zero()
    us, vs = wha._rank_factors(h.counit_product)
    r = len(vs)
    u_rows, v_cols = (Matrix._of(field, tuple(m), n).transpose().sparse_rows for m in (us, vs))

    def through(w, f):
        out = [zero] * r
        for s, x in u_rows[f].items():
            for s2, y in enumerate(w[s]):
                if y:
                    out[s2] += x * y
        return out

    for g in range(n):
        lhs = {}
        for f, cell in h.mult_cols[g].items():
            row = lhs[f] = [zero] * r
            for k, c in cell.items():
                for s, x in u_rows[k].items():
                    row[s] += c * x
        mid = [[zero] * r for _ in range(r)]
        alt = [[zero] * r for _ in range(r)]
        for (j, k), c in h.comult[g].items():
            for w, a, b in ((mid, j, k), (alt, k, j)):
                for s, x in v_cols[a].items():
                    for s2, y in u_rows[b].items():
                        w[s][s2] += c * x * y
        for f in range(n):
            rows = (lhs.get(f, [zero] * r), through(mid, f), through(alt, f))
            if not (rows[0] == rows[1] == rows[2]):
                entries = [
                    [sum((row[s] * x for s, x in v_cols[t].items() if row[s]), zero) for row in rows]
                    for t in range(n)
                ]
                return f, g, next(t for t, (a, b, c) in enumerate(entries) if not (a == b == c))
    return None


def field_scalar_checks(h):
    """axiom name -> witness of the four scans that ran on field scalars before the image did."""
    unit, counit = field_unit_counit(h)
    weak_unit = None if field_weak_unit(h) else ("Delta(1)",)
    return {"unit": unit, "counit": counit, "weak_unit": weak_unit, "weak_counit": field_weak_counit(h)}


def assert_moved_scans_match(h):
    """The uncached image scans of h give the verdict and the witness of the field-scalar bodies."""
    want = field_scalar_checks(h)
    got = {c.name: c.witness for c in validate_weak_bialgebra(h).checks if c.name in want}
    assert got == want
    return {name for name, witness in want.items() if witness is not None}


@pytest.mark.parametrize("name", sorted(CASES))
def test_moved_scans_match_their_field_scalar_bodies(name):
    for h in CASES[name]:
        assert_moved_scans_match(h)


def test_moved_scans_match_their_field_scalar_bodies_on_dense_large_and_fractional_tables():
    """dyn-z3 (dim 27) and its corruptions, the rebased members, and fractional bumps, plain and rebased."""
    rng = random.Random(35)
    h = dyn_z3()
    failing = set()
    for bad in [h, rotated_unit(h)] + [corrupt(h, rng) for _ in range(6)]:
        failing |= assert_moved_scans_match(bad)
    for _, rebased in REBASED.values():
        assert not assert_moved_scans_match(rebased)
    for name in ("z3-group-cyclotomic", "pair-2", "sweedler4", "hmin-m2-g31", "dyn-twist-z2"):
        h = build_member(name)
        for _ in range(6):
            bad = corrupt(h, rng, values=FRACTIONAL_BUMPS)
            failing |= assert_moved_scans_match(bad)
            if h.dim <= 8:  # a dense non-associative dim-16 table takes multiplicativity seconds
                failing |= assert_moved_scans_match(rebase(bad, unit_upper(h.field, h.dim, rng)))
    assert {"unit", "counit", "weak_unit", "weak_counit"} <= failing


# the parts of the tables each moved scan reads
MOVED_SCANS = {
    "unit": ("unit", "mult"),
    "counit": ("counit", "comult"),
    "weak_unit": ("mult", "comult", "unit"),
    "weak_counit": ("mult", "comult", "counit"),
}
SMALL_MEMBERS = [name for name in ZOO_NAMES if build_member(name).dim <= 6]
IMAGE_TESTS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@IMAGE_TESTS
@given(
    st.sampled_from(SMALL_MEMBERS), st.sampled_from(sorted(MOVED_SCANS)), st.integers(0, 2**32), st.booleans()
)
def test_a_corrupted_table_gives_each_moved_scan_its_field_scalar_verdict(name, scan, seed, dense):
    """One constant of a part the scan reads is bumped, by an integer or a fraction, and the table is
    optionally carried to a dense basis: verdict and witness are the field-scalar body's."""
    rng = random.Random(seed)
    h = build_member(name)
    bad = corrupt(h, rng, parts=MOVED_SCANS[scan], values=rng.choice([BUMPS, FRACTIONAL_BUMPS]))
    if dense:
        bad = rebase(bad, unit_upper(h.field, h.dim, rng))
    got = {c.name: c.witness for c in validate_weak_bialgebra(bad).checks}
    assert got[scan] == field_scalar_checks(bad)[scan]


def edge_top(field, products, factors, width):
    """The largest top whose bound products phi^(factors-1) top^factors stays below 2^(16 width - 2).

    Then the radix is K = 16 width, and a sum of ``products`` products of
    ``factors`` images with every coefficient top (one sign) has a digit at
    that bound, so the difference of two such sides reaches 2^(K-1) - 1.
    """
    phi = 1 if field is QQ else field.phi
    bound = lambda t: products * phi ** (factors - 1) * t**factors
    edge = 1 << (16 * width - 2)
    top = max(1, int((edge / bound(1)) ** (1 / factors)))
    while bound(top + 1) < edge:
        top += 1
    while top > 1 and bound(top) >= edge:
        top -= 1
    return top


def edge_scalar(field, top, den, sign):
    """sign top / den in every coefficient: the image of a table of these has A = top."""
    q = Fraction(sign * top, den)
    return field.from_fraction(q) if field is QQ else fields.Cyc(field.order, [q] * field.phi)


def edge_algebra(field, dim, top, den, signs):
    """dim basis elements, every product e_i e_j = sum_k c_ijk e_k with each c_ijk an edge scalar."""
    cell = lambda: {k: edge_scalar(field, top, den, next(signs)) for k in range(dim)}
    mult = {(i, j): cell() for i in range(dim) for j in range(dim)}
    zero = [0] * dim
    return WeakHopfAlgebra(field, [f"e{i}" for i in range(dim)], mult, zero, [{}] * dim, zero, name="edge")


EDGE_FIELDS = [QQ] + [CyclotomicField(n) for n in (3, 4, 5, 7, 8, 12)]


@IMAGE_TESTS
@given(
    st.sampled_from(EDGE_FIELDS), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
    st.sampled_from([1, 5, 12]), st.booleans(), st.randoms(use_true_random=False),
)
def test_image_producers_match_their_field_scalar_bodies_at_the_radix_edge(
    field, width, n, m, dim, den, same_sign, rng
):
    """Matrix @, mul_pair_dicts and contraction_matrix against their earlier bodies, on operands whose
    coefficients all have the largest size the radix 16 width allows; one sign puts every digit of
    the sums at the bound."""
    signs = iter(lambda: 1 if same_sign else rng.choice([1, -1]), None)

    def at_the_edge(top, side):
        """The operands' radix is 16 width, unless even top = 1 needs more (or Q needs none)."""
        assert field is QQ or top == 1 or field.radix(side) == 16 * width

    top = edge_top(field, m, 2, width)
    a, b = (
        Matrix(field, [[edge_scalar(field, top, den, next(signs)) for _ in range(cols)] for _ in range(rows)])
        for rows, cols in ((n, m), (m, n))
    )
    at_the_edge(top, (1, m, top, top))
    assert a @ b == field_matmul(a, b) and b @ a == field_matmul(b, a)

    top = edge_top(field, dim**4, 4, width)
    h = edge_algebra(field, dim, top, den, signs)
    p, q = ({(i, j): edge_scalar(field, top, den, next(signs)) for i in range(dim) for j in range(dim)} for _ in "pq")
    at_the_edge(top, (1, dim**4, top, top, top, top))
    assert h.mul_pair_dicts(p, q) == field_mul_pair_dicts(h, p, q)

    top = edge_top(field, dim * dim, 2, width)
    h = edge_algebra(field, dim, top, den, signs)
    tensor = {(i, j): edge_scalar(field, top, den, next(signs)) for i in range(dim) for j in range(dim)}
    table = Matrix(field, [[edge_scalar(field, top, den, next(signs)) for _ in range(dim)] for _ in range(dim)])
    at_the_edge(top, (1, dim * dim, top, top))
    for side in "ts":
        assert wha.contraction_matrix(h, tensor, table, side) == field_contraction_matrix(h, tensor, table, side)


def test_a_product_of_matrices_over_two_fields_reads_the_right_factor_in_the_left_field():
    """Q(zeta_3) @ Q reads the rational entries as scalars of Q(zeta_3), as the field-scalar body did;
    Q @ Q(zeta_3) has no rational scalar for them and raises FieldMismatch."""
    z3 = CyclotomicField(3)
    a = Matrix(z3, [[z3.zeta(), 1], [0, z3.zeta(2)]])
    b = Matrix(QQ, [[1, Fraction(1, 2)], [3, 0]])
    assert a @ b == field_matmul(a, b)
    with pytest.raises(FieldMismatch):
        b @ a


@pytest.mark.parametrize("name", ZOO_NAMES)
def test_image_producers_match_their_field_scalar_bodies_on_the_zoo(name):
    """The library's own operands: Delta(e_i) Delta(1), S (L S), and eps_t and eps_s from E2."""
    h = build_member(name)
    for i in range(h.dim):
        assert h.mul_pair_dicts(h.comult[i], h.delta_one) == field_mul_pair_dicts(h, h.comult[i], h.delta_one)
    left = h._mult_matrix(h.one.terms, True)
    assert h.S @ (left @ h.S) == field_matmul(h.S, field_matmul(left, h.S))
    for side, want in (("t", h.eps_t_mat), ("s", h.eps_s_mat)):
        assert field_contraction_matrix(h, h.delta_one, h.counit_product, side) == want
