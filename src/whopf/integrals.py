"""Integral theory for Frobenius weak Hopf algebras.

A left integral is an element with h*ell = eps_t(h)*ell for all h; dually in
H*.  H is Frobenius iff a non-degenerate integral exists iff the left
integral space has the same dimension as the target base.  A dual pair
(ell, lambda) consists of non-degenerate left integrals of H and H* with
lambda -> ell = 1 and ell -> lambda = eps; it yields the antipode of the
dual through S(phi) = (ell <- phi) -> lambda and realizes traces of
arbitrary endomorphisms through the dual-bases tensor.

Maschke: H is semisimple iff a normalized left integral exists
(eps_t(ell) = 1).  The decision is cross-checked against the regular
trace form, which detects semisimplicity in characteristic zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Degenerate, Inconsistent, InvalidOperand, Mismatch, NotFrobenius, Undecidable
from .linalg import Matrix, _coerced, _n_by_n, _solve
from .search import first, height_vectors, max_height
from .wha import (
    Element,
    Functional,
    _basis_products,
    _common,
    _matrix_of_pairs,
    _paired,
    _pruned,
    integral_space,
)

__all__ = [
    "DualPair",
    "antipode_from_integrals",
    "dual_integral",
    "find_nondegenerate_integral",
    "has_nondegenerate_two_sided_integral",
    "integral_space",
    "invariance_check",
    "is_nondegenerate",
    "is_semisimple",
    "nondegeneracy_matrix",
    "semisimple_by_trace_form",
    "trace_via_integrals",
]


def nondegeneracy_matrix(h, ell):
    """Matrix of phi |-> phi -> ell; columns indexed by the dual basis."""
    return _matrix_of_pairs(h, h._comul(Element(h, ell).terms))


def is_nondegenerate(h, ell):
    """Invertibility of phi |-> phi -> ell, the matrix of Delta(ell).

    A basis index missing from the first or the second legs of Delta(ell)
    is a zero row or column, which proves the matrix singular without a rank.
    """
    pairs = h._comul(Element(h, ell).terms)
    if len({a for a, _ in pairs}) < h.dim or len({b for _, b in pairs}) < h.dim:
        return False
    return _matrix_of_pairs(h, pairs).is_invertible()


def find_nondegenerate_integral(h, space=None, skip=0):
    """Deterministic search for a non-degenerate left integral.

    Enumerates integer coefficient vectors over the echelon basis of the
    integral space by increasing max-norm (1, 2, 4, ...).  The non-degenerate
    locus is Zariski-open and the dimension criterion guarantees it is
    non-empty, so the search terminates; NotFrobenius is raised truthfully
    when dim of the integral space differs from dim H_t.  ``skip`` returns
    the (skip+1)-th hit, for tests needing two distinct integrals.
    """
    space = space if space is not None else h.left_integrals
    if space.dim != h.target_base.dim:
        raise NotFrobenius(
            f"dim integral space {space.dim} != dim H_t {h.target_base.dim}"
        )
    heights = height_vectors(space.dim, max_height=1 << 16)
    ell = first(h, space, heights, lambda v: is_nondegenerate(h, v) and v, skip)
    if ell is None:
        raise NotFrobenius("height search exhausted")  # unreachable over Q
    return ell


def _owned(h, *vectors):
    """The terms of each vector, once each is a vector of h, not of another algebra; else InvalidOperand."""
    if any(getattr(v, "algebra", None) is not h for v in vectors):
        raise InvalidOperand(f"a vector of another algebra given for {h.name}")
    return [v.terms for v in vectors]


@dataclass
class DualPair:
    """Non-degenerate left integrals ell in H and lambda in H* that are dual."""

    ell: Element
    lam: Functional

    def check(self, h):
        ell, lam = _owned(h, self.ell, self.lam)
        if nondegeneracy_matrix(h, self.ell)._apply(lam) != h.one.terms:
            raise Inconsistent("lambda -> ell != 1")
        if h._dual_arrow(ell, lam, h.mult_cols) != h.eps.terms:
            raise Inconsistent("ell -> lambda != eps")
        if not is_nondegenerate(h.dual, self.lam.as_dual_element()):
            raise Inconsistent("lambda is degenerate")
        return self


def dual_integral(h, ell):
    """Solve lambda -> ell = 1 for the unique dual left integral lambda; Degenerate when ell admits none."""
    ell = Element(h, ell)
    sol = _solve(nondegeneracy_matrix(h, ell), h.one.terms)
    if sol is None or sol[1].dim:
        raise Degenerate("ell is degenerate: lambda -> ell = 1 has no unique solution")
    lam = Functional._of(h, _coerced(h.field, sol[0]))
    pair = DualPair(ell=ell, lam=lam)
    pair.check(h)
    if not h.dual.left_integrals._has(lam.terms):
        raise Inconsistent("solved lambda is not a left integral of the dual")
    return pair


def canonical_dual_pair(h, skip=0):
    ell = find_nondegenerate_integral(h, skip=skip)
    return dual_integral(h, ell)


def is_semisimple(h):
    """Maschke: a normalized left integral (eps_t(ell) = 1) exists."""
    space = h.left_integrals
    if space.dim == 0:
        return False
    m = h.eps_t_mat @ Matrix._of(h.field, space.sparse_rows, h.dim).transpose()  # column c is eps_t(row c)
    return _solve(m, h.one.terms) is not None


def semisimple_by_trace_form(h):
    """Independent oracle: non-degeneracy of (a,b) |-> Tr(L_a L_b).

    gram[i][l] = Tr(L_{e_i} L_{e_l}) = sum_{j,k} c_{lj}^k c_{ik}^j is read
    straight from the structure constants.  No associativity is used, so the
    form is exact on any input and independent of the integral route.
    """
    zero = h.field.zero()
    by_kj = {}  # (k, j) -> [(i, c_{ik}^j)]
    for (i, k), cell in h.mult.items():
        for j, c in cell.items():
            by_kj.setdefault((k, j), []).append((i, c))
    gram = [{} for _ in range(h.dim)]
    for (l, j), cell in h.mult.items():
        for k, c in cell.items():
            for i, c2 in by_kj.get((k, j), ()):
                gram[i][l] = gram[i].get(l, zero) + c2 * c
    return Matrix._sums(h.field, gram, h.dim).is_invertible()


def invariance_check(h, pair, rho=None):
    """Exact residuals of the integral invariance identities on basis pairs.

    Left:  g_(1) <lambda, h g_(2)> = S(h_(1)) <lambda, h_(2) g>
    Right: <rho, g_(1) h> g_(2) = <rho, g h_(1)> S(h_(2))
    rho defaults to lambda o S, the image right integral in H*.
    """
    _owned(h, pair.ell, pair.lam)
    lam = pair.lam
    failures = _invariance_failures(h, h.comult, h.pairing_table(lam), "left_invariance")
    if rho is None:
        rho = Functional._of(h, h.S.transpose()._apply(lam.terms))  # lambda o S
    # the right identity is the left one with the legs of Delta swapped and the table transposed
    swapped = [{(k, j): c for (j, k), c in d.items()} for d in h.comult]
    return failures + _invariance_failures(h, swapped, h.pairing_table(rho).transpose(), "right_invariance")


def _invariance_failures(h, deltas, table, name):
    """(name, a, b) for each basis pair with g_(1) T[h, g_(2)] != S(h_(1)) T[h_(2), g].

    Here g = e_a, h = e_b, Delta(e_i) = sum c e_j (x) e_k is read as
    ``deltas[i]`` and T is the Matrix ``table``; the pairing table
    T[x, y] = <lambda, e_x e_y> gives left invariance.  Each Delta(e_i) is
    grouped by its second leg k once, as sum_j c e_j and as sum_j c S(e_j).
    A side of the pair (a, b) then sums these groups over the nonzeros
    T[b, k] of sparse row b of T (left) or T[k, a] of sparse row a of T^T
    (right), in a sparse dict, so all n^2 pairs cost the nonzeros of Delta,
    S and T that meet, not n^3.
    """
    n = h.dim
    zero = h.field.zero()
    s_cols = h.S.transpose().sparse_rows
    firsts, images = [], []  # per i: k -> sum_j c e_j and k -> sum_j c S(e_j)
    for delta in deltas:
        first, image = {}, {}
        for (j, k), c in delta.items():
            acc = first.setdefault(k, {})
            acc[j] = acc.get(j, zero) + c
            acc = image.setdefault(k, {})
            for r, y in s_cols[j].items():
                acc[r] = acc.get(r, zero) + c * y
        firsts.append(first)
        images.append(image)
    rows, cols = table.sparse_rows, table.transpose().sparse_rows
    failures = []
    for a in range(n):
        for b in range(n):
            if _pruned(_weighted(rows[b], firsts[a], zero)) != _pruned(_weighted(cols[a], images[b], zero)):
                failures.append((name, a, b))
    return failures


def _weighted(weights, groups, zero):
    """sum of weights[k] groups[k] over the keys k of both, as a sparse dict; not pruned."""
    out = {}
    for _k, t, group in _common(weights, groups):
        for r, x in group.items():
            out[r] = out.get(r, zero) + t * x
    return out


def antipode_from_integrals(h, pair):
    """Reassemble the dual antipode from phi |-> (ell <- phi) -> lambda.

    For phi = e_k^, ell <- phi is row k of the matrix M of Delta(ell) and
    x -> lambda is T x for lambda's pairing table T, so the map is T M^T.
    The matrix must equal the transpose of the antipode matrix of H exactly;
    any discrepancy raises Mismatch.
    """
    _owned(h, pair.ell, pair.lam)
    got = h.pairing_table(pair.lam) @ nondegeneracy_matrix(h, pair.ell).transpose()
    expect = h.S.transpose()
    if got != expect:
        raise Mismatch("integral antipode differs from the stored antipode")
    return got


def trace_via_integrals(h, pair, t_mat):
    """Trace of any endomorphism through the dual-bases tensor.

    Tr(T) = <lambda, T(S^{-1}(ell_(1))) ell_(2)>, grouped as the product of
    T(S^{-1}(ell_(1))) with ell_(2).
    """
    (ell, lam), t_mat = _owned(h, pair.ell, pair.lam), _n_by_n(t_mat, h.dim)
    zero, one = h.field.zero(), h.field.one()
    total, s_inv = zero, h.S_inv.transpose().sparse_rows
    for (a, b), c in h._comul(ell).items():
        v = t_mat._apply(s_inv[a])
        total += c * _paired(lam, _basis_products(h, [(one, b, v)], left=False), zero)
    return total


def has_nondegenerate_two_sided_integral(h):
    """Search the two-sided integral space for a non-degenerate element.

    The search runs up to the height cap of ``search.max_height``; a nonzero
    space without a hit up to the cap raises Undecidable rather than answer
    False.
    """
    two_sided = h.left_integrals.intersect(h.right_integrals)
    if two_sided.dim == 0:
        return False
    cap = max_height()
    if first(h, two_sided, height_vectors(two_sided.dim, max_height=cap), lambda v: is_nondegenerate(h, v)):
        return True
    raise Undecidable(
        f"no non-degenerate element of the {two_sided.dim}-dimensional two-sided "
        f"integral space up to height {cap}"
    )
