"""Group-like elements, distinguished pairs, and the fourth-power formula.

A group-like is an invertible g with Delta(g) = (g (x) g) Delta(1) =
Delta(1) (g (x) g); the one-sided conditions cut out the half-sets G1 and
G2.  Trivial group-likes are those of the form S(y) y^{-1} with y in H_s;
they form a normal subgroup, and only the quotient by it is finite, so the
API is predicate- and witness-based rather than enumerative.

From a dual pair of integrals (ell, lambda) the distinguished group-likes
are alpha = lambda <- ell in H* and a = ell <- lambda in H; they control the
fourth power of the antipode through Radford's formula
S^4(h) = a^{-1} (alpha -> h <- alpha^{-1}) a.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice

from .errors import (
    Inconsistent,
    InvalidOperand,
    NotHalfGrouplike,
    PreconditionUnmet,
    RegularityViolated,
    Undecidable,
)
from .integrals import _owned
from .linalg import Matrix, Subspace, _coerced, _n_by_n, _size, _solve, kernel_on
from .search import first, height_vectors, invertible_in, max_height
from .wha import (
    Element,
    Functional,
    _basis_products,
    _contract_leg,
    _integral_rows,
    _matrix_of_pairs,
    _minus,
    _pair_of,
    _pruned,
    contraction_matrix,
)

__all__ = [
    "DistinguishedPair",
    "GammaModule",
    "antipode_order_report",
    "coset_equal",
    "distinguished_pair",
    "gamma_module",
    "gamma_module_iso",
    "grouplike_automorphism",
    "is_dual_grouplike",
    "is_grouplike",
    "is_half_grouplike",
    "is_regular",
    "is_trivial_automorphism",
    "is_trivial_grouplike",
    "is_wha_morphism",
    "lambda_ell_relations",
    "make_trivial_grouplike",
    "module_from_integral",
    "radford_check",
    "self_intertwiners",
    "twisted_counitals",
    "twisted_integral_spaces",
]


def is_half_grouplike(h, g, side):
    """Membership in G1 (Delta(g) = (g(x)g)Delta(1)) or G2 (other side); side is 1 or 2."""
    if side not in (1, 2):
        raise InvalidOperand(f"side must be 1 or 2, got {side!r}")
    return _half_grouplike(h, Element(h, g).terms, side)


def _half_grouplike(h, g, side):
    """``is_half_grouplike`` for a sparse vector g."""
    dg = h._comul(g)
    gg = _pair_of(g, g)
    if side == 1:
        return dg == h.mul_pair_dicts(gg, h.delta_one)
    return dg == h.mul_pair_dicts(h.delta_one, gg)


def is_grouplike(h, g):
    """Invertible and group-like on both sides, all tensor-exact."""
    g = Element(h, g)
    return g.is_invertible() and _half_grouplike(h, g.terms, 1) and _half_grouplike(h, g.terms, 2)


def is_dual_grouplike(h, gamma):
    """Group-like functional: convolution-invertible plus both factorizations.

    <gamma, hg> = <gamma, h 1_(1)> <gamma, S(1_(2)) g>
    <gamma, hg> = <gamma, h S(1_(1))> <gamma, 1_(2) g>
    checked over all basis pairs (h, g).  With G2[a][b] = <gamma, e_a e_b>,
    F = S^T G2, F' = G2 S and C[j][k] the e_j (x) e_k coefficient of
    Delta(1), the right-hand sides are the tables G2 C F and F' C G2.
    """
    fn = Functional(h, gamma)
    if not fn.is_invertible():
        return False
    c = _matrix_of_pairs(h, h.delta_one)
    g2 = h.pairing_table(fn)
    first = h.S.transpose() @ g2  # <gamma, S(e_a) e_b>
    second = g2 @ h.S  # <gamma, e_a S(e_b)>
    return g2 == g2 @ (c @ first) == (second @ c) @ g2


def make_trivial_grouplike(h, y):
    """S(y) y^{-1} for invertible y in H_s (test helper for the trivial subgroup)."""
    y = Element(h, y)
    if not h.source_base._has(y.terms):
        raise PreconditionUnmet("y must lie in H_s")
    return Element._of(h, h.S._apply(y.terms)) * y.inv()


def is_trivial_grouplike(h, g):
    """Decide g = S(y) y^{-1} with invertible y in H_s fixed by S^2.

    The constraints y in H_s, S^2(y) = y, g y = S(y) are all linear; the
    invertibility search over the solution space is the deterministic height
    enumeration followed by the exact grid decision.  Returns (flag, y).
    """
    g = Element(h, g).terms
    # column c holds S^2(y_c) - y_c over g y_c - S(y_c), y_c the c-th basis row of H_s: (S^2 - id) Y^T, (L_g - S) Y^T
    hs = h.source_base
    yt = Matrix._of(h.field, hs.sparse_rows, h.dim).transpose()
    ops = (h.S2 - Matrix.identity(h.field, h.dim), h._mult_matrix(g, True) - h.S)
    space = kernel_on(hs, [row for op in ops for row in (op @ yt).sparse_rows])
    if space.dim == 0:
        return False, None
    y = invertible_in(h, space)
    return (False, None) if y is None else (True, y)


def coset_equal(h, g1, g2):
    """Same coset modulo trivial group-likes: g1 g2^{-1} is trivial."""
    return is_trivial_grouplike(h, Element(h, g1) * Element(h, g2).inv())[0]


def is_regular(h):
    """S^2 = id on the minimal weak Hopf subalgebra H_min."""
    return all(h.S2._apply(row) == row for row in h.minimal_subalgebra.sparse_rows)


@dataclass
class DistinguishedPair:
    alpha: Functional  # distinguished group-like of H*
    a: Element  # distinguished group-like of H
    source: object  # the DualPair it came from


def distinguished_pair(h, pair):
    """alpha = lambda <- ell and a = ell <- lambda, with all postconditions.

    Requires S^2 = id on H_min; verified postconditions: alpha and a are
    group-like, S(ell) = alpha -> ell, S(lambda) = a -> lambda.
    """
    if not is_regular(h):
        raise RegularityViolated("S^2 != id on H_min; regularize first")
    ell, lam = _owned(h, pair.ell, pair.lam)
    alpha = Functional._of(h, h._dual_arrow(ell, lam, h.mult_rows))  # <alpha, g> = <lambda, ell g>
    a = Element._of(h, h._arrow(ell, lam, 0))  # <lambda, ell_(1)> ell_(2)
    if not is_dual_grouplike(h, alpha):
        raise Inconsistent("alpha is not group-like in H*")
    if not is_grouplike(h, a):
        raise Inconsistent("a is not group-like in H")
    if h._arrow(ell, alpha.terms, 1) != h.S._apply(ell):
        raise Inconsistent("S(ell) != alpha -> ell")
    if h._dual_arrow(a.terms, lam, h.mult_cols) != h.S.transpose()._apply(lam):  # a -> lambda
        raise Inconsistent("S(lambda) != a -> lambda")
    return DistinguishedPair(alpha=alpha, a=a, source=pair)


def radford_check(h, dp):
    """Exact residual of S^4(h) = a^{-1} (alpha -> h <- alpha^{-1}) a per basis element."""
    alpha, a = _owned(h, dp.alpha, dp.a)
    alpha_inv, a_inv = dp.alpha.inv().terms, dp.a.inv().terms
    s4 = (h.S2 @ h.S2).transpose().sparse_rows
    one = h.field.one()
    failures = []
    for i in range(h.dim):
        mid = h._arrow(h._arrow({i: one}, alpha_inv, 0), alpha, 1)
        if h._mul(a_inv, h._mul(mid, a)) != s4[i]:
            failures.append(i)
    return failures


def lambda_ell_relations(h, dp):
    """The four exact translation identities between ell- and lambda-arrows.

    ell_L(phi) = phi -> ell   lambda_L(x) = x -> lambda
    ell_R(phi) = ell <- phi   lambda_R(x) = lambda <- x
    checked on every basis element:
      ell_L . lambda_R = S
      ell_L . lambda_L = S^{-1} (alpha -> .)
      ell_R . lambda_R = S^{-1} (a^{-1} .)
      ell_R . lambda_L = S ((. <- alpha) a^{-1})
    """
    ell, _lam, alpha, _a = _owned(h, dp.source.ell, dp.source.lam, dp.alpha, dp.a)
    a_inv, one = dp.a.inv().terms, h.field.one()
    ell_terms, table = [(x, h.comult[i]) for i, x in ell.items()], h.pairing_table(dp.source.lam)  # Delta(ell)
    s, s_inv = h.S, h.S_inv
    s_cols = s.transpose().sparse_rows
    failures = []
    # lambda <- e_i is row i of lambda's table and e_i -> lambda column i; each phi gives (phi -> ell, ell <- phi)
    for i, lams in enumerate(zip(table.sparse_rows, table.transpose().sparse_rows)):
        e = {i: one}
        (ell_l_lam_r, ell_r_lam_r), (ell_l_lam_l, ell_r_lam_l) = (
            [_pruned(_contract_leg(h.field.zero(), ell_terms, phi, leg)) for leg in (1, 0)] for phi in lams
        )
        if ell_l_lam_r != s_cols[i]:
            failures.append(("ellL_lamR", i))
        if ell_l_lam_l != s_inv._apply(h._arrow(e, alpha, 1)):
            failures.append(("ellL_lamL", i))
        a_inv_e = _basis_products(h, [(one, i, a_inv)], left=False)  # a^-1 e_i
        if ell_r_lam_r != s_inv._apply(a_inv_e):
            failures.append(("ellR_lamR", i))
        if ell_r_lam_l != s._apply(h._mul(h._arrow(e, alpha, 0), a_inv)):
            failures.append(("ellR_lamL", i))
    return failures


# ---------------------------------------------------------------------------
# twisted counital maps and gamma-modules


def twisted_counitals(h, gamma):
    """The projections eps_s^gamma and eps_t^gamma for a group-like functional.

    eps_s^gamma(x) = <gamma, x 1_(1)> S(1_(2))   (needs gamma in G1(H*))
    eps_t^gamma(x) = S(1_(1)) <gamma, 1_(2) x>   (needs gamma in G2(H*))
    Each is returned only if its half-condition holds; both are verified
    idempotent with the expected image.  Each is S after the contraction of
    Delta(1) against the transpose of G2[a][b] = <gamma, e_a e_b>.
    """
    gamma = Functional(h, gamma)
    out = {}
    g2t = h.pairing_table(gamma).transpose()
    sides = (("eps_s_gamma", "eps_s^gamma", "t", 1), ("eps_t_gamma", "eps_t^gamma", "s", 2))
    for key, name, side, half in sides:
        if _half_grouplike(h.dual, gamma.terms, half):
            eps_g = h.S @ contraction_matrix(h, h.delta_one, g2t, side)
            if eps_g @ eps_g != eps_g:
                raise Inconsistent(f"{name} is not idempotent")
            out[key] = eps_g
    if not out:
        raise NotHalfGrouplike("gamma lies in neither G1(H*) nor G2(H*)")
    return out


@dataclass
class GammaModule:
    """Right H-module structure on H_s attached to gamma in G1(H*)."""

    gamma: Functional
    base: Subspace  # H_s with its echelon basis
    action: tuple  # one dim_s x dim_s matrix per basis element of H

    def act(self, y_coords, h_index):
        return self.action[h_index].matvec(y_coords)


def gamma_module(h, gamma):
    """The right module y . x = eps_s^gamma(y x); axioms verified exactly."""
    gamma = Functional(h, gamma)
    maps = twisted_counitals(h, gamma)
    if "eps_s_gamma" not in maps:
        raise NotHalfGrouplike("gamma is not in G1(H*)")
    eps_sg = maps["eps_s_gamma"]
    hs = h.source_base
    one = h.field.one()
    mats = []
    for j in range(h.dim):
        images = (eps_sg._apply(_basis_products(h, [(one, j, y)], left=False)) for y in hs.sparse_rows)
        mat = hs._matrix_of(v.items() for v in images)
        if mat is None:
            raise Inconsistent("action leaves H_s")
        mats.append(mat)
    module = GammaModule(gamma=gamma, base=hs, action=tuple(mats))

    def action(x):
        """The matrix of y |-> y . x for x = sum_k x_k e_k, x sparse."""
        out = Matrix.zero(h.field, hs.dim)
        for k, c in x.items():
            out = out + mats[k].scale(c)
        return out

    # y . 1 = y
    if action(h.one.terms) != Matrix.identity(h.field, hs.dim):
        raise Inconsistent("unit does not act as identity")
    # (y . g) . x = y . (g x) on all basis pairs
    for a in range(h.dim):
        for b in range(h.dim):
            if mats[b] @ mats[a] != action(h.mult_rows[a].get(b, {})):
                raise Inconsistent(f"action not multiplicative at ({a}, {b})")
    # restriction to H_s is right multiplication
    for x in hs.sparse_rows:
        if action(x) != hs._matrix_of(h._mul(y, x).items() for y in hs.sparse_rows):
            raise Inconsistent("restriction to H_s is not right multiplication")
    return module


def module_from_integral(h, ell):
    """The module W_ell solved from ell y x = ell (y . x), plus gamma_ell.

    Non-degeneracy makes ell separating for right H_s-multiplication, so the
    action is the unique solution of a small linear system; gamma_ell is
    x |-> eps(1 . x).
    """
    ell = Element(h, ell).terms
    hs = h.source_base
    ell_ys = [h._mul(ell, y) for y in hs.sparse_rows]
    m_ell = Matrix._sums(h.field, ell_ys, h.dim).transpose()
    one = h.field.one()
    mats = []
    for j in range(h.dim):
        acols = []
        for ell_y in ell_ys:
            rhs = _basis_products(h, [(one, j, ell_y)], left=False)  # ell y e_j
            sol = _solve(m_ell, rhs)
            if sol is None or sol[1].dim:
                raise Inconsistent("ell is not separating on H_s")
            acols.append(sol[0])
        mats.append(Matrix._sums(h.field, acols, hs.dim).transpose())
    one_coords, rest = hs._residue(h.one.terms.items())
    if rest:
        raise Inconsistent("unit does not lie in H_s")
    one_coords = _coerced(h.field, one_coords)
    gamma = {j: h.eps(Element._of(h, hs._combine(m._apply(one_coords).items()))) for j, m in enumerate(mats)}
    gamma = Functional._of(h, _pruned(gamma))
    return gamma, GammaModule(gamma=gamma, base=hs, action=tuple(mats))


def _intertwiner_space(h, gamma1, gamma2):
    """{v in H_s : v eps_s^g1(x) = eps_s^g2(v x) for all x} as a Subspace."""
    maps1 = twisted_counitals(h, gamma1)
    maps2 = twisted_counitals(h, gamma2)
    if "eps_s_gamma" not in maps1 or "eps_s_gamma" not in maps2:
        raise NotHalfGrouplike("both functionals must lie in G1(H*)")
    eps1, eps2 = maps1["eps_s_gamma"], maps2["eps_s_gamma"]
    hs, field = h.source_base, h.field
    one, zero = field.one(), field.zero()
    rows = []
    for j, w in enumerate(eps1.transpose().sparse_rows):
        # column c holds v_c eps_s^g1(e_j) - eps_s^g2(v_c e_j), v_c the c-th basis row of H_s
        cols = [
            _minus(h._mul(v, w), eps2._apply(_basis_products(h, [(one, j, v)], left=False)), zero)
            for v in hs.sparse_rows
        ]
        rows += Matrix._sums(field, cols, h.dim).transpose().sparse_rows
    return kernel_on(hs, rows)


def gamma_module_iso(h, gamma1, gamma2):
    """Isomorphism test for the modules of two G1(H*) functionals.

    Solves the linear intertwiner system, then searches the solution space
    for an invertible v (height enumeration + grid decision).  Returns
    (flag, v or None).
    """
    space = _intertwiner_space(h, gamma1, gamma2)
    if space.dim == 0:
        return False, None
    y = invertible_in(h, space)
    return (False, None) if y is None else (True, y)


def self_intertwiners(h, gamma):
    """Self-intertwiner space of the gamma-module, realized inside H_s.

    Verified to equal Z(H) cap H_s as a subspace and to have the dimension
    of H_t* cap H_s* computed in the dual.
    """
    space = _intertwiner_space(h, gamma, gamma)
    if space != h.center_cap_source:
        raise Inconsistent("self-intertwiners differ from Z(H) cap H_s")
    dual = h.dual
    dual_dim = dual.target_base.intersect(dual.source_base).dim
    if space.dim != dual_dim:
        raise Inconsistent("dim mismatch with H_t* cap H_s*")
    return space


# ---------------------------------------------------------------------------
# L_gamma / R_gamma spaces


def twisted_integral_spaces(h, gamma=None, g=None):
    """L and R spaces of a group-like functional (in H) or element (in H*).

    L_gamma = {x : g x = eps_t^gamma(g) x for all g},
    R_gamma = {x : x g = x eps_s^gamma(g) for all g};
    for g in G(H) the same spaces are computed inside the dual algebra.
    """
    if (g is None) == (gamma is None):
        raise InvalidOperand("give exactly one of gamma and g")
    if g is not None:  # g in H is a functional on H*: its terms, read in the dual basis
        return twisted_integral_spaces(h.dual, gamma=Functional._of(h.dual, Element(h, g).terms))
    maps = twisted_counitals(h, gamma)
    if "eps_s_gamma" not in maps or "eps_t_gamma" not in maps:
        raise NotHalfGrouplike("gamma must be group-like on both sides")
    full = Subspace.full(h.field, h.dim)
    return {
        "L": kernel_on(full, _integral_rows(h, "left", maps["eps_t_gamma"])),
        "R": kernel_on(full, _integral_rows(h, "right", maps["eps_s_gamma"])),
    }


# ---------------------------------------------------------------------------
# automorphisms


def is_wha_morphism(h, phi):
    """Full morphism check: algebra, unit, coalgebra, counit, antipode."""
    n, zero, phi = h.dim, h.field.zero(), _n_by_n(phi, h.dim)
    if phi._apply(h.one.terms) != h.one.terms:
        return False
    images = phi.transpose().sparse_rows  # phi(e_k)
    for i in range(n):
        for j in range(n):
            rhs = {}
            for k, c in h.mult_rows[i].get(j, {}).items():
                for m, y in images[k].items():
                    rhs[m] = rhs.get(m, zero) + c * y
            if h._mul(images[i], images[j]) != _pruned(rhs):
                return False
    for i in range(n):
        rhs = {}
        for (j, k), c in h.comult[i].items():
            for a, ca in images[j].items():
                for b, cb in images[k].items():
                    rhs[a, b] = rhs.get((a, b), zero) + c * ca * cb
        if h._comul(images[i]) != _pruned(rhs):
            return False
    if phi.transpose()._apply(h.eps.terms) != h.eps.terms:
        return False
    return phi @ h.S == h.S @ phi


def grouplike_automorphism(h, g=None, gamma=None):
    """Conjugation by a group-like element or functional, morphism-verified."""
    if (g is None) == (gamma is None):
        raise InvalidOperand("give exactly one of g and gamma")
    if g is not None:
        g = Element(h, g)
        g, g_inv = g.terms, g.inv().terms
        conj = lambda x: h._mul(g, h._mul(x, g_inv))
    else:
        gamma = Functional(h, gamma)
        gamma, gamma_inv = gamma.terms, gamma.inv().terms
        conj = lambda x: h._arrow(h._arrow(x, gamma_inv, 0), gamma, 1)
    one = h.field.one()
    phi = Matrix._sums(h.field, [conj({i: one}) for i in range(h.dim)], h.dim).transpose()
    if not is_wha_morphism(h, phi):
        raise Inconsistent("conjugation is not a weak Hopf algebra automorphism")
    return phi


def is_trivial_automorphism(h, phi):
    """Decide whether phi is conjugation by a trivial group-like element.

    Any witness u satisfies phi(x) u = u x, lies in H_min (trivial
    group-likes live in H_s S(H_s)), and has eps_t(u) = eps_s(u) = 1, so the
    candidates form an affine subspace; a zero-dimensional slice is decided
    outright and a positive-dimensional one is searched by heights, with an
    honest "undecided" when the search is exhausted.
    Returns (verdict, witness) with verdict one of "yes" | "no" | "undecided".
    """
    n, field, phi = h.dim, h.field, _n_by_n(phi, h.dim)
    hmin = h.minimal_subalgebra
    one, zero = field.one(), field.zero()
    rows = []
    for i, phi_i in enumerate(phi.transpose().sparse_rows):
        # column c holds phi(e_i) u_c - u_c e_i, u_c the c-th basis row of H_min
        cols = [
            _minus(h._mul(phi_i, u), _basis_products(h, [(one, i, u)], left=False), zero) for u in hmin.sparse_rows
        ]
        rows += Matrix._sums(field, cols, n).transpose().sparse_rows
    conjugators = kernel_on(hmin, rows)
    if conjugators.dim == 0:
        return "no", None
    # affine slice eps_t(u) = 1 = eps_s(u) within the conjugator space: rows of eps_t U^T over eps_s U^T
    ut = Matrix._of(field, conjugators.sparse_rows, n).transpose()
    m = Matrix._of(field, (h.eps_t_mat @ ut).sparse_rows + (h.eps_s_mat @ ut).sparse_rows, conjugators.dim)
    sol = _solve(m, {**h.one.terms, **{n + i: x for i, x in h.one.terms.items()}})
    if sol is None:
        return "no", None
    particular, kern = sol
    saw_undecidable = []

    def qualifies(u):
        if not is_grouplike(h, u):
            return None
        try:
            ok, y = is_trivial_grouplike(h, u)
        except Undecidable:
            saw_undecidable.append(True)
            return None
        return (u, y) if ok else None

    # conjugation by 1 is the identity, so the identity map is settled at once
    if phi == Matrix.identity(h.field, n):
        got = qualifies(h.one)
        if got:
            return "yes", got
    # particular first, then a bounded affine sweep; beyond it the verdict is an honest undecided
    shifts = islice(chain([(0,) * kern.dim], height_vectors(kern.dim, max_height=max_height())), 4000)
    shifts = (kern._combine(enumerate(shift)) for shift in shifts)
    coeffs = (tuple(particular.get(k, zero) + s.get(k, zero) for k in range(kern.ambient)) for s in shifts)
    got = first(h, conjugators, coeffs, qualifies)
    if got:
        return "yes", got
    if kern.dim == 0 and not saw_undecidable:
        return "no", None
    return "undecided", None


def antipode_order_report(h, bound=64):
    """Smallest k <= bound with S^{4k} a trivial automorphism; InvalidOperand unless bound is an int of at least 1."""
    if _size(bound, "bound") < 1:
        raise InvalidOperand(f"bound {bound!r} is not an int of at least 1")
    s4 = h.S2 @ h.S2
    power = s4
    undecided = []
    for k in range(1, bound + 1):
        verdict, witness = is_trivial_automorphism(h, power)
        if verdict == "yes":
            return {"order": k, "witness": witness, "undecided": undecided}
        if verdict == "undecided":
            undecided.append(k)
        power = power @ s4
    return {"order": None, "bound": bound, "undecided": undecided}
