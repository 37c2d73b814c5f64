"""Deformations and twists.

Three layers: the base deformation H_q (an invertible q in H_t with
S^2(q) = q and S(1_(1)) q 1_(2) = 1 deforms the coalgebra structure without
touching the algebra), regularization (deforming by the inverse of the
classifying element g so that S^2 becomes the identity on H_min), and
general twists: pairs (Theta, Theta_bar) with Theta Theta_bar = Delta(1)
deforming Delta to Theta_bar Delta(.) Theta and the antipode to
v^{-1} S(.) v with v = S(Theta^(1)) Theta^(2).

The dynamical construction consumes a character-indexed family J over a
Hopf algebra U and a finite abelian group A of group-likes of U, verifies
the shifted cocycle equation for every character by brute tensor
contraction, and assembles the twist on the host M_{|A|} (x) U.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .constructors import matrix_wha, tensor_product
from .errors import (
    DynamicalEquationViolated,
    FieldTooSmall,
    Inconsistent,
    InvalidPresentation,
    Mismatch,
    NotATwist,
    NotInvertible,
    PreconditionUnmet,
    VNotInvertible,
)
from .grouplikes import is_grouplike, is_regular
from .integrals import is_semisimple
from .wha import (
    Element,
    WeakHopfAlgebra,
    _basis_products,
    _comultiplied,
    _contract_leg,
    _index_pair,
    _on_basis,
    _pair_of,
    _paired,
    _pruned,
    contraction_matrix,
    minimal_data,
    validate_full,
)

__all__ = [
    "AbelianGrouplikes",
    "DynamicalTwist",
    "DynamicalTwistData",
    "Twist",
    "deform_q",
    "dynamical_cosemisimplicity_check",
    "dynamical_theta",
    "regularize",
    "twist",
    "twist_conjugator",
]


# ---------------------------------------------------------------------------
# base deformation H_q


def deform_q(h, q, name=None):
    """Deform the coalgebra structure by an invertible q in H_t.

    Delta'(x) = Delta(x)(1 (x) q), eps'(x) = eps(x q^{-1}),
    S'(x) = q^{-1} S(x) q; the underlying algebra is unchanged.  All three
    preconditions are checked and reported individually.
    """
    q = Element(h, q)
    if not h.target_base._has(q.terms):
        raise PreconditionUnmet("q does not lie in H_t")
    try:
        q_inv = q.inv().terms
    except NotInvertible as exc:
        raise PreconditionUnmet(f"q is not invertible: {exc}") from exc
    if h.S2._apply(q.terms) != q.terms:
        raise PreconditionUnmet("S^2(q) != q")
    zero, one = h.field.zero(), h.field.one()
    s_q = h._mult_matrix(q.terms, False) @ h.S  # column a is S(e_a) q
    cols = s_q.transpose().sparse_rows
    acc = _basis_products(h, [(c, b, cols[a]) for (a, b), c in h.delta_one.items()], left=False)
    if acc != h.one.terms:
        raise PreconditionUnmet(f"S(1_(1)) q 1_(2) != 1 (residual {Element._of(h, acc).coeffs})")
    one_q = _pair_of(h.one.terms, q.terms)
    comult = [h.mul_pair_dicts(h.comult[i], one_q) for i in range(h.dim)]
    eps = h.eps.terms
    counit = [_paired(_basis_products(h, [(one, i, q_inv)], left=True), eps, zero) for i in range(h.dim)]
    s_mat = h._mult_matrix(q_inv, True) @ s_q
    out = WeakHopfAlgebra(
        h.field, h.labels, h.mult, h.unit, comult, counit, antipode=s_mat,
        name=name or f"{h.name}_q",
    )
    report = validate_full(out)
    if not report.ok:
        raise Inconsistent(f"deformation failed validation: {report.failures()}")
    return out


def regularize(h):
    """Deform by q = g^{-1} so that S^2 = id on H_min; idempotent.

    g is the classifying element recovered by minimal_data; the deformation
    preconditions are verified on q and surfaced as PreconditionUnmet if the
    extracted element fails them.
    """
    if is_regular(h):
        return h, h.one
    md = minimal_data(h)
    q = md.g.inv()
    out = deform_q(h, q, name=f"{h.name}_reg")
    if not is_regular(out):
        raise Inconsistent("deformation by g^{-1} did not regularize S^2")
    return out, q


# ---------------------------------------------------------------------------
# general twists


@dataclass
class Twist:
    theta: dict  # sparse pair tensor in H (x) H
    theta_bar: dict


def _check_twist_invariants(h, t):
    # mul_pair_dicts refuses a pair naming no basis element with InvalidOperand;
    # such a pair lies in no image, so it is not a twist
    if not _on_basis(h, t.theta) or h.mul_pair_dicts(h.delta_one, t.theta) != t.theta:
        raise NotATwist("Theta does not lie in Delta(1)(H (x) H)")
    if not _on_basis(h, t.theta_bar) or h.mul_pair_dicts(t.theta_bar, h.delta_one) != t.theta_bar:
        raise NotATwist("Theta_bar does not lie in (H (x) H)Delta(1)")
    if h.mul_pair_dicts(t.theta, t.theta_bar) != h.delta_one:
        raise NotATwist("Theta Theta_bar != Delta(1)")


def twist_conjugator(h, t):
    """v = S(Theta^(1)) Theta^(2) and its inverse from Theta_bar, as Elements; verified."""
    s_cols = h.S.transpose().sparse_rows  # S(e_a)
    v = _basis_products(h, [(c, b, s_cols[a]) for (a, b), c in t.theta.items()], left=False)
    v_inv = _basis_products(h, [(c, a, s_cols[b]) for (a, b), c in t.theta_bar.items()], left=True)
    if h._mul(v, v_inv) != h.one.terms or h._mul(v_inv, v) != h.one.terms:
        raise VNotInvertible("S(Theta^(1))Theta^(2) is not inverted by the Theta_bar formula")
    return Element._of(h, v), Element._of(h, v_inv)


def twist(h, t, name=None):
    """The twisted weak Hopf algebra H_Theta; every axiom re-verified.

    The new comultiplication is Theta_bar Delta(.) Theta (coassociativity is
    checked, not assumed), the counit and algebra are unchanged, and the
    antipode is v^{-1} S(.) v, the sparse product L_(v^-1) R_v S.  The
    counital maps of the result must agree with the closed formulas
    eps_t(x) = eps(Theta^(1) x) Theta^(2) and
    eps_s(x) = Theta_bar^(1) eps(x Theta_bar^(2)).
    """
    _check_twist_invariants(h, t)
    comult = [
        h.mul_pair_dicts(t.theta_bar, h.mul_pair_dicts(h.comult[i], t.theta))
        for i in range(h.dim)
    ]
    v, v_inv = twist_conjugator(h, t)
    s_mat = h._mult_matrix(v_inv.terms, True) @ h._mult_matrix(v.terms, False) @ h.S
    out = WeakHopfAlgebra(
        h.field, h.labels, h.mult, h.unit, comult, h.counit, antipode=s_mat,
        name=name or f"{h.name}_twisted",
    )
    report = validate_full(out)
    if not report.ok:
        raise NotATwist(f"twisted structure fails {[c.name for c in report.failures()]}")
    e2 = h.counit_product
    if contraction_matrix(h, t.theta, e2, "t") != out.eps_t_mat:
        raise Mismatch("twisted eps_t differs from the closed formula")
    if contraction_matrix(h, t.theta_bar, e2, "s") != out.eps_s_mat:
        raise Mismatch("twisted eps_s differs from the closed formula")
    return out


# ---------------------------------------------------------------------------
# finite abelian groups of group-like elements and their characters


class AbelianGrouplikes:
    """A finite abelian group of group-like elements of a Hopf algebra U.

    Elements are given as coefficient vectors; closure, commutativity,
    identity, and inverses are all verified exactly.  Characters are built
    along a subgroup chain: each new generator's value is a root of unity
    solving m t = s (mod exponent), giving all |A| characters
    deterministically.
    """

    def __init__(self, u, elements):
        self.u = u
        vecs = [Element(u, e) for e in elements]
        if len(set(vecs)) != len(vecs):
            raise InvalidPresentation("repeated elements in A")
        for v in vecs:
            if not is_grouplike(u, v):
                raise InvalidPresentation("A contains a non-group-like element")
        index = {v: i for i, v in enumerate(vecs)}
        n = len(vecs)
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                prod = vecs[i] * vecs[j]
                if prod not in index:
                    raise InvalidPresentation("A is not closed under multiplication")
                table[i][j] = index[prod]
        for i in range(n):
            for j in range(n):
                if table[i][j] != table[j][i]:
                    raise InvalidPresentation("A is not abelian")
        identity = None
        for e in range(n):
            if all(table[e][j] == j for j in range(n)):
                identity = e
        if identity is None or vecs[identity] != u.one:
            raise InvalidPresentation("A has no identity equal to 1 of U")
        inverse = []
        for i in range(n):
            inv = [j for j in range(n) if table[i][j] == identity]
            if len(inv) != 1:
                raise InvalidPresentation("A has an element without a unique inverse")
            inverse.append(inv[0])
        self.vectors = vecs
        self.table = table
        self.identity = identity
        self.inverse = inverse
        self.order = n
        self.orders = [self._element_order(i) for i in range(n)]
        self.exponent = lcm(*self.orders)
        self.characters = self._characters()
        self.char_index = {c: i for i, c in enumerate(self.characters)}

    def _element_order(self, i):
        k, x = 1, i
        while x != self.identity:
            x = self.table[x][i]
            k += 1
        return k

    def power(self, i, k):
        out = self.identity
        for _ in range(k):
            out = self.table[out][i]
        return out

    def _characters(self):
        e_exp = self.exponent
        members = [self.identity]
        chars = [{self.identity: 0}]
        for x in range(self.order):
            if x in members:
                continue
            m = 1
            p = x
            while p not in members:
                p = self.table[p][x]
                m += 1
            base = p  # x^m, already in the subgroup
            new_members = list(members)
            for j in range(1, m):
                xj = self.power(x, j)
                new_members.extend(self.table[u][xj] for u in members)
            new_chars = []
            for chi in chars:
                s = chi[base]
                if s % m:
                    raise Inconsistent("character extension obstruction")
                for k in range(m):
                    t = s // m + k * (e_exp // m)
                    ext = dict(chi)
                    for j in range(1, m):
                        xj = self.power(x, j)
                        for u in members:
                            ext[self.table[u][xj]] = (chi[u] + j * t) % e_exp
                    new_chars.append(ext)
            members = new_members
            chars = new_chars
        out = [tuple(chi[i] for i in range(self.order)) for chi in chars]
        out.sort()
        if len(out) != self.order:
            raise Inconsistent(f"{len(out)} characters for a group of order {self.order}")
        return out

    def char_product(self, a, b):
        ca, cb = self.characters[a], self.characters[b]
        prod = tuple((x + y) % self.exponent for x, y in zip(ca, cb))
        return self.char_index[prod]

    def char_value(self, field, chi_idx, elt_idx, inverse=False):
        t = self.characters[chi_idx][elt_idx]
        if inverse:
            t = (-t) % self.exponent
        if t == 0:
            return field.one()
        if self.exponent <= 2:
            return field.from_int(-1)
        return field.zeta((field.order // self.exponent) * t)

    def minimal_idempotent(self, field, chi_idx):
        """P_mu = (1/|A|) sum_a mu(a^{-1}) a as an Element of U."""
        scale = field.div(field.one(), field.from_int(self.order))
        values = (scale * self.char_value(field, chi_idx, a, inverse=True) for a in range(self.order))
        return sum((v * c for v, c in zip(self.vectors, values)), Element._of(self.u, {}))


# ---------------------------------------------------------------------------
# dynamical twists


@dataclass
class DynamicalTwistData:
    """A Hopf algebra U, a finite abelian group A of its group-likes, and J.

    ``j`` maps character indices (in the canonical sorted order of
    AbelianGrouplikes.characters) to sparse pair tensors over U (x) U; None
    stands for the constant family 1 (x) 1.
    """

    u: WeakHopfAlgebra
    grouplikes: list
    j: dict = None


@dataclass
class DynamicalTwist:
    host: WeakHopfAlgebra  # M_{|A|} (x) U
    twist: Twist
    group: AbelianGrouplikes


def _j_tensor(u, data, chi_idx):
    """J(chi) as a sparse pair tensor; InvalidPresentation for a leg outside the basis of U."""
    if not data.j or data.j.get(chi_idx) is None:
        return _pair_of(u.one.terms, u.one.terms)
    raw = data.j[chi_idx]
    return _pruned({_index_pair(key, u.dim, f"J({chi_idx})"): u.field.coerce(c) for key, c in raw.items()})


def _j_inverse(u, tensor_algebra, j_pairs):
    try:
        inv = Element._of(tensor_algebra, {a * u.dim + b: c for (a, b), c in j_pairs.items()}).inv()
    except NotInvertible as exc:
        raise InvalidPresentation(f"J value is not invertible: {exc}") from exc
    return {divmod(pos, u.dim): c for pos, c in inv.terms.items()}


def verify_dynamical_data(data):
    """Check Hopf-ness of U, the group A, that J names only characters of A,
    normalization, commutation with Delta(A), invertibility of J, and the
    shifted cocycle equation per character.  Returns (group, j_tensors,
    j_inverses)."""
    u = data.u
    if u.target_base.dim != 1 or not u.target_base._has(u.one.terms):
        raise InvalidPresentation("U is not a Hopf algebra (H_t != k1)")
    group = AbelianGrouplikes(u, data.grouplikes)
    for chi in data.j or ():
        if chi not in range(group.order):
            raise InvalidPresentation(f"J is given for character {chi!r}, but A has {group.order} characters")
    if group.exponent > 2:
        if u.field.kind != "cyclotomic" or u.field.order % group.exponent:
            raise FieldTooSmall(
                f"characters of exponent {group.exponent} need zeta_{group.exponent}"
            )
    tensor_algebra = tensor_product(u, u)
    j_tensors = {}
    j_inverses = {}
    for chi in range(group.order):
        j = _j_tensor(u, data, chi)
        j_tensors[chi] = j
        j_inverses[chi] = _j_inverse(u, tensor_algebra, j)
        # normalization (eps (x) id)J = (id (x) eps)J = 1
        scaled = [(u.field.one(), j)]
        if any(_pruned(_contract_leg(u.field.zero(), scaled, u.eps.terms, leg)) != u.one.terms for leg in (0, 1)):
            raise InvalidPresentation(f"J({chi}) violates counit normalization")
        # commutation with Delta(a) for every a in A
        for a in range(group.order):
            da = u._comul(group.vectors[a].terms)
            if u.mul_pair_dicts(j, da) != u.mul_pair_dicts(da, j):
                raise InvalidPresentation(f"J({chi}) does not commute with Delta(A)")
    # shifted cocycle equation, brute tensor contraction per character
    p_vectors = [group.minimal_idempotent(u.field, m).terms for m in range(group.order)]
    for lam in range(group.order):
        j_lam = j_tensors[lam]
        lhs_left = _comultiplied(u.comult, u.field.zero(), j_lam, 0)
        shifted = {}
        for m in range(group.order):
            for (c, d), cf in j_tensors[group.char_product(lam, m)].items():
                for k, pk in p_vectors[m].items():
                    shifted[c, d, k] = shifted.get((c, d, k), u.field.zero()) + cf * pk
        lhs = u.mul_triple_dicts(lhs_left, _pruned(shifted))
        rhs_left = _comultiplied(u.comult, u.field.zero(), j_lam, 1)
        one_j = {(i, c, d): ci * cf for i, ci in u.one.terms.items() for (c, d), cf in j_lam.items()}
        rhs = u.mul_triple_dicts(rhs_left, one_j)
        if lhs != rhs:
            diff = {k: v for k, v in lhs.items() if rhs.get(k) != v}
            raise DynamicalEquationViolated(f"character {lam}: residual on {len(diff)} triples")
    return group, j_tensors, j_inverses


def dynamical_theta(data):
    """Assemble the twist of M_{|A*|} (x) U from a verified dynamical family."""
    group, j_tensors, j_inverses = verify_dynamical_data(data)
    u = data.u
    field = u.field
    nchars = group.order
    labels = [f"E{a + 1}{b + 1}" for a in range(nchars) for b in range(nchars)]
    m_part = matrix_wha(nchars, field=field, labels=labels, name=f"M{nchars}")
    host = tensor_product(m_part, u, name=f"M{nchars}(x){u.name}")
    du = u.dim

    def hidx(row, col, k):
        return (row * nchars + col) * du + k

    p_vectors = [group.minimal_idempotent(field, m).terms for m in range(nchars)]
    one = field.one()
    theta = {}
    theta_bar = {}
    for lam in range(nchars):
        for m in range(nchars):
            lam_m = group.char_product(lam, m)
            p = p_vectors[m]
            for (c, d), cf in j_tensors[lam].items():
                for k, ck in _basis_products(u, [(one, d, p)], left=True).items():  # J^(2) P_mu
                    key = (hidx(lam, lam_m, c), hidx(lam, lam, k))
                    theta[key] = theta.get(key, field.zero()) + cf * ck
            for (c, d), cf in j_inverses[lam].items():
                for k, ck in _basis_products(u, [(one, d, p)], left=False).items():  # P_mu J^(-2)
                    key = (hidx(lam_m, lam, c), hidx(lam, lam, k))
                    theta_bar[key] = theta_bar.get(key, field.zero()) + cf * ck
    t = Twist(theta=_pruned(theta), theta_bar=_pruned(theta_bar))
    _check_twist_invariants(host, t)
    return DynamicalTwist(host=host, twist=t, group=group)


def dynamical_cosemisimplicity_check(data):
    """Semisimplicity and cosemisimplicity of the dynamical twist H_Theta.

    Follows the two routes: the canonical element g = S(v)^{-1} v pairs to
    the regular trace like the identity against the whole center (the exact
    form of "Tr(pi(g)) = deg pi for every irreducible pi"), which forces
    Tr(S_Theta^2) = dim H_Theta, cross-checked by the direct matrix trace;
    biconnectedness plus the nonzero trace then give semisimplicity of both
    H_Theta and its dual, which is also decided directly by Maschke.
    """
    if not is_semisimple(data.u):
        raise PreconditionUnmet("U is not semisimple")
    build = dynamical_theta(data)
    host = build.host
    twisted = twist(host, build.twist, name=f"{host.name}_dyn")
    v, v_inv = twist_conjugator(host, build.twist)
    g_elt = Element._of(host, host.S._apply(v_inv.terms)) * v
    g_inv = g_elt.inv()
    center = host.center.sparse_rows

    def pairs_like_identity(x):
        diff = (x - host.one).terms
        for z in center:
            tr = host._mult_matrix(host._mul(diff, z), True).trace()
            if tr:
                return False
        return True

    g_ok = pairs_like_identity(g_elt)
    g_inv_ok = pairs_like_identity(g_inv)
    tr_s2 = twisted.S2.trace()
    from .semisimplicity import connectedness

    conn = connectedness(twisted)
    semis = is_semisimple(twisted)
    cosemis = is_semisimple(twisted.dual)
    report = {
        "dim": twisted.dim,
        "tr_s2_theta": tr_s2,
        "tr_s2_equals_dim": tr_s2 == twisted.dim,
        "g_trace_condition": g_ok,
        "g_inverse_trace_condition": g_inv_ok,
        "biconnected": conn["biconnected"],
        "corollary_route": (not (conn["biconnected"] and tr_s2 != 0)) or (semis and cosemis),
        "semisimple": semis,
        "cosemisimple_by_maschke_on_dual": cosemis,
        "twisted": twisted,
    }
    report["ok"] = all(
        report[k]
        for k in (
            "tr_s2_equals_dim",
            "g_trace_condition",
            "g_inverse_trace_condition",
            "biconnected",
            "corollary_route",
            "semisimple",
            "cosemisimple_by_maschke_on_dual",
        )
    )
    return report
