"""Trace-of-S^2 theory: the Larson-Radford-style formula and its corollaries.

For a dual pair (ell, lambda) the trace of the antipode square satisfies
Tr(S^2) = <eps_s(lambda), eps_s(ell)> with eps_s(lambda) computed in the
dual algebra.  Non-vanishing of Tr(S^2) restricted to blocks cut out by
primitive idempotents of Z(H) cap H_s is sufficient (not necessary) for
semisimplicity, so every criterion here is *verified as an implication*
against the Maschke decision; it never replaces it.

The per-block criteria read traces of S^2 on blocks cut out by an
idempotent p, without forming the blocks.  With q = S^2(p), the block pH
is S^2-invariant iff pq = q, since S^2 is multiplicative and q lies in
S^2(pH); pHp is invariant iff also qp = q; and for an idempotent pi of
H*, H* pi is (S*)^2-invariant iff (S*)^2(pi) pi = (S*)^2(pi).  A block
that fails its test raises Inconsistent, as ``restricted_trace`` does.
On an invariant block, L_p (x -> px), L_p R_p (x -> pxp) and R_pi are
projections onto it that S^2 preserves, so Tr(S^2|pH) = Tr(S^2 L_p) =
sum_i (S^2(p e_i))_i, Tr(S^2|pHp) = sum_i (S^2(p e_i p))_i and
Tr(S^2|H* pi) = sum_i (S^2(e_i pi))_i, with each p e_i, p e_i p and
e_i pi joined from a line of the table index.

Idempotent splitting works over the exact field only: minimal polynomials
are factored by root search (rational root candidates over Q; root-of-unity
multiples over cyclotomic fields), and a component whose minimal polynomials
have no such root raises NonSplit rather than guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import chain, count
from math import lcm

from .errors import Inconsistent, InvalidOperand, Mismatch, NonSplit, PreconditionUnmet
from .fields import QQ, _divisors, _poly_divmod, _poly_eval, _poly_ext_gcd, _poly_mul
from .integrals import _owned, canonical_dual_pair, is_semisimple, semisimple_by_trace_form
from .linalg import Subspace, _insert, _n_by_n
from .wha import Element, _common, _join, _paired

__all__ = [
    "TraceReport",
    "coinciding_bases_theorem_check",
    "connectedness",
    "primitive_idempotents",
    "restricted_trace",
    "semisimplicity_report",
    "trace_s2",
]


def trace_s2(h, pair):
    """Tr(S^2) directly and through <eps_s(lambda), eps_s(ell)>; must agree."""
    ell, lam = _owned(h, pair.ell, pair.lam)
    direct = h.S2.trace()
    formula = _paired(h.dual.eps_s_mat._apply(lam), h.eps_s_mat._apply(ell), h.field.zero())
    if direct != formula:
        raise Mismatch(f"Tr(S^2): direct {direct} != formula {formula}")
    return {"direct": direct, "formula": formula}


def _rational_root_candidates(f):
    """Divisor-based candidate roots of a monic polynomial over Q."""
    denom = lcm(*(c.denominator for c in f))
    ints = [int(c * denom) for c in f]
    lead = ints[-1]
    const = ints[0]
    cands = {QQ.zero()}
    if const == 0:
        return sorted(cands)
    for p in _divisors(abs(const)):
        for q in _divisors(abs(lead)):
            cands.add(QQ.div(p, q))
            cands.add(QQ.div(-p, q))
    return sorted(cands)


def _root_candidates(f, field):
    if field.kind == "rational":
        return _rational_root_candidates(f)
    # cyclotomic: rational candidates (when the coefficients are rational)
    # scaled by every power of the root of unity
    rational_part = []
    for c in f:
        if any(x for x in c.c[1:]):
            rational_part = None
            break
        rational_part.append(QQ.coerce(c.c[0]))
    base = _rational_root_candidates(rational_part) if rational_part else [
        QQ.parse(x) for x in ("0", "1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3")
    ]
    cands = []
    seen = set()
    for r in base:
        for k in range(field.order):
            v = field.from_fraction(r) * field.zeta(k)
            if v not in seen:
                seen.add(v)
                cands.append(v)
    return cands


def _roots_in_field(f, field):
    return [r for r in _root_candidates(f, field) if not _poly_eval(f, r, field)]


# ---------------------------------------------------------------------------
# primitive idempotents of a commutative subalgebra


def _min_poly_in(h, space, unit, x):
    """Monic minimal polynomial of x inside the unital component (space, unit).

    Each power x^k enters one running echelon once, as its coordinates in
    ``space`` with a tracking column d + k.  The first power whose
    coordinates reduce to zero is left as a relation sum_{j <= k} c_j x^j = 0,
    and c_k is the tracking 1 of x^k, which no earlier row touches.
    """
    field = h.field
    d = space.dim
    echelon = {}
    power = unit
    for k in count():
        coords, rest = space._residue(power.items())
        if rest:
            raise Inconsistent("component not closed under multiplication")
        pivot = _insert(echelon, chain(coords.items(), [(d + k, field.one())]), field)
        if pivot >= d:
            relation = echelon[pivot]
            lead = field.inv(relation[d + k])
            return [relation.get(d + j, field.zero()) * lead for j in range(k + 1)]
        power = h._mul(power, x)


def primitive_idempotents(h, space, unit=None):
    """Complete orthogonal primitive idempotents of a commutative subalgebra.

    Splits iteratively: each basis element's minimal polynomial is searched
    for roots in the field; a root r with a proper cofactor splits the
    component through the Bezout idempotent of (t - r)^m and the cofactor.
    Components where no minimal polynomial has a field root (and splitting is
    still needed) raise NonSplit.
    """
    field = h.field
    zero = field.zero()
    unit = h.one if unit is None else Element(h, unit)
    if not space._has(unit.terms):
        raise PreconditionUnmet("unit must lie in the subalgebra")
    pending = [(space, unit)]
    finished = []
    while pending:
        comp, p = pending.pop()
        if comp.dim == 1:
            finished.append(p)
            continue
        split = None
        rootless = False
        # candidate splitting elements: the component's own echelon basis can
        # hide nice spectra, so images p*a of the original subalgebra basis
        # are tried first (character values stay visible there); each is made
        # only when the one before it did not split
        seen = set()
        for bvec in (Element._of(h, h._mul(p.terms, a)) for a in chain(space.sparse_rows, comp.sparse_rows)):
            if not bvec or bvec in seen:
                continue
            seen.add(bvec)
            f = _min_poly_in(h, comp, p.terms, bvec.terms)
            if len(f) <= 2:
                continue
            roots = _roots_in_field(f, field)
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
                cofactor = rem
                if len(cofactor) <= 1:
                    continue  # pure power of one root: no split from this x
                split = (bvec, power, cofactor)
                break
            if split:
                break
        if split is None:
            if rootless:
                raise NonSplit("minimal polynomial without a root in the field")
            # every minimal polynomial is a pure power: local component
            finished.append(p)
            continue
        xvec, power, cofactor = split
        u, w, g = _poly_ext_gcd(power, cofactor, field)
        if len(g) != 1:
            raise Inconsistent("factors not coprime")
        # idempotent for the cofactor part: u(x) * (x - r)^m evaluated at x
        e_big = _poly_mul(u, power, field)
        e_vec = _eval_poly_at(e_big, xvec, p)
        if e_vec * e_vec != e_vec:
            raise Inconsistent("split element is not idempotent")
        for q in (e_vec, p - e_vec):
            rows = (_join(h.mult_rows, q.terms, b, zero).items() for b in comp.sparse_rows)
            pending.append((Subspace._span(field, h.dim, rows), q))
    finished.sort(key=lambda e: tuple(field.format(c) for c in e.coeffs))
    for e in finished:
        for q in finished:
            if e is not q and e * q:
                raise Inconsistent("idempotents not orthogonal")
    if sum(finished, Element._of(h, {})) != unit:
        raise Inconsistent("idempotents do not sum to the unit")
    return finished


def _eval_poly_at(f, x, unit):
    """f(x) for Elements x and unit, with the powers of x taken from unit."""
    acc, power = unit * 0, unit
    for c in f:
        if c:
            acc += power * c
        power = power * x
    return acc


# ---------------------------------------------------------------------------
# connectedness and the report


def connectedness(h):
    """Z(H) cap H_s = k1 decides connected; biconnected adds the dual."""
    own = h.center_cap_source.dim == 1
    dual = h.dual.center_cap_source.dim == 1
    return {"connected": own, "biconnected": own and dual}


_NOT_INVARIANT = "subspace not invariant under the operator"


def restricted_trace(h, operator, space):
    """Trace of an operator, an n x n Matrix, restricted to an invariant subspace of h's n-space."""
    operator = _n_by_n(operator, h.dim)
    if getattr(space, "ambient", None) != h.dim:
        raise InvalidOperand(f"{space!r} is not a subspace of the dim-{h.dim} algebra")
    mat = space._matrix_of(operator._apply(row).items() for row in space.sparse_rows)
    if mat is None:
        raise Inconsistent(_NOT_INVARIANT)
    return mat.trace()


@dataclass
class TraceReport:
    tr_s2_direct: object
    tr_s2_formula: object
    per_block: list  # (label, Tr(S^2|pH), Tr(S^2|pHp)) or None when NonSplit
    per_block_available: bool
    lemma_blocks: list  # same triple over primitive central idempotents of H_min
    lemma_blocks_available: bool
    connected: bool
    biconnected: bool
    semisimple: bool
    cosemisimple: bool
    implications: list = dataclass_field(default_factory=list)

    @property
    def ok(self):
        return all(rec["holds"] for rec in self.implications)

    def as_dict(self, field):
        fmt = field.format
        return {
            "tr_s2": {"direct": fmt(self.tr_s2_direct), "formula": fmt(self.tr_s2_formula)},
            "per_block": [
                {"idempotent": lab, "tr_pH": fmt(a), "tr_pHp": fmt(b)}
                for (lab, a, b) in (self.per_block or [])
            ]
            if self.per_block_available
            else "unavailable (NonSplit)",
            "lemma_blocks": [
                {"idempotent": lab, "tr_pH": fmt(a), "tr_pHp": fmt(b)}
                for (lab, a, b) in (self.lemma_blocks or [])
            ]
            if self.lemma_blocks_available
            else "unavailable (NonSplit)",
            "connected": self.connected,
            "biconnected": self.biconnected,
            "semisimple": self.semisimple,
            "cosemisimple": self.cosemisimple,
            "implications": self.implications,
            "ok": self.ok,
        }


def _s2_trace(h, images):
    """Tr(S^2 P) = sum_i (S^2(P e_i))_i, from the images P e_i as sparse vectors."""
    total = h.field.zero()
    for row, v in zip(h.S2.sparse_rows, images):
        for _j, y, x in _common(row, v):
            if x:
                total += y * x
    return total


def _block_traces(h, idempotents):
    """(label, Tr(S^2|pH), Tr(S^2|pHp)) for each idempotent p, as Tr(S^2 L_p) and Tr(S^2 L_p R_p).

    The module docstring gives the invariance tests pq = q and qp = q, with
    q = S^2(p); pH is tested first.
    """
    zero, one = h.field.zero(), h.field.one()
    out = []
    for e in idempotents:
        p = e.terms
        q = h.S2._apply(p)
        if h._mul(p, q) != q:
            raise Inconsistent(_NOT_INVARIANT)
        p_basis = [_join(h.mult_cols, {i: one}, p, zero) for i in range(h.dim)]  # p e_i
        tr_ph = _s2_trace(h, p_basis)
        if h._mul(q, p) != q:
            raise Inconsistent(_NOT_INVARIANT)
        tr_php = _s2_trace(h, [_join(h.mult_rows, v, p, zero) for v in p_basis])  # p e_i p
        out.append((repr(e), tr_ph, tr_php))
    return out


def _left_ideal_trace(h, pi):
    """Tr(S^2|H pi) for a sparse idempotent pi, as Tr(S^2 R_pi); raises Inconsistent unless S^2(pi) pi = S^2(pi)."""
    q = h.S2._apply(pi)
    if h._mul(q, pi) != q:
        raise Inconsistent(_NOT_INVARIANT)
    zero, one = h.field.zero(), h.field.one()
    return _s2_trace(h, [_join(h.mult_rows, {i: one}, pi, zero) for i in range(h.dim)])  # e_i pi


def semisimplicity_report(h, pair=None):
    """Evaluate every sufficient criterion as an implication on this algebra.

    Semisimplicity itself is decided by Maschke and cross-checked against the
    regular trace form; the Tr(S^2)-based sufficient conditions are recorded
    as (hypothesis, conclusion, holds) triples.
    """
    from .grouplikes import is_regular

    pair = pair or canonical_dual_pair(h)
    traces = trace_s2(h, pair)
    semis = is_semisimple(h)
    oracle = semisimple_by_trace_form(h)
    if semis != oracle:
        raise Inconsistent("Maschke and trace-form oracle disagree")
    cosemis = is_semisimple(h.dual)
    conn = connectedness(h)
    # the sufficient criteria below are all stated under S^2 = id on H_min,
    # so that regularity joins their hypotheses
    regular = is_regular(h)
    per_block = None
    per_block_available = True
    try:
        idem = primitive_idempotents(h, h.center_cap_source, unit=h.one)
        per_block = _block_traces(h, idem)
    except NonSplit:
        per_block_available = False
    hmin = h.minimal_subalgebra
    z_hmin = h.centralizer_in(hmin, against=hmin)
    lemma_blocks = None
    lemma_blocks_available = True
    try:
        idem_min = primitive_idempotents(h, z_hmin, unit=h.one)
        lemma_blocks = _block_traces(h, idem_min)
    except NonSplit:
        lemma_blocks_available = False

    implications = []

    def record(name, hypothesis, conclusion):
        implications.append(
            {
                "name": name,
                "hypothesis": bool(hypothesis),
                "conclusion": bool(conclusion),
                "holds": (not hypothesis) or bool(conclusion),
            }
        )

    if per_block_available:
        record(
            "blocks_pH_nonzero_implies_semisimple",
            regular and all(t_ph != 0 for (_l, t_ph, _t) in per_block),
            semis,
        )
    # dual-block criterion: Tr(S^2|H* pi) != 0 over primitive idempotents of
    # H_s* cap H_t* implies H semisimple
    dual = h.dual
    dual_caps = dual.source_base.intersect(dual.target_base)
    try:
        dual_idem = primitive_idempotents(dual, dual_caps, unit=dual.one)
        traces_dual = [_left_ideal_trace(dual, e.terms) for e in dual_idem]
        record(
            "dual_blocks_nonzero_implies_semisimple",
            regular and all(t != 0 for t in traces_dual),
            semis,
        )
    except NonSplit:
        pass
    record(
        "connected_trace_nonzero_implies_semisimple",
        regular and conn["connected"] and traces["direct"] != 0,
        semis,
    )
    record(
        "biconnected_trace_nonzero_implies_both_semisimple",
        regular and conn["biconnected"] and traces["direct"] != 0,
        semis and cosemis,
    )
    if lemma_blocks_available:
        record(
            "semisimple_implies_pHp_traces_nonzero",
            regular and semis,
            all(t_php != 0 for (_l, _t, t_php) in lemma_blocks),
        )
    return TraceReport(
        tr_s2_direct=traces["direct"],
        tr_s2_formula=traces["formula"],
        per_block=per_block,
        per_block_available=per_block_available,
        lemma_blocks=lemma_blocks,
        lemma_blocks_available=lemma_blocks_available,
        connected=conn["connected"],
        biconnected=conn["biconnected"],
        semisimple=semis,
        cosemisimple=cosemis,
        implications=implications,
    )


def coinciding_bases_theorem_check(h, pair=None):
    """H_t = H_s and H semisimple force H* semisimple; proof step verified.

    Also checks the intermediate claim: eps_t(lambda), taken in the dual
    algebra, is invertible and lies in Z(H*) cap H_s*.
    """
    if h.target_base != h.source_base:
        raise PreconditionUnmet("bases do not coincide")
    if not is_semisimple(h):
        raise PreconditionUnmet("algebra is not semisimple")
    dual = h.dual
    dual_ok = is_semisimple(dual)
    pair = pair or canonical_dual_pair(h)
    v = dual.eps_t_mat._apply(_owned(h, pair.ell, pair.lam)[1])
    in_place = dual.center_cap_source._has(v)
    invertible = dual._mult_matrix(v, True).is_invertible()
    return {
        "dual_semisimple": dual_ok,
        "eps_t_lambda_in_center_cap_base": in_place,
        "eps_t_lambda_invertible": invertible,
        "ok": dual_ok and in_place and invertible,
    }
