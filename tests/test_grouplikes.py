import pytest

from whopf.constructors import (
    SemisimplePresentation,
    cyclic_table,
    disjoint_union,
    group_algebra,
    groupoid_algebra,
    minimal_wha,
    one_object_groupoid,
    pair_groupoid,
    symmetric_table,
)
from whopf.errors import (
    Inconsistent,
    InvalidOperand,
    InvalidPresentation,
    PreconditionUnmet,
    RegularityViolated,
    WhopfError,
)
from whopf.fields import QQ
from whopf.grouplikes import (
    antipode_order_report,
    coset_equal,
    distinguished_pair,
    gamma_module,
    gamma_module_iso,
    grouplike_automorphism,
    is_dual_grouplike,
    is_grouplike,
    is_half_grouplike,
    is_regular,
    is_trivial_automorphism,
    is_trivial_grouplike,
    is_wha_morphism,
    lambda_ell_relations,
    make_trivial_grouplike,
    module_from_integral,
    radford_check,
    self_intertwiners,
    twisted_counitals,
    twisted_integral_spaces,
)
from whopf.integrals import canonical_dual_pair, find_nondegenerate_integral, is_nondegenerate
from whopf.linalg import Matrix, Subspace
from whopf.wha import Element, Functional, WeakHopfAlgebra


def kz2():
    return group_algebra(cyclic_table(2), name="k[Z2]")


def pair2():
    return groupoid_algebra(pair_groupoid(2), name="pair2")


SWAP = (0, 1, 1, 0)  # m12 + m21


def test_vector_predicates_reject_wrong_lengths():
    """A raw vector of the wrong length raises, not a wrong verdict or an IndexError."""
    u = kz2()
    for vec in ((1,), (1, 0, 5)):
        for call in (
            lambda: is_grouplike(u, vec),
            lambda: is_half_grouplike(u, vec, 1),
            lambda: is_half_grouplike(u, vec, 2),
            lambda: is_trivial_grouplike(u, vec),
            lambda: is_nondegenerate(u, vec),
        ):
            with pytest.raises(InvalidPresentation):
                call()
    assert is_grouplike(u, (1, 0)) and is_trivial_grouplike(u, (1, 0))[0]
    assert is_nondegenerate(u, (1, 1))


@pytest.mark.parametrize("side", [3, 0])
def test_is_half_grouplike_rejects_an_unknown_side(side):
    with pytest.raises(InvalidOperand, match="side"):
        is_half_grouplike(kz2(), (1, 0), side)


def test_is_grouplike():
    h = pair2()
    assert is_grouplike(h, h.one)
    assert is_grouplike(h, SWAP)
    assert not is_grouplike(h, (1, 0, 0, 0))  # m11 not invertible
    # eps_t(g) = eps_s(g) = 1 and S(g) = g^{-1} for group-likes
    for g in (tuple(h.one.coeffs), SWAP):
        assert tuple(h.eps_t(g)) == h.unit
        assert tuple(h.eps_s(g)) == h.unit
        ge = Element(h, g)
        assert Element(h, h.apply_S(g)) == ge.inv()


def test_is_dual_grouplike():
    h = kz2()
    assert is_dual_grouplike(h, h.eps)
    sign = h.functional((1, -1))  # the sign character of Z/2
    assert is_dual_grouplike(h, sign)
    assert not is_dual_grouplike(h, h.functional((1, 0)))  # delta_e not invertible


def test_trivial_grouplikes():
    h = pair2()
    assert is_trivial_grouplike(h, h.one) == (True, Element(h, h.unit))
    ok, _ = is_trivial_grouplike(h, Element(h, SWAP))
    assert not ok  # swap is group-like but not trivial
    assert coset_equal(h, h.one, h.one)
    assert not coset_equal(h, Element(h, SWAP), h.one)


def test_trivial_grouplikes_in_minimal_wha():
    h = minimal_wha(SemisimplePresentation(blocks=(2,)))
    hs = h.source_base
    # build trivial group-likes S(y) y^{-1} from several invertible y in H_s
    import itertools

    count = 0
    for combo in itertools.product((-1, 0, 1, 2), repeat=hs.dim):
        if count >= 4:
            break
        y = [QQ.zero()] * h.dim
        for c, row in zip(combo, hs.rows):
            if c:
                y = [a + c * b for a, b in zip(y, row)]
        ye = Element(h, y)
        if not any(y) or not ye.is_invertible():
            continue
        g = make_trivial_grouplike(h, ye)
        assert is_grouplike(h, g)
        ok, witness = is_trivial_grouplike(h, g)
        assert ok
        assert Element(h, h.apply_S(witness.coeffs)) * witness.inv() == g
        count += 1
    assert count == 4


def test_coset_equal_with_constructed_factor():
    h = minimal_wha(SemisimplePresentation(blocks=(2,)))
    y = None
    for row in h.source_base.rows:
        cand = Element(h, row)
        if cand.is_invertible():
            y = cand
            break
    if y is None:
        y = Element(h, h.unit)
    g = make_trivial_grouplike(h, y)
    assert coset_equal(h, g, h.one)


def test_distinguished_pair_z2_unimodular():
    h = kz2()
    pair = canonical_dual_pair(h)
    dp = distinguished_pair(h, pair)
    assert dp.alpha.coeffs == h.counit  # alpha = eps
    assert dp.a == h.one
    assert radford_check(h, dp) == []
    assert lambda_ell_relations(h, dp) == []


def test_distinguished_pair_pair_groupoid():
    h = pair2()
    pair = canonical_dual_pair(h)
    dp = distinguished_pair(h, pair)
    assert is_dual_grouplike(h, dp.alpha)
    assert is_grouplike(h, dp.a)
    # two-sided integrals exist, so both distinguished group-likes are trivial
    assert is_trivial_grouplike(h, dp.a)[0]
    dual = h.dual
    assert is_trivial_grouplike(dual, Element(dual, dp.alpha.coeffs))[0]
    assert radford_check(h, dp) == []
    assert lambda_ell_relations(h, dp) == []


def test_alpha_independent_of_ell_up_to_coset():
    h = pair2()
    pair1 = canonical_dual_pair(h, skip=0)
    pair2_ = canonical_dual_pair(h, skip=1)
    assert pair1.ell != pair2_.ell
    a1 = distinguished_pair(h, pair1).alpha
    a2 = distinguished_pair(h, pair2_).alpha
    dual = h.dual
    assert coset_equal(dual, Element(dual, a1.coeffs), Element(dual, a2.coeffs))


def test_regularity_gate():
    irregular = minimal_wha(SemisimplePresentation(blocks=(2,), g=[[3, -1]]))
    assert not is_regular(irregular)
    pair = canonical_dual_pair(irregular)
    with pytest.raises(RegularityViolated):
        distinguished_pair(irregular, pair)


def test_twisted_counitals_recover_counital_maps():
    for h in (kz2(), pair2()):
        maps = twisted_counitals(h, h.eps)
        assert maps["eps_s_gamma"] == h.eps_s_mat
        assert maps["eps_t_gamma"] == h.eps_t_mat


def test_twisted_counitals_sign_character():
    h = kz2()
    sign = h.functional((1, -1))
    maps = twisted_counitals(h, sign)
    # projection x |-> <sign, x> 1 for a Hopf algebra
    expected = Matrix(QQ, [[1, -1], [0, 0]])
    assert maps["eps_s_gamma"] == expected
    assert maps["eps_t_gamma"] == expected


def test_gamma_module_axioms():
    h = pair2()
    module = gamma_module(h, h.eps)
    assert module.base.dim == 2
    hz = kz2()
    module_z = gamma_module(hz, hz.eps)
    assert module_z.base.dim == 1
    sign = hz.functional((1, -1))
    gamma_module(hz, sign)  # axioms verified inside


def test_module_from_integral_matches_gamma_module():
    h = pair2()
    ell = find_nondegenerate_integral(h)
    gamma, module = module_from_integral(h, ell)
    assert is_dual_grouplike(h, gamma)
    rebuilt = gamma_module(h, gamma)
    assert rebuilt.action == module.action


def test_gamma_module_iso_reflexive_and_constructed():
    h = pair2()
    ok, v = gamma_module_iso(h, h.eps, h.eps)
    assert ok and v is not None
    # gamma2 = eps * S(xi) xi^{-1} for invertible xi in H_s* gives an iso;
    # xi = p_m11 + 2 p_m12 + p_m21 + 2 p_m22 makes the factor non-counital
    dual = h.dual
    hs_star = dual.source_base
    vec = [a + 2 * b for a, b in zip(hs_star.rows[0], hs_star.rows[1])]
    xi = Element(dual, vec)
    assert xi.is_invertible()
    s_xi = Element(dual, dual.apply_S(xi.coeffs))
    gamma2 = Functional(h, (Element(dual, h.counit) * s_xi * xi.inv()).coeffs)
    assert gamma2.coeffs != h.counit
    assert is_dual_grouplike(h, gamma2)
    ok, v = gamma_module_iso(h, h.eps, gamma2)
    assert ok and v is not None
    # the predicted witness S(xi^{-1}) -> 1 solves the system as well
    predicted = h.lact(Functional(h, dual.apply_S(xi.inv().coeffs)), h.unit)
    from whopf.grouplikes import _intertwiner_space

    assert _intertwiner_space(h, h.eps, gamma2).contains(predicted)


def test_gamma_module_iso_distinct_characters_z2():
    h = kz2()
    sign = h.functional((1, -1))
    ok, _ = gamma_module_iso(h, h.eps, sign)
    assert not ok  # H_s = Q1 forces S(xi) xi^{-1} = eps


def test_self_intertwiners_dimensions():
    for h in (pair2(), kz2()):
        assert self_intertwiners(h, h.eps).dim == 1
    z2z2 = groupoid_algebra(
        disjoint_union(one_object_groupoid(cyclic_table(2)), one_object_groupoid(cyclic_table(2)))
    )
    assert self_intertwiners(z2z2, z2z2.eps).dim == 2


def test_twisted_integral_spaces():
    h = pair2()
    spaces = twisted_integral_spaces(h, gamma=h.eps)
    from whopf.integrals import integral_space

    assert spaces["L"] == integral_space(h, "left")
    assert spaces["R"] == integral_space(h, "right")


def test_shift_isomorphism_dimensions():
    # phi |-> (g -> phi) maps L_g isomorphically onto L_{g h^{-1}}; with
    # h = g = swap the target is L_1 = integrals of H*
    h = pair2()
    g = Element(h, SWAP)
    spaces_g = twisted_integral_spaces(h, g=g)
    spaces_1 = twisted_integral_spaces(h, g=h.one)
    assert spaces_g["L"].dim == spaces_1["L"].dim
    # the explicit map: phi |-> h -> phi where h -> phi = phi_(1) <phi_(2), h>
    images = []
    for phi in spaces_g["L"].rows:
        images.append(h.dual_lact(SWAP, phi))
    mapped = Subspace.from_vectors(h.field, h.dim, images)
    assert mapped == spaces_1["L"]
    from whopf.integrals import integral_space

    assert spaces_1["L"] == integral_space(h.dual, "left")


def test_grouplike_automorphism_and_triviality():
    h = pair2()
    eye = grouplike_automorphism(h, g=h.one)
    assert eye == Matrix.identity(QQ, 4)
    assert is_trivial_automorphism(h, eye)[0] == "yes"
    conj_swap = grouplike_automorphism(h, g=Element(h, SWAP))
    assert is_wha_morphism(h, conj_swap)
    assert is_trivial_automorphism(h, conj_swap)[0] == "no"
    # S^4 is trivial here (two-sided non-degenerate integrals exist)
    s4 = h.S.power(4)
    assert is_trivial_automorphism(h, s4)[0] == "yes"


def test_alpha_conjugation_is_automorphism():
    h = pair2()
    dp = distinguished_pair(h, canonical_dual_pair(h))
    phi = grouplike_automorphism(h, gamma=dp.alpha)
    assert is_wha_morphism(h, phi)


def test_antipode_order_report():
    assert antipode_order_report(kz2())["order"] == 1
    assert antipode_order_report(minimal_wha(SemisimplePresentation(blocks=(2,))))["order"] == 1
    assert antipode_order_report(pair2(), bound=3)["order"] == 1


def test_radford_on_minimal_wha_identity_g():
    h = minimal_wha(SemisimplePresentation(blocks=(2,)))
    dp = distinguished_pair(h, canonical_dual_pair(h))
    assert radford_check(h, dp) == []
    assert lambda_ell_relations(h, dp) == []


def test_adjoint_of_classifying_element_trivial_on_hmin():
    # with S^2 = id on H_min, conjugation by g^{-1} S(g) fixes H_min pointwise
    from whopf.wha import minimal_data

    for h in (kz2(), pair2(), minimal_wha(SemisimplePresentation(blocks=(2,)))):
        assert is_regular(h)
        md = minimal_data(h)
        w = md.g.inv() * Element(h, h.apply_S(md.g.coeffs))
        w_inv = w.inv()
        for row in h.minimal_subalgebra.rows:
            conj = h.mul_vec(w.coeffs, h.mul_vec(row, w_inv.coeffs))
            assert tuple(conj) == row, h.name


def test_trivial_grouplike_witnesses_compose_on_commutative_base():
    h = pair2()  # H_s = span{m11, m22} is commutative
    y1 = Element(h, (1, 0, 0, 2))
    y2 = Element(h, (3, 0, 0, 1))
    g1 = make_trivial_grouplike(h, y1)
    g2 = make_trivial_grouplike(h, y2)
    assert g1 * g2 == make_trivial_grouplike(h, y2 * y1)


def test_coinciding_bases_force_trivial_grouplike_to_be_one():
    z2z2 = groupoid_algebra(
        disjoint_union(one_object_groupoid(cyclic_table(2)), one_object_groupoid(cyclic_table(2)))
    )
    assert z2z2.target_base == z2z2.source_base
    g = Element(z2z2, (0, 1, 0, 1))  # sum of the two generators
    assert is_grouplike(z2z2, g)
    assert not is_trivial_grouplike(z2z2, g)[0]
    assert is_trivial_grouplike(z2z2, z2z2.one)[0]


def test_antipode_order_bound_exhaustion(monkeypatch):
    """No power up to the bound is trivial: the report gives order None with the bound, not a false order."""
    from whopf import grouplikes

    monkeypatch.setattr(grouplikes, "is_trivial_automorphism", lambda h, phi: ("no", None))
    got = antipode_order_report(kz2(), bound=3)
    assert got == {"order": None, "bound": 3, "undecided": []}


def test_max_height_env(monkeypatch):
    from whopf.search import max_height

    monkeypatch.setenv("WHOPF_MAX_HEIGHT", "16")
    assert max_height() == 16
    monkeypatch.setenv("WHOPF_MAX_HEIGHT", "junk")
    assert max_height() == 8


def test_gamma_module_on_cyclotomic_member():
    from whopf.zoo import build_member

    h = build_member("z3-group-cyclotomic")
    module = gamma_module(h, h.eps)  # axioms verified inside
    assert module.base.dim == 1


def test_trivial_grouplike_inputs_outside_hs_are_typed_errors():
    """y outside H_s, and a unit outside H_s, raise typed errors, also under python -O."""
    h = pair2()
    with pytest.raises(PreconditionUnmet):
        make_trivial_grouplike(h, Element(h, SWAP))  # swap is invertible but not in H_s
    # Delta(e) corrupted to e (x) e + g (x) g: Delta(1) spans H_s = Q(e + g), which misses 1 = e
    z2 = kz2()
    comult = [dict(d) for d in z2.comult]
    comult[0][(1, 1)] = QQ.one()
    bad = WeakHopfAlgebra(z2.field, z2.labels, z2.mult, z2.unit, comult, z2.counit, antipode=z2.antipode)
    assert not bad.source_base.contains(bad.unit)
    with pytest.raises(Inconsistent):
        module_from_integral(bad, (1, 1))
    # a vector of the right length whose entries are not scalars, and a dict, whose keys are not coefficients
    with pytest.raises(WhopfError):
        is_grouplike(z2, "ab")
    with pytest.raises(InvalidOperand):
        is_grouplike(z2, {0: 2, 1: 0})


def _wrapper_cases():
    """(name, algebra, vector, wrapper class, call) for each vector-taking public function."""
    from whopf.integrals import dual_integral, is_nondegenerate, nondegeneracy_matrix
    from whopf.twisting import AbelianGrouplikes, deform_q
    from whopf.wha import minimal_data
    from whopf.zoo import build_member

    h = build_member("pair-2")
    z2 = kz2()
    ell = canonical_dual_pair(h).ell.coeffs
    eps = h.counit
    sign = (1, -1)  # the sign character of Z/2
    deformed = minimal_wha(SemisimplePresentation(blocks=(2,), g=[[3, -1]]))
    q = minimal_data(deformed).g.inv().coeffs
    E, F = Element, Functional
    return [
        ("is_half_grouplike", h, SWAP, E, lambda x: (is_half_grouplike(h, x, 1), is_half_grouplike(h, x, 2))),
        ("is_grouplike", h, SWAP, E, lambda x: is_grouplike(h, x)),
        ("is_trivial_grouplike", h, SWAP, E, lambda x: is_trivial_grouplike(h, x)),
        ("make_trivial_grouplike", h, h.unit, E, lambda x: make_trivial_grouplike(h, x)),
        ("coset_equal", h, SWAP, E, lambda x: (coset_equal(h, x, h.unit), coset_equal(h, h.unit, x))),
        ("grouplike_automorphism_g", h, SWAP, E, lambda x: grouplike_automorphism(h, g=x)),
        ("twisted_integral_spaces_g", h, SWAP, E, lambda x: twisted_integral_spaces(h, g=x)),
        ("module_from_integral", h, ell, E, lambda x: module_from_integral(h, x)),
        ("nondegeneracy_matrix", h, ell, E, lambda x: nondegeneracy_matrix(h, x)),
        ("is_nondegenerate", h, ell, E, lambda x: is_nondegenerate(h, x)),
        ("dual_integral", h, ell, E, lambda x: dual_integral(h, x)),
        ("deform_q", deformed, q, E, lambda x: deform_q(deformed, x).same_structure(deform_q(deformed, q))),
        ("AbelianGrouplikes", z2, (0, 1), E, lambda x: AbelianGrouplikes(z2, [z2.unit, x]).vectors),
        ("mul_vec", h, SWAP, E, lambda x: (h.mul_vec(x, SWAP), h.mul_vec(SWAP, x))),
        ("invert_element", h, SWAP, E, lambda x: h.invert_element(x)),
        ("arrows_on_elements", h, SWAP, E, lambda x: (h.lact(eps, x), h.ract(x, eps), h.dual_lact(x, eps))),
        ("functional_call", h, SWAP, E, lambda x: h.eps(x)),
        ("is_dual_grouplike", z2, sign, F, lambda x: is_dual_grouplike(z2, x)),
        ("twisted_counitals", z2, sign, F, lambda x: twisted_counitals(z2, x)),
        ("gamma_module", h, eps, F, lambda x: gamma_module(h, x)),
        ("gamma_module_iso", h, eps, F, lambda x: gamma_module_iso(h, x, x)),
        ("twisted_integral_spaces_gamma", h, eps, F, lambda x: twisted_integral_spaces(h, gamma=x)),
        ("grouplike_automorphism_gamma", h, eps, F, lambda x: grouplike_automorphism(h, gamma=x)),
        ("pairing_table", h, eps, F, lambda x: h.pairing_table(x)),
        ("arrows_on_functionals", h, eps, F, lambda x: (h.lact(x, SWAP), h.ract(SWAP, x), h.dual_ract(x, SWAP))),
    ]


@pytest.mark.parametrize("case", _wrapper_cases(), ids=lambda case: case[0])
def test_plain_tuple_and_wrapper_give_the_same_result(case):
    _name, h, vec, wrapper, call = case
    assert call(tuple(vec)) == call(wrapper(h, vec))


def test_is_dual_grouplike_reads_the_sparse_pairing_table(monkeypatch):
    """The pairing table is already a Matrix: no dense Matrix(...) of its n^2 entries (576 on k[S4])."""
    h = group_algebra(symmetric_table(4))
    calls = []
    init = Matrix.__init__
    monkeypatch.setattr(Matrix, "__init__", lambda self, field, rows: calls.append(1) or init(self, field, rows))
    assert is_dual_grouplike(h, h.counit)
    assert calls == []


def _pair_calls():
    """(name, call(h, pair, dp)) for each function that reads a dual pair or a distinguished pair of h."""
    from whopf.integrals import antipode_from_integrals, invariance_check, trace_via_integrals
    from whopf.semisimplicity import coinciding_bases_theorem_check, semisimplicity_report, trace_s2

    return {
        "radford_check": lambda h, pair, dp: radford_check(h, dp),
        "lambda_ell_relations": lambda h, pair, dp: lambda_ell_relations(h, dp),
        "distinguished_pair": lambda h, pair, dp: distinguished_pair(h, pair),
        "invariance_check": lambda h, pair, dp: invariance_check(h, pair),
        "antipode_from_integrals": lambda h, pair, dp: antipode_from_integrals(h, pair),
        "trace_via_integrals": lambda h, pair, dp: trace_via_integrals(h, pair, Matrix.identity(QQ, h.dim)),
        "trace_s2": lambda h, pair, dp: trace_s2(h, pair),
        "semisimplicity_report": lambda h, pair, dp: semisimplicity_report(h, pair),
        "coinciding_bases_theorem_check": lambda h, pair, dp: coinciding_bases_theorem_check(h, pair),
        "DualPair.check": lambda h, pair, dp: pair.check(h),
    }


@pytest.mark.parametrize("other", ["dual-pair-2", "z2-group"])
@pytest.mark.parametrize("name", list(_pair_calls()))
def test_a_pair_of_another_algebra_is_refused(name, other):
    """pair-2 handed the pair of another algebra raises InvalidOperand; the pair of dual-pair-2, also of
    dim 4, used to be read in pair-2's basis and give failed identities, a false Mismatch or ok: True."""
    from whopf.zoo import build_member

    h, o = build_member("pair-2"), build_member(other)
    pair = canonical_dual_pair(o)
    call = _pair_calls()[name]
    with pytest.raises(InvalidOperand, match="another algebra"):
        call(h, pair, distinguished_pair(o, pair))
    own = canonical_dual_pair(h)
    call(h, own, distinguished_pair(h, own))  # h's own pair passes the check


def _option_calls():
    """(name, call(h)) for each malformed operator shape or option on pair-2 (dim 4)."""
    from whopf.integrals import trace_via_integrals
    from whopf.semisimplicity import restricted_trace

    eye = lambda n: Matrix.identity(QQ, n)
    cases = {
        "restricted_trace-5x5": lambda h: restricted_trace(h, eye(5), h.target_base),
        "restricted_trace-3x3": lambda h: restricted_trace(h, eye(3), h.target_base),
        "restricted_trace-2x4": lambda h: restricted_trace(h, Matrix.zero(QQ, 2, 4), h.target_base),
        "restricted_trace-rows": lambda h: restricted_trace(h, [[1, 0], [0, 1]], h.target_base),
        "restricted_trace-space-5": lambda h: restricted_trace(h, eye(4), Subspace.full(QQ, 5)),
        "restricted_trace-space-3": lambda h: restricted_trace(h, eye(4), Subspace.full(QQ, 3)),
        "trace_via_integrals-2x2": lambda h: trace_via_integrals(h, canonical_dual_pair(h), eye(2)),
        "is_trivial_automorphism-2x2": lambda h: is_trivial_automorphism(h, eye(2)),
        "is_trivial_automorphism-5x5": lambda h: is_trivial_automorphism(h, eye(5)),
        "is_wha_morphism-2x2": lambda h: is_wha_morphism(h, eye(2)),
        "grouplike_automorphism-neither": lambda h: grouplike_automorphism(h),
        "grouplike_automorphism-both": lambda h: grouplike_automorphism(h, g=h.one, gamma=h.eps),
        "twisted_integral_spaces-neither": lambda h: twisted_integral_spaces(h),
        "twisted_integral_spaces-both": lambda h: twisted_integral_spaces(h, gamma=h.eps, g=h.one),
    }
    for bound in (0, -1, 2.5, "a", True):
        cases[f"antipode_order_report-{bound!r}"] = lambda h, bound=bound: antipode_order_report(h, bound=bound)
    return cases


@pytest.mark.parametrize("name", list(_option_calls()))
def test_operator_shapes_and_options_are_checked(name):
    """Each used to answer (a trace of the wrong size, ('yes', ...), False, order None without a try), or
    to raise IndexError or TypeError, or to use one of g and gamma silently; each raises InvalidOperand now."""
    with pytest.raises(InvalidOperand):
        _option_calls()[name](pair2())
