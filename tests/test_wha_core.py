import dataclasses
from fractions import Fraction

import pytest

from whopf.constructors import (
    cyclic_table,
    disjoint_union,
    function_algebra,
    group_algebra,
    groupoid_algebra,
    matrix_wha,
    minimal_wha,
    one_object_groupoid,
    pair_groupoid,
    sweedler_hopf,
    symmetric_table,
    SemisimplePresentation,
)
from whopf.errors import InvalidOperand, InvalidPresentation, NoAntipode, NoAntipodeInverse, NotInvertible
from whopf.fields import QQ, CyclotomicField, RationalField
from whopf.linalg import Matrix
from whopf.wha import (
    WeakHopfAlgebra,
    counital_maps,
    counital_subalgebras,
    dualize,
    minimal_data,
    solve_antipode,
    validate_full,
    validate_weak_bialgebra,
)


def kz2():
    return group_algebra(cyclic_table(2), name="k[Z2]")


def pair2():
    return groupoid_algebra(pair_groupoid(2), name="pair2")


def test_validate_pair_groupoid_all_pass():
    report = validate_full(pair2())
    assert report.ok, report.failures()


def test_validate_group_algebra_all_pass():
    assert validate_full(kz2()).ok


def test_scaled_counit_fails_with_witness():
    h = kz2()
    from whopf.wha import WeakHopfAlgebra

    broken = WeakHopfAlgebra(
        h.field, h.labels, h.mult, h.unit, h.comult,
        [2 * c for c in h.counit], antipode=h.antipode,
    )
    report = validate_weak_bialgebra(broken)
    assert not report.ok
    names = [c.name for c in report.failures()]
    assert "counit" in names
    assert report.failures()[0].witness is not None


def test_solve_antipode_z2_identity():
    h = kz2()
    s = solve_antipode(h)
    assert s == Matrix.identity(QQ, 2)


def test_solve_antipode_pair_groupoid_transpose():
    h = pair2()
    s = solve_antipode(h)
    # S(m_ab) = m_ba: permutation swapping indices 1 <-> 2 (m12 <-> m21)
    assert s == h.S
    perm = [[0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]]
    perm[0][0] = perm[3][3] = 1
    assert s == Matrix(QQ, perm)


def test_solve_antipode_none_for_idempotent_monoid():
    # bialgebra of the monoid {1, p | p^2 = p}: a valid weak bialgebra whose
    # antipode equation p S(p) = 1 is unsolvable
    from whopf.errors import NoAntipode
    from whopf.wha import WeakHopfAlgebra

    one = Fraction(1)
    monoid = WeakHopfAlgebra(
        QQ,
        ("e", "p"),
        {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}, (1, 1): {1: one}},
        (one, Fraction(0)),
        [{(0, 0): one}, {(1, 1): one}],
        (one, one),
    )
    assert validate_weak_bialgebra(monoid).ok
    with pytest.raises(NoAntipode):
        solve_antipode(monoid)


def test_solve_antipode_z3_inversion():
    h = group_algebra(cyclic_table(3))
    s = solve_antipode(h)
    assert s == h.S  # S(g^k) = g^{-k}
    assert s.col(1) == (0, 0, 1)


def test_counital_maps_hopf_case():
    h = kz2()
    maps = counital_maps(h)
    # eps_t(h) = eps(h) 1 for a Hopf algebra: rank one
    assert maps["eps_t"].rank() == 1
    assert maps["eps_t"] @ maps["eps_t"] == maps["eps_t"]
    assert maps["eps_s"] @ maps["eps_s"] == maps["eps_s"]


def test_counital_maps_pair_groupoid():
    h = pair2()
    maps = counital_maps(h)
    # eps_t(m_ab) = m_aa
    cols = [maps["eps_t"].col(i) for i in range(4)]
    m11 = (1, 0, 0, 0)
    m22 = (0, 0, 0, 1)
    assert tuple(cols[0]) == m11
    assert tuple(cols[1]) == m11  # m12 -> m11
    assert tuple(cols[2]) == m22  # m21 -> m22
    assert tuple(cols[3]) == m22
    assert maps["eps_t"].rank() == 2


def test_counital_subalgebras_pair_groupoid():
    h = pair2()
    subs = counital_subalgebras(h)
    assert subs["Ht"].dim == 2
    assert subs["Ht"] == subs["Hs"] == subs["Hmin"]
    assert subs["Ht"].contains((1, 0, 0, 0))
    # bases commute elementwise
    for a in subs["Ht"].rows:
        for b in subs["Hs"].rows:
            assert h.mul_vec(a, b) == h.mul_vec(b, a)


def test_counital_subalgebras_hopf():
    subs = counital_subalgebras(kz2())
    for key in ("Ht", "Hs", "HtCapHs", "Hmin"):
        assert subs[key].dim == 1


def test_counital_subalgebras_minimal_m2():
    h = minimal_wha(SemisimplePresentation(blocks=(2,)))
    subs = counital_subalgebras(h)
    assert h.dim == 16
    assert subs["Ht"].dim == 4
    assert subs["HtCapHs"].dim == 1
    assert subs["Hmin"].dim == 16


def test_dualize_pair_groupoid_is_function_algebra():
    g = pair_groupoid(2)
    assert dualize(groupoid_algebra(g)).same_structure(function_algebra(g))


def test_dualize_involution():
    for h in (kz2(), pair2(), minimal_wha(SemisimplePresentation(blocks=(2,)))):
        assert dualize(dualize(h)).same_structure(h)


def test_dual_of_z2_is_functions():
    h = dualize(kz2())
    # commutative algebra of idempotents p_e, p_g with p_e + p_g = unit
    assert h.mul_vec((1, 0), (1, 0)) == (1, 0)
    assert h.mul_vec((1, 0), (0, 1)) == (0, 0)
    assert h.unit == (1, 1)
    assert validate_full(h).ok


def test_sweedler_arrows():
    h = kz2()
    e_plus_g = h.element((1, 1))
    delta_g = h.dual_basis_functional(1)
    assert h.lact(delta_g, e_plus_g.coeffs) == (0, 1)  # delta_g -> (e+g) = g
    # eps -> h = h
    for i in range(2):
        v = h.basis_element(i).coeffs
        assert h.lact(h.eps, v) == v
    # pairing compatibility <h -> phi, g> = <phi, g h>
    import random

    rng = random.Random(0)
    for _ in range(10):
        phi = h.functional([rng.randint(-3, 3) for _ in range(2)])
        a = h.element([rng.randint(-3, 3) for _ in range(2)])
        b = h.element([rng.randint(-3, 3) for _ in range(2)])
        lhs = h.functional(h.dual_lact(a.coeffs, phi))(b)
        assert lhs == phi(b * a)
    # module axiom (phi psi) -> h = phi -> (psi -> h)
    ph = pair2()
    rng = random.Random(1)
    for _ in range(10):
        phi = ph.functional([rng.randint(-2, 2) for _ in range(4)])
        psi = ph.functional([rng.randint(-2, 2) for _ in range(4)])
        a = ph.element([rng.randint(-2, 2) for _ in range(4)])
        lhs = ph.lact(phi * psi, a.coeffs)
        rhs = ph.lact(phi, ph.lact(psi, a.coeffs))
        assert lhs == rhs


def test_element_ops_pair_groupoid():
    h = pair2()
    one = h.one
    assert one.inv() == one
    swap = h.element((0, 1, 1, 0))
    assert swap.inv() == swap
    nil = h.element((0, 1, 0, 0))
    assert not nil.is_invertible()
    with pytest.raises(NotInvertible):
        nil.inv()


def test_antipode_anti_homomorphism():
    for h in (pair2(), minimal_wha(SemisimplePresentation(blocks=(2,))), sweedler_hopf()):
        n = h.dim
        for i in range(n):
            for j in range(n):
                ei, ej = h.basis_element(i), h.basis_element(j)
                lhs = h.apply_S(h.mul_vec(ei.coeffs, ej.coeffs))
                rhs = h.mul_vec(h.apply_S(ej.coeffs), h.apply_S(ei.coeffs))
                assert tuple(lhs) == tuple(rhs), (h.name, i, j)
        # anti-coalgebra: Delta(S h) = (S (x) S) Delta^op(h)
        for i in range(n):
            lhs = h.comul_vec(h.apply_S(h.basis_element(i).coeffs))
            rhs = {}
            for (j, k), c in h.comult[i].items():
                sk = h.S.col(k)
                sj = h.S.col(j)
                for a, ca in enumerate(sk):
                    if not ca:
                        continue
                    for b, cb in enumerate(sj):
                        if cb:
                            key = (a, b)
                            rhs[key] = rhs.get(key, h.field.zero()) + c * ca * cb
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs, (h.name, i)


def test_minimal_data_roundtrip():
    pres = SemisimplePresentation(blocks=(2,), g=[[3, -1]])
    h = minimal_wha(pres)
    md = minimal_data(h)
    # eps(b) = Tr_reg(g^{-1} b) on H_t
    from whopf.wha import regular_trace_on

    ginv = md.g.inv()
    for b in md.target.rows:
        prod = h.mul_vec(ginv.coeffs, b)
        assert h.counit_of(b) == regular_trace_on(h, md.target, prod)


def test_minimal_data_z2_trivial():
    h = kz2()
    md = minimal_data(h)
    assert md.g == h.one
    assert md.target.dim == 1


def test_validate_sweedler():
    assert validate_full(sweedler_hopf()).ok


def test_validate_disjoint_union_and_z3():
    g = disjoint_union(one_object_groupoid(cyclic_table(2)), one_object_groupoid(cyclic_table(2)))
    h = groupoid_algebra(g)
    assert h.dim == 4
    assert validate_full(h).ok
    assert len(h.delta_one) == 2  # rank-2 leg spaces
    z3 = group_algebra(cyclic_table(3), field=CyclotomicField(3))
    assert validate_full(z3).ok


def test_matrix_wha_equals_pair_groupoid():
    assert matrix_wha(2).same_structure(pair2())
    assert matrix_wha(1).dim == 1


def test_antipode_anti_homomorphism_on_zoo():
    from whopf.zoo import build_member

    for name in ("pair-3", "z3-group-cyclotomic", "dyn-twist-z2", "hmin-m2-g31"):
        h = build_member(name)
        n = h.dim
        for i in range(n):
            for j in range(n):
                lhs = h.apply_S(h.mul_vec(_basis_vec(h, i), _basis_vec(h, j)))
                rhs = h.mul_vec(h.apply_S(_basis_vec(h, j)), h.apply_S(_basis_vec(h, i)))
                assert tuple(lhs) == tuple(rhs), (name, i, j)


def _basis_vec(h, i):
    return [h.field.one() if t == i else h.field.zero() for t in range(h.dim)]


@pytest.mark.parametrize(
    "mult, unit, comult, counit, antipode",
    [
        ({(0, 0): {5: 1}}, [1], [{(0, 0): 1}], [1], [[1]]),  # product index out of range
        ({(0, 1): {0: 1}}, [1], [{(0, 0): 1}], [1], None),  # factor index out of range
        ({(0, 0): {0: 1}}, [1], [{(0, 2): 1}], [1], None),  # coproduct index out of range
        ({(0, 0): {0: 1}}, [1], [{0: 1}], [1], None),  # coproduct key not a pair
        ({(0, 0): {0: 1}}, [], [{(0, 0): 1}], [1], None),  # unit shorter than labels
        ({(0, 0): {0: 1}}, [1], [{(0, 0): 1}], [1, 0], None),  # counit longer than labels
        ({(0, 0): {0: 1}}, [1], [], [1], None),  # comult shorter than labels
        ({(0, 0): {0: 1}}, [1], [{(0, 0): 1}], [1], [[1, 0]]),  # antipode not square
    ],
)
def test_malformed_construction_is_invalid_presentation(mult, unit, comult, counit, antipode):
    with pytest.raises(InvalidPresentation):
        WeakHopfAlgebra(QQ, ["a"], mult, unit, comult, counit, antipode=antipode)


@pytest.mark.parametrize("field, mult", [(None, {(0, 0): {0: 1}}), (QQ, "x")], ids=["field-none", "mult-str"])
def test_a_field_or_mult_of_the_wrong_kind_is_invalid_presentation(field, mult):
    with pytest.raises(InvalidPresentation):
        WeakHopfAlgebra(field, ["a"], mult, [1], [{(0, 0): 1}], [1])


@pytest.mark.parametrize(
    "antipode",
    [5, [[1, 0], 5], [[1, 0], None], [[1, 0], {0, 1}]],
    ids=["int", "int-row", "none-row", "set-row"],
)
def test_antipode_not_a_sequence_of_rows_is_invalid_presentation(antipode):
    """Through __init__ and through assignment while S is None, also under python -O."""
    h = kz2()
    with pytest.raises(InvalidPresentation):
        WeakHopfAlgebra(h.field, h.labels, h.mult, h.unit, h.comult, h.counit, antipode=antipode)
    bare = without_antipode(h)
    with pytest.raises(InvalidPresentation):
        bare.antipode = antipode
    assert bare.antipode is None


@pytest.mark.parametrize("coeffs", [[1], [1, 0, 0]])
def test_wrong_length_vector_is_invalid_presentation(coeffs):
    from whopf.wha import Element, Functional
    from whopf.zoo import build_member

    h = build_member("z2-group")
    with pytest.raises(InvalidPresentation):
        Element(h, coeffs)
    with pytest.raises(InvalidPresentation):
        Functional(h, coeffs)


def without_antipode(h):
    return WeakHopfAlgebra(h.field, h.labels, h.mult, h.unit, h.comult, h.counit, name=h.name)


def test_missing_antipode_is_no_antipode():
    """S and dualize raise NoAntipode before S is set, also under python -O."""
    h = without_antipode(kz2())
    with pytest.raises(NoAntipode):
        h.S
    with pytest.raises(NoAntipode):
        dualize(h)


def test_singular_antipode_has_no_inverse(monkeypatch):
    """Only Singular becomes NoAntipodeInverse; any other error is a defect and propagates."""
    from whopf import wha

    with pytest.raises(NoAntipodeInverse):
        pair2().with_antipode(Matrix.zero(QQ, 4)).S_inv

    def broken(m):
        raise RuntimeError("defect")

    monkeypatch.setattr(wha, "invert", broken)
    with pytest.raises(RuntimeError):
        pair2().S_inv


def test_with_antipode_returns_a_new_algebra():
    h = without_antipode(pair2())
    solved = h.with_antipode(solve_antipode(h))
    assert h.antipode is None
    assert solved is not h and solved.name == h.name
    assert solved.same_structure(pair2())
    assert validate_full(solved).ok


def test_shared_axiom_checks_are_frozen():
    check = validate_full(pair2()).checks[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        check.ok = False
    with pytest.raises(dataclasses.FrozenInstanceError):
        check.witness = (0,)


def test_each_report_owns_its_list_of_checks():
    h = pair2()
    first = validate_full(h)
    first.checks.append(first.checks[0])
    first.checks.pop(0)
    second = validate_full(h)
    assert second.checks is not first.checks
    assert [c.name for c in second.checks] == [
        "associativity",
        "unit",
        "coassociativity",
        "counit",
        "comult_multiplicative",
        "weak_unit",
        "weak_counit",
        "antipode_target",
        "antipode_source",
        "antipode_composite",
    ]
    assert second.ok and validate_full(h).as_dict() == second.as_dict()


def test_with_antipode_hands_over_only_the_verdicts_that_still_hold():
    """The bialgebra verdict always carries over; the antipode verdict only for the same S object."""
    h = without_antipode(pair2())
    validate_full(h)
    s = solve_antipode(h)
    solved = h.with_antipode(s)
    assert solved.bialgebra_checks is h.bialgebra_checks
    assert solved.antipode_checks(s) is h.antipode_checks(s)
    other = h.with_antipode(Matrix(QQ, s.rows))
    assert other.bialgebra_checks is h.bialgebra_checks
    assert other._antipode_memo is None
    assert validate_full(other).as_dict() == validate_full(solved).as_dict()
    fresh = without_antipode(pair2())
    assert "bialgebra_checks" not in vars(fresh.with_antipode(s))


def test_zoo_names_leave_shared_algebras_alone():
    from whopf.zoo import _dyn_twist_z2, build_member

    host = _dyn_twist_z2()[0].host
    name = host.name
    assert build_member("dyn-host-z2").name == "dyn-host-z2"
    assert build_member("dyn-host-z2").same_structure(host)
    assert host.name == name != "dyn-host-z2"


FIXED_INPUTS = ["field", "labels", "dim", "mult", "comult", "unit", "counit"]


@pytest.mark.parametrize("attr", FIXED_INPUTS + ["mult_rows", "mult_cols"])
def test_inputs_and_table_index_cannot_be_reassigned(attr):
    """The table index, delta_one, the verdicts and the counital maps derive from these."""
    h = pair2()
    validate_full(h)
    before = getattr(h, attr)
    with pytest.raises(AttributeError, match=attr):
        setattr(h, attr, before)
    assert getattr(h, attr) is before


def test_name_and_antipode_stay_assignable_and_a_new_antipode_is_rechecked():
    """``name`` stays assignable; a set antipode does not, and another S goes through ``with_antipode``."""
    h = pair2()
    assert validate_full(h).ok
    h.name = "renamed"
    for s in (Matrix.identity(QQ, h.dim), pair2().S):
        with pytest.raises(AttributeError, match="antipode"):
            h.antipode = s
    other = h.with_antipode(Matrix.identity(QQ, h.dim))
    failing = {c.name for c in validate_full(other).failures()}
    assert other.name == h.name == "renamed" and failing and failing <= {
        "antipode_target",
        "antipode_source",
        "antipode_composite",
    }
    assert validate_full(h.with_antipode(pair2().S)).ok
    assert validate_full(h).ok


def test_an_antipode_assigned_after_construction_is_checked_and_converted():
    """An unset antipode may be assigned once, through the n x n check and conversion of ``__init__``."""
    h = without_antipode(pair2())
    for bad in ([[1]], [[1, 0, 0, 0]] * 3, [[1, 0, 0]] * 4, Matrix.identity(QQ, 3)):
        with pytest.raises(InvalidPresentation, match="4x4"):
            h.antipode = bad
        assert h.antipode is None
    h.antipode = [list(row) for row in pair2().S.rows]
    assert isinstance(h.antipode, Matrix) and h.antipode == pair2().S
    assert validate_full(h).ok
    with pytest.raises(AttributeError, match="antipode"):
        h.antipode = pair2().S


def test_table_index_shares_the_cells_of_mult_in_its_order():
    h = groupoid_algebra(pair_groupoid(3))
    for (i, j), cell in h.mult.items():
        assert h.mult_rows[i][j] is cell and h.mult_cols[j][i] is cell
    assert sum(map(len, h.mult_rows)) == sum(map(len, h.mult_cols)) == len(h.mult)
    for i, row in enumerate(h.mult_rows):
        assert list(row) == [j for (a, j) in h.mult if a == i]
    for j, col in enumerate(h.mult_cols):
        assert list(col) == [i for (i, b) in h.mult if b == j]


@pytest.mark.parametrize("name", ["pair-3", "z3-group-cyclotomic", "sweedler4", "hmin-m2-g31", "dyn-twist-z2"])
def test_basis_products_are_lines_of_the_index(name):
    """sum c e_i x and sum c x e_i from ``_basis_products`` equal the dense products by e_i, read sparse."""
    from whopf.wha import _basis_products
    from whopf.zoo import build_member

    h = build_member(name)
    field = h.field
    two = field.from_int(2)

    def sparse(v):
        """The nonzeros of the dense vector v, read independently of the library."""
        return {i: c for i, c in enumerate(v) if c}

    xs = [h.unit, h.mul_vec(h.unit, h.unit)] + [_basis_vec(h, i) for i in range(h.dim)]
    xs.append(tuple(field.from_int(i % 3 - 1) for i in range(h.dim)))
    for x in xs:
        for i in range(h.dim):
            e = _basis_vec(h, i)
            assert _basis_products(h, [(two, i, sparse(x))], left=True) == sparse(two * c for c in h.mul_vec(e, x))
            assert _basis_products(h, [(two, i, sparse(x))], left=False) == sparse(two * c for c in h.mul_vec(x, e))
    terms = [(field.from_int(k + 1), k, sparse(xs[-1])) for k in range(h.dim)]
    left = [field.zero()] * h.dim
    for c, i, _x in terms:
        left = [a + c * b for a, b in zip(left, h.mul_vec(_basis_vec(h, i), xs[-1]))]
    assert _basis_products(h, terms, left=True) == sparse(left)


def test_the_base_spans_read_the_counital_maps_without_coercing(monkeypatch):
    """H_t and H_s are spanned from the sparse columns of eps_t and eps_s, not from n^2 dense entries."""
    h = group_algebra(symmetric_table(4))
    h.eps_t_mat, h.eps_s_mat
    calls = []
    coerce = RationalField.coerce
    monkeypatch.setattr(RationalField, "coerce", lambda field, x: calls.append(x) or coerce(field, x))
    assert h.target_base.dim == h.source_base.dim == 1
    assert calls == []


@pytest.mark.parametrize(
    "pair",
    [
        lambda h: h.mul_pair_dicts({(-1, -1): 1}, h.delta_one),  # read e_-1 as e_3: {(3, 3): 1}
        lambda h: h.mul_pair_dicts({(9, 0): 1}, h.delta_one),  # a bare IndexError
        lambda h: h.mul_pair_dicts(h.delta_one, {(-1, 0): 1}),  # the right factor's term was dropped
        lambda h: h.mul_pair_dicts(h.delta_one, {(0, 9): 1}),
        lambda h: h.mul_pair_dicts({(0,): 1}, h.delta_one),
        lambda h: h.mul_pair_dicts(h.delta_one, {0: 1}),
        lambda h: h.mul_triple_dicts({(-1, -1, -1): 1}, {(3, 3, 3): 1}),  # read e_-1 as e_3: {(3, 3, 3): 1}
        lambda h: h.mul_triple_dicts({(3, 3, 3): 1}, {(0, 0, 4): 1}),
        lambda h: h.mul_triple_dicts({(0, 0): 1}, {(3, 3, 3): 1}),
    ],
    ids=[
        "pair-left-negative", "pair-left-past-dim", "pair-right-negative", "pair-right-past-dim", "pair-short-key",
        "pair-int-key", "triple-left-negative", "triple-right-past-dim", "triple-short-key",
    ],
)
def test_tensor_legs_outside_the_basis_are_refused(pair):
    with pytest.raises(InvalidOperand):
        pair(pair2())
