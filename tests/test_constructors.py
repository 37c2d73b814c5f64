from fractions import Fraction

import pytest

from whopf.constructors import (
    Groupoid,
    SemisimplePresentation,
    cyclic_table,
    disjoint_union,
    function_algebra,
    group_algebra,
    groupoid_algebra,
    matrix_wha,
    minimal_wha,
    one_object_groupoid,
    pair_groupoid,
    separability_element,
    spectrum_invariant,
    symmetric_table,
    tensor_product,
)
from whopf.errors import FieldMismatch, InvalidPresentation, TraceConditionViolated
from whopf.fields import QQ, CyclotomicField
from whopf.integrals import semisimple_by_trace_form
from whopf.wha import Element, dualize, validate_full


def is_cocommutative(h):
    for i in range(h.dim):
        flipped = {(k, j): c for (j, k), c in h.comult[i].items()}
        if flipped != h.comult[i]:
            return False
    return True


def is_commutative(h):
    for i in range(h.dim):
        for j in range(h.dim):
            if h.mult.get((i, j), {}) != h.mult.get((j, i), {}):
                return False
    return True


def test_trivial_group_is_scalar_hopf():
    h = group_algebra(cyclic_table(1))
    assert h.dim == 1
    assert validate_full(h).ok


def test_pair_groupoid_semisimple_matrix_algebra():
    h = groupoid_algebra(pair_groupoid(2))
    assert h.dim == 4
    assert h.target_base.dim == 2 and h.target_base == h.source_base
    assert semisimple_by_trace_form(h)  # M_2 is separable
    assert is_cocommutative(h)


def test_function_algebra_counit_on_identities():
    g = pair_groupoid(2)
    h = function_algebra(g)
    # eps(p_g) = 1 exactly for the identity morphisms m11, m22
    assert h.counit == (1, 0, 0, 1)
    assert is_commutative(h)


def test_function_algebra_equals_dual_everywhere():
    groupoids = [
        pair_groupoid(1),
        pair_groupoid(2),
        pair_groupoid(3),
        one_object_groupoid(cyclic_table(2)),
        one_object_groupoid(cyclic_table(3)),
        one_object_groupoid(cyclic_table(6)),
        one_object_groupoid(symmetric_table(3)),
        disjoint_union(one_object_groupoid(cyclic_table(2)), pair_groupoid(2)),
    ]
    for g in groupoids:
        assert function_algebra(g).same_structure(dualize(groupoid_algebra(g)))


def test_group_algebra_s3():
    h = group_algebra(symmetric_table(3))
    assert h.dim == 6
    assert not is_commutative(h)
    assert validate_full(h).ok


def test_minimal_wha_commutative_base():
    h = minimal_wha(SemisimplePresentation(blocks=(1, 1)))
    assert h.dim == 4
    assert validate_full(h).ok
    # commutative B forces g = 1 under the trace condition
    with pytest.raises(TraceConditionViolated):
        minimal_wha(SemisimplePresentation(blocks=(1, 1), g=[[2], [0]]))


def test_minimal_wha_m2_s2_identity():
    h = minimal_wha(SemisimplePresentation(blocks=(2,)))
    assert h.dim == 16
    s2 = h.S @ h.S
    from whopf.linalg import Matrix

    assert s2 == Matrix.identity(QQ, 16)


def test_minimal_wha_deformed_s2_is_adjoint():
    pres = SemisimplePresentation(blocks=(2,), g=[[3, -1]])
    h = minimal_wha(pres)
    from whopf.wha import minimal_data

    md = minimal_data(h)
    g = md.g
    w = g.inv() * Element(h, h.apply_S(g.coeffs))  # g^{-1} S(g)
    s2 = h.S @ h.S
    conj = h.left_mult_matrix(w.coeffs) @ h.right_mult_matrix(w.inv().coeffs)
    assert s2 == conj
    assert s2 != (h.left_mult_matrix(h.unit))  # S^2 != id here


def test_minimal_wha_antipode_formula():
    # S(b cbar) = g^{-1} c g bbar, checked through the solved antipode
    pres = SemisimplePresentation(blocks=(2,), g=[[3, -1]])
    h = minimal_wha(pres)
    from whopf.wha import solve_antipode

    assert solve_antipode(h) == h.S


@pytest.mark.parametrize("field", [QQ, CyclotomicField(3)], ids=["QQ", "Qz3"])
@pytest.mark.parametrize(
    "blocks, parts",
    [
        ((1, 1), ((0,), (1,))),
        ((1, 2), ((0,), (1,))),
        ((1, 1, 1), ((0, 2), (1,))),
        ((1, 2, 1), ((0, 1), (2,))),
    ],
)
def test_minimal_wha_on_a_multi_part_core_partition(blocks, parts, field):
    """B (x)_A B^op keeps the pairs of matrix units whose blocks share a part."""
    from whopf.wha import minimal_data

    h = minimal_wha(SemisimplePresentation(blocks=blocks, core_partition=parts), field=field)
    assert validate_full(h).ok
    assert h.dim == sum(sum(blocks[i] ** 2 for i in part) ** 2 for part in parts)
    assert h.target_base.dim == sum(n * n for n in blocks)
    assert minimal_data(h).core.dim == len(parts)


def test_matrix_wha_needs_a_positive_size():
    """A typed error, also under python -O (a stripped check built a dim-0 algebra)."""
    with pytest.raises(InvalidPresentation):
        matrix_wha(0)


def test_trace_condition_checked():
    with pytest.raises(TraceConditionViolated):
        minimal_wha(SemisimplePresentation(blocks=(2,), g=[[1, 0]]))


@pytest.mark.parametrize("blocks, g", [((2,), [[1, 1], [1, 1]]), ((1, 2), [[1]])])
def test_g_needs_one_block_per_block_size(blocks, g):
    """zip used to drop the extra g block, or build a dim-25 algebra failing its axioms."""
    with pytest.raises(InvalidPresentation):
        SemisimplePresentation(blocks=blocks, g=g)



@pytest.mark.parametrize("blocks", [(1.5,), (2.0,), (True,), ("2",), (1, Fraction(2))])
def test_non_integer_block_size_is_invalid_presentation(blocks):
    """int() used to turn a block size of 1.5 into 1, a different algebra."""
    with pytest.raises(InvalidPresentation, match="integers"):
        SemisimplePresentation(blocks=blocks)


@pytest.mark.parametrize("parts", [((0, 1), ()), ((), (0,), (1,))])
def test_empty_core_part_is_invalid_presentation(parts):
    """An empty part gave A a zero spanning vector: dim A was 1, not the number of parts."""
    with pytest.raises(InvalidPresentation, match="empty part"):
        SemisimplePresentation(blocks=(1, 1), core_partition=parts)

def test_singular_g_block_is_invalid_presentation():
    with pytest.raises(InvalidPresentation):
        minimal_wha(SemisimplePresentation(blocks=(2,), g=[[[1, 1], [1, 1]]]))


def test_g_block_inversion_lets_defects_through(monkeypatch):
    """Only Singular means a non-invertible g block; any other error is a defect and propagates."""
    from whopf import constructors

    def broken(m):
        raise RuntimeError("defect")

    monkeypatch.setattr(constructors, "invert", broken)
    with pytest.raises(RuntimeError):
        minimal_wha(SemisimplePresentation(blocks=(2,)))


def test_separability_element_scalar_block():
    pres = SemisimplePresentation(blocks=(1,))
    assert separability_element(pres) == [(0, 0, 1)]


def _check_separability(algebra, pairs):
    # (a (x) 1) e = e (1 (x) a), e (a (x) 1) = (1 (x) a) e, m(e) = 1
    e = {(i, j): c for (i, j, c) in pairs}
    n = algebra.dim
    m_of_e = [algebra.field.zero()] * n
    for (i, j), c in e.items():
        prod = algebra.mul_vec(
            [algebra.field.one() if t == i else algebra.field.zero() for t in range(n)],
            [algebra.field.one() if t == j else algebra.field.zero() for t in range(n)],
        )
        m_of_e = [x + c * y for x, y in zip(m_of_e, prod)]
    assert tuple(m_of_e) == algebra.unit
    # two-sided identities via pair products in the algebra tensor square
    for a in range(n):
        one_nz = [(i, c) for i, c in enumerate(algebra.unit) if c]
        a_left = {}
        a_right = {}
        for i, c in one_nz:
            a_left[(a, i)] = c  # a (x) 1
            a_right[(i, a)] = c  # 1 (x) a
        assert algebra.mul_pair_dicts(a_left, e) == algebra.mul_pair_dicts(e, a_right)
        assert algebra.mul_pair_dicts(e, a_left) == algebra.mul_pair_dicts(a_right, e)


def test_separability_element_m2():
    pres = SemisimplePresentation(blocks=(2,))
    pairs = separability_element(pres)
    algebra = matrix_wha(2)  # same multiplication as the block algebra
    _check_separability(algebra, pairs)


def test_separability_element_mixed_blocks():
    pres = SemisimplePresentation(blocks=(1, 2))
    pairs = separability_element(pres)
    algebra = groupoid_algebra(disjoint_union(pair_groupoid(1), pair_groupoid(2)))
    _check_separability(algebra, pairs)


def test_spectrum_invariant_distinguishes_deformations():
    h1 = minimal_wha(SemisimplePresentation(blocks=(2,)))
    h2 = minimal_wha(SemisimplePresentation(blocks=(2,), g=[[3, -1]]))
    assert spectrum_invariant(h1) != spectrum_invariant(h2)
    assert spectrum_invariant(h1) == spectrum_invariant(minimal_wha(SemisimplePresentation(blocks=(2,))))


def test_tensor_product_field_mismatch():
    with pytest.raises(FieldMismatch):
        tensor_product(group_algebra(cyclic_table(2)), group_algebra(cyclic_table(2), field=CyclotomicField(3)))


def test_matrix_wha_target_base_dim():
    for n in (1, 2, 3):
        assert matrix_wha(n).target_base.dim == n


def test_invalid_groupoid_rejected():
    g = pair_groupoid(2)
    broken = type(g)(
        g.objects, g.morphisms, g.source, g.target,
        {k: v for k, v in g.compose.items() if k != (0, 0)}, g.inverse, g.identity,
    )
    with pytest.raises(InvalidPresentation):
        broken.check()


@pytest.mark.parametrize(
    "build", [lambda: cyclic_table(0), lambda: cyclic_table(-1), lambda: pair_groupoid(0), lambda: pair_groupoid(-2)],
    ids=["cyclic-0", "cyclic-minus-1", "pair-0", "pair-minus-2"],
)
def test_a_size_below_one_is_an_invalid_presentation(build):
    with pytest.raises(InvalidPresentation, match="n >= 1"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: group_algebra(symmetric_table(3)),
        lambda: groupoid_algebra(disjoint_union(pair_groupoid(2), one_object_groupoid(cyclic_table(2)))),
        lambda: function_algebra(pair_groupoid(3)),
        lambda: matrix_wha(3),
    ],
    ids=["group_algebra", "groupoid_algebra", "function_algebra", "matrix_wha"],
)
def test_each_algebra_build_checks_its_groupoid_once(monkeypatch, build):
    calls = []
    check = Groupoid.check
    monkeypatch.setattr(Groupoid, "check", lambda g: calls.append(g) or check(g))
    build()
    assert len(calls) == 1


def test_a_non_associative_loop_is_rejected_by_group_algebra():
    # a Latin square with identity 0 and every element its own inverse, but (1 1) 2 = 2 != 1 (1 2) = 4
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    with pytest.raises(InvalidPresentation, match="non-associative"):
        group_algebra(loop)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: cyclic_table(2.5), "Z_n needs n >= 1, got 2.5"),
        (lambda: cyclic_table(True), "Z_n needs n >= 1, got True"),
        (lambda: symmetric_table(2.5), "S_n needs n >= 1, got 2.5"),
        (lambda: symmetric_table(-1), "S_n needs n >= 1, got -1"),
        (lambda: pair_groupoid(2.5), "a pair groupoid needs n >= 1 objects, got 2.5"),
        (lambda: matrix_wha(2.5), "M_n needs n >= 1, got 2.5"),
        (lambda: matrix_wha("2"), "M_n needs n >= 1, got '2'"),
    ],
    ids=["cyclic-float", "cyclic-bool", "sym-float", "sym-minus-1", "pair-float", "matrix-float", "matrix-str"],
)
def test_a_size_that_is_not_a_positive_int_is_an_invalid_presentation(build, message):
    with pytest.raises(InvalidPresentation) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: group_algebra(cyclic_table(2), labels=["a"]), "1 morphism labels for 2 morphisms"),
        (lambda: group_algebra(cyclic_table(2), labels=["a", "b", "c"]), "3 morphism labels for 2 morphisms"),
        (lambda: matrix_wha(2, labels=["a"]), "1 morphism labels for 4 morphisms"),
        (lambda: matrix_wha(1, labels=["a", "b", "c"]), "3 morphism labels for 1 morphisms"),
    ],
    ids=["group-short", "group-long", "matrix-short", "matrix-long"],
)
def test_a_wrong_number_of_labels_is_an_invalid_presentation(build, message):
    with pytest.raises(InvalidPresentation) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "table",
    [[[0, 1], [1]], [[0, 1], [1, 2]], [[0, 1], [1, -1]], [[0, 1], [1, 0.5]], [[0, 1], 1], [[0], [0]]],
    ids=["short-row", "index-too-big", "negative-index", "float-index", "row-not-a-list", "too-few-columns"],
)
def test_a_malformed_group_table_is_an_invalid_presentation(table):
    with pytest.raises(InvalidPresentation, match="a group table needs 2 rows of 2 indices"):
        group_algebra(table)
