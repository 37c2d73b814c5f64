from fractions import Fraction

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
    sweedler_hopf,
)
from whopf import semisimplicity, zoo
from whopf.errors import NonSplit, PreconditionUnmet
from whopf.fields import QQ, CyclotomicField
from whopf.integrals import canonical_dual_pair
from whopf.linalg import Subspace
from whopf.semisimplicity import (
    coinciding_bases_theorem_check,
    connectedness,
    primitive_idempotents,
    semisimplicity_report,
    trace_s2,
)
from whopf.zoo import build_member, check_member


def kz2():
    return group_algebra(cyclic_table(2), name="k[Z2]")


def pair2():
    return groupoid_algebra(pair_groupoid(2), name="pair2")


def test_check_member_runs_the_trace_form_once(monkeypatch):
    """semisimplicity_report already cross-checks Maschke against the trace form."""
    calls = []
    oracle = semisimplicity.semisimple_by_trace_form
    spy = lambda h: calls.append(h) or oracle(h)
    monkeypatch.setattr(semisimplicity, "semisimple_by_trace_form", spy)
    monkeypatch.setattr(zoo, "semisimple_by_trace_form", spy, raising=False)
    out = check_member(build_member("pair-2"))
    assert out["ok"] and out["maschke_matches_trace_form"] and len(calls) == 1


def test_trace_s2_values():
    h = kz2()
    t = trace_s2(h, canonical_dual_pair(h))
    assert t["direct"] == t["formula"] == 2
    p = pair2()
    t = trace_s2(p, canonical_dual_pair(p))
    assert t["direct"] == t["formula"] == 4


def test_trace_s2_deformed_minimal():
    h = minimal_wha(SemisimplePresentation(blocks=(2,), g=[[3, -1]]))
    t = trace_s2(h, canonical_dual_pair(h))
    # oracle: S^2 = Ad(g^{-1} S(g)); on M_2 (x) M_2^op the conjugation trace
    # factors as Tr(u) Tr(u^{-1}) = (-4/3)^2
    assert t["direct"] == t["formula"] == Fraction(16, 9)


def test_trace_s2_sweedler_vanishes():
    h = sweedler_hopf()
    t = trace_s2(h, canonical_dual_pair(h))
    assert t["direct"] == t["formula"] == 0


def test_primitive_idempotents_pair_groupoid_diagonal():
    h = pair2()
    diag = Subspace.from_vectors(QQ, 4, [(1, 0, 0, 0), (0, 0, 0, 1)])
    idem = primitive_idempotents(h, diag)
    coeffs = sorted(e.coeffs for e in idem)
    assert coeffs == [(0, 0, 0, 1), (1, 0, 0, 0)]


def test_primitive_idempotents_unit_outside_the_subalgebra():
    """A typed error, also under python -O: m12 does not lie in H_t of M_2."""
    h = pair2()
    with pytest.raises(PreconditionUnmet):
        primitive_idempotents(h, h.target_base, unit=(0, 1, 0, 0))


def test_primitive_idempotents_center_z2():
    h = kz2()
    idem = primitive_idempotents(h, h.center)
    coeffs = sorted(e.coeffs for e in idem)
    assert coeffs == [
        (Fraction(1, 2), Fraction(-1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    ]


def test_primitive_idempotents_z3_nonsplit_over_q():
    h = group_algebra(cyclic_table(3))
    with pytest.raises(NonSplit):
        primitive_idempotents(h, h.center)


def test_primitive_idempotents_z3_split_over_cyclotomic():
    field = CyclotomicField(3)
    h = group_algebra(cyclic_table(3), field=field)
    idem = primitive_idempotents(h, h.center)
    assert len(idem) == 3
    third = field.div(field.one(), field.from_int(3))
    # character orthogonality: (1/3) sum_a chi(a^{-1}) a
    expected = set()
    for chi_exp in range(3):
        vec = tuple(third * field.zeta((-chi_exp * a) % 3) for a in range(3))
        expected.add(vec)
    assert {e.coeffs for e in idem} == expected


def test_connectedness():
    # pair groupoid: M_2 has trivial center, but the dual is the commutative
    # function algebra whose center meets its base in dim 2
    assert connectedness(pair2()) == {"connected": True, "biconnected": False}
    assert connectedness(kz2()) == {"connected": True, "biconnected": True}
    z2z2 = groupoid_algebra(
        disjoint_union(one_object_groupoid(cyclic_table(2)), one_object_groupoid(cyclic_table(2)))
    )
    got = connectedness(z2z2)
    assert got["connected"] is False and got["biconnected"] is False


def test_semisimplicity_report_members():
    for build, semis in (
        (kz2, True),
        (pair2, True),
        (lambda: minimal_wha(SemisimplePresentation(blocks=(2,))), True),
        (sweedler_hopf, False),
    ):
        h = build()
        rep = semisimplicity_report(h)
        assert rep.semisimple is semis, h.name
        assert rep.ok, (h.name, rep.implications)
        assert rep.tr_s2_direct == rep.tr_s2_formula


def test_report_blocks_pair_groupoid():
    rep = semisimplicity_report(pair2())
    assert rep.per_block_available
    assert len(rep.per_block) == 1  # M_2 has trivial center
    _label, t_ph, t_php = rep.per_block[0]
    assert t_ph == 4 and t_php == 4
    assert rep.lemma_blocks_available
    assert len(rep.lemma_blocks) == 2  # H_min = diagonal, two idempotents
    for _l, _t, t_php in rep.lemma_blocks:
        assert t_php != 0


def test_report_z3_over_q():
    h = group_algebra(cyclic_table(3))
    rep = semisimplicity_report(h)
    assert rep.semisimple
    # Z(H) cap H_s = Q1 splits trivially even though the full center of
    # Q[Z/3] does not (that refusal is covered above)
    assert rep.per_block_available and len(rep.per_block) == 1
    assert rep.ok


def test_coinciding_bases_theorem():
    for h in (
        pair2(),
        kz2(),
        groupoid_algebra(
            disjoint_union(one_object_groupoid(cyclic_table(2)), one_object_groupoid(cyclic_table(2)))
        ),
    ):
        got = coinciding_bases_theorem_check(h)
        assert got["ok"], (h.name, got)


def test_coinciding_bases_precondition():
    h = sweedler_hopf()  # not semisimple
    with pytest.raises(PreconditionUnmet):
        coinciding_bases_theorem_check(h)


def test_connected_iff_self_intertwiner_dim_one():
    from whopf.grouplikes import self_intertwiners
    from whopf.zoo import ZOO_NAMES, build_member

    for name in ZOO_NAMES:
        h = build_member(name)
        conn = connectedness(h)["connected"]
        assert conn == (self_intertwiners(h, h.eps).dim == 1), name
