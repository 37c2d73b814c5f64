import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest

from whopf.constructors import (
    SemisimplePresentation,
    cyclic_table,
    group_algebra,
    groupoid_algebra,
    minimal_wha,
    pair_groupoid,
    sweedler_hopf,
)
from whopf import integrals
from whopf.errors import Degenerate, InvalidOperand, Mismatch, NotFrobenius, Undecidable
from whopf.fields import QQ
from whopf.integrals import (
    antipode_from_integrals,
    canonical_dual_pair,
    dual_integral,
    find_nondegenerate_integral,
    has_nondegenerate_two_sided_integral,
    integral_space,
    invariance_check,
    is_nondegenerate,
    is_semisimple,
    semisimple_by_trace_form,
    trace_via_integrals,
)
from whopf.linalg import Matrix, Subspace


def kz2():
    return group_algebra(cyclic_table(2), name="k[Z2]")


def pair2():
    return groupoid_algebra(pair_groupoid(2), name="pair2")


def test_integral_space_z2():
    h = kz2()
    space = integral_space(h, "left")
    assert space.dim == 1
    assert space.contains((1, 1))


@pytest.mark.parametrize("name", ["pair-2", "hmin-m2-g31", "sweedler4"])
def test_check_member_solves_each_integral_side_once_per_algebra(monkeypatch, name):
    """The spaces are cached on the algebra; H, H*, and the regularized algebra each solve once."""
    from whopf import wha, zoo

    solved = []
    rows = wha._integral_rows
    spy = lambda h, side, counital: solved.append((h, side)) or rows(h, side, counital)
    monkeypatch.setattr(wha, "_integral_rows", spy)
    h = zoo._builders()[name]()  # fresh, so no space is cached yet
    assert zoo.check_member(h)["ok"]
    keys = [(id(algebra), side) for algebra, side in solved]
    assert solved and len(set(keys)) == len(keys)


def test_integral_space_rejects_an_unknown_side():
    with pytest.raises(InvalidOperand, match="side"):
        integral_space(kz2(), "up")


def test_integral_space_pair_groupoid():
    h = pair2()
    space = integral_space(h, "left")
    assert space.dim == 2 == h.target_base.dim
    assert space.contains((1, 0, 1, 0))  # m11 + m21
    assert space.contains((0, 1, 0, 1))  # m12 + m22
    dual_space = integral_space(h.dual, "left")
    assert dual_space.dim == 2
    right = integral_space(h, "right")
    assert right.dim == 2
    assert right.contains((1, 1, 0, 0))  # m11 + m12


def test_is_nondegenerate_examples():
    h = kz2()
    assert is_nondegenerate(h, (1, 1))
    assert not is_nondegenerate(h, (0, 0))
    p = pair2()
    assert not is_nondegenerate(p, (1, 0, 1, 0))
    assert is_nondegenerate(p, (1, 1, 1, 1))


def test_find_nondegenerate_integral_witnesses():
    h = kz2()
    assert find_nondegenerate_integral(h).coeffs == (1, 1)
    p = pair2()
    assert find_nondegenerate_integral(p).coeffs == (1, 1, 1, 1)
    m = minimal_wha(SemisimplePresentation(blocks=(2,)))
    ell = find_nondegenerate_integral(m)
    assert is_nondegenerate(m, ell.coeffs)


def test_not_frobenius_raises_on_dimension_gap():
    # doctor the pair groupoid by restricting to a non-Frobenius sub-bialgebra
    # is awkward; instead check the truthful criterion on a fake space
    h = pair2()
    small = Subspace.from_vectors(QQ, 4, [(1, 0, 1, 0)])
    with pytest.raises(NotFrobenius):
        find_nondegenerate_integral(h, space=small)


def test_dual_integral_z2():
    h = kz2()
    pair = dual_integral(h, h.element((1, 1)))
    assert pair.lam.coeffs == (1, 0)  # delta_e
    # ell -> lambda = eps is checked inside; also spot-check by hand
    assert pair.lam(h.element((1, 1))) == 1


def test_dual_integral_pair_groupoid():
    h = pair2()
    pair = dual_integral(h, h.element((1, 1, 1, 1)))
    assert pair.lam.coeffs == (1, 0, 0, 1)  # delta-pattern from the 4x4 solve


@pytest.mark.parametrize("ell", [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)])
def test_a_degenerate_ell_raises_degenerate(ell):
    """The caller's ell admits no unique lambda with lambda -> ell = 1: that is the caller's fault, so
    Degenerate, not the Inconsistent kept for the checks after the solve."""
    with pytest.raises(Degenerate):
        dual_integral(pair2(), ell)


@contextmanager
def within(seconds):
    """Fail the block with TimeoutError once ``seconds`` of wall time have passed."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("skip", [-1, 1.5, "a", True, None])
def test_a_bad_skip_is_refused_at_once(skip):
    """skip is an int (not a bool) of at least 0.  Before the check, skip=-1 and skip=1.5 never reached 0
    and searched without end, skip="a" raised a bare TypeError, and skip=True returned the second hit."""
    h = pair2()
    with within(5), pytest.raises(InvalidOperand, match="skip"):
        find_nondegenerate_integral(h, skip=skip)
    with within(5), pytest.raises(InvalidOperand, match="skip"):
        canonical_dual_pair(h, skip=skip)


def test_maschke_and_trace_form_agree():
    for h, expected in (
        (kz2(), True),
        (pair2(), True),
        (minimal_wha(SemisimplePresentation(blocks=(2,))), True),
        (sweedler_hopf(), False),
    ):
        assert is_semisimple(h) is expected, h.name
        assert semisimple_by_trace_form(h) is expected, h.name


def test_invariance_zero_residual():
    for h in (kz2(), pair2()):
        pair = canonical_dual_pair(h)
        assert invariance_check(h, pair) == []


def test_invariance_perturbed_fails():
    h = kz2()
    pair = canonical_dual_pair(h)
    bad = h.functional((pair.lam.coeffs[0], pair.lam.coeffs[1] + 1))

    class FakePair:
        lam = bad
        ell = pair.ell

    failures = invariance_check(h, FakePair())
    assert failures, "perturbed functional must violate invariance somewhere"


def test_antipode_from_integrals():
    h = kz2()
    pair = canonical_dual_pair(h)
    assert antipode_from_integrals(h, pair) == Matrix.identity(QQ, 2)
    p = pair2()
    pairp = canonical_dual_pair(p)
    got = antipode_from_integrals(p, pairp)
    assert got == p.S.transpose() == p.dual.S


def test_antipode_from_integrals_mismatch_on_corrupt_pair():
    h = pair2()
    pair = canonical_dual_pair(h)

    class FakePair:
        ell = h.element((1, 1, 1, 1))
        lam = h.functional((1, 1, 0, 1))  # not the dual integral

    with pytest.raises(Mismatch):
        antipode_from_integrals(h, FakePair())


def test_dual_bases_tensor_is_identity():
    # (ell_(2) -> lambda) (x) S^{-1}(ell_(1)) = sum_i delta_i (x) e_i
    h = pair2()
    pair = canonical_dual_pair(h)
    n = h.dim
    acc = [[QQ.zero()] * n for _ in range(n)]  # [functional comp][element comp]
    for (a, b), c in h.comul_vec(pair.ell.coeffs).items():
        eb = [QQ.one() if t == b else QQ.zero() for t in range(n)]
        phi = h.dual_lact(eb, pair.lam)  # ell_(2) -> lambda
        s_inv_a = h.apply_S_inv([QQ.one() if t == a else QQ.zero() for t in range(n)])
        for i, pf in enumerate(phi):
            if pf:
                for j, ev in enumerate(s_inv_a):
                    if ev:
                        acc[i][j] += c * pf * ev
    for i in range(n):
        for j in range(n):
            assert acc[i][j] == (1 if i == j else 0)


def test_trace_via_integrals():
    for h in (kz2(), pair2()):
        pair = canonical_dual_pair(h)
        eye = Matrix.identity(QQ, h.dim)
        assert trace_via_integrals(h, pair, eye) == h.dim
        s2 = h.S @ h.S
        assert trace_via_integrals(h, pair, s2) == s2.trace()
        rng = random.Random(13)
        for _ in range(20):
            t = Matrix(QQ, [[Fraction(rng.randint(-4, 4)) for _ in range(h.dim)] for _ in range(h.dim)])
            assert trace_via_integrals(h, pair, t) == t.trace()


def test_s_maps_left_to_right_integrals():
    for h in (kz2(), pair2(), minimal_wha(SemisimplePresentation(blocks=(2,)))):
        left = integral_space(h, "left")
        right = integral_space(h, "right")
        image = Subspace.from_vectors(h.field, h.dim, [h.apply_S(r) for r in left.rows])
        assert image == right


def test_two_sided_integral_detection():
    assert has_nondegenerate_two_sided_integral(pair2())
    assert has_nondegenerate_two_sided_integral(kz2())


def test_exhausted_two_sided_search_is_undecidable(monkeypatch):
    monkeypatch.setattr(integrals, "height_vectors", lambda dim, max_height: iter(()))
    with pytest.raises(Undecidable):
        has_nondegenerate_two_sided_integral(pair2())
    # a zero two-sided space is decided without a search
    assert not has_nondegenerate_two_sided_integral(sweedler_hopf())


def test_two_sided_search_honours_the_height_cap(monkeypatch):
    caps = []

    def recording(dim, max_height):
        caps.append(max_height)
        return iter(())

    monkeypatch.setattr(integrals, "height_vectors", recording)
    monkeypatch.setenv("WHOPF_MAX_HEIGHT", "3")
    with pytest.raises(Undecidable, match="height 3"):
        has_nondegenerate_two_sided_integral(kz2())
    assert caps == [3]


def test_sweedler_is_frobenius_but_not_semisimple():
    h = sweedler_hopf()
    space = integral_space(h, "left")
    assert space.dim == 1 == h.target_base.dim
    ell = find_nondegenerate_integral(h)
    pair = dual_integral(h, ell)
    assert invariance_check(h, pair) == []
    assert not is_semisimple(h)


def test_trace_via_integrals_twenty_randoms_per_zoo_member():
    from whopf.zoo import ZOO_NAMES, build_member

    for name in ZOO_NAMES:
        h = build_member(name)
        pair = canonical_dual_pair(h)
        rng = random.Random(20)
        field = h.field
        for _ in range(20):
            t = Matrix(
                field,
                [
                    [field.from_int(rng.randint(-3, 3)) for _ in range(h.dim)]
                    for _ in range(h.dim)
                ],
            )
            assert trace_via_integrals(h, pair, t) == t.trace(), name
