from fractions import Fraction

import pytest

from whopf.constructors import (
    SemisimplePresentation,
    cyclic_table,
    group_algebra,
    groupoid_algebra,
    matrix_wha,
    minimal_wha,
    pair_groupoid,
    tensor_product,
)
from whopf.errors import (
    DynamicalEquationViolated,
    InvalidPresentation,
    NotATwist,
    PreconditionUnmet,
)
from whopf.fields import QQ, CyclotomicField
from whopf.grouplikes import distinguished_pair, is_regular, radford_check
from whopf.integrals import canonical_dual_pair
from whopf.linalg import Subspace
from whopf.semisimplicity import connectedness
from whopf.twisting import (
    AbelianGrouplikes,
    DynamicalTwistData,
    Twist,
    deform_q,
    dynamical_cosemisimplicity_check,
    dynamical_theta,
    regularize,
    twist,
)
from whopf import wha
from whopf.wha import Element, validate_full


def kz2():
    return group_algebra(cyclic_table(2), name="k[Z2]")


def deformed_minimal():
    return minimal_wha(SemisimplePresentation(blocks=(2,), g=[[3, -1]]))


def test_deform_by_unit_is_identity():
    h = kz2()
    out = deform_q(h, Element(h, h.unit))
    assert out.same_structure(h)


def test_deform_q_precondition_failures():
    h = groupoid_algebra(pair_groupoid(2))
    swap = Element(h, (0, 1, 1, 0))
    with pytest.raises(PreconditionUnmet):
        deform_q(h, swap)  # swap not in H_t
    nil = Element(h, (1, 1, 0, 0))
    with pytest.raises(PreconditionUnmet):
        deform_q(h, Element(h, (1, 0, 0, 0)))  # m11 in H_t but not invertible


def test_regularize_deformed_minimal():
    h = deformed_minimal()
    assert not is_regular(h)
    reg, q = regularize(h)
    assert is_regular(reg)
    assert validate_full(reg).ok
    # mult tensor untouched
    assert reg.mult == h.mult
    # regularize is idempotent
    reg2, q2 = regularize(reg)
    assert reg2 is reg and q2.coeffs == reg.unit
    # the regularized algebra feeds the Radford machinery without complaint
    dp = distinguished_pair(reg, canonical_dual_pair(reg))
    assert radford_check(reg, dp) == []


def test_deform_round_trip():
    h = deformed_minimal()
    reg, q = regularize(h)
    back = deform_q(reg, q.inv().coeffs)  # q is an Element of h; reg has h's basis
    assert back.same_structure(h)


def test_trivial_twist_is_identity():
    h = groupoid_algebra(pair_groupoid(2))
    t = Twist(theta=dict(h.delta_one), theta_bar=dict(h.delta_one))
    out = twist(h, t)
    assert out.same_structure(h)


def test_twist_invariant_violation():
    h = groupoid_algebra(pair_groupoid(2))
    bad = {(0, 0): Fraction(1)}
    with pytest.raises(NotATwist):
        twist(h, Twist(theta=bad, theta_bar=dict(h.delta_one)))


@pytest.mark.parametrize("leg", [(4, 0), (0, 4), (-1, 0), (9, 9)])
@pytest.mark.parametrize("side", ["theta", "theta_bar"])
def test_a_twist_pair_naming_no_basis_element_is_not_a_twist(side, leg):
    """Such a pair lies in no image of Delta(1); the product kernels index the table by legs."""
    h = groupoid_algebra(pair_groupoid(2))
    legs = {"theta": dict(h.delta_one), "theta_bar": dict(h.delta_one)}
    legs[side][leg] = Fraction(1)
    message = "Theta does not lie" if side == "theta" else "Theta_bar does not lie"
    with pytest.raises(NotATwist, match=message):
        twist(h, Twist(**legs))


def test_abelian_grouplikes_z2():
    u = kz2()
    group = AbelianGrouplikes(u, [Element(u, (1, 0)), Element(u, (0, 1))])
    assert group.order == 2 and group.exponent == 2
    assert group.characters == [(0, 0), (0, 1)]
    # P_mu are orthogonal idempotents summing to 1
    p0 = group.minimal_idempotent(QQ, 0).coeffs
    p1 = group.minimal_idempotent(QQ, 1).coeffs
    assert u.mul_vec(p0, p0) == p0
    assert u.mul_vec(p0, p1) == (0, 0)
    assert tuple(a + b for a, b in zip(p0, p1)) == u.unit


def test_abelian_grouplikes_klein_four():
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    u = group_algebra(table, name="k[V4]")
    elements = [Element(u, tuple(1 if i == j else 0 for i in range(4))) for j in range(4)]
    group = AbelianGrouplikes(u, elements)
    assert group.order == 4 and group.exponent == 2
    assert len(group.characters) == 4
    # character tables of V4: all values +-1, rows pairwise distinct
    assert len(set(group.characters)) == 4


def test_dynamical_twist_host_dim8():
    u = kz2()
    data = DynamicalTwistData(u=u, grouplikes=[Element(u, (1, 0)), Element(u, (0, 1))])
    build = dynamical_theta(data)
    host = build.host
    assert host.dim == 8
    assert validate_full(host).ok
    twisted = twist(host, build.twist)
    assert twisted.dim == 8
    assert twisted.mult == host.mult
    assert validate_full(twisted).ok
    # bases: (H_Theta)_s = span{E_bb (x) 1}, dims = |A| = 2, J-independent
    field = host.field
    s_expect = []
    for b in range(2):
        vec = [field.zero()] * 8
        for k, ck in enumerate(u.unit):
            if ck:
                vec[(b * 2 + b) * 2 + k] = ck
        s_expect.append(vec)
    assert twisted.source_base == Subspace.from_vectors(field, 8, s_expect)
    assert twisted.source_base.dim == 2
    assert twisted.target_base.dim == 2
    conn = connectedness(twisted)
    assert conn["biconnected"]


def test_dynamical_cosemisimplicity_z2():
    u = kz2()
    data = DynamicalTwistData(u=u, grouplikes=[Element(u, (1, 0)), Element(u, (0, 1))])
    report = dynamical_cosemisimplicity_check(data)
    assert report["ok"], report
    assert report["tr_s2_theta"] == 8 == report["dim"]


@pytest.mark.parametrize("n", [2, 3])
def test_centralizers_of_unvalidated_dynamical_hosts_run_no_bialgebra_validation(n, monkeypatch):
    """``centralizer_in`` reads the cached associativity verdict alone.

    ``dynamical_cosemisimplicity_check`` asks for the center of the host and
    for ``connectedness`` of the twist.  The host has not been validated and
    needs no other axiom; ``twist`` validated the twist, so its dual starts
    with those verdicts and scans nothing.
    """
    field = CyclotomicField(n) if n > 2 else QQ
    u = group_algebra(cyclic_table(n), field=field)
    elements = [Element(u, tuple(1 if i == j else 0 for i in range(n))) for j in range(n)]
    build = dynamical_theta(DynamicalTwistData(u=u, grouplikes=elements))
    host = build.host
    twisted = twist(host, build.twist)
    calls = []
    monkeypatch.setattr(wha, "validate_weak_bialgebra", lambda h: calls.append(h.name))
    center = host.center
    conn = connectedness(twisted)
    assert calls == []
    assert "bialgebra_checks" not in vars(host) and twisted.dual.bialgebra_checks is twisted.bialgebra_checks
    assert host.associativity_witness is None and twisted.dual.associativity_witness is None
    monkeypatch.undo()
    assert conn["biconnected"]
    assert center == host.centralizer_in(Subspace.full(field, host.dim), Subspace.full(field, host.dim))


def test_dynamical_cosemisimplicity_z3_cyclotomic():
    field = CyclotomicField(3)
    u = group_algebra(cyclic_table(3), field=field, name="k[Z3]")
    elements = [Element(u, tuple(1 if i == j else 0 for i in range(3))) for j in range(3)]
    data = DynamicalTwistData(u=u, grouplikes=elements)
    report = dynamical_cosemisimplicity_check(data)
    assert report["ok"], report
    # direct-trace oracle: Tr(S_Theta^2) = dim = |A|^2 * dim U = 9 * 3
    assert report["dim"] == 27
    assert report["tr_s2_theta"] == field.from_int(27)


def test_nontrivial_j_satisfying_nothing_is_rejected():
    u = kz2()
    a = [Element(u, (1, 0)), Element(u, (0, 1))]
    # normalization broken: (eps (x) id) J != 1
    bad_norm = {1: {(1, 0): Fraction(1), (1, 1): Fraction(1)}}
    with pytest.raises(InvalidPresentation):
        dynamical_theta(DynamicalTwistData(u=u, grouplikes=a, j=bad_norm))
    # normalized, invertible, commuting, but the shifted cocycle fails
    x = {
        (0, 0): Fraction(2), (0, 1): Fraction(-1),
        (1, 0): Fraction(-1), (1, 1): Fraction(1),
    }
    # X = 1(x)1 + (1-g)(x)(1-g)
    bad_eq = {1: x}
    with pytest.raises(DynamicalEquationViolated):
        dynamical_theta(DynamicalTwistData(u=u, grouplikes=a, j=bad_eq))



@pytest.mark.parametrize("key", [2, 5, -1, "1"])
def test_j_for_a_character_that_does_not_exist_is_rejected(key):
    """k[Z2] has characters 0 and 1; J given anywhere else is refused, not ignored."""
    u = kz2()
    a = [Element(u, (1, 0)), Element(u, (0, 1))]
    j = {key: {(0, 0): Fraction(1)}}
    with pytest.raises(InvalidPresentation, match="character"):
        dynamical_theta(DynamicalTwistData(u=u, grouplikes=a, j=j))


@pytest.mark.parametrize(
    "legs, message",
    [
        ({(0, 0): 1, (5, 0): 1}, r"J\(1\) index pair \(5, 0\) out of range for dim 2"),
        ({(0, 0): 1, (-1, 1): 1}, r"J\(1\) index pair \(-1, 1\) out of range for dim 2"),
        ({"ab": 1}, r"J\(1\) index pair 'ab' out of range for dim 2"),
    ],
    ids=["past-the-end", "negative", "string"],
)
def test_j_leg_outside_the_basis_of_u_is_rejected(legs, message):
    """A leg of J(chi) must index the basis of U: no IndexError, no wrapped coordinate, no TypeError."""
    u = kz2()
    a = [Element(u, (1, 0)), Element(u, (0, 1))]
    with pytest.raises(InvalidPresentation, match=message):
        dynamical_theta(DynamicalTwistData(u=u, grouplikes=a, j={1: legs}))


def test_tensor_product_dual_compatibility():
    h1 = matrix_wha(2)
    h2 = kz2()
    prod = tensor_product(h1, h2)
    assert prod.dim == 8
    assert validate_full(prod).ok
    dual_of_prod = prod.dual
    prod_of_duals = tensor_product(h1.dual, h2.dual)
    assert dual_of_prod.same_structure(prod_of_duals)
    # H (x) Q recovers H
    one_dim = group_algebra(cyclic_table(1))
    assert tensor_product(h1, one_dim).same_structure(h1)
