"""The bundled example zoo and its batch verification run.

Members cover the construction spectrum: group algebras (rational and
cyclotomic), pair groupoid algebras and a disconnected groupoid, duals of
all of these, minimal weak Hopf algebras (including one with a deformed
classifying element g), the dim-8 dynamical twist host and its twist, and
the four-dimensional non-semisimple Hopf algebra as a negative control.

``run_zoo`` re-verifies the full battery on every member: axioms, duality,
integrals, the integral form of the antipode, the translation relations,
the fourth-power formula (after regularization where needed), the trace
formula, and the semisimplicity report.  Output is deterministic: no
randomness, no timestamps, fixed orderings.
"""

from __future__ import annotations

from functools import lru_cache

from .constructors import (
    SemisimplePresentation,
    cyclic_table,
    disjoint_union,
    group_algebra,
    groupoid_algebra,
    minimal_wha,
    one_object_groupoid,
    pair_groupoid,
    sweedler_hopf,
    symmetric_table,
)
from .errors import WhopfError
from .fields import CyclotomicField
from .grouplikes import distinguished_pair, lambda_ell_relations, radford_check
from .integrals import antipode_from_integrals, canonical_dual_pair, invariance_check
from .semisimplicity import semisimplicity_report
from .twisting import DynamicalTwistData, dynamical_theta, regularize, twist
from .wha import Element, WeakHopfAlgebra, dualize, validate_full

__all__ = ["ZOO_NAMES", "build_member", "run_zoo", "format_zoo_report"]


@lru_cache(maxsize=None)
def _dyn_twist_z2():
    u = group_algebra(cyclic_table(2), name="k[Z2]")
    data = DynamicalTwistData(
        u=u, grouplikes=[Element(u, (1, 0)), Element(u, (0, 1))]
    )
    build = dynamical_theta(data)
    return build, twist(build.host, build.twist, name="dyn-twist-z2")


def _builders():
    pg2 = lambda: groupoid_algebra(pair_groupoid(2), name="pair-2")
    pg3 = lambda: groupoid_algebra(pair_groupoid(3), name="pair-3")
    z2 = lambda: group_algebra(cyclic_table(2), name="z2-group")
    z3c = lambda: group_algebra(
        cyclic_table(3), field=CyclotomicField(3), name="z3-group-cyclotomic"
    )
    s3 = lambda: group_algebra(symmetric_table(3), name="s3-group")
    return {
        "z2-group": z2,
        "z3-group-cyclotomic": z3c,
        "s3-group": s3,
        "pair-2": pg2,
        "pair-3": pg3,
        "z2-z2-groupoid": lambda: groupoid_algebra(
            disjoint_union(
                one_object_groupoid(cyclic_table(2)), one_object_groupoid(cyclic_table(2))
            ),
            name="z2-z2-groupoid",
        ),
        "dual-z2-group": lambda: _named(dualize(z2()), "dual-z2-group"),
        "dual-z3-group-cyclotomic": lambda: _named(dualize(z3c()), "dual-z3-group-cyclotomic"),
        "dual-s3-group": lambda: _named(dualize(s3()), "dual-s3-group"),
        "dual-pair-2": lambda: _named(dualize(pg2()), "dual-pair-2"),
        "dual-pair-3": lambda: _named(dualize(pg3()), "dual-pair-3"),
        "hmin-qq-1": lambda: minimal_wha(
            SemisimplePresentation(blocks=(1, 1)), name="hmin-qq-1"
        ),
        "hmin-m2-1": lambda: minimal_wha(
            SemisimplePresentation(blocks=(2,)), name="hmin-m2-1"
        ),
        "hmin-m2-g31": lambda: minimal_wha(
            SemisimplePresentation(blocks=(2,), g=[[3, -1]]), name="hmin-m2-g31"
        ),
        "dyn-host-z2": lambda: _named(_dyn_twist_z2()[0].host, "dyn-host-z2"),
        "dyn-twist-z2": lambda: _dyn_twist_z2()[1],
        "sweedler4": sweedler_hopf,
    }


ZOO_NAMES = tuple(_builders())


def _named(h, name):
    """A new algebra with the structure of h under another name; h is left as it is."""
    return WeakHopfAlgebra(
        h.field, h.labels, h.mult, h.unit, h.comult, h.counit, antipode=h.antipode, name=name
    )


@lru_cache(maxsize=None)
def build_member(name):
    return _builders()[name]()


def check_member(h, mutate=False):
    """Run the standard battery on one algebra; returns an ordered dict.

    The dual is validated without scanning it again: each axiom of H* is one
    of H under the transposed tables, so once h passes, ``h.dual`` starts
    with h's verdicts (``dualize``).
    """
    if mutate:
        # test hook: corrupt one structure constant to prove the run can fail
        counit = list(h.counit)
        counit[0] = counit[0] + h.field.one()
        h = WeakHopfAlgebra(
            h.field, h.labels, h.mult, h.unit, h.comult, counit,
            antipode=h.antipode, name=h.name + "(mutated)",
        )
    out = {"name": h.name, "dim": h.dim}
    report = validate_full(h)
    out["axioms"] = report.ok
    if not report.ok:
        out["axiom_failures"] = [c.name for c in report.failures()]
        out["ok"] = False
        return out
    dual = h.dual
    # a temporary H**: caching it on the dual would keep a third copy of h alive
    out["duality_involution"] = dualize(dual).same_structure(h) and validate_full(dual).ok
    left = h.left_integrals
    out["integral_dim"] = left.dim
    out["frobenius"] = left.dim == h.target_base.dim
    pair = canonical_dual_pair(h)
    out["invariance_zero"] = invariance_check(h, pair) == []
    try:
        antipode_from_integrals(h, pair)
        out["integral_antipode"] = True
    except WhopfError:
        out["integral_antipode"] = False
    reg, _q = regularize(h)
    reg_pair = pair if reg is h else canonical_dual_pair(reg)
    dp = distinguished_pair(reg, reg_pair)
    out["regularized"] = reg is not h
    out["radford_zero"] = radford_check(reg, dp) == []
    out["relations_zero"] = lambda_ell_relations(reg, dp) == []
    srep = semisimplicity_report(h, pair)
    out["tr_s2"] = h.field.format(srep.tr_s2_direct)
    out["trace_formula_agrees"] = srep.tr_s2_direct == srep.tr_s2_formula
    out["semisimple"] = srep.semisimple
    out["cosemisimple"] = srep.cosemisimple
    # semisimplicity_report raises Inconsistent when Maschke and the trace form disagree
    out["maschke_matches_trace_form"] = True
    out["implications_hold"] = srep.ok
    out["ok"] = all(
        out[key]
        for key in (
            "axioms",
            "duality_involution",
            "frobenius",
            "invariance_zero",
            "integral_antipode",
            "radford_zero",
            "relations_zero",
            "trace_formula_agrees",
            "maschke_matches_trace_form",
            "implications_hold",
        )
    )
    return out


def run_zoo(mutate=None):
    """Verify every member; ``mutate`` corrupts the named member (test hook)."""
    results = []
    for name in ZOO_NAMES:
        h = build_member(name)
        results.append(check_member(h, mutate=(name == mutate)))
    return results


def format_zoo_report(results):
    header = f"{'member':<26} {'dim':>4} {'ss':>3} {'coss':>4} {'Tr(S^2)':>8} {'status':>7}"
    lines = [header, "-" * len(header)]
    for r in results:
        if r.get("axioms"):
            lines.append(
                f"{r['name']:<26} {r['dim']:>4} "
                f"{'y' if r['semisimple'] else 'n':>3} "
                f"{'y' if r['cosemisimple'] else 'n':>4} "
                f"{r['tr_s2']:>8} {'ok' if r['ok'] else 'FAIL':>7}"
            )
        else:
            lines.append(f"{r['name']:<26} {r['dim']:>4} {'-':>3} {'-':>4} {'-':>8} {'FAIL':>7}")
    good = sum(1 for r in results if r["ok"])
    lines.append(f"{good}/{len(results)} members pass")
    return "\n".join(lines) + "\n"
