"""The sparse axiom, trace-form and integral kernels against brute force.

Each oracle below is the plain textbook form of a kernel: the weak-unit
products as full triple tensors, the weak-counit identity over all n^3
basis triples, the trace form from dense products of left multiplication
matrices, and the integral systems from dense difference matrices.  They
run on every zoo member and on seeded single-constant corruptions of
``mult``, ``comult``, ``unit`` and ``counit``, which include non-unital and
non-associative algebras; verdicts and witnesses must match exactly.
"""

import random

import pytest

from whopf.integrals import integral_space, semisimple_by_trace_form
from whopf.linalg import Matrix, Subspace, solve_sparse
from whopf.wha import WeakHopfAlgebra, validate_full
from whopf.zoo import ZOO_NAMES, build_member

MAX_DIM = 16
CORRUPTIONS_PER_MEMBER = 8


def oracle_weak_unit(h):
    zero = h.field.zero()
    d1 = h.delta_one
    lhs = {}
    for (j, k), c in d1.items():
        for (a, b), c2 in h.comult[j].items():
            key = (a, b, k)
            lhs[key] = lhs.get(key, zero) + c * c2
    lhs = {key: v for key, v in lhs.items() if v}
    one_idx = [(i, c) for i, c in enumerate(h.unit) if c]
    d1_left = {}  # Delta(1) (x) 1
    d1_right = {}  # 1 (x) Delta(1)
    for (j, k), c in d1.items():
        for i, ci in one_idx:
            d1_left[(j, k, i)] = c * ci
            d1_right[(i, j, k)] = c * ci
    mid = h.mul_triple_dicts(d1_left, d1_right)
    alt = h.mul_triple_dicts(d1_right, d1_left)
    return lhs == mid == alt


def oracle_weak_counit(h):
    """First (f, g, t) in (g, f, t) order where the three forms differ."""
    n = h.dim
    zero = h.field.zero()
    e2 = h.counit_product
    for g in range(n):
        dg = list(h.comult[g].items())
        for f in range(n):
            cell = list(h.mult.get((f, g), {}).items())
            row_f = e2[f]
            for t in range(n):
                lhs = mid = alt = zero
                for k, c in cell:
                    if e2[k][t]:
                        lhs += c * e2[k][t]
                for (j, k), c in dg:
                    if row_f[j] and e2[k][t]:
                        mid += c * row_f[j] * e2[k][t]
                    if row_f[k] and e2[j][t]:
                        alt += c * row_f[k] * e2[j][t]
                if not (lhs == mid == alt):
                    return (f, g, t)
    return None


def _basis(h, i):
    return [h.field.one() if t == i else h.field.zero() for t in range(h.dim)]


def oracle_trace_form(h):
    n = h.dim
    mats = [h.left_mult_matrix(_basis(h, i)).rows for i in range(n)]
    # Tr(AB) = sum_{j,k} A[j][k] B[k][j] over the dense matrices
    gram = [
        [
            sum((a[j][k] * b[k][j] for j in range(n) for k in range(n) if a[j][k]), h.field.zero())
            for b in mats
        ]
        for a in mats
    ]
    return Matrix(h.field, gram).is_invertible()


def oracle_integral_space(h, side):
    n = h.dim
    rows = []
    for i in range(n):
        if side == "left":
            diff = h.left_mult_matrix(_basis(h, i)) - h.left_mult_matrix(h.eps_t_mat.col(i))
        else:
            diff = h.right_mult_matrix(_basis(h, i)) - h.right_mult_matrix(h.eps_s_mat.col(i))
        rows.extend({c: v for c, v in enumerate(r) if v} for r in diff.rows)
    got = solve_sparse(rows, [h.field.zero()] * len(rows), n, h.field)
    return Subspace.from_vectors(h.field, n, got[1])


def expected_report(h):
    """validate_full's report with both weak axioms taken from the oracles."""
    report = validate_full(h).as_dict()
    for check in report["checks"]:
        if check["axiom"] == "weak_unit":
            ok = oracle_weak_unit(h)
            check.clear()
            check.update({"axiom": "weak_unit", "ok": ok})
            if not ok:
                check.update({"witness": ["Delta(1)"], "detail": ""})
        elif check["axiom"] == "weak_counit":
            witness = oracle_weak_counit(h)
            check.clear()
            check.update({"axiom": "weak_counit", "ok": witness is None})
            if witness is not None:
                check.update({"witness": list(witness), "detail": ""})
    report["ok"] = all(c["ok"] for c in report["checks"])
    return report


def rebuild(h, mult=None, comult=None, unit=None, counit=None):
    return WeakHopfAlgebra(
        h.field,
        h.labels,
        h.mult if mult is None else mult,
        h.unit if unit is None else unit,
        h.comult if comult is None else comult,
        h.counit if counit is None else counit,
        antipode=h.antipode,
        name=h.name,
    )


def bump(h, key, k, value):
    """h with value added to the e_k coefficient of the product at key."""
    mult = {ij: dict(cell) for ij, cell in h.mult.items()}
    cell = mult.setdefault(key, {})
    cell[k] = cell.get(k, h.field.zero()) + value
    return rebuild(h, mult=mult)


def corrupt(h, rng):
    """Add or drop one structure constant of mult, comult, unit or counit."""
    n = h.dim
    part = rng.choice(["mult", "comult", "unit", "counit"])
    drop = rng.random() < 0.5
    value = h.field.from_int(rng.choice([-2, -1, 1, 2, 3]))
    if part == "mult":
        keys = [(ij, k) for ij, cell in sorted(h.mult.items()) for k in sorted(cell)]
        if drop and keys:
            ij, k = rng.choice(keys)
            return bump(h, ij, k, -h.mult[ij][k])
        return bump(h, (rng.randrange(n), rng.randrange(n)), rng.randrange(n), value)
    if part == "comult":
        comult = [dict(d) for d in h.comult]
        i = rng.randrange(n)
        if drop and comult[i]:
            del comult[i][rng.choice(sorted(comult[i]))]
        else:
            jk = (rng.randrange(n), rng.randrange(n))
            comult[i][jk] = comult[i].get(jk, h.field.zero()) + value
        return rebuild(h, comult=comult)
    vec = list(h.unit if part == "unit" else h.counit)
    i = rng.randrange(n)
    vec[i] = h.field.zero() if drop else vec[i] + value
    return rebuild(h, **{part: vec})


def one_sided_corruptions(h, rng):
    """Corrupt a product that only mid, then one that only alt, reads.

    mid multiplies 1_(2) 1'_(1) and alt multiplies 1_(1) 1'_(2) in the
    middle slot.  A product e_a e_b with a a second leg and b a first leg of
    Delta(1), but not the other way round, and with neither in the support of
    1, changes mid alone; swapping the roles changes alt alone.  An
    implementation that mixes up the two middle slots gets these verdicts
    wrong.
    """
    first = {j for j, _ in h.delta_one}
    second = {k for _, k in h.delta_one}
    units = {i for i, c in enumerate(h.unit) if c}
    out = []
    for left, right in ((second, first), (first, second)):
        keys = [
            (a, b)
            for a in sorted(left - units)
            for b in sorted(right - units)
            if not (a in right and b in left)
        ]
        if keys:
            out.append(bump(h, rng.choice(keys), rng.randrange(h.dim), h.field.one()))
    return out


def rotated_unit(h):
    """h with its unit scaled by zeta_3: the unit axiom fails, the weak one holds.

    Delta(1) (x) Delta(1) picks up zeta^2 and the two one-sided products by 1
    another zeta^2, so both products scale by zeta^4 = zeta, like the
    left-hand side.  Dropping the products by 1 would scale them by zeta^2.
    """
    zeta = h.field.zeta()
    return rebuild(h, unit=[zeta * c for c in h.unit])


def _cases():
    """name -> the member followed by its seeded corruptions."""
    rng = random.Random(20010106)
    cases = {}
    for name in ZOO_NAMES:
        h = build_member(name)
        if h.dim <= MAX_DIM:
            cases[name] = [h] + [corrupt(h, rng) for _ in range(CORRUPTIONS_PER_MEMBER)]
            cases[name] += one_sided_corruptions(h, rng)
    cases["z3-group-cyclotomic"].append(rotated_unit(build_member("z3-group-cyclotomic")))
    return cases


CASES = _cases()


def test_cases_cover_malformed_algebras():
    assert len(CASES) >= 15
    failing = set()
    for algebras in CASES.values():
        for h in algebras:
            failing.update(c.name for c in validate_full(h).failures())
    assert {"associativity", "unit", "counit", "weak_unit", "weak_counit"} <= failing
    rng = random.Random(0)
    one_sided = [
        bad
        for name in ("hmin-m2-1", "hmin-m2-g31")
        for bad in one_sided_corruptions(build_member(name), rng)
    ]
    assert len(one_sided) == 4 and not any(oracle_weak_unit(h) for h in one_sided)
    rotated = rotated_unit(build_member("z3-group-cyclotomic"))
    assert "unit" in {c.name for c in validate_full(rotated).failures()}
    assert oracle_weak_unit(rotated)


@pytest.mark.parametrize("name", sorted(CASES))
def test_validate_full_matches_oracles(name):
    for h in CASES[name]:
        assert validate_full(h).as_dict() == expected_report(h)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_form_matches_dense_gram(name):
    for h in CASES[name]:
        assert semisimple_by_trace_form(h) == oracle_trace_form(h)


@pytest.mark.parametrize("name", sorted(CASES))
def test_integral_space_matches_dense_system(name):
    for h in CASES[name]:
        for side in ("left", "right"):
            assert integral_space(h, side) == oracle_integral_space(h, side)
