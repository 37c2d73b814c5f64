import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from whopf import docio
from whopf.cli import main
from whopf.constructors import groupoid_algebra, pair_groupoid
from whopf.zoo import ZOO_NAMES, build_member


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_make_groupoid_pair(capsys, tmp_path):
    code, out, err = run_cli(capsys, "make", "groupoid", "--pair", "2")
    assert code == 0 and not err
    doc = json.loads(out)
    assert doc["dim"] == 4
    assert doc["schema_version"] == "1"


def test_make_group_cyclic(capsys):
    code, out, _ = run_cli(capsys, "make", "group", "--cyclic", "2")
    assert code == 0
    assert json.loads(out)["dim"] == 2


def test_make_minimal_16(capsys):
    code, out, _ = run_cli(capsys, "make", "minimal", "--blocks", "2", "--g", "3,-1")
    assert code == 0
    assert json.loads(out)["dim"] == 16


def test_make_minimal_with_too_few_g_blocks_is_typed(capsys):
    code, out, err = run_cli(capsys, "make", "minimal", "--blocks", "1,2", "--g", "1")
    assert code == 1 and not out
    assert json.loads(err)["error"] == "InvalidPresentation"


@pytest.mark.parametrize(
    "argv",
    [
        ["minimal", "--blocks", "2", "--g", "1/0"],
        ["minimal", "--blocks", "2", "--g", "abc"],
        ["minimal", "--blocks", "a"],
        ["minimal", "--blocks", "2,"],
        ["minimal"],
        ["groupoid", "--disjoint-cyclic", "2,x"],
        ["matrix"],
        ["group", "--cyclic", "3", "--zeta", "0"],
        ["group", "--cyclic", "3", "--zeta", "-1"],
    ],
)
def test_make_hostile_flags_are_parse_errors(capsys, argv):
    code, out, err = run_cli(capsys, "make", *argv)
    assert code == 2 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ParseError"


@pytest.mark.parametrize(
    "argv",
    [
        ["group", "--cyclic", "0"],
        ["group", "--sym", "0"],
        ["groupoid", "--pair", "0"],
        ["groupoid", "--cyclic", "0"],
        ["functions", "--pair", "0"],
        ["dyntwist-host", "--cyclic", "0"],
    ],
    ids=["group-cyclic", "group-sym", "groupoid-pair", "groupoid-cyclic", "functions-pair", "dyntwist-host"],
)
def test_make_size_zero_reaches_the_library_check(capsys, argv):
    """A 0 is a size, not a missing flag: the constructors refuse it with InvalidPresentation (exit 1)."""
    code, out, err = run_cli(capsys, "make", *argv)
    assert code == 1 and not out
    lines = err.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])
    assert error["error"] == "InvalidPresentation" and "n >= 1" in error["message"]


@pytest.mark.parametrize("zeta", ["1", "2"])
def test_make_zeta_one_and_two_are_rational(capsys, zeta):
    code, plain, _ = run_cli(capsys, "make", "group", "--cyclic", "3")
    assert code == 0
    code, out, err = run_cli(capsys, "make", "group", "--cyclic", "3", "--zeta", zeta)
    assert code == 0 and not err and out == plain


def test_validate_roundtrip(tmp_path, capsys):
    doc_path = tmp_path / "pair2.json"
    code, _, _ = run_cli(capsys, "make", "groupoid", "--pair", "2", "--out", str(doc_path))
    assert code == 0
    code, out, _ = run_cli(capsys, "validate", str(doc_path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_corrupt_counit_exit_1(tmp_path, capsys):
    h = groupoid_algebra(pair_groupoid(2))
    doc = docio.wha_to_document(h)
    doc["counit"] = [[i, "2"] for i in range(4)]
    path = tmp_path / "bad.json"
    path.write_text(docio.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    assert not report["ok"]
    failing = [c for c in report["checks"] if not c["ok"]]
    assert failing and all("witness" in c for c in failing)


def test_validate_malformed_json_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_document_roundtrip_identity():
    for name in ("pair-3", "hmin-m2-g31", "z3-group-cyclotomic", "dyn-twist-z2"):
        h = build_member(name)
        doc = docio.wha_to_document(h)
        text = docio.dumps(doc)
        again = docio.document_to_wha(docio.loads(text))
        assert again.same_structure(h)
        assert docio.dumps(docio.wha_to_document(again)) == text


def test_report_pair_groupoid(tmp_path, capsys):
    path = tmp_path / "pair2.json"
    run_cli(capsys, "make", "groupoid", "--pair", "2", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "report", str(path), "--integrals", "--radford", "--traces"
    )
    assert code == 0
    report = json.loads(out)
    assert report["integrals"]["frobenius"] is True
    assert report["radford"]["radford_residual"] == "0"
    assert report["traces"]["semisimple"] is True
    assert report["traces"]["tr_s2"]["direct"] == "4"


def test_report_z2(tmp_path, capsys):
    path = tmp_path / "z2.json"
    run_cli(capsys, "make", "group", "--cyclic", "2", "--out", str(path))
    code, out, _ = run_cli(capsys, "report", str(path), "--traces", "--dual")
    assert code == 0
    report = json.loads(out)
    assert report["traces"]["tr_s2"]["direct"] == "2"
    assert report["dual_traces"]["semisimple"] is True


def test_twist_regularize(tmp_path, capsys):
    path = tmp_path / "hmin.json"
    run_cli(capsys, "make", "minimal", "--blocks", "2", "--g", "3,-1", "--out", str(path))
    code, out, _ = run_cli(capsys, "twist", str(path), "--regularize")
    assert code == 0
    doc = json.loads(out)
    reg = docio.document_to_wha(doc)
    from whopf.grouplikes import is_regular

    assert is_regular(reg)


def test_twist_trivial_q(tmp_path, capsys):
    path = tmp_path / "z2.json"
    run_cli(capsys, "make", "group", "--cyclic", "2", "--out", str(path))
    code, out, _ = run_cli(capsys, "twist", str(path), "--q", "1,0")
    assert code == 0
    h = docio.document_to_wha(json.loads(out))
    from whopf.constructors import cyclic_table, group_algebra

    assert h.same_structure(group_algebra(cyclic_table(2)))


def test_make_dyntwist_host_dim8(capsys):
    code, out, _ = run_cli(capsys, "make", "dyntwist-host", "--cyclic", "2")
    assert code == 0
    assert json.loads(out)["dim"] == 8


def test_zoo_runs_green(capsys):
    code, out, _ = run_cli(capsys, "zoo", "--run-all")
    assert code == 0
    assert f"{len(ZOO_NAMES)}/{len(ZOO_NAMES)} members pass" in out


def test_zoo_mutation_fails(capsys):
    code, out, _ = run_cli(capsys, "zoo", "--run-all", "--mutate", "pair-2")
    assert code == 1
    assert "FAIL" in out


def test_zoo_deterministic(capsys):
    _, first, _ = run_cli(capsys, "zoo", "--run-all", "--json")
    _, second, _ = run_cli(capsys, "zoo", "--run-all", "--json")
    assert first == second


def test_make_functions_is_dual_of_groupoid(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "make", "functions", "--pair", "2")
    assert code == 0
    fun = docio.document_to_wha(json.loads(out))
    from whopf.constructors import function_algebra, pair_groupoid

    assert fun.same_structure(function_algebra(pair_groupoid(2)))


def test_make_tensor(tmp_path, capsys):
    left = tmp_path / "m2.json"
    right = tmp_path / "z2.json"
    run_cli(capsys, "make", "matrix", "--size", "2", "--out", str(left))
    run_cli(capsys, "make", "group", "--cyclic", "2", "--out", str(right))
    code, out, _ = run_cli(capsys, "make", "tensor", "--left", str(left), "--right", str(right))
    assert code == 0
    assert json.loads(out)["dim"] == 8


@pytest.mark.parametrize(
    "make",
    [None, ["group", "--cyclic", "7", "--zeta", "7"], ["minimal", "--blocks", "1,2"]],
    ids=["pair-2", "group-z7-zeta7", "minimal-1-2"],
)
def test_validate_solves_missing_antipode(tmp_path, capsys, make):
    """With "antipode" stripped, validate solves S again and every axiom passes: k[Z7] over Q(zeta_7), whose
    modular solve has phi(7) = 6 embeddings, and H_min(1,2), whose S has fractions, are made by the CLI."""
    if make is None:
        doc = docio.wha_to_document(groupoid_algebra(pair_groupoid(2)))
    else:
        code, made, _ = run_cli(capsys, "make", *make)
        assert code == 0
        doc = json.loads(made)
    del doc["antipode"]
    path = tmp_path / "no_s.json"
    path.write_text(docio.dumps(doc))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_checks_a_solved_antipode_once(tmp_path, capsys, monkeypatch):
    """Stripped dyn-z3: the solved S is checked once, and the report bytes are the uncached ones."""
    from whopf import wha

    code, made, _ = run_cli(capsys, "make", "dyntwist-host", "--cyclic", "3")
    assert code == 0
    doc = json.loads(made)
    full_path = tmp_path / "dyn-z3.json"
    full_path.write_text(made)
    del doc["antipode"]
    path = tmp_path / "dyn-z3-stripped.json"
    path.write_text(docio.dumps(doc))

    calls = {"antipode": 0, "bialgebra": 0}
    antipode_axiom_checks = wha.antipode_axiom_checks
    validate_weak_bialgebra = wha.validate_weak_bialgebra

    def antipode_spy(*args):
        calls["antipode"] += 1
        return antipode_axiom_checks(*args)

    def bialgebra_spy(h):
        calls["bialgebra"] += 1
        return validate_weak_bialgebra(h)

    monkeypatch.setattr(wha, "antipode_axiom_checks", antipode_spy)
    monkeypatch.setattr(wha, "validate_weak_bialgebra", bialgebra_spy)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 0 and not err
    assert calls == {"antipode": 1, "bialgebra": 1}
    monkeypatch.undo()

    h = docio.document_to_wha(json.loads(made))
    uncached = wha.ValidationReport(
        list(validate_weak_bialgebra(h).checks) + antipode_axiom_checks(h)
    )
    assert out == json.dumps(uncached.as_dict(), indent=2, sort_keys=True) + "\n"
    assert run_cli(capsys, "validate", str(full_path)) == (0, out, "")


def test_report_embeds_not_frobenius(monkeypatch):
    # the integrals section must degrade to an embedded error, not a crash;
    # it reads the cached integral spaces, so an algebra whose cached spaces
    # are empty must report NotFrobenius
    from whopf import cli as cli_mod
    from whopf.fields import QQ
    from whopf.linalg import Subspace
    from whopf.wha import WeakHopfAlgebra
    from whopf.zoo import build_member

    empty = property(lambda algebra: Subspace.from_vectors(QQ, algebra.dim, []))
    monkeypatch.setattr(WeakHopfAlgebra, "left_integrals", empty)
    monkeypatch.setattr(WeakHopfAlgebra, "right_integrals", empty)
    section, ok = cli_mod._section_integrals(build_member("pair-2"))
    assert section["error"] == "NotFrobenius"
    assert section["dim_left"] == section["dim_right"] == 0
    assert not ok


def test_report_solves_each_integral_side_once_per_algebra(monkeypatch, capsys):
    """The integrals section reads the cached spaces that canonical_dual_pair also uses."""
    from whopf import wha

    solved = []
    rows = wha._integral_rows
    spy = lambda h, side, counital: solved.append((h, side)) or rows(h, side, counital)
    monkeypatch.setattr(wha, "_integral_rows", spy)
    code, _, _ = run_cli(capsys, "report", "tests/golden/groupoid-pair-2.json", "--integrals", "--dual")
    assert code == 0
    keys = [(id(algebra), side) for algebra, side in solved]
    assert solved and len(set(keys)) == len(keys)


def _hostile(kind):
    doc = docio.wha_to_document(build_member("z3-group-cyclotomic"))
    if kind == "scalar-div-zero":
        doc["mult"][0][3] = "1/0"
    elif kind == "mult-entry-not-list":
        doc["mult"][0] = 7
    elif kind == "mult-not-list":
        doc["mult"] = 7
    elif kind == "metadata-string":
        doc["metadata"] = doc["metadata"]["name"]
    elif kind == "cyclotomic-order-string":
        doc["field"]["order"] = str(doc["field"]["order"])
    elif kind == "dim-true":
        doc = docio.wha_to_document(build_member("z2-group"))
        doc.update(dim=True, basis=["e0"], mult=[], comult=[], unit=[], counit=[])
        del doc["antipode"]
    return doc


@pytest.mark.parametrize(
    "kind",
    [
        "scalar-div-zero",
        "mult-entry-not-list",
        "mult-not-list",
        "metadata-string",
        "cyclotomic-order-string",
        "dim-true",
    ],
)
def test_validate_hostile_document_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(_hostile(kind)))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and not out
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ParseError"


def test_rational_scalar_zero_denominator_is_parse_error():
    from whopf.errors import ParseError
    from whopf.fields import QQ, CyclotomicField

    with pytest.raises(ParseError):
        QQ.parse("1/0")
    with pytest.raises(ParseError):
        CyclotomicField(3).parse("1+2/0*z")


# ---------------------------------------------------------------------------
# twist and dynamical twist documents


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _z2_doc(capsys):
    code, out, _ = run_cli(capsys, "make", "group", "--cyclic", "2")
    assert code == 0
    return json.loads(out)


def _assert_parse_error(code, out, err):
    assert code == 2 and not out
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "ParseError"
    assert "Traceback" not in err


def test_twist_by_delta_one_is_the_identity(tmp_path, capsys):
    pair2 = _write(tmp_path, "pair2.json", docio.wha_to_document(groupoid_algebra(pair_groupoid(2))))
    delta_one = [[0, 0, "1"], [3, 3, "1"]]  # Delta(m11 + m22)
    tw = _write(tmp_path, "tw.json", {"theta": delta_one, "theta_bar": delta_one})
    code, out, err = run_cli(capsys, "twist", pair2, "--twist", tw)
    assert code == 0 and not err
    twisted = docio.document_to_wha(json.loads(out))
    assert twisted.same_structure(groupoid_algebra(pair_groupoid(2)))


def test_dynamical_twist_of_z2_is_the_dyntwist_host(tmp_path, capsys):
    doc = {"u": _z2_doc(capsys), "grouplikes": [["1", "0"], ["0", "1"]]}
    code, out, err = run_cli(capsys, "twist", "--dynamical", _write(tmp_path, "dyn.json", doc))
    assert code == 0 and not err
    code, host, _ = run_cli(capsys, "make", "dyntwist-host", "--cyclic", "2")
    assert code == 0
    built = docio.document_to_wha(json.loads(out))
    assert built.same_structure(docio.document_to_wha(json.loads(host)))


@pytest.mark.parametrize(
    "tdoc",
    [
        [],
        {"theta": [5]},
        {"theta": [[0, 0, 1]]},  # a non-string scalar
        {"theta": [["a", 0, "1"]]},
        {"theta": [[9, 0, "1"]]},
        {"theta": [[0, 0, "1"], [0, 0, "1"]]},
    ],
)
def test_hostile_twist_documents_are_parse_errors(tmp_path, capsys, tdoc):
    pair2 = _write(tmp_path, "pair2.json", docio.wha_to_document(groupoid_algebra(pair_groupoid(2))))
    _assert_parse_error(*run_cli(capsys, "twist", pair2, "--twist", _write(tmp_path, "tw.json", tdoc)))


@pytest.mark.parametrize(
    "shape",
    [
        "list",
        "empty",
        "j-key-not-an-index",
        "grouplikes-not-a-list",
        "grouplike-of-wrong-length",
        "grouplike-of-non-strings",
        "j-entry-repeated",
    ],
)
def test_hostile_dynamical_documents_are_parse_errors(tmp_path, capsys, shape):
    u = _z2_doc(capsys)
    basis = [["1", "0"], ["0", "1"]]
    doc = {
        "list": [],
        "empty": {},
        "j-key-not-an-index": {"u": u, "grouplikes": basis, "j": {"x": []}},
        "grouplikes-not-a-list": {"u": u, "grouplikes": 5},
        "grouplike-of-wrong-length": {"u": u, "grouplikes": [[1, 0, 0, 0]]},
        "grouplike-of-non-strings": {"u": u, "grouplikes": [[1, 0], [0, 1]]},
        "j-entry-repeated": {"u": u, "grouplikes": basis, "j": {"0": [[0, 0, "1"], [0, 0, "1"]]}},
    }[shape]
    # no positional document: --dynamical must not read stdin
    _assert_parse_error(*run_cli(capsys, "twist", "--dynamical", _write(tmp_path, "dyn.json", doc)))



def test_dynamical_j_for_a_character_that_does_not_exist_is_a_parse_error(tmp_path, capsys):
    """k[Z2] has characters 0 and 1, so j key "5" names none; it used to be ignored with exit 0."""
    doc = {"u": _z2_doc(capsys), "grouplikes": [["1", "0"], ["0", "1"]], "j": {"5": [[0, 0, "1"]]}}
    _assert_parse_error(*run_cli(capsys, "twist", "--dynamical", _write(tmp_path, "dyn.json", doc)))
    doc["j"] = {"2": [[0, 0, "1"]]}
    _assert_parse_error(*run_cli(capsys, "twist", "--dynamical", _write(tmp_path, "dyn.json", doc)))

@pytest.mark.parametrize("where", ["scalar-string", "json-integer", "j-key"])
def test_overlong_integers_are_parse_errors(tmp_path, capsys, where):
    """A 5000-digit integer, above int()'s default digit limit, used to end in a ValueError traceback."""
    long = "1" * 5000
    doc = _z2_doc(capsys)
    if where == "j-key":
        dyn = {"u": doc, "grouplikes": [["1", "0"], ["0", "1"]], "j": {long: [[0, 0, "1"]]}}
        _assert_parse_error(*run_cli(capsys, "twist", "--dynamical", _write(tmp_path, "dyn.json", dyn)))
        return
    path = tmp_path / "doc.json"
    if where == "scalar-string":
        doc["mult"][0][-1] = long
        path.write_text(json.dumps(doc))
    else:
        path.write_text(json.dumps(doc)[:-1] + ', "extra": ' + long + "}")
    _assert_parse_error(*run_cli(capsys, "validate", str(path)))


def test_validate_process_exits_2_on_an_overlong_scalar(tmp_path, capsys):
    """A real ``python -m whopf.cli validate`` process: exit 2, nothing on stdout, one JSON line on stderr."""
    doc = _z2_doc(capsys)
    doc["mult"][0][-1] = "1" * 5000
    path = tmp_path / "long-scalar.json"
    path.write_text(json.dumps(doc))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    optimize = ["-O"] if sys.flags.optimize else []  # the process runs as the suite does, with or without -O
    argv = [sys.executable, *optimize, "-m", "whopf.cli", "validate", str(path)]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    _assert_parse_error(done.returncode, done.stdout, done.stderr)


def test_dynamical_refuses_a_positional_document(tmp_path, capsys):
    u = _z2_doc(capsys)
    dyn = _write(tmp_path, "dyn.json", {"u": u, "grouplikes": [["1", "0"], ["0", "1"]]})
    _assert_parse_error(*run_cli(capsys, "twist", _write(tmp_path, "u.json", u), "--dynamical", dyn))


@pytest.mark.parametrize("key", ["mult", "comult", "unit", "counit", "antipode"])
def test_repeated_document_entry_is_a_parse_error(tmp_path, capsys, key):
    doc = docio.wha_to_document(groupoid_algebra(pair_groupoid(2)))
    doc[key].append(list(doc[key][0]))
    _assert_parse_error(*run_cli(capsys, "validate", _write(tmp_path, "rep.json", doc)))
