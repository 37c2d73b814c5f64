"""Byte-identity of CLI output against the files in tests/golden/.

The files hold the output of 899ebde: ``whopf zoo --run-all`` as text and as
``--json``, three ``whopf make`` documents, and ``whopf report --dual`` on
each.  The ell, lambda, alpha and a witnesses depend on echelon bases, so a
change of elimination order or normalization that moves any of them fails
here.  Regenerate a file only for a deliberate change of output.
"""

from pathlib import Path

import pytest

from whopf.cli import main

GOLDEN = Path(__file__).parent / "golden"

DOCUMENTS = {
    "groupoid-pair-2": ("groupoid", "--pair", "2"),
    "group-cyclic-3-zeta-3": ("group", "--cyclic", "3", "--zeta", "3"),
    "minimal-blocks-2-g-3-1": ("minimal", "--blocks", "2", "--g", "3,-1"),
}


def stdout_of(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("flags, name", [((), "zoo-run-all.txt"), (("--json",), "zoo-run-all.json")])
def test_zoo_run_all_is_byte_identical(capsys, flags, name):
    assert stdout_of(capsys, "zoo", "--run-all", *flags) == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_make_and_report_dual_are_byte_identical(capsys, name):
    doc = GOLDEN / f"{name}.json"
    assert stdout_of(capsys, "make", *DOCUMENTS[name]) == doc.read_bytes()
    report = stdout_of(capsys, "report", "--dual", str(doc))
    assert report == (GOLDEN / f"{name}.report-dual.json").read_bytes()
