"""Hostile input to ``whopf validate``, ``whopf report`` and ``whopf twist``, generated by Hypothesis.

Two kinds of input reach ``validate`` and ``report``: any small JSON value
(its dict keys drawn partly from the document schema, and some under a
valid version, field and dim head, so they reach past the first shape
checks), and zoo documents of dimension at most 9 with one path mutated (an
entry replaced by a small JSON value, deleted or repeated).  ``twist --twist`` reads a mutated twist document over pair-2 (the
twist by Delta(1), which is a twist), and ``twist --dynamical`` a mutated
dynamical document over k[Z2] (its entry lists, indices, scalars, group-likes
and character keys).  Every run must end with exit 0, 1 or 2, never a
traceback, and anything written to stderr must be exactly one JSON line
naming the error; an exit 2 must write it.  The runs are derandomized, so
the same cases run every time.
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from whopf import docio
from whopf.cli import main
from whopf.constructors import cyclic_table, group_algebra, groupoid_algebra, pair_groupoid
from whopf.zoo import ZOO_NAMES, build_member

SCHEMA_WORDS = [
    "schema_version",
    "field",
    "kind",
    "order",
    "dim",
    "basis",
    "mult",
    "comult",
    "unit",
    "counit",
    "antipode",
    "metadata",
    "name",
    "1",
    "rational",
    "cyclotomic",
    "1/2",
    "1/0",
    "z",
]

leaves = (
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6)
    | st.sampled_from(SCHEMA_WORDS)
)
json_values = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(SCHEMA_WORDS) | st.text(max_size=4), kids, max_size=5),
    max_leaves=12,
)
# a document head that passes the version and field checks, over a small dim
# (which a drawn entry may overwrite) and drawn entries
headed_values = st.builds(
    lambda dim, rest: {"dim": dim, **rest, "schema_version": "1", "field": {"kind": "rational"}},
    st.integers(1, 4),
    st.dictionaries(st.sampled_from(SCHEMA_WORDS), json_values, max_size=6),
)
commands = st.sampled_from(["validate", "report"])
FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _small_members():
    return [name for name in ZOO_NAMES if build_member(name).dim <= 9]


def mutate(draw, doc):
    """doc with the entry at one drawn path replaced, deleted or repeated, in place."""
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
        if isinstance(node, dict):
            key = draw(st.sampled_from(sorted(node)))
        else:
            key = draw(st.integers(0, len(node) - 1))
        parent, node = node, node[key]
    action = draw(st.sampled_from(["replace", "delete", "repeat"]))
    if action == "replace":
        parent[key] = draw(json_values)
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.append(parent[key])
    else:
        parent[key] = [node, node]
    return doc


def _document(h):
    return json.loads(docio.dumps(docio.wha_to_document(h)))


@st.composite
def mutated_documents(draw):
    """A zoo document of dim <= 9 with one path mutated."""
    return mutate(draw, _document(build_member(draw(st.sampled_from(_small_members())))))


PAIR2 = _document(groupoid_algebra(pair_groupoid(2)))
DELTA_ONE = [[0, 0, "1"], [3, 3, "1"]]  # Delta(m11 + m22) of pair-2
Z2 = _document(group_algebra(cyclic_table(2)))


SCALARS = st.sampled_from(["0", "1", "-1", "2", "1/2"])


def mutate_entries(draw, lists, dim):
    """One edit of the [i, j, coeff] entry lists in ``lists``, well typed or not, in place.

    A path mutation (``mutate``) mostly breaks the shape; these edits keep
    it, so most reach the kernels: an index moved (out of range at -1 and
    dim), a scalar changed, an entry added or dropped.
    """
    entries = draw(st.sampled_from(lists))
    kind = draw(st.sampled_from(["index", "scalar", "add", "drop", "path"] if entries else ["add"]))
    fresh = [draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)), draw(SCALARS)]
    if kind == "add":
        entries.append(fresh)
    elif kind == "path":
        mutate(draw, entries)
    else:
        pos = draw(st.integers(0, len(entries) - 1))
        if kind == "drop":
            del entries[pos]
        elif not (isinstance(entries[pos], list) and len(entries[pos]) == 3):
            entries[pos] = fresh  # an earlier path mutation broke this entry
        elif kind == "index":
            entries[pos][draw(st.integers(0, 1))] = draw(st.integers(-1, dim))
        else:
            entries[pos][2] = draw(SCALARS)


@st.composite
def mutated_twists(draw):
    """The twist of pair-2 by Delta(1), with one to three entry edits."""
    doc = {"theta": [list(e) for e in DELTA_ONE], "theta_bar": [list(e) for e in DELTA_ONE]}
    for _ in range(draw(st.integers(1, 3))):
        mutate_entries(draw, [doc["theta"], doc["theta_bar"]], 4)
    return doc


@st.composite
def mutated_dynamicals(draw):
    """A dynamical twist document over k[Z2] with its J entries, group-likes or character keys edited."""
    doc = {
        "u": json.loads(json.dumps(Z2)),
        "grouplikes": [["1", "0"], ["0", "1"]],
        "j": {"0": [[0, 0, "1"]], "1": [[0, 0, "1"]]},
    }
    part = draw(st.sampled_from(["j", "j", "grouplikes", "key"]))
    if part == "j":
        for _ in range(draw(st.integers(1, 3))):
            mutate_entries(draw, [doc["j"]["0"], doc["j"]["1"]], 2)
    elif part == "grouplikes":
        vector = draw(st.sampled_from(doc["grouplikes"]))
        vector[draw(st.integers(0, 1))] = draw(SCALARS)
        if draw(st.booleans()):
            mutate(draw, doc["grouplikes"])
    else:
        doc["j"][draw(st.sampled_from(["2", "5", "01", "-1", "x"]))] = [[0, 0, "1"]]
    return doc


def run_cli_on(command, value):
    """(exit code, stdout, stderr) of ``whopf <command>`` reading the JSON text of value from stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(value))):
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command])
    return code, out.getvalue(), err.getvalue()


def run_twist(flag, tdoc, host=None):
    """(exit code, stdout, stderr) of ``whopf twist [host] <flag> <file holding tdoc>``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["twist"]
        if host is not None:
            argv.append(os.path.join(tmp, "host.json"))
            with open(argv[-1], "w", encoding="utf-8") as fh:
                json.dump(host, fh)
        path = os.path.join(tmp, "twist.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tdoc, fh)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + [flag, path])
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert not out and err
    if err:
        lines = err.splitlines()
        assert len(lines) == 1
        assert isinstance(json.loads(lines[0])["error"], str)


@FUZZ
@given(command=commands, value=json_values | headed_values)
def test_any_small_json_value_exits_cleanly(command, value):
    assert_clean_exit(*run_cli_on(command, value))


@FUZZ
@given(command=commands, doc=mutated_documents())
def test_mutated_zoo_documents_exit_cleanly(command, doc):
    assert_clean_exit(*run_cli_on(command, doc))


def test_the_unmutated_twists_are_accepted():
    code, out, err = run_twist("--twist", {"theta": DELTA_ONE, "theta_bar": DELTA_ONE}, host=PAIR2)
    assert code == 0 and not err and out
    dyn = {"u": Z2, "grouplikes": [["1", "0"], ["0", "1"]], "j": {"0": [[0, 0, "1"]], "1": [[0, 0, "1"]]}}
    code, out, err = run_twist("--dynamical", dyn)
    assert code == 0 and not err and out


@FUZZ
@given(tdoc=mutated_twists())
def test_mutated_twist_documents_exit_cleanly(tdoc):
    assert_clean_exit(*run_twist("--twist", tdoc, host=PAIR2))


@FUZZ
@given(doc=mutated_dynamicals())
def test_mutated_dynamical_documents_exit_cleanly(doc):
    assert_clean_exit(*run_twist("--dynamical", doc))
