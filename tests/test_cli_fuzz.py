"""Hostile input to ``whopf validate`` and ``whopf report``, generated by Hypothesis.

Two kinds of input: any small JSON value (its dict keys drawn partly from
the document schema, and some under a valid version, field and dim head, so
they reach past the first shape checks), and zoo documents of dimension at most 9 with one path mutated (an entry
replaced by a small JSON value, deleted or repeated).  Every run must end
with exit 0, 1 or 2, never a traceback, and anything written to stderr must
be exactly one JSON line naming the error; an exit 2 must write it.  The
runs are derandomized, so the same cases run every time.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from whopf import docio
from whopf.cli import main
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


@st.composite
def mutated_documents(draw):
    """A zoo document of dim <= 9 with the entry at one drawn path replaced, deleted or repeated."""
    h = build_member(draw(st.sampled_from(_small_members())))
    doc = json.loads(docio.dumps(docio.wha_to_document(h)))
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


def run_cli_on(command, value):
    """(exit code, stdout, stderr) of ``whopf <command>`` reading the JSON text of value from stdin."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(value))):
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command])
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
