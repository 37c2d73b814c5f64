"""JSON interchange format for weak Hopf algebras given by structure constants.

Documents are sparse: multiplication and comultiplication are triple lists
[i, j, k, coeff], unit/counit are pair lists [i, coeff], the optional
antipode is a matrix-entry list [row, col, coeff].  Scalars are strings in
the exact-scalar grammar ("p", "p/q", polynomials in z for cyclotomic
fields), never floats.  Emission is canonical (entries sorted, keys sorted),
so parse -> emit -> parse is the identity and emitted bytes are reproducible.
A repeated entry (the same index tuple twice) is refused, not overwritten.

Two more document kinds feed ``whopf twist``: a twist document
{"theta": [[i, j, coeff], ...], "theta_bar": [...]} over the algebra being
twisted, and a dynamical twist document {"u": <algebra document>,
"grouplikes": [[coeff, ...], ...], "j": {"<character index>": [[i, j, coeff],
...]}}.  A document of any kind that does not have its shape raises ParseError.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError
from .fields import Cyc, make_field
from .linalg import Matrix
from .twisting import DynamicalTwistData, Twist
from .wha import Element, WeakHopfAlgebra

__all__ = [
    "document_to_dynamical",
    "document_to_twist",
    "document_to_wha",
    "wha_to_document",
    "dumps",
    "loads",
]

SCHEMA_VERSION = "1"


def wha_to_document(h, name=None, metadata=None):
    fmt = _formatter(h.field)
    mult = []
    for (i, j), cell in sorted(h.mult.items()):
        for k, c in sorted(cell.items()):
            mult.append([i, j, k, fmt(c)])
    comult = []
    for i in range(h.dim):
        for (j, k), c in sorted(h.comult[i].items()):
            comult.append([i, j, k, fmt(c)])
    unit = [[i, fmt(c)] for i, c in enumerate(h.unit) if c]
    counit = [[i, fmt(c)] for i, c in enumerate(h.counit) if c]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "field": h.field.spec(),
        "dim": h.dim,
        "basis": list(h.labels),
        "mult": mult,
        "comult": comult,
        "unit": unit,
        "counit": counit,
        "metadata": dict(metadata or {}, name=name or h.name),
    }
    if h.antipode is not None:
        doc["antipode"] = [
            [i, j, fmt(c)] for i, row in enumerate(h.antipode.sparse_rows) for j, c in sorted(row.items())
        ]
    return doc


def _formatter(field):
    """``field.format`` for one document, each distinct scalar formatted once.

    A Cyc is keyed on its (num, den), which hashes without building the
    Fractions that ``Cyc.__hash__`` builds.
    """
    memo = {}

    def fmt(c):
        key = (c.num, c.den) if type(c) is Cyc else c
        text = memo.get(key)
        if text is None:
            text = memo[key] = field.format(c)
        return text

    return fmt


def _field_from_doc(doc):
    spec = doc.get("field")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError("missing or malformed field spec")
    return make_field(spec["kind"], spec.get("order"))


def _entries(doc, key, shape):
    """The list of ``key`` entries, each a list of ``len(shape)`` items."""
    form = f"[{', '.join(shape)}]"
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{key} must be a list of {form} entries")
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != len(shape):
            raise ParseError(f"{key} entry {entry!r} must be {form}")
    return entries


def _scalar(field, text, parsed=None):
    """The scalar of the string ``text``; ``parsed`` keeps the scalars of strings parsed before."""
    if not isinstance(text, str):
        raise ParseError(f"scalar {text!r} must be a string")
    if parsed is None:
        return field.parse(text)
    got = parsed.get(text)
    if got is None:
        got = parsed[text] = field.parse(text)
    return got


def _index(i, dim):
    if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < dim:
        raise ParseError(f"index {i!r} out of range")
    return i


def _table(doc, key, shape, field, dim, parsed=None):
    """{index tuple: scalar} of the ``key`` entries; a repeated index tuple is a ParseError.

    ``parsed`` is handed to ``_scalar``.
    """
    out = {}
    for *idx, c in _entries(doc, key, shape):
        c = _scalar(field, c, parsed)
        idx = tuple(_index(i, dim) for i in idx)
        if idx in out:
            raise ParseError(f"{key} entry {list(idx)} is repeated")
        out[idx] = c
    return out


def document_to_wha(doc):
    if not isinstance(doc, dict):
        raise ParseError("document is not a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    field = _field_from_doc(doc)
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dim must be a positive integer")
    basis = doc.get("basis") or [f"e{i}" for i in range(dim)]
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise ParseError("basis must be a list of label strings")
    if len(basis) != dim:
        raise ParseError("basis labels do not match dim")
    metadata = doc.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise ParseError("metadata must be a JSON object")
    name = metadata.get("name", "H")
    if not isinstance(name, str):
        raise ParseError("metadata name must be a string")

    # each distinct scalar string of the document is parsed once
    triple, parsed = ("i", "j", "k", "coeff"), {}
    mult = {}
    for (i, j, k), c in _table(doc, "mult", triple, field, dim, parsed).items():
        mult.setdefault((i, j), {})[k] = c
    comult = [dict() for _ in range(dim)]
    for (i, j, k), c in _table(doc, "comult", triple, field, dim, parsed).items():
        comult[i][j, k] = c
    unit = [field.zero()] * dim
    for (i,), c in _table(doc, "unit", ("i", "coeff"), field, dim, parsed).items():
        unit[i] = c
    counit = [field.zero()] * dim
    for (i,), c in _table(doc, "counit", ("i", "coeff"), field, dim, parsed).items():
        counit[i] = c
    antipode = None
    if "antipode" in doc:
        rows = [{} for _ in range(dim)]
        for (i, j), c in _table(doc, "antipode", ("i", "j", "coeff"), field, dim, parsed).items():
            rows[i][j] = c
        antipode = Matrix._sums(field, rows, dim)
    return WeakHopfAlgebra(
        field, basis, mult, unit, comult, counit, antipode=antipode, name=name
    )


def document_to_twist(doc, h):
    """The Twist of {"theta": [[i, j, coeff], ...], "theta_bar": [...]} over h.

    A missing list is the zero tensor; indices must be basis indices of h.
    """
    if not isinstance(doc, dict):
        raise ParseError("twist document is not a JSON object")
    pair = ("i", "j", "coeff")
    return Twist(
        theta=_table(doc, "theta", pair, h.field, h.dim),
        theta_bar=_table(doc, "theta_bar", pair, h.field, h.dim),
    )


def document_to_dynamical(doc):
    """DynamicalTwistData of {"u": document, "grouplikes": [[coeff, ...], ...], "j": {...}}.

    Each group-like lists dim(U) scalars.  The optional "j" maps character
    indices, written as decimal strings without leading zeros and below the
    number of group-likes, to [i, j, coeff] entries of a tensor in U (x) U.
    """
    if not isinstance(doc, dict):
        raise ParseError("dynamical twist document is not a JSON object")
    if "u" not in doc:
        raise ParseError("dynamical twist document has no u document")
    u = document_to_wha(doc["u"])
    vectors = doc.get("grouplikes")
    if not isinstance(vectors, list) or not all(
        isinstance(v, list) and len(v) == u.dim for v in vectors
    ):
        raise ParseError(f"grouplikes must be a list of lists of {u.dim} scalars")
    grouplikes = [Element(u, [_scalar(u.field, c) for c in v]) for v in vectors]
    j = doc.get("j") or None
    if j is not None:
        if not isinstance(j, dict) or not all(re.fullmatch("0|[1-9][0-9]*", key) for key in j):
            raise ParseError("j must map decimal character indices to [i, j, coeff] lists")
        for key in j:
            # without leading zeros a longer key is larger, and int() refuses overlong ones
            if len(key) > len(str(len(grouplikes))) or int(key) >= len(grouplikes):
                raise ParseError(f"j names character {key}, but there are {len(grouplikes)} group-likes")
        j = {
            int(key): _table({"j": entries}, "j", ("i", "j", "coeff"), u.field, u.dim)
            for key, entries in j.items()
        }
    return DynamicalTwistData(u=u, grouplikes=grouplikes, j=j)


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer literal above the int digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
