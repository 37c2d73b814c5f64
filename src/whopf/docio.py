"""JSON interchange format for weak Hopf algebras given by structure constants.

Documents are sparse: multiplication and comultiplication are triple lists
[i, j, k, coeff], unit/counit are pair lists [i, coeff], the optional
antipode is a matrix-entry list [row, col, coeff].  Scalars are strings in
the exact-scalar grammar ("p", "p/q", polynomials in z for cyclotomic
fields), never floats.  Emission is canonical (entries sorted, keys sorted),
so parse -> emit -> parse is the identity and emitted bytes are reproducible.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .fields import make_field
from .linalg import Matrix
from .wha import WeakHopfAlgebra

__all__ = ["document_to_wha", "wha_to_document", "dumps", "loads"]

SCHEMA_VERSION = "1"


def wha_to_document(h, name=None, metadata=None):
    fmt = h.field.format
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
            [i, j, fmt(h.antipode[i, j])]
            for i in range(h.dim)
            for j in range(h.dim)
            if h.antipode[i, j]
        ]
    return doc


def _field_from_doc(doc):
    spec = doc.get("field")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ParseError("missing or malformed field spec")
    try:
        return make_field(spec["kind"], spec.get("order"))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


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

    def scalar(text):
        if not isinstance(text, str):
            raise ParseError(f"scalar {text!r} must be a string")
        return field.parse(text)

    def index(i):
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < dim:
            raise ParseError(f"index {i!r} out of range")
        return i

    mult = {}
    for i, j, k, c in _entries(doc, "mult", ("i", "j", "k", "coeff")):
        mult.setdefault((index(i), index(j)), {})[index(k)] = scalar(c)
    comult = [dict() for _ in range(dim)]
    for i, j, k, c in _entries(doc, "comult", ("i", "j", "k", "coeff")):
        comult[index(i)][(index(j), index(k))] = scalar(c)
    unit = [field.zero()] * dim
    for i, c in _entries(doc, "unit", ("i", "coeff")):
        unit[index(i)] = scalar(c)
    counit = [field.zero()] * dim
    for i, c in _entries(doc, "counit", ("i", "coeff")):
        counit[index(i)] = scalar(c)
    antipode = None
    if "antipode" in doc:
        rows = [[field.zero()] * dim for _ in range(dim)]
        for i, j, c in _entries(doc, "antipode", ("i", "j", "coeff")):
            rows[index(i)][index(j)] = scalar(c)
        antipode = Matrix(field, rows)
    return WeakHopfAlgebra(
        field, basis, mult, unit, comult, counit, antipode=antipode, name=name
    )


def dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
