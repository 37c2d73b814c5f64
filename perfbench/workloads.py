"""Workload definitions: the items of one pass, built from a seed.

A workload is a list of items.  Each item is a name and a thunk; the thunk
drives whopf's public functions and returns ``(record, ok)``.  ``record`` is
the JSON-able output compared against the frozen expectation; ``ok`` says
whether the library itself reported success.  Hostile items return how
the document ended (an exception class name, or ``accepted``) and ``ok``,
which is true exactly when it was refused with a ``WhopfError`` subclass;
their endings are reported, not compared with a frozen record.

The seed permutes item order and picks the hostile mutations; the item set
is the same for every seed, and every hostile kind occurs ``HOSTILE_REPEATS``
times.  Everything here imports whopf lazily, so the module can be imported
before ``src`` is on the path.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("zoo", "ladder", "make")

HOSTILE_REPEATS = 2

HOSTILE_KINDS = (
    "scalar-div-zero",
    "mult-entry-not-list",
    "metadata-string",
    "cyclotomic-order-string",
    "dim-true",
    "bad-index",
    "wrong-arity",
    "schema-version",
)


@dataclass
class Item:
    name: str
    run: Callable[[], tuple]
    hostile: bool = False


def sorted_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# zoo and ladder: the check_member battery


def _check(build):
    from whopf.zoo import check_member

    def run():
        out = check_member(build())
        return sorted_json(out), bool(out.get("ok"))

    return run


def _zoo_items():
    from whopf.zoo import ZOO_NAMES, build_member

    return [Item(name, _check(lambda name=name: build_member(name))) for name in ZOO_NAMES]


def _named(h, name):
    h.name = name
    return h


def _ladder_items():
    from whopf.constructors import (
        SemisimplePresentation,
        groupoid_algebra,
        minimal_wha,
        pair_groupoid,
    )
    from whopf.wha import dualize

    builders = {
        "pair-5": lambda: groupoid_algebra(pair_groupoid(5), name="pair-5"),
        "dual-pair-5": lambda: _named(
            dualize(groupoid_algebra(pair_groupoid(5), name="pair-5")), "dual-pair-5"
        ),
        "hmin-12": lambda: minimal_wha(SemisimplePresentation(blocks=(1, 2)), name="hmin-12"),
    }
    return [Item(name, _check(build)) for name, build in builders.items()]


# ---------------------------------------------------------------------------
# make: build -> validate -> emit -> parse without antipode -> solve -> validate


def _via_document(h):
    """Round-trip through the interchange format, as a CLI pipe does."""
    from whopf import docio

    return docio.document_to_wha(docio.loads(docio.dumps(docio.wha_to_document(h))))


def _dyntwist_host(n):
    from whopf.constructors import cyclic_table, group_algebra
    from whopf.fields import CyclotomicField, QQ
    from whopf.twisting import DynamicalTwistData, dynamical_theta, twist
    from whopf.wha import Element

    u = group_algebra(cyclic_table(n), field=CyclotomicField(n) if n > 2 else QQ)
    eye = lambda j: tuple(1 if i == j else 0 for i in range(n))
    data = DynamicalTwistData(u=u, grouplikes=[Element(u, eye(j)) for j in range(n)])
    build = dynamical_theta(data)
    return twist(build.host, build.twist, name=f"dyn-twist-z{n}")


def _make_builders():
    from whopf.constructors import (
        SemisimplePresentation,
        cyclic_table,
        group_algebra,
        groupoid_algebra,
        minimal_wha,
        pair_groupoid,
        symmetric_table,
        tensor_product,
    )
    from whopf.fields import CyclotomicField
    from whopf.twisting import regularize

    def g(*blocks):
        return [[Fraction(x) for x in blk] for blk in blocks]

    return {
        "dyn-z3": lambda: _dyntwist_host(3),
        "dyn-z2": lambda: _dyntwist_host(2),
        "pair2xpair2": lambda: tensor_product(
            _via_document(groupoid_algebra(pair_groupoid(2))),
            _via_document(groupoid_algebra(pair_groupoid(2))),
        ),
        "s3xz2": lambda: tensor_product(
            _via_document(group_algebra(symmetric_table(3))),
            _via_document(group_algebra(cyclic_table(2))),
        ),
        "z7-cyc": lambda: group_algebra(cyclic_table(7), field=CyclotomicField(7)),
        "hmin-12-g": lambda: minimal_wha(SemisimplePresentation(blocks=(1, 2), g=g([1], [3, -1]))),
        "reg-hmin-m2-g31": lambda: regularize(
            _via_document(minimal_wha(SemisimplePresentation(blocks=(2,), g=g([3, -1]))))
        )[0],
    }


def _make_item(build, emitted, key):
    from whopf import docio
    from whopf.wha import solve_antipode, validate_full

    def run():
        h = build()
        made = validate_full(h)
        text = docio.dumps(docio.wha_to_document(h))
        emitted[key] = text
        doc = docio.loads(text)
        doc.pop("antipode", None)
        h2 = docio.document_to_wha(doc)
        h2.antipode = solve_antipode(h2)
        checked = validate_full(h2)
        record = sorted_json(
            {
                "digest": hashlib.sha256(text.encode()).hexdigest(),
                "make_report": made.as_dict(),
                "validate_report": checked.as_dict(),
            }
        )
        return record, made.ok and checked.ok

    return run


def _one_dim_text():
    from whopf import docio
    from whopf.constructors import cyclic_table, group_algebra

    return docio.dumps(docio.wha_to_document(group_algebra(cyclic_table(1), name="trivial")))


def mutate(kind, doc, rng):
    """Apply one hostile mutation to a parsed document, in place."""
    mult = doc["mult"]
    pos = rng.randrange(len(mult))
    if kind == "scalar-div-zero":
        mult[pos][3] = "1/0"
    elif kind == "mult-entry-not-list":
        mult[pos] = rng.choice([7, None, 1.5])
    elif kind == "metadata-string":
        doc["metadata"] = doc["metadata"]["name"]
    elif kind == "cyclotomic-order-string":
        doc["field"]["order"] = str(doc["field"]["order"])
    elif kind == "dim-true":
        doc["dim"] = True
    elif kind == "bad-index":
        mult[pos][rng.randrange(3)] = doc["dim"] + rng.randrange(3)
    elif kind == "wrong-arity":
        mult[pos] = mult[pos][:3]
    elif kind == "schema-version":
        doc["schema_version"] = rng.choice(["0", "2", 1, None])
    else:
        raise ValueError(f"unknown hostile kind {kind!r}")
    return doc


def _hostile_item(kind, source, emitted, rng_seed):
    from whopf import docio
    from whopf.errors import WhopfError
    from whopf.wha import solve_antipode, validate_full

    def run():
        text = _one_dim_text() if source == "trivial" else emitted[source]
        doc = mutate(kind, json.loads(text), random.Random(rng_seed))
        try:
            h = docio.document_to_wha(docio.loads(json.dumps(doc)))
            if h.antipode is None:
                h.antipode = solve_antipode(h)
            validate_full(h)
        except WhopfError as exc:
            return type(exc).__name__, True
        except Exception as exc:  # an untyped crash is what this item measures
            return type(exc).__name__, False
        return "accepted", False  # a hostile document must be refused

    return run


def _sources(kind, builders):
    if kind == "dim-true":
        return ["trivial"]
    if kind == "cyclotomic-order-string":
        return ["dyn-z3", "z7-cyc"]
    return sorted(builders)


def _make_items(rng):
    builders = _make_builders()
    emitted = {}
    items = [Item(name, _make_item(build, emitted, name)) for name, build in builders.items()]
    rng.shuffle(items)
    hostile = []
    for kind in HOSTILE_KINDS:
        for rep in range(HOSTILE_REPEATS):
            source = rng.choice(_sources(kind, builders))
            hostile.append(
                Item(
                    f"hostile:{kind}:{rep}:{source}",
                    _hostile_item(kind, source, emitted, rng.getrandbits(32)),
                    hostile=True,
                )
            )
    rng.shuffle(hostile)
    return items + hostile


def build_items(workload, seed):
    """The items of one pass of ``workload``, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "make":
        return _make_items(rng)
    items = _zoo_items() if workload == "zoo" else _ladder_items()
    rng.shuffle(items)
    return items
