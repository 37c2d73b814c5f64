"""Spans and counters installed around whopf's layer entry points.

Nothing inside whopf is edited.  ``Tracer.install`` wraps each traced
function and rebinds every module-level name and class attribute that *is*
that function, so ``from .x import f`` copies held by other modules are
traced too.  Layer entry points get spans (name, start, end, parent, item);
scalar-level functions get counters only.  Spans stay in memory until the
pass ends.

A span's self time is its duration minus the durations of its direct
children; ``per_layer`` turns spans and counters into the metrics listed in
``PER_LAYER``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from functools import update_wrapper

# module -> functions that get a span named "<module>.<function>"
SPAN_FUNCTIONS = {
    "wha": ("validate_full", "solve_antipode", "dualize"),
    "linalg": ("rref", "solve_sparse"),
    "integrals": (
        "integral_space",
        "canonical_dual_pair",
        "invariance_check",
        "antipode_from_integrals",
        "semisimple_by_trace_form",
    ),
    "grouplikes": ("distinguished_pair", "radford_check", "lambda_ell_relations"),
    "semisimplicity": ("semisimplicity_report", "primitive_idempotents"),
    "constructors": (
        "function_algebra",
        "group_algebra",
        "groupoid_algebra",
        "matrix_wha",
        "minimal_wha",
        "sweedler_hopf",
        "tensor_product",
    ),
    "twisting": ("dynamical_theta", "twist", "regularize"),
    "docio": ("loads", "document_to_wha", "wha_to_document", "dumps"),
    "zoo": ("check_member",),
}

SPAN_NAMES = {f"{module}.{fname}" for module, names in SPAN_FUNCTIONS.items() for fname in names}

# counter name -> (module, class, method) triples counted per call
CALL_COUNTERS = {
    "fields.coerce.calls": [("fields", "RationalField", "coerce"), ("fields", "CyclotomicField", "coerce")],
    "fields.cyc_mul.calls": [("fields", "Cyc", "__mul__")],
    "fields.cyc_inv.calls": [("fields", "Cyc", "inv")],
    "linalg.matrix.new": [("linalg", "Matrix", "__init__")],
    "linalg.matmul.calls": [("linalg", "Matrix", "__matmul__")],
    "wha.mult_matrix.calls": [
        ("wha", "WeakHopfAlgebra", "left_mult_matrix"),
        ("wha", "WeakHopfAlgebra", "right_mult_matrix"),
    ],
    "wha.mul_pair_dicts.calls": [("wha", "WeakHopfAlgebra", "mul_pair_dicts")],
}

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "wha.mul_triple_dicts.pairs": "count",
    "wha.validate_full.calls": "count",
    "wha.validate_full.self_s": "s",
    "wha.mult_matrix.calls": "count",
    "wha.mul_pair_dicts.calls": "count",
    "wha.solve_antipode.self_s": "s",
    "wha.dualize.self_s": "s",
    "integrals.semisimple_by_trace_form.self_s": "s",
    "integrals.integral_space.calls": "count",
    "integrals.integral_space.self_s": "s",
    "integrals.canonical_dual_pair.self_s": "s",
    "integrals.nondegenerate.tries": "count",
    "integrals.nondegenerate.hit_ratio": "ratio",
    "integrals.invariance_check.self_s": "s",
    "integrals.antipode_from_integrals.self_s": "s",
    "linalg.matmul.calls": "count",
    "linalg.matrix.new": "count",
    "linalg.rref.calls": "count",
    "linalg.rref.cells": "count",
    "linalg.rref.self_s": "s",
    "linalg.solve_sparse.calls": "count",
    "linalg.solve_sparse.rows": "count",
    "linalg.solve_sparse.self_s": "s",
    "fields.coerce.calls": "count",
    "fields.cyc_mul.calls": "count",
    "fields.cyc_inv.calls": "count",
    "semisimplicity.semisimplicity_report.self_s": "s",
    "semisimplicity.primitive_idempotents.self_s": "s",
    "grouplikes.distinguished_pair.self_s": "s",
    "grouplikes.radford_check.self_s": "s",
    "grouplikes.lambda_ell_relations.self_s": "s",
    "constructors.build.self_s": "s",
    "twisting.dynamical_theta.self_s": "s",
    "twisting.twist.self_s": "s",
    "twisting.regularize.self_s": "s",
    "docio.parse.self_s": "s",
    "docio.emit.self_s": "s",
    "docio.bytes": "bytes",
    "zoo.check_member.self_s": "s",
    "trace.unspanned_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def _whopf_namespaces():
    """Every whopf module and every class defined in one."""
    mods = [m for name, m in sys.modules.items() if name == "whopf" or name.startswith("whopf.")]
    classes = {
        id(v): v
        for m in mods
        for v in vars(m).values()
        if inspect.isclass(v) and getattr(v, "__module__", "").startswith("whopf")
    }
    return mods + list(classes.values())


class Tracer:
    """Spans and counters of one worker process; ``item`` tags new spans."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1, item]
        self.stack = []
        self.counts = defaultdict(int)
        self.item = None

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn, weigh=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if weigh is not None:
                args = weigh(counts, args)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return update_wrapper(wrapper, fn)

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return update_wrapper(wrapper, fn)

    # -- installation --------------------------------------------------------

    def install(self):
        mod = lambda name: importlib.import_module("whopf." + name)
        namespaces = _whopf_namespaces()
        weighers = {
            "linalg.rref": _weigh_rref,
            "linalg.solve_sparse": _weigh_solve_sparse,
            "docio.loads": _weigh_loads,
        }
        for module, names in SPAN_FUNCTIONS.items():
            for fname in names:
                name = f"{module}.{fname}"
                orig = getattr(mod(module), fname)
                _rebind(namespaces, orig, self._span(name, orig, weighers.get(name)))
        dumps = mod("docio").dumps
        _rebind(namespaces, dumps, self._count_result_len(dumps, "docio.bytes"))
        for key, targets in CALL_COUNTERS.items():
            for module, cls, meth in targets:
                orig = vars(getattr(mod(module), cls))[meth]
                _rebind(namespaces, orig, self._counter(key, orig))
        wha = mod("wha").WeakHopfAlgebra
        orig = vars(wha)["mul_triple_dicts"]
        _rebind(namespaces, orig, self._pairs(orig))
        orig = mod("integrals").is_nondegenerate
        _rebind(namespaces, orig, self._nondegenerate(orig))

    def _count_result_len(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[key] += len(out)
            return out

        return update_wrapper(wrapper, fn)

    def _pairs(self, fn):
        counts = self.counts

        def wrapper(self_, p, q):
            counts["wha.mul_triple_dicts.pairs"] += len(p) * len(q)
            return fn(self_, p, q)

        return update_wrapper(wrapper, fn)

    def _nondegenerate(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["integrals.nondegenerate.tries"] += 1
            out = fn(*args, **kwargs)
            if out:
                counts["integrals.nondegenerate.hits"] += 1
            return out

        return update_wrapper(wrapper, fn)

    # -- results -------------------------------------------------------------

    def self_times(self):
        """Self nanoseconds per span name, and whether any self time was < 0."""
        child = [0] * len(self.spans)
        for _name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(int)
        negative = False
        for (name, start, end, _parent, _item), inner in zip(self.spans, child):
            own = end - start - inner
            negative = negative or own < 0
            out[name] += own
        return out, negative

    def per_layer(self, wall_s):
        """Per-layer metric values (overhead excluded) and the self-check verdict."""
        own, negative = self.self_times()
        total_self = sum(own.values()) / 1e9
        sec = lambda *names: sum(own.get(n, 0) for n in names) / 1e9
        by_prefix = lambda prefix: sum(v for k, v in own.items() if k.startswith(prefix)) / 1e9
        c = self.counts
        values = {k: c[k] for k, unit in PER_LAYER.items() if unit == "count"}
        for name in PER_LAYER:
            if name.removesuffix(".self_s") in SPAN_NAMES:
                values[name] = sec(name.removesuffix(".self_s"))
        tries = c["integrals.nondegenerate.tries"]
        values.update(
            {
                "integrals.nondegenerate.hit_ratio": c["integrals.nondegenerate.hits"] / tries if tries else 0.0,
                "constructors.build.self_s": by_prefix("constructors."),
                "docio.parse.self_s": sec("docio.loads", "docio.document_to_wha"),
                "docio.emit.self_s": sec("docio.wha_to_document", "docio.dumps"),
                "docio.bytes": c["docio.bytes"],
                "trace.unspanned_s": wall_s - total_self,
                "trace.spans": len(self.spans),
            }
        )
        checks = {"self_nonnegative": not negative, "self_within_wall": total_self <= wall_s}
        return values, checks

    def dump_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "item"], "spans": self.spans}, fh)


def _weigh_rref(counts, args):
    rows = [tuple(r) for r in args[0]]
    counts["linalg.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    return (rows,) + args[1:]


def _weigh_solve_sparse(counts, args):
    rows = list(args[0])
    counts["linalg.solve_sparse.rows"] += len(rows)
    return (rows,) + args[1:]


def _weigh_loads(counts, args):
    counts["docio.bytes"] += len(args[0])
    return args


def _rebind(namespaces, orig, wrapper):
    """Point every module global and class attribute that is ``orig`` at ``wrapper``."""
    found = False
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if value is orig:
                setattr(ns, key, wrapper)
                found = True
    if not found:
        raise LookupError(f"no binding of {orig!r} found to trace")
