"""Command-line front end.

Subcommands:
  make      build a zoo-style algebra and emit its JSON document
  validate  check every axiom of a document (exit 0 pass / 1 fail / 2 parse)
  report    integrals, group-likes, Radford residual, traces, dual report
  twist     deform or twist a document (--q / --regularize / --twist / --dynamical)
  zoo       run the bundled example battery (deterministic output)

Documents travel on stdin/stdout as JSON (see docio); ``--out`` writes to a
file instead.  Errors are emitted as one JSON object on stderr.

``twist --twist T`` reads T = {"theta": [[i, j, coeff], ...], "theta_bar":
[...]} over the basis of the positional document.  ``twist --dynamical D``
takes no positional document and reads D = {"u": <algebra document>,
"grouplikes": [[coeff, ...], ...], "j": {"<character index>": [[i, j, coeff],
...]}}.  A malformed T or D exits 2 with one ParseError line, like any
malformed document; a well-formed T that is not a twist exits 1.  The only
environment knob is WHOPF_MAX_HEIGHT (default 8), the cap for deterministic
witness searches.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import docio
from .constructors import (
    SemisimplePresentation,
    cyclic_table,
    disjoint_union,
    function_algebra,
    group_algebra,
    groupoid_algebra,
    matrix_wha,
    minimal_wha,
    one_object_groupoid,
    pair_groupoid,
    symmetric_table,
    tensor_product,
)
from .errors import ParseError, WhopfError
from .fields import CyclotomicField, QQ
from .grouplikes import (
    distinguished_pair,
    is_grouplike,
    is_trivial_grouplike,
    lambda_ell_relations,
    radford_check,
    self_intertwiners,
)
from .integrals import canonical_dual_pair, invariance_check
from .semisimplicity import semisimplicity_report
from .twisting import DynamicalTwistData, deform_q, dynamical_theta, regularize, twist
from .wha import Element, validate_full
from .zoo import format_zoo_report, run_zoo

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2


def _emit(doc, out_path):
    text = docio.dumps(doc) if isinstance(doc, dict) else doc
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(code, kind, message):
    sys.stderr.write(json.dumps({"error": kind, "message": message}, sort_keys=True) + "\n")
    return code


def _read_doc(path):
    if path and path != "-":
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return docio.document_to_wha(docio.loads(text))


# ---------------------------------------------------------------------------
# make


def _int_list(text, flag):
    """Comma list of integers from a command-line flag; anything else is a ParseError."""
    if text is None:
        raise ParseError(f"{flag} is required")
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ParseError(f"{flag} needs a comma list of integers, got {text!r}") from None


def _groupoid_from_args(args):
    if args.pair is not None:
        return pair_groupoid(args.pair)
    if args.cyclic is not None:
        return one_object_groupoid(cyclic_table(args.cyclic))
    if args.disjoint_cyclic:
        orders = _int_list(args.disjoint_cyclic, "--disjoint-cyclic")
        g = one_object_groupoid(cyclic_table(orders[0]))
        for n in orders[1:]:
            g = disjoint_union(g, one_object_groupoid(cyclic_table(n)))
        return g
    raise ParseError("choose one of --pair, --cyclic, --disjoint-cyclic")


def _field_from_args(args):
    """QQ without --zeta or for orders 1 and 2, else Q(zeta_N); an order below 1 is a ParseError."""
    zeta = getattr(args, "zeta", None)
    if zeta is None or zeta in (1, 2):
        return QQ
    if zeta < 1:
        raise ParseError(f"--zeta needs a positive order, got {zeta}")
    return CyclotomicField(zeta)


def cmd_make(args):
    field = _field_from_args(args)
    if args.kind == "groupoid":
        h = groupoid_algebra(_groupoid_from_args(args), field=field)
    elif args.kind == "functions":
        h = function_algebra(_groupoid_from_args(args), field=field)
    elif args.kind == "group":
        if args.cyclic is not None:
            h = group_algebra(cyclic_table(args.cyclic), field=field)
        elif args.sym is not None:
            h = group_algebra(symmetric_table(args.sym), field=field)
        else:
            raise ParseError("choose --cyclic N or --sym N")
    elif args.kind == "minimal":
        blocks = _int_list(args.blocks, "--blocks")
        g = None
        if args.g:
            g = [[QQ.parse(x) for x in blk.split(",")] for blk in args.g.split(";")]
        h = minimal_wha(SemisimplePresentation(blocks=blocks, g=g), field=field)
    elif args.kind == "matrix":
        if args.size is None:
            raise ParseError("--size is required")
        h = matrix_wha(args.size, field=field)
    elif args.kind == "tensor":
        h = tensor_product(_read_doc(args.left), _read_doc(args.right))
    elif args.kind == "dyntwist-host":
        n = 2 if args.cyclic is None else args.cyclic
        ufield = CyclotomicField(n) if n > 2 else QQ
        u = group_algebra(cyclic_table(n), field=ufield)
        eye = lambda j: tuple(1 if i == j else 0 for i in range(n))
        data = DynamicalTwistData(u=u, grouplikes=[Element(u, eye(j)) for j in range(n)])
        build = dynamical_theta(data)
        h = twist(build.host, build.twist, name=f"dyn-twist-z{n}")
    else:
        raise ParseError(f"unknown kind {args.kind!r}")
    report = validate_full(h)
    if not report.ok:
        return _fail(EXIT_FAIL, "ValidationFailed", str([c.name for c in report.failures()]))
    _emit(docio.wha_to_document(h), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate / report


def cmd_validate(args):
    h = _read_doc(args.doc)
    if h.antipode is None:
        from .wha import solve_antipode

        h = h.with_antipode(solve_antipode(h))
    report = validate_full(h)
    _emit(json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if report.ok else EXIT_FAIL


def _section_integrals(h):
    left = h.left_integrals
    right = h.right_integrals
    out = {
        "dim_left": left.dim,
        "dim_right": right.dim,
        "dim_target_base": h.target_base.dim,
        "frobenius": left.dim == h.target_base.dim,
    }
    if not out["frobenius"]:
        out["error"] = "NotFrobenius"
        return out, False
    pair = canonical_dual_pair(h)
    fmt = h.field.format
    out["ell"] = [fmt(c) for c in pair.ell.coeffs]
    out["lambda"] = [fmt(c) for c in pair.lam.coeffs]
    out["invariance_residual_zero"] = invariance_check(h, pair) == []
    return out, out["invariance_residual_zero"]


def _section_grouplikes(h):
    space = self_intertwiners(h, h.eps)
    return {
        "self_intertwiner_dim": space.dim,
        "one_is_grouplike": is_grouplike(h, h.one),
        "one_is_trivial": is_trivial_grouplike(h, h.one)[0],
    }, True


def _section_radford(h):
    reg, _q = regularize(h)
    pair = canonical_dual_pair(reg)
    dp = distinguished_pair(reg, pair)
    fails = radford_check(reg, dp)
    rel_fails = lambda_ell_relations(reg, dp)
    fmt = reg.field.format
    out = {
        "regularized": reg is not h,
        "alpha": [fmt(c) for c in dp.alpha.coeffs],
        "a": [fmt(c) for c in dp.a.coeffs],
        "radford_residual": "0" if not fails else f"{len(fails)} basis failures",
        "relations_residual": "0" if not rel_fails else f"{len(rel_fails)} failures",
    }
    return out, not fails and not rel_fails


def _section_traces(h):
    rep = semisimplicity_report(h)
    return rep.as_dict(h.field), rep.ok and rep.tr_s2_direct == rep.tr_s2_formula


def cmd_report(args):
    h = _read_doc(args.doc)
    report = validate_full(h)
    if not report.ok:
        return _fail(EXIT_FAIL, "ValidationFailed", str([c.name for c in report.failures()]))
    sections = {}
    ok = True
    wanted = {
        "integrals": args.integrals,
        "grouplikes": args.grouplikes,
        "radford": args.radford,
        "traces": args.traces,
    }
    if not any(wanted.values()):
        wanted = {k: True for k in wanted}
    runners = {
        "integrals": _section_integrals,
        "grouplikes": _section_grouplikes,
        "radford": _section_radford,
        "traces": _section_traces,
    }
    targets = [("", h)]
    if args.dual:
        targets.append(("dual_", h.dual))
    for prefix, algebra in targets:
        for key, on in wanted.items():
            if not on:
                continue
            try:
                section, good = runners[key](algebra)
            except WhopfError as exc:
                section, good = {"error": type(exc).__name__, "message": str(exc)}, False
            sections[prefix + key] = section
            ok = ok and good
    _emit(json.dumps(sections, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# twist


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return docio.loads(fh.read())


def cmd_twist(args):
    if args.dynamical:
        if args.doc:
            raise ParseError("--dynamical takes no positional document: its host comes from u")
        build = dynamical_theta(docio.document_to_dynamical(_read_json(args.dynamical)))
        _emit(docio.wha_to_document(twist(build.host, build.twist)), args.out)
        return EXIT_OK
    h = _read_doc(args.doc)
    if args.q:
        q = Element(h, [h.field.parse(x) for x in args.q.split(",")])
        out = deform_q(h, q)
    elif args.regularize:
        out, _q = regularize(h)
    elif args.twist:
        out = twist(h, docio.document_to_twist(_read_json(args.twist), h))
    else:
        raise ParseError("choose one of --q, --regularize, --twist, --dynamical")
    _emit(docio.wha_to_document(out), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# zoo


def cmd_zoo(args):
    results = run_zoo(mutate=args.mutate)
    text = format_zoo_report(results)
    if args.json:
        text = json.dumps(results, indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return EXIT_OK if all(r["ok"] for r in results) else EXIT_FAIL


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="whopf",
        description="Exact computations with finite-dimensional weak Hopf algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make", help="build a structure-constant document")
    mk.add_argument(
        "kind",
        choices=["groupoid", "functions", "group", "minimal", "matrix", "tensor", "dyntwist-host"],
    )
    mk.add_argument("--pair", type=int, help="pair groupoid on N objects")
    mk.add_argument("--cyclic", type=int, help="cyclic group of order N")
    mk.add_argument("--sym", type=int, help="symmetric group on N letters")
    mk.add_argument("--disjoint-cyclic", help="comma list of cyclic orders, e.g. 2,2")
    mk.add_argument("--blocks", help="comma list of matrix block sizes, e.g. 2")
    mk.add_argument("--g", help="semicolon-separated diagonal of g per block, e.g. 3,-1")
    mk.add_argument("--size", type=int, help="matrix weak Hopf algebra size")
    mk.add_argument("--left", help="left tensor factor document")
    mk.add_argument("--right", help="right tensor factor document")
    mk.add_argument("--zeta", type=int, help="work over the cyclotomic field of this order")
    mk.add_argument("--out", help="write the document here instead of stdout")
    mk.set_defaults(func=cmd_make)

    va = sub.add_parser("validate", help="verify every axiom of a document")
    va.add_argument("doc", nargs="?", help="document path (default stdin)")
    va.add_argument("--out")
    va.set_defaults(func=cmd_validate)

    rp = sub.add_parser("report", help="integral/group-like/trace report")
    rp.add_argument("doc", nargs="?")
    rp.add_argument("--integrals", action="store_true")
    rp.add_argument("--grouplikes", action="store_true")
    rp.add_argument("--radford", action="store_true")
    rp.add_argument("--traces", action="store_true")
    rp.add_argument("--dual", action="store_true", help="also report on the dual")
    rp.add_argument("--out")
    rp.set_defaults(func=cmd_report)

    tw = sub.add_parser("twist", help="deform or twist a document")
    tw.add_argument("doc", nargs="?")
    tw.add_argument("--q", help="comma list of scalar coefficients of q")
    tw.add_argument("--regularize", action="store_true")
    tw.add_argument("--twist", help="twist document with theta/theta_bar entry lists")
    tw.add_argument("--dynamical", help="dynamical twist document (u, grouplikes, j)")
    tw.add_argument("--out")
    tw.set_defaults(func=cmd_twist)

    zo = sub.add_parser("zoo", help="run the bundled example battery")
    zo.add_argument("--run-all", action="store_true", help="verify every member")
    zo.add_argument("--json", action="store_true", help="emit raw JSON results")
    zo.add_argument("--mutate", help="corrupt the named member (test hook)")
    zo.add_argument("--out")
    zo.set_defaults(func=cmd_zoo)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(EXIT_PARSE, "ParseError", str(exc))
    except FileNotFoundError as exc:
        return _fail(EXIT_PARSE, "FileNotFound", str(exc))
    except WhopfError as exc:
        return _fail(EXIT_FAIL, type(exc).__name__, str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
