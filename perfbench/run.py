"""whopf benchmark: one run of one workload, printed as one JSON line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload zoo|ladder|make --seed N --seconds S --trace 0|1

Every pass runs in a fresh worker process (perfbench/worker.py), so no
algebra object, ``lru_cache`` entry or ``cached_property`` value carries over
between passes; workers run one at a time.  A run spawns half of
``SETUP_SAMPLES`` set-up-only workers, runs untraced passes until
``--seconds`` have elapsed (at least one), then spawns the other half.
With ``--trace 1`` two traced passes follow; their per-layer metrics are
reported instead of the end-to-end ones, after self-checks: traced outputs
equal untraced ones, every count repeats exactly across the two traced
passes, and self times are non-negative and sum to at most the pass wall
time.

Every item's output is compared with the expectations frozen in
perfbench/expected/ (see freeze.py).  Human-readable lines (run metadata,
medians with quartiles and sample counts, fail_ratio, tracing overhead)
come first; the last line of stdout is the result object.  The full result,
stamped with run metadata, is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER
from worker import probe_speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_SAMPLES = 12  # half before the untraced passes, half after
SETUP_PROBES = 5
BUDGET_S = 170  # a run must finish within 180 s
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")

END_TO_END = {"wall_s": "s", "slowest_item_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
INFO = {"raw_wall_s": "s", "raw_setup_s": "s", "speed": "x"}  # printed, not gated


class BenchError(Exception):
    pass


def spawn(deadline, *args):
    """Run one worker to completion; returns its JSON with ``setup_s`` added."""
    started = time.monotonic()
    if started >= deadline:
        raise BenchError("time budget exhausted before the run finished")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            capture_output=True,
            text=True,
            timeout=deadline - started,
            env=WORKER_ENV,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-4000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - started
    return out



def setup_sample(deadline, base):
    """Raw and speed-normalized set-up time of one set-up-only worker.

    The speed factor is this process's probe (see worker.py) just before and
    just after the worker, so set-up is scaled like the passes are.
    """
    before = probe_speed(SETUP_PROBES)
    raw = spawn(deadline, *base, "--setup-only")["setup_s"]
    return raw, raw * (before + probe_speed(SETUP_PROBES)) / 2


def judge(passes, expected):
    """Count attempted and failed items; list output mismatches."""
    attempted = failed = 0
    mismatches = []
    for p in passes:
        for item in p["items"]:
            attempted += 1
            bad = not item["ok"]
            if not item["hostile"] and item["record"] != expected.get(item["name"]):
                mismatches.append(item["name"] + (f" ({item['error']})" if item["error"] else ""))
                bad = True
            failed += bad
    return attempted, failed, mismatches


def spread(values):
    """(median, q1, q3) of the samples."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def commit_id():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def end_to_end(passes, setups):
    """Samples of every end-to-end metric; times are speed-normalized (see worker.py)."""
    samples = {
        "wall_s": [p["norm_wall_s"] for p in passes],
        "slowest_item_s": [max(i["norm_s"] for i in p["items"]) for p in passes],
        "setup_s": [norm for _raw, norm in setups],
        "peak_rss_mb": [p["maxrss_kb"] / 1024 for p in passes],
        "raw_wall_s": [p["wall_s"] for p in passes],
        "raw_setup_s": [raw for raw, _norm in setups],
        "speed": [p["speed"] for p in passes],
    }
    return {name: spread(values) + (len(values),) for name, values in samples.items()}


def traced_metrics(untraced, traced, checks):
    """Per-layer values from two traced passes, plus their self-checks."""
    first, second = (t["per_layer"] for t in traced)
    counts = [k for k, unit in PER_LAYER.items() if unit in ("count", "bytes")]
    checks["counts_repeat"] = all(first[k] == second[k] for k in counts)
    checks["traced_outputs_equal_untraced"] = all(
        [i["record"] for i in t["items"]] == [i["record"] for i in untraced[0]["items"]]
        for t in traced
    )
    for t in traced:
        for name, ok in t["checks"].items():
            checks[name] = checks.get(name, True) and ok
    values = {}
    for k, unit in PER_LAYER.items():
        if k == "trace.overhead_ratio":
            continue
        values[k] = first[k] if k in counts else (first[k] + second[k]) / 2
    untraced_wall = statistics.median(p["norm_wall_s"] for p in untraced)
    values["trace.overhead_ratio"] = statistics.mean(t["norm_wall_s"] for t in traced) / untraced_wall - 1
    return values


def run(args):
    deadline = time.monotonic() + BUDGET_S
    if not (ROOT / "src" / "whopf" / "__init__.py").is_file():
        raise BenchError(f"no whopf sources under {ROOT / 'src'}; run from the root of a checkout")
    expected = json.loads((HERE / "expected" / f"{args.workload}.json").read_text())
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }
    print("# meta " + json.dumps(meta))
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = [setup_sample(deadline, base) for _ in range(SETUP_SAMPLES // 2)]
    passes = []
    measure_start = time.monotonic()
    while not passes or time.monotonic() - measure_start < args.seconds:
        passes.append(spawn(deadline, *base))
    setups += [setup_sample(deadline, base) for _ in range(SETUP_SAMPLES - len(setups))]
    OUT.mkdir(exist_ok=True)
    traced = []
    if args.trace:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        traced = [spawn(deadline, *base, "--trace", "--spans-out", str(spans)), spawn(deadline, *base, "--trace")]

    attempted, failed, mismatches = judge(passes + traced, expected)
    summary = end_to_end(passes, setups)
    for name, (med, q1, q3, n) in summary.items():
        unit = END_TO_END.get(name) or INFO[name]
        print(f"{name:<16} {med:12.4f} {unit:<3} median of {n}, q1 {q1:.4f}, q3 {q3:.4f}")
    print(f"{'fail_ratio':<16} {failed / attempted:12.4f}     {failed} failed of {attempted} attempted")
    for name in mismatches:
        print(f"# output differs from the frozen expectation: {name}")
    endings = sorted({f"{i['name'].split(':')[1]}={i['record']}" for i in passes[0]["items"] if i["hostile"]})
    if endings:
        print("# hostile endings: " + " ".join(endings))

    checks = {}
    if args.trace:
        values = traced_metrics(passes, traced, checks)
        print(f"# tracing overhead {values['trace.overhead_ratio']:+.3f} of untraced wall_s")
        print("# trace self-checks " + json.dumps(checks))
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    else:
        metrics = {k: {"value": summary[k][0], "unit": unit} for k, unit in END_TO_END.items()}

    result = {
        "correct": not mismatches and all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, meta=meta, fail_ratio=failed / attempted, summary=summary, checks=checks)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one whopf benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
