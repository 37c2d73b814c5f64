"""One pass of a workload in a fresh process; prints one JSON line.

Usage: python3 perfbench/worker.py --workload zoo --seed 1 [--trace] [--setup-only]

Set-up is importing whopf (through its CLI module, as every ``whopf``
invocation does) and building the seeded item list; ``ready`` is the
CLOCK_MONOTONIC time at which the first item could start, so the caller can
measure set-up from the moment it spawned this process.  With ``--trace``
the tracer is installed before the items are built and its per-layer values
are added to the output.

Every pass also samples the machine's speed.  On this kind of shared
host the same pure-Python work runs up to 25 % faster or slower from one
ten-second stretch to the next, so raw pass times of ~30 s spread by about
a quarter across runs.  Every ``PROBE_INTERVAL_S`` a SIGALRM handler times a
fixed Fraction-arithmetic kernel (``SpeedProbe``); its duration against
``PROBE_REFERENCE_S`` gives the speed at that moment.  Each item's time,
minus the probes inside it, times the mean speed over those probes, is its
speed-normalized time: seconds on a host where the probe takes exactly
``PROBE_REFERENCE_S``.  Raw times are reported alongside.  Set-up time is
normalized by the caller, whose warm probe runs just before and after the
set-up worker: a probe timed inside a freshly started process swings far
more than set-up itself does.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
PROBE_INTERVAL_S = 0.25
PROBE_REFERENCE_S = 0.0025


def probe_kernel():
    """Fixed work resembling whopf's inner loops: Fraction arithmetic and dicts."""
    acc = Fraction(0)
    cells = {}
    for i in range(1, 400):
        acc += Fraction(1, i % 97 + 1) * Fraction(i % 7 + 1, 3)
        cells[i % 13] = acc
    return cells


def probe_speed(repeats=1):
    """Median speed factor over ``repeats`` timed runs of ``probe_kernel``."""
    speeds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        probe_kernel()
        speeds.append(PROBE_REFERENCE_S / (time.perf_counter() - t0))
    return statistics.median(speeds)


class SpeedProbe:
    """Times ``probe_kernel`` on a SIGALRM timer; samples are (item, speed factor)."""

    def __init__(self):
        self.item = None
        self.samples = []

    def _tick(self, _signum, _frame):
        self.samples.append((self.item, probe_speed()))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, results):
        """Add ``norm_s`` to every item; return the pass's mean speed factor."""
        speeds = {}
        for item, speed in self.samples:
            speeds.setdefault(item, []).append(speed)
        mean_speed = statistics.mean(f for _item, f in self.samples) if self.samples else 1.0
        for index, result in enumerate(results):
            inside = speeds.get(index, [])
            own = result["seconds"] - sum(PROBE_REFERENCE_S / f for f in inside)
            result["norm_s"] = own * (statistics.mean(inside) if inside else mean_speed)
        return mean_speed


def run_pass(items, markers):
    """Run every item; each marker's ``item`` is set to the running item's index."""
    markers = [m for m in markers if m is not None]
    results = []
    start = time.perf_counter()
    for index, item in enumerate(items):
        for marker in markers:
            marker.item = index
        t0 = time.perf_counter()
        error = None
        try:
            record, ok = item.run()
        except Exception as exc:  # one broken item must not end the pass
            record, ok, error = None, False, f"{type(exc).__name__}: {exc}"
        results.append(
            {
                "name": item.name,
                "hostile": item.hostile,
                "seconds": time.perf_counter() - t0,
                "ok": ok,
                "record": record,
                "error": error,
            }
        )
    return results, time.perf_counter() - start


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", help="write the traced pass's spans here")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    import whopf.cli  # noqa: F401  (imports every layer, as the CLI does)

    if not Path(whopf.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"whopf imported from {whopf.cli.__file__}, not from {SRC}")

    from workloads import build_items

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    items = build_items(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    with SpeedProbe() as probe:
        results, wall = run_pass(items, [probe, tracer])
    out = {
        "ready": ready,
        "wall_s": wall,
        "speed": probe.normalize(results),
        "norm_wall_s": sum(r["norm_s"] for r in results),
        "items": results,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["per_layer"], out["checks"] = tracer.per_layer(wall)
        if args.spans_out:
            tracer.dump_spans(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
