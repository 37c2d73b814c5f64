"""Freeze the expected outputs of every workload from the current sources.

Usage (from the root of a checkout): python3 perfbench/freeze.py [workload ...]

Runs one untraced pass per workload in a fresh worker and writes
perfbench/expected/<workload>.json, mapping each non-hostile item to its
output record: the sorted-key ``check_member`` dict for zoo and ladder, and
the emitted-document digest plus both validation reports for make.
Refuses to freeze an item that failed.  Run it only on a commit whose
outputs are the reference; a speed-up counts only if outputs stay identical.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, BUDGET_S, spawn
from workloads import WORKLOADS


def main(argv):
    for workload in argv or WORKLOADS:
        out = spawn(time.monotonic() + BUDGET_S, "--workload", workload, "--seed", "0")
        frozen = {}
        for item in out["items"]:
            if item["hostile"]:
                continue
            if not item["ok"]:
                raise SystemExit(f"{workload}: item {item['name']} failed ({item['error']})")
            frozen[item["name"]] = item["record"]
        path = HERE / "expected" / f"{workload}.json"
        path.write_text(json.dumps(dict(sorted(frozen.items())), indent=1) + "\n")
        print(f"{path.name}: {len(frozen)} items frozen")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
