"""Capture median-of-3 wall-clock replays per workload and tier.

Used once per release to pin the previous PR's wall-clock numbers that the
speed gate (``benchmarks/check_speed.py``) compares against, and by hand to
sanity-check speedups without a full harness run (no autotuner, no
instrumented replay).

Usage::

    PYTHONPATH=src python -m benchmarks.capture_wallclock out.json [--quick]
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from .harness import make_tier, replay
from .workloads import build_workloads

TIERS = ("reference", "compiled")
REPEAT = 3


def capture(quick: bool = False) -> dict:
    report: dict = {"meta": {"mode": "quick" if quick else "default", "repeat": REPEAT}}
    workloads = {}
    for workload in build_workloads(quick=quick):
        tiers = {}
        for tier in TIERS:
            samples = []
            for _ in range(REPEAT):
                relation = make_tier(tier, workload)
                started = time.perf_counter()
                replay(relation, workload.trace)
                samples.append(time.perf_counter() - started)
            tiers[tier] = {
                "median_seconds": round(statistics.median(samples), 6),
                "samples": [round(s, 6) for s in samples],
            }
            print(
                f"{workload.name:16s} {tier:12s} median "
                f"{tiers[tier]['median_seconds']:.4f}s",
                file=sys.stderr,
            )
        workloads[workload.name] = {"ops": len(workload.trace), "tiers": tiers}
    report["workloads"] = workloads
    return report


def main(argv) -> int:
    args = [a for a in argv[1:] if a != "--quick"]
    quick = "--quick" in argv[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    report = capture(quick=quick)
    with open(args[0], "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args[0]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
