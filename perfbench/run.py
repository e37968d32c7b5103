"""The repository benchmark: one workload, one seed, one result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_read --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace
1`` makes the separate traced run: per-layer spans and counts, the tracing
overhead, and a span file under ``perfbench/out/``.  Workloads,
metrics and bounds are declared in ``BENCHMARK.json``.

The interpreter runs with ``PYTHONHASHSEED=0`` (the script re-executes
itself when the variable differs), so counts and memory figures repeat
exactly.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report.  The library is imported from ``src/`` next to
this directory; without it the script exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HASH_SEED = "0"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no library source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench import bench

    workload_cls = bench.WORKLOADS.get(args.workload)
    if workload_cls is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(bench.WORKLOADS)}")
    workload = workload_cls(args.seed)
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}.spans.gz")
        header = {"workload": args.workload, "seed": args.seed, "environment": environment}
        result = bench.traced(workload, args.seconds, spans_path, header)
    else:
        spans_path = None
        result = bench.end_to_end(workload, args.seconds)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  {environment}")
    print(f"passes {result['passes']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  error_rate {result['error_rate']:.6f}")
    samples = result.get("samples", {})
    for name, (value, unit) in result["metrics"].items():
        cls = name.split("_p", 1)[0]
        extra = f"  (n={samples[cls]})" if "_p" in name and cls in samples else ""
        print(f"  {name:32s} {value:>16.6g} {unit}{extra}")
    if result.get("missing"):
        print(f"  not found, reported as zero: {', '.join(result['missing'])}")
    if spans_path:
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.exit(main())
