"""Drive the reference and compiled tiers through identical traces.

For each workload the harness builds one fresh relation per tier, replays
the same operation trace, and records:

* wall-clock seconds and operations/second (``time.perf_counter``);
* deterministic container accesses from a second, instrumented replay under
  :data:`repro.structures.base.COUNTER` (machine-independent — this is what
  the CI regression check compares);
* the final relation, asserted identical across tiers (a coarse soundness
  check riding along with every benchmark run);
* the **autotuned** column: the §5 autotuner (:mod:`repro.autotuner`) picks
  a layout for each workload from its own trace, and the report shows the
  winner's access count next to every hand-written layout replayed on the
  same trace (``--skip-autotune`` drops the column).

Results are written as JSON (``BENCH_6.json`` by convention at the repo
root); ``benchmarks/baseline.json`` holds the checked-in baseline used by
``benchmarks/check_regression.py``.  The report also carries a
``join_plan`` section (see ``benchmarks/check_join.py``): on the
split-pattern ``graph_reverse`` workload the hot query's cross-branch join
plan is measured against the best single-path plan over the same populated
instance; and a ``retune`` section (see ``benchmarks/check_retune.py``):
on the drifting ``graph_drift`` workload a ``LiveRelation`` must re-tune
and hot-swap, and the post-swap layout must beat the pre-swap one on the
drifted tail.

Every tier is constructed through :func:`repro.open` (the unified factory
of ISSUE 6), so the factory's dispatch path is exercised — and its overhead
pinned — by the same regression gate that watches the tiers themselves.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Dict, List, Optional

import repro
from repro.autotuner import Trace, autotune, canonical_shape, replay_operations
from repro.autotuner.scorer import estimate_edge_sizes
from repro.core.interface import RelationInterface
from repro.decomposition import parse_decomposition
from repro.structures import COUNTER

from . import check_join, check_retune
from .workloads import Workload, build_workloads

__all__ = ["main", "run_all", "run_workload", "run_autotuner", "replay"]

TIERS = ("reference", "compiled")


def make_tier(tier: str, workload: Workload) -> RelationInterface:
    """Build one tier through the canonical :func:`repro.open` factory.

    The compiled tier is opened against the workload's trace-estimated
    container sizes — the §5 story: the representation (and its
    compile-time plan table, including cross-branch join plans on split
    patterns) is synthesized for the workload it will run.  Tiers are
    opened non-live: the benchmarked numbers measure the representations
    themselves, and the regression gate thereby also pins the factory's
    dispatch overhead; the live facade is measured separately by the
    ``retune`` section (see ``benchmarks/check_retune.py``).
    """
    sizes = None
    if tier == "compiled":
        decomposition = parse_decomposition(workload.layout)
        sizes = estimate_edge_sizes(
            decomposition, Trace.from_workload(workload).profile()
        )
        return repro.open(workload.spec, decomposition, tier=tier, sizes=sizes)
    if tier not in TIERS:
        raise ValueError(f"unknown tier {tier!r}")
    return repro.open(workload.spec, workload.layout, tier=tier)


def replay(relation: RelationInterface, trace: List[tuple]) -> int:
    """Apply every operation of *trace* to *relation*; returns the op count.

    Delegates to the autotuner's shared loop so harness access counts and
    autotuner scores stay comparable by construction.
    """
    return replay_operations(relation, trace)


def run_autotuner(workload: Workload, verbose: bool = True) -> Dict:
    """Tune *workload* from its own trace; report the winner vs hand layouts.

    Every hand-written layout (the workload's primary plus its
    ``alternatives``) is force-included in the exact replay phase, so the
    report shows the synthesized winner's compiled access count side by
    side with each of them — all on the identical trace.
    """
    hand_layouts = workload.hand_layouts()
    result = autotune(
        workload.spec,
        Trace.from_workload(workload),
        include=list(hand_layouts.values()),
    )
    by_shape = {canonical_shape(c.decomposition): c for c in result.replayed}
    hand_report = {}
    for name, layout in hand_layouts.items():
        candidate = by_shape[canonical_shape(parse_decomposition(layout))]
        hand_report[name] = {"layout": layout, "accesses": candidate.accesses}

    # The shipped class, replayed once more: exact scoring compiles every
    # candidate exactly as compile_winner() does, so this count must equal
    # the winner's score (the class comes from the codegen cache).
    compiled_cls = result.compile_winner()
    with COUNTER:
        replay(compiled_cls(), workload.trace)
        compiled_accesses = COUNTER.accesses
    if compiled_accesses != result.winner.accesses:
        raise AssertionError(
            f"{workload.name}: the winner scored {result.winner.accesses:,d} accesses "
            f"but its compiled class replays at {compiled_accesses:,d}"
        )

    best_hand = min(hand_report.values(), key=lambda h: h["accesses"])
    report = {
        "layout": result.winner_layout,
        "accesses": result.winner.accesses,
        "compiled_accesses": compiled_accesses,
        "candidates_enumerated": len(result.candidates),
        "candidates_replayed": len(result.replayed),
        "pareto": [
            {"layout": c.layout, "accesses": c.accesses, "memory": c.memory}
            for c in result.pareto
        ],
        "hand_written": hand_report,
        "speedup_vs_best_hand": round(
            best_hand["accesses"] / result.winner.accesses, 2
        )
        if result.winner.accesses
        else None,
    }
    if verbose:
        print(
            f"  {'autotuned':12s} {report['accesses']:>12,d} accesses"
            f"  ({report['speedup_vs_best_hand']}x best hand layout; "
            f"{report['candidates_enumerated']} candidates)",
            file=sys.stderr,
        )
    return report


def run_workload(workload: Workload, verbose: bool = True) -> Dict:
    """Benchmark every tier on *workload*; verify the tiers agree."""
    results: Dict[str, Dict] = {}
    final = None
    for tier in TIERS:
        relation = make_tier(tier, workload)
        started = time.perf_counter()
        ops = replay(relation, workload.trace)
        seconds = time.perf_counter() - started

        outcome = relation.to_relation()
        if final is None:
            final = outcome
        elif outcome != final:
            raise AssertionError(
                f"tier {tier!r} diverged from the reference on workload "
                f"{workload.name!r}: {len(outcome.tuples ^ final.tuples)} differing tuple(s)"
            )

        # Second, instrumented replay on a fresh instance: COUNTER numbers
        # are deterministic and machine-independent, unlike the timings.
        instrumented = make_tier(tier, workload)
        with COUNTER:
            replay(instrumented, workload.trace)
            accesses = COUNTER.accesses
        results[tier] = {
            "seconds": round(seconds, 6),
            "ops": ops,
            "ops_per_sec": round(ops / seconds, 1) if seconds else float("inf"),
            "accesses": accesses,
        }
        if verbose:
            print(
                f"  {tier:12s} {results[tier]['ops_per_sec']:>12,.0f} ops/s"
                f"  {accesses:>12,d} accesses  ({seconds:.3f}s)",
                file=sys.stderr,
            )
    compiled = results["compiled"]["seconds"]
    return {
        "description": workload.description,
        "layout": workload.layout,
        "ops": len(workload.trace),
        "final_size": len(final.tuples),
        "tiers": results,
        "speedup_compiled_vs_reference": round(
            results["reference"]["seconds"] / compiled, 2
        )
        if compiled
        else None,
    }


def run_all(
    quick: bool = False,
    names: Optional[List[str]] = None,
    verbose: bool = True,
    tune: bool = True,
) -> Dict:
    workloads = build_workloads(quick=quick, names=names)
    report: Dict = {
        "meta": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "mode": "quick" if quick else "default",
        },
        "workloads": {},
    }
    for workload in workloads:
        if verbose:
            print(f"{workload.name}: {len(workload.trace)} ops", file=sys.stderr)
        data = run_workload(workload, verbose=verbose)
        if tune:
            data["autotuned"] = run_autotuner(workload, verbose=verbose)
        report["workloads"][workload.name] = data
        if workload.name == check_join.WORKLOAD:
            # The §4 join gate's measurement: the hot split pattern's join
            # plan vs the best single-path plan on the populated instance.
            report["join_plan"] = check_join.measure_join_benefit(workload)
            if verbose:
                section = report["join_plan"]
                print(
                    f"  {'join-plan':12s} {section['join_accesses']:>12,d} accesses"
                    f"  vs single-path {section['single_accesses']:,d} "
                    f"({section['speedup']}x)",
                    file=sys.stderr,
                )
        if workload.name == check_retune.WORKLOAD:
            # The online-adaptivity gate's measurement: a LiveRelation run
            # over the drifting trace must re-tune and hot-swap, and the
            # post-swap layout must beat the pre-swap one on the drifted
            # tail (counted accesses on fresh instances of each layout).
            report["retune"] = check_retune.measure_retune(workload)
            if verbose:
                section = report["retune"]
                print(
                    f"  {'retune':12s} {section['new_tail_accesses']:>12,d} accesses"
                    f"  vs pre-swap {section['old_tail_accesses']:,d} on the tail "
                    f"({section['speedup']}x; {section['swaps']} swap(s))",
                    file=sys.stderr,
                )
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks",
        description="Benchmark the reference and compiled representation tiers.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="small traces (CI smoke mode)"
    )
    parser.add_argument(
        "--output", default="BENCH_6.json", help="where to write the JSON report"
    )
    parser.add_argument(
        "--workloads",
        nargs="*",
        default=None,
        help="subset of workloads to run (default: all)",
    )
    parser.add_argument(
        "--skip-autotune",
        action="store_true",
        help="skip the autotuner column (faster; tiers only)",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    report = run_all(
        quick=args.quick,
        names=args.workloads,
        verbose=not args.quiet,
        tune=not args.skip_autotune,
    )
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    if not args.quiet:
        for name, data in sorted(report["workloads"].items()):
            print(
                f"{name}: compiled is {data['speedup_compiled_vs_reference']}x the "
                f"reference tier ({data['ops']} ops)",
                file=sys.stderr,
            )
            tuned = data.get("autotuned")
            if tuned:
                print(
                    f"{name}: autotuned layout is {tuned['speedup_vs_best_hand']}x the "
                    f"best hand-written layout ({tuned['accesses']:,d} accesses)",
                    file=sys.stderr,
                )
        print(f"wrote {args.output}", file=sys.stderr)
    return 0
