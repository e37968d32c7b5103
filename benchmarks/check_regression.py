"""Fail CI when benchmark numbers regress more than 2x against the baseline.

The comparison is driven by the
:class:`~repro.structures.base.OperationCounter` access counts: they depend
only on the code and the seeded traces, not on the machine, so a >2x
increase is a genuine algorithmic regression (a plan gone bad, an index no
longer used, pruning lost) rather than CI noise.  Run the harness with
``PYTHONHASHSEED=0`` (as CI does) to make the counts bit-exact; otherwise
hash-table chain layouts introduce ~1% jitter, far inside the 2x headroom.

Timing-derived speedups are machine-dependent, and wall-clock on shared CI
runners is unreliable — so in ``--quick`` mode (short traces, the CI
configuration, where a single scheduler hiccup can flip the ratio) the
"compiled must stay faster than the reference" check is **advisory**: it
prints a warning and does not fail the run.  Only the access-count
regressions are fatal there.  Full-length runs keep the timing check fatal,
since at default trace sizes an inversion means something real.

With ``--strict-accesses`` the gate tightens from "no more than 2x" to "not
one access more": the chaos CI job uses it to prove that the fault-injection
hooks and the exception-safety undo-log bookkeeping add **zero counted
accesses** when no fault is armed — the counts must be byte-identical to the
pre-instrumentation baseline, not merely within headroom.

Usage::

    PYTHONPATH=src python benchmarks/check_regression.py BENCH_6.json benchmarks/baseline.json
    PYTHONPATH=src python benchmarks/check_regression.py --strict-accesses BENCH_6.json benchmarks/baseline.json
"""

from __future__ import annotations

import json
import sys

#: Fail when accesses exceed baseline by more than this factor.
MAX_ACCESS_REGRESSION = 2.0


def compare(current: dict, baseline: dict, strict_accesses: bool = False) -> "tuple[list, list]":
    """Compare *current* against *baseline*.

    Returns ``(failures, warnings)``: deterministic access-count regressions
    are always failures; a timing inversion (compiled slower than the
    reference) is a failure on full-length runs but only a warning in
    quick mode, whose traces are too short for reliable wall-clock.

    ``strict_accesses=True`` additionally fails on *any* access-count
    increase — the zero-overhead gate for always-compiled-in instrumentation
    (fault hooks, undo journals) that must never touch the counters.
    """
    failures = []
    warnings = []
    quick = current.get("meta", {}).get("mode") == "quick"

    def check_accesses(label: str, cur_accesses: int, base_accesses: int) -> None:
        if not base_accesses:
            return
        if cur_accesses > base_accesses * MAX_ACCESS_REGRESSION:
            failures.append(
                f"{label}: {cur_accesses:,d} accesses vs baseline "
                f"{base_accesses:,d} (>{MAX_ACCESS_REGRESSION}x regression)"
            )
        elif strict_accesses and cur_accesses > base_accesses:
            failures.append(
                f"{label}: {cur_accesses:,d} accesses vs baseline {base_accesses:,d} "
                f"(+{cur_accesses - base_accesses:,d}; strict gate — disabled fault "
                f"hooks and undo bookkeeping must add zero counted accesses)"
            )

    for name, base_data in sorted(baseline.get("workloads", {}).items()):
        cur_data = current.get("workloads", {}).get(name)
        if cur_data is None:
            failures.append(f"{name}: workload missing from current results")
            continue
        for tier, base_tier in sorted(base_data.get("tiers", {}).items()):
            cur_tier = cur_data.get("tiers", {}).get(tier)
            if cur_tier is None:
                failures.append(f"{name}/{tier}: tier missing from current results")
                continue
            check_accesses(
                f"{name}/{tier}", cur_tier.get("accesses", 0), base_tier.get("accesses", 0)
            )
        # The autotuner's winning access count is as deterministic as the
        # tier counts; a >2x jump means the scorer started picking a
        # genuinely worse layout.  As with a missing tier, a baseline that
        # has the section while the current report does not is a hard
        # failure — otherwise a --skip-autotune run would silently disable
        # this gate.
        base_tuned = base_data.get("autotuned") or {}
        cur_tuned = cur_data.get("autotuned")
        base_accesses = base_tuned.get("accesses", 0)
        if base_accesses and cur_tuned is None:
            failures.append(
                f"{name}/autotuned: section missing from current results "
                f"(baseline has it; was the harness run with --skip-autotune?)"
            )
        elif base_accesses:
            check_accesses(f"{name}/autotuned", cur_tuned.get("accesses", 0), base_accesses)
        speedup = cur_data.get("speedup_compiled_vs_reference")
        if speedup is not None and speedup < 1.0:
            message = (
                f"{name}: compiled tier ({speedup}x) is slower than the reference tier"
            )
            if quick:
                warnings.append(message + " (advisory in quick mode: unreliable wall-clock)")
            else:
                failures.append(message)
    return failures, warnings


def main(argv: list) -> int:
    args = list(argv[1:])
    strict_accesses = "--strict-accesses" in args
    if strict_accesses:
        args.remove("--strict-accesses")
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0]) as handle:
        current = json.load(handle)
    with open(args[1]) as handle:
        baseline = json.load(handle)

    current_mode = current.get("meta", {}).get("mode")
    baseline_mode = baseline.get("meta", {}).get("mode")
    if current_mode != baseline_mode:
        print(
            f"mode mismatch: current results are {current_mode!r} but the baseline "
            f"is {baseline_mode!r} — trace sizes differ, access counts are not "
            f"comparable (re-run the harness with matching --quick settings)",
            file=sys.stderr,
        )
        return 2

    print(f"{'workload':<12} {'tier':<12} {'accesses':>14} {'baseline':>14} {'ratio':>7}")
    for name, base_data in sorted(baseline.get("workloads", {}).items()):
        cur_data = current.get("workloads", {}).get(name, {})
        for tier, base_tier in sorted(base_data.get("tiers", {}).items()):
            cur_tier = cur_data.get("tiers", {}).get(tier, {})
            base_accesses = base_tier.get("accesses", 0)
            cur_accesses = cur_tier.get("accesses", 0)
            if base_accesses:
                ratio = f"{cur_accesses / base_accesses:>6.2f}x"
            else:
                ratio = "     —"
            print(
                f"{name:<12} {tier:<12} {cur_accesses:>14,d} {base_accesses:>14,d} {ratio}"
            )
        base_tuned = (base_data.get("autotuned") or {}).get("accesses", 0)
        cur_tuned = (cur_data.get("autotuned") or {}).get("accesses", 0)
        if base_tuned:
            ratio = f"{cur_tuned / base_tuned:>6.2f}x"
            print(f"{name:<12} {'autotuned':<12} {cur_tuned:>14,d} {base_tuned:>14,d} {ratio}")
        speedup = cur_data.get("speedup_compiled_vs_reference")
        print(f"{name:<12} compiled-vs-reference speedup: {speedup}x")

    failures, warnings = compare(current, baseline, strict_accesses=strict_accesses)
    if warnings:
        print("\nWARNINGS (advisory, not failing the run):", file=sys.stderr)
        for warning in warnings:
            print(f"  - {warning}", file=sys.stderr)
    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    if strict_accesses:
        print("\nno access-count increase against the baseline (strict gate)")
    else:
        print("\nno benchmark regressions (>2x) against the baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
