"""Fail CI unless the compiled tier's wall-clock advantage holds up.

Counted accesses (``check_regression.py``) prove the *asymptotics* never
regress, but constant factors — closure-specialised dispatch, packed rows,
batch mutation paths — only show on wall-clock.  This gate reads a
median-of-3 wall-clock capture (``capture_wallclock.py``) and enforces,
variance-tolerantly:

* **per workload**: compiled beats the reference tier by at least
  ``--min-tier-ratio`` (default 2.5x — quick-mode ratios measured
  11.5-89x, spanning the lowest, so only a genuine regression in the
  generated code trips it);
* **aggregate**: summed over every workload, compiled beats the
  reference by at least ``--min-aggregate`` (default 7.0x against a
  measured 32-33x);
* **vs a prior pin** (optional ``--prior``): summed compiled medians over
  the workloads both captures share must have sped up by at least
  ``--min-prior-speedup`` (default 3.0x).  Skipped with a warning when
  the two captures disagree on mode (quick-mode traces are shorter, so
  cross-mode medians are not comparable) — CI runs quick against the
  tier ratios only; the full-length pin is checked where it was captured.

Medians over three replays keep a single noisy sample from tripping the
gate; the floors sit at about a fifth of the smallest measured ratios for
the same reason.  Usage::

    python -m benchmarks.capture_wallclock BENCH_8.json
    python benchmarks/check_speed.py BENCH_8.json --prior benchmarks/pr7_wallclock.json
"""

from __future__ import annotations

import json
import sys

MIN_TIER_RATIO = 2.5
MIN_AGGREGATE = 7.0
MIN_PRIOR_SPEEDUP = 3.0


def _medians(report: dict, tier: str) -> dict:
    return {
        name: entry["tiers"][tier]["median_seconds"]
        for name, entry in report.get("workloads", {}).items()
        if tier in entry.get("tiers", {})
    }


def check_tiers(report: dict, min_tier_ratio: float, min_aggregate: float) -> list:
    failures = []
    compiled = _medians(report, "compiled")
    reference = _medians(report, "reference")
    if not compiled or not reference:
        return ["report has no compiled/reference wall-clock medians"]
    for name in sorted(compiled):
        ratio = reference[name] / max(compiled[name], 1e-9)
        print(
            f"{name:16s} reference {reference[name]:8.4f}s   "
            f"compiled {compiled[name]:8.4f}s   {ratio:6.2f}x"
        )
        if ratio < min_tier_ratio:
            failures.append(
                f"{name}: compiled is only {ratio:.2f}x the reference tier "
                f"(floor {min_tier_ratio:.1f}x)"
            )
    aggregate = sum(reference.values()) / max(sum(compiled.values()), 1e-9)
    print(f"{'TOTAL':16s} reference {sum(reference.values()):8.4f}s   "
          f"compiled {sum(compiled.values()):8.4f}s   {aggregate:6.2f}x")
    if aggregate < min_aggregate:
        failures.append(
            f"aggregate: compiled is only {aggregate:.2f}x the reference "
            f"tier (floor {min_aggregate:.1f}x)"
        )
    return failures


def check_prior(report: dict, prior: dict, min_prior_speedup: float) -> list:
    current_mode = report.get("meta", {}).get("mode")
    prior_mode = prior.get("meta", {}).get("mode")
    if current_mode != prior_mode:
        print(
            f"\nprior comparison skipped: capture modes differ "
            f"({current_mode!r} vs {prior_mode!r}); medians are not comparable",
            file=sys.stderr,
        )
        return []
    current = _medians(report, "compiled")
    pinned = _medians(prior, "compiled")
    shared = sorted(set(current) & set(pinned))
    if not shared:
        return ["prior comparison: no workloads in common"]
    print("\nvs prior pin (compiled medians):")
    for name in shared:
        print(
            f"{name:16s} prior {pinned[name]:8.4f}s   now {current[name]:8.4f}s   "
            f"{pinned[name] / max(current[name], 1e-9):6.2f}x"
        )
    speedup = sum(pinned[n] for n in shared) / max(
        sum(current[n] for n in shared), 1e-9
    )
    print(f"{'TOTAL':16s} prior {sum(pinned[n] for n in shared):8.4f}s   "
          f"now {sum(current[n] for n in shared):8.4f}s   {speedup:6.2f}x")
    if speedup < min_prior_speedup:
        return [
            f"aggregate compiled wall-clock is only {speedup:.2f}x the prior "
            f"pin over {len(shared)} shared workloads "
            f"(floor {min_prior_speedup:.1f}x)"
        ]
    return []


def main(argv: list) -> int:
    args = list(argv[1:])

    def take(flag, default, cast=float):
        if flag in args:
            i = args.index(flag)
            value = cast(args[i + 1])
            del args[i : i + 2]
            return value
        return default

    prior_path = take("--prior", None, str)
    min_tier_ratio = take("--min-tier-ratio", MIN_TIER_RATIO)
    min_aggregate = take("--min-aggregate", MIN_AGGREGATE)
    min_prior_speedup = take("--min-prior-speedup", MIN_PRIOR_SPEEDUP)
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(args[0]) as handle:
        report = json.load(handle)
    failures = check_tiers(report, min_tier_ratio, min_aggregate)
    if prior_path is not None:
        with open(prior_path) as handle:
            failures += check_prior(report, json.load(handle), min_prior_speedup)
    if failures:
        print("\nSPEED GATE FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nspeed gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
