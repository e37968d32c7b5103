"""Fail CI unless the cross-branch join plan pays off on the split workload.

The §4 acceptance gate: on the ``graph_reverse`` workload the hot query
binds ``{dst}``, whose column is only indexed by the ``dst``-keyed
key-projection branch while the weights live under the ``src``-keyed
primary.  Compiled against the workload's trace-estimated sizes, the
layout's plan table must answer it with a **join plan** (Figure 8), and
that compiled join must be strictly cheaper — on deterministic
:class:`~repro.structures.base.OperationCounter` access counts — than the
single-path plan the same layout compiles to at the symbolic uniform size,
over identically populated instances.  The harness records the comparison
in the report's ``join_plan`` section (:func:`measure_join_benefit`); this
script validates it.

Usage::

    PYTHONPATH=src python benchmarks/check_join.py BENCH_6.json
"""

from __future__ import annotations

import json
import sys

#: Workload and hot pattern the gate measures.
WORKLOAD = "graph_reverse"
HOT_PATTERN = ("dst",)


def measure_join_benefit(workload) -> dict:
    """Compile *workload*'s layout with its trace sizes (the join plan) and
    without (the single-path plan), replay the trace on both, then count
    the hot pattern's queries over every distinct stored value.

    Both classes hold the identical relation after the replay, so the
    comparison is machine- and timing-independent.  Returns the
    ``join_plan`` report section.
    """
    from repro.autotuner import Trace
    from repro.autotuner.scorer import estimate_edge_sizes
    from repro.codegen import compile_relation
    from repro.core import Tuple
    from repro.decomposition import parse_decomposition
    from repro.structures import COUNTER

    from .harness import replay

    decomposition = parse_decomposition(workload.layout)
    sizes = estimate_edge_sizes(decomposition, Trace.from_workload(workload).profile())
    joined = compile_relation(workload.spec, decomposition, sizes=sizes)()
    single = compile_relation(workload.spec, decomposition)()
    replay(joined, workload.trace)
    replay(single, workload.trace)

    pattern_cols = sorted(HOT_PATTERN)

    def plan_of(relation) -> str:
        (query,) = [
            q
            for q in type(relation).__repro_meta__["queries"].values()
            if q["pattern"] == pattern_cols
        ]
        return query["plan"]

    values = sorted({tuple(t[c] for c in pattern_cols) for t in joined.to_relation().tuples})
    patterns = [Tuple(dict(zip(pattern_cols, value))) for value in values]

    def count(relation) -> int:
        with COUNTER:
            for pattern in patterns:
                relation.query(pattern)
            return COUNTER.accesses

    join_accesses = count(joined)
    single_accesses = count(single)
    # Both plans must agree on every result (they answer the same queries).
    for pattern in patterns:
        assert set(joined.query(pattern)) == set(single.query(pattern)), (
            f"join and single-path plans disagree on {pattern!r}"
        )
    chosen_plan = plan_of(joined)
    return {
        "workload": workload.name,
        "pattern": pattern_cols,
        "queries": len(patterns),
        "chosen_plan": chosen_plan,
        "chosen_is_join": chosen_plan.startswith("join["),
        "join_accesses": join_accesses,
        "single_accesses": single_accesses,
        "single_plan": plan_of(single),
        "speedup": round(single_accesses / join_accesses, 2) if join_accesses else None,
    }


def check(report: dict) -> list:
    failures = []
    section = report.get("join_plan")
    if section is None:
        return [
            "join_plan section missing from the report (was the harness run "
            "on an older benchmarks/ tree?)"
        ]
    if section.get("workload") != WORKLOAD:
        failures.append(
            f"join_plan section measures {section.get('workload')!r}, "
            f"expected {WORKLOAD!r}"
        )
    if not section.get("chosen_is_join"):
        failures.append(
            f"the planner did not choose a join plan for the hot pattern "
            f"{section.get('pattern')}: chose {section.get('chosen_plan')!r}"
        )
    join_accesses = section.get("join_accesses", 0)
    single_accesses = section.get("single_accesses", 0)
    if not join_accesses or join_accesses >= single_accesses:
        failures.append(
            f"join plan ({join_accesses:,d} accesses) does not strictly beat "
            f"the single-path plan ({single_accesses:,d}) on the "
            f"split-pattern workload — the cross-branch join advantage is gone"
        )
    return failures


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as handle:
        report = json.load(handle)
    section = report.get("join_plan") or {}
    if section:
        print(f"workload {section.get('workload')} · pattern {section.get('pattern')}")
        print(f"  chosen: {section.get('chosen_plan')}")
        print(f"  single: {section.get('single_plan')}")
        print(
            f"  accesses over {section.get('queries'):,d} queries: "
            f"join {section.get('join_accesses'):,d} vs single "
            f"{section.get('single_accesses'):,d}"
        )
    failures = check(report)
    if failures:
        print("\nJOIN GATE FAILURES:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        f"\njoin gate passed: the join plan is {section.get('speedup')}x cheaper "
        f"than the single-path plan"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
