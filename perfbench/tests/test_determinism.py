"""Exact counts repeat across two runs of the benchmark command.

Each run is a separate process started the way the benchmark is run, so the
pinned ``PYTHONHASHSEED`` is part of what is tested.  Run from the repository
root: ``python -m pytest perfbench/tests -q``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    DECLARED = json.load(fh)
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]

#: Counts that depend only on the code and the seed.  ``trace.spans`` is left
#: out: it grows with the number of timed passes.
EXACT = (
    "core.tuples_built",
    "core.rows_returned",
    "codegen.compiles",
    "codegen.cache_hits",
    "codegen.source_lines",
    "structures.accesses_per_lookup",
    "structures.accesses_per_scan",
    "structures.accesses_per_write",
    "decomposition.plan_calls",
    "autotuner.candidates",
    "autotuner.replayed",
    "autotuner.winner_accesses",
    "live.retunes",
    "live.swaps",
    "live.guard_skips",
    "live.failures",
    "live.rows_migrated",
)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
        check=True,
    )
    assert "'pythonhashseed': '0'" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _run(workload, 1), _run(workload, 1)
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_bytes_per_row_repeats_exactly(workload):
    first, second = _run(workload, 0), _run(workload, 0)
    assert first["bytes_per_row"]["value"] == second["bytes_per_row"]["value"]
    assert first["bytes_per_row"]["value"] > 0
