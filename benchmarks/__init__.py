"""Benchmark harness for the representation tiers.

Runs deterministic, seeded operation traces — modelled on the paper's
Section 6 workloads (process scheduler, directed graph, spanning-forest
components) — against the reference and the compiled implementations of
the same relational specification, verifies they agree, and reports
throughput plus deterministic
:class:`~repro.structures.base.OperationCounter` access counts.

Usage::

    PYTHONPATH=src python -m benchmarks --quick --output BENCH_6.json
    PYTHONPATH=src python benchmarks/check_regression.py BENCH_6.json benchmarks/baseline.json
"""

from .harness import main, run_all, run_workload
from .workloads import WORKLOADS, Workload, build_workloads

__all__ = ["WORKLOADS", "Workload", "build_workloads", "main", "run_all", "run_workload"]
