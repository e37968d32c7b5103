"""The §5 autotuner: pick a decomposition for a spec from a recorded trace.

This package closes the paper's synthesis loop — *"given a relational
specification and a workload, synthesize the best representation"*:

* :mod:`~repro.autotuner.trace` — the workload: record the five relational
  operations from any :class:`~repro.core.interface.RelationInterface`
  (:class:`TraceRecorder`) or adapt a benchmark workload
  (:meth:`Trace.from_workload`); replay against any tier;
* :mod:`~repro.autotuner.enumerator` — bounded-depth enumeration of
  adequate candidate decompositions (single-path + 2-branch shapes,
  structure assignments from the registry);
* :mod:`~repro.autotuner.scorer` — the two-phase scorer: static
  plan-cost estimates prune, exact
  :class:`~repro.structures.base.OperationCounter` replay of each
  survivor's compiled class ranks, Pareto front over (accesses, memory
  proxy);
* :mod:`~repro.autotuner.tuner` — :func:`autotune` (the full search,
  returning a :class:`TuningResult`) and :func:`synthesize` (search +
  :func:`~repro.codegen.compile_relation` of the winner).

Quickstart::

    from repro import RelationSpec, ReferenceRelation
    from repro.autotuner import TraceRecorder, synthesize

    spec = RelationSpec("ns, pid, state, cpu", fds=["ns, pid -> state, cpu"])
    recorder = TraceRecorder(ReferenceRelation(spec))
    run_application(recorder)            # any RelationInterface consumer

    Tuned = synthesize(spec, recorder.trace)   # a compiled relation class
    processes = Tuned()                        # same five-operation interface

``python -m repro.autotuner <workload>`` runs the tuner against a benchmark
workload and verifies the winner (the CI smoke step).
"""

from .enumerator import canonical_shape, enumerate_decompositions, representative_structures
from .scorer import ScoredCandidate, exact_accesses, memory_proxy, pareto_front, static_cost
from .trace import Trace, TraceProfile, TraceRecorder, replay_operations, replay_trace
from .tuner import TuningResult, autotune, synthesize

__all__ = [
    "ScoredCandidate",
    "Trace",
    "TraceProfile",
    "TraceRecorder",
    "TuningResult",
    "autotune",
    "canonical_shape",
    "enumerate_decompositions",
    "exact_accesses",
    "memory_proxy",
    "pareto_front",
    "replay_operations",
    "replay_trace",
    "representative_structures",
    "static_cost",
    "synthesize",
]
