"""Data representation synthesis (Hawkins et al., PLDI 2011) in Python.

**The canonical entry point is** :func:`repro.open` — one factory behind
every tier of the library::

    import repro
    from repro import RelationSpec, t

    spec = RelationSpec("ns, pid, state, cpu", fds=["ns, pid -> state, cpu"])

    # An explicit layout, compiled (the default tier):
    processes = repro.open(spec, "ns, pid -> htable {state, cpu}")
    processes.insert(t(ns=1, pid=42, state="running", cpu=0))

    # Let the autotuner pick the layout from a recorded trace:
    processes = repro.open(spec, tune=trace)

    # A live relation: always-on sampling, automatic re-tune, and
    # hot-swap between layouts via the abstraction function α:
    processes = repro.open(spec, live=True)

``tier="reference" | "compiled" | "auto"`` selects the implementation;
both tiers honour the same five-operation contract
(:class:`~repro.core.interface.RelationInterface`), which is the paper's
central abstraction claim: the compiled representation of any adequate
layout behaves exactly like the specification-level reference.  The
constituent pieces remain importable for direct use —
``ReferenceRelation``, ``compile_relation``, ``synthesize`` — but new code
should go through the factory, which is what the benchmarks and docs use.

The library is layered like the paper:

* :mod:`repro.core` — relational specifications ``(C, ∆)``, functional
  dependencies, relational algebra, the five-operation relational
  interface, and its reference implementation (Section 2);
* :mod:`repro.decomposition` — decompositions, the adequacy judgement and
  query plans (Sections 3–4);
* :mod:`repro.structures` — the primitive container library backing map
  edges, described by name, lowering strategy and cost model (Section 6);
* :mod:`repro.codegen` — the implementation of every decomposition:
  compile it into a standalone specialised class (the paper's code
  generator), whose ``to_relation`` is the abstraction function α;
* :mod:`repro.autotuner` — the synthesis loop (Section 5): record an
  operation trace, enumerate adequate decompositions, score them against
  the trace, and compile the winner (``synthesize(spec, trace)``);
* :mod:`repro.live` — the online closing of that loop:
  :class:`~repro.live.LiveRelation` samples its own workload, re-tunes
  when the operation mix drifts, and migrates between layouts via α.
"""

from .autotuner import Trace, TraceRecorder, autotune, enumerate_decompositions, synthesize
from .codegen import compile_relation, generate_source
from .core import (
    FDSet,
    FunctionalDependency,
    ReferenceRelation,
    Relation,
    RelationInterface,
    RelationSpec,
    Tuple,
    t,
)
from .decomposition import (
    Decomposition,
    check_adequacy,
    is_adequate,
    parse_decomposition,
    plan_query,
    validate_plan,
)
from .faults import FAULTS, fault_sites, inject
from .live import (
    LiveRelation,
    RetunePolicy,
    RetuneReport,
    SamplingTraceRecorder,
    open_relation,
)

#: ``repro.open`` — the factory is deliberately named after the builtin it
#: shadows *inside this namespace only*; import it as ``open_relation`` if
#: the name matters in your module.
open = open_relation

__version__ = "0.1.0"

__all__ = [
    "Decomposition",
    "FAULTS",
    "FDSet",
    "FunctionalDependency",
    "LiveRelation",
    "ReferenceRelation",
    "Relation",
    "RelationInterface",
    "RelationSpec",
    "RetunePolicy",
    "RetuneReport",
    "SamplingTraceRecorder",
    "Trace",
    "TraceRecorder",
    "Tuple",
    "autotune",
    "check_adequacy",
    "compile_relation",
    "enumerate_decompositions",
    "fault_sites",
    "generate_source",
    "inject",
    "is_adequate",
    "open",
    "open_relation",
    "parse_decomposition",
    "plan_query",
    "validate_plan",
    "synthesize",
    "t",
    "__version__",
]
