"""Two-phase scoring of candidate decompositions against a trace (Section 5).

Phase 1 — **static estimate** (:func:`static_cost`): a closed-form cost per
candidate computed from the trace *profile* (operation counts per pattern
column set) and the containers' cost models, via the same
:func:`~repro.decomposition.plan.plan_query` / ``structure_cost`` machinery
the compiler ranks its plan table with.  Cheap enough to rank hundreds of
candidates and prune the space.

Phase 2 — **exact replay** (:func:`exact_accesses`): each surviving
candidate is compiled exactly as the winner would be shipped and replays
the full trace under the library-wide
:class:`~repro.structures.base.OperationCounter`, giving the deterministic,
machine-independent access count the benchmark harness also reports.  The
final ranking — and the Pareto front over (accesses, memory proxy) — uses
these exact numbers, so candidates are judged by the code they generate.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..codegen import compile_relation
from ..core.spec import RelationSpec
from ..decomposition.model import Decomposition, MapEdge
from ..decomposition.plan import plan_query, residual_update_columns
from ..structures.base import COUNTER
from ..structures.registry import structure_cost
from .trace import Trace, TraceProfile, replay_trace

__all__ = [
    "ScoredCandidate",
    "estimate_edge_sizes",
    "static_cost",
    "memory_proxy",
    "exact_accesses",
    "pareto_front",
]


class ScoredCandidate:
    """A candidate decomposition with its scores.

    ``accesses`` is ``None`` until the candidate survives static pruning and
    is replayed exactly.  ``static_scaled`` is the tie-break score: the
    static estimate recomputed at scaled-up container sizes (see
    ``tuner.TIEBREAK_SIZE_SCALE``), which separates flavours whose costs
    coincide at the trace's own small sizes.
    """

    __slots__ = ("decomposition", "static", "static_scaled", "memory", "accesses")

    def __init__(
        self,
        decomposition: Decomposition,
        static: float,
        memory: int,
        static_scaled: Optional[float] = None,
    ):
        self.decomposition = decomposition
        self.static = static
        self.static_scaled = static if static_scaled is None else static_scaled
        self.memory = memory
        self.accesses: Optional[int] = None

    @property
    def layout(self) -> str:
        return self.decomposition.describe()

    def __repr__(self) -> str:
        exact = f", accesses={self.accesses}" if self.accesses is not None else ""
        return (
            f"ScoredCandidate({self.layout!r}, static={self.static:.0f}, "
            f"memory={self.memory}{exact})"
        )


def memory_proxy(decomposition: Decomposition) -> int:
    """Per-tuple storage cost proxy: container entries plus residual fields.

    Every *distinct* edge stores one container entry per represented tuple
    and every *distinct* unit leaf stores its residual columns once — so
    the proxy is ``(# distinct edges) + Σ |unit columns|`` over distinct
    leaves (the second Pareto axis; the paper uses measured heap size,
    which a Python reproduction cannot compare meaningfully across
    container kinds).  Counting nodes once by identity is what lets shared
    layouts win the memory axis: a record shared by two branches pays its
    residual once, while the per-branch-copy twin pays it per branch.
    """
    nodes = decomposition.nodes()
    edges = sum(len(node.edges) for node in nodes)
    residuals = sum(len(node.unit_columns) for node in nodes if node.is_unit)
    return edges + residuals


def estimate_edge_sizes(
    decomposition: Decomposition, profile: TraceProfile
) -> Dict[MapEdge, float]:
    """Estimate each edge's average live container size from workload stats.

    A container for an edge with key ``K`` at the end of bound prefix ``B``
    holds one entry per distinct ``B ∪ K`` valuation of each distinct ``B``
    binding — estimated from the trace's per-column distinct counts
    (:meth:`TraceProfile.distinct_count`).  This is what lets the static
    phase see that scanning a ten-entry outer container is nearly free while
    scanning a thousand-entry one is not, instead of charging every edge the
    same symbolic size — the same per-edge-size shape the compiler ranks its
    plan table against (:func:`~repro.codegen.compile_relation` ``sizes=``).
    """
    sizes: Dict[MapEdge, float] = {}
    for path in decomposition.paths():
        bound: frozenset = frozenset()
        for e in path.edges:
            parent_bindings = profile.distinct_count(bound)
            bound = bound | e.key
            sizes[e] = max(1.0, profile.distinct_count(bound) / parent_bindings)
    return sizes


def static_cost(
    decomposition: Decomposition,
    profile: TraceProfile,
    size_scale: float = 1.0,
    spec: Optional[RelationSpec] = None,
) -> float:
    """Estimated total accesses for a trace profile on *decomposition*.

    Each edge's container size is estimated from the trace's distinct-value
    statistics (:func:`estimate_edge_sizes`) and fed through the planner's
    per-edge-size cost machinery; queries are charged their cheapest plan,
    inserts and removes the per-edge mutation cost for one victim on every
    edge (every branch stores the tuple), removes and updates additionally
    their pattern's plan (updates twice: remove + re-insert — unless the
    update's changed columns are residual-safe for the candidate, in which
    case it is charged the cheaper in-place batch path).  On an edge
    whose child is **shared**, the mutation cost is the structure's
    ``unlink`` cost instead of its lookup cost — the record is held by
    reference, so an intrusive container links/unlinks it in O(1) where a
    plain list would pay a victim scan.  The estimate only has to *rank*
    candidates well enough that the exact replay phase sees the contenders.

    *size_scale* multiplies every estimated container size — the tuner's
    tie-break recomputes the estimate at inflated sizes, separating
    flavours whose costs coincide at the trace's own (often tiny) sizes.

    With *spec* the planner also searches **cross-branch join plans**
    (validated by the Figure 8 FD-closure rule), so 2-branch candidates
    whose split patterns previously forced full scans are costed by their
    cheapest join instead and ranked fairly against single-path layouts.
    """
    sizes = estimate_edge_sizes(decomposition, profile)
    if size_scale != 1.0:
        sizes = {e: n * size_scale for e, n in sizes.items()}
    parent_counts = decomposition.parent_counts()
    edges: List[MapEdge] = [e for node in decomposition.nodes() for e in node.edges]
    touch_all_edges = sum(
        structure_cost(
            e.structure,
            sizes[e],
            "unlink" if parent_counts.get(id(e.child), 0) >= 2 else "lookup",
        )
        for e in edges
    )

    plan_costs: Dict[frozenset, float] = {}

    def plan_cost(pattern: frozenset) -> float:
        cached = plan_costs.get(pattern)
        if cached is None:
            plan = plan_query(decomposition, pattern, sizes=sizes, spec=spec)
            cached = plan.estimated_cost(sizes=sizes)
            plan_costs[pattern] = cached
        return cached

    cost = profile.inserts * touch_all_edges
    for pattern, count in profile.queries.items():
        cost += count * plan_cost(pattern)
    for pattern, count in profile.removes.items():
        cost += count * (plan_cost(pattern) + touch_all_edges)

    # Updates whose changed columns are residual-safe on this candidate run
    # the in-place batch path: one keyed descent per branch that stores a
    # changed residual (shared children resolve through the uncounted
    # registry), instead of the full remove + re-insert.  Candidates that
    # keep hot update columns out of their edge keys are now priced for it.
    resid_safe = (
        residual_update_columns(decomposition, spec) if spec is not None else frozenset()
    )
    coverage = decomposition.edge_coverage

    def resid_touch(changed: frozenset) -> float:
        return sum(
            structure_cost(e.structure, sizes[e], "lookup")
            for e in edges
            if parent_counts.get(id(e.child), 0) < 2 and coverage(e) & changed
        )

    plain = dict(profile.updates)
    for (pattern, changed), count in profile.update_changes.items():
        if changed and changed <= resid_safe:
            cost += count * (plan_cost(pattern) + resid_touch(changed))
            plain[pattern] = plain.get(pattern, 0) - count
    for pattern, count in plain.items():
        if count > 0:
            cost += count * (plan_cost(pattern) + 2.0 * touch_all_edges)
    return cost


def exact_accesses(
    trace: Trace,
    decomposition: Decomposition,
    enforce_fds: bool = True,
    spec: Optional[RelationSpec] = None,
) -> int:
    """Replay *trace* on *decomposition*'s compiled class; return the exact
    access count.

    The class is compiled as :meth:`TuningResult.compile_winner` ships it —
    same FD default, same trace-estimated sizes — so the winner's class
    comes straight from the codegen cache and its score is what it will
    cost.  Deterministic and machine-independent: the same
    :class:`~repro.structures.base.OperationCounter` numbers the benchmark
    harness records.  *spec* is the specification the relation is built
    against (default: the trace's own); the tuner passes the specification
    being tuned, so candidates are scored under exactly the FD semantics
    the winner will be compiled with.
    """
    cls = compile_relation(
        spec or trace.spec,
        decomposition,
        enforce_fds_default=enforce_fds,
        sizes=estimate_edge_sizes(decomposition, trace.profile()),
    )
    relation = cls(enforce_fds=enforce_fds)
    with COUNTER:
        replay_trace(trace, relation)
        return COUNTER.accesses


def pareto_front(scored: Sequence[ScoredCandidate]) -> List[ScoredCandidate]:
    """The Pareto-optimal candidates over (exact accesses, memory proxy).

    Only exactly-replayed candidates participate.  Returned sorted by
    ascending accesses; ties and dominated candidates removed.
    """
    replayed = [c for c in scored if c.accesses is not None]
    replayed.sort(key=lambda c: (c.accesses, c.memory, c.layout))
    front: List[ScoredCandidate] = []
    best_memory: Optional[int] = None
    for candidate in replayed:
        if best_memory is None or candidate.memory < best_memory:
            front.append(candidate)
            best_memory = candidate.memory
    return front
