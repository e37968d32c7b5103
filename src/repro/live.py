"""``repro.live`` — a self-tuning relation behind one stable handle.

The paper's synthesis loop (Section 5) is offline: record a trace, pick a
layout, compile, done.  This module closes the loop *online*:

* :class:`SamplingTraceRecorder` — an always-on, bounded-overhead workload
  sampler: a decayed reservoir of concrete operations (the re-tune trace's
  tail) plus a sliding-window operation-mix histogram (the drift signal).
  Steady-state cost is O(1) per operation — one counter bump, one deque
  append and one RNG draw — and O(capacity + window) memory, so profiling
  can stay on in production;
* :class:`RetunePolicy` — when to re-tune: a minimum operation count
  between tunings plus a total-variation drift threshold on the observed
  operation mix;
* :class:`LiveRelation` — a :class:`~repro.core.interface.RelationInterface`
  facade that owns the current backing implementation (reference or
  compiled), samples every operation, re-runs the autotuner
  when the mix drifts, and **migrates between layouts via α**: both the old
  and the new layout provably represent the same relation, so migration is
  enumerate-the-old + reinsert-into-the-new, checked for α-equivalence, then
  an atomic swap of the backing object — every reference through the facade
  sees the new layout.  A re-tune is one synchronous pass on the caller's
  thread: snapshot → tune → guard → compile → copy → α-verify → swap;
* :func:`open_relation` (re-exported as ``repro.open``) — the one factory
  behind every tier: ``repro.open(spec, layout, tier=..., tune=...,
  live=...)`` replaces reaching for ``ReferenceRelation``,
  ``compile_relation`` or ``synthesize`` directly.

The re-tune trace is synthesized from what the facade knows: inserts
reconstructing the **current contents** (the data distribution) followed by
the reservoir's sampled operations in arrival order (the operation mix) —
exactly the two inputs the autotuner's scorer consumes.  The current layout
is force-included in the search, so a re-tune whose winner keeps the
current shape swaps nothing.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple as PyTuple, Union

from .autotuner.enumerator import canonical_shape
from .autotuner.scorer import ScoredCandidate
from .autotuner.trace import Trace
from .autotuner.tuner import TuningResult, autotune
from .codegen import compile_relation
from .core.errors import (
    FaultInjected,
    LiveRelationError,
    MigrationError,
    ReproError,
    RetuneFailed,
)
from .core.interface import RelationInterface, coerce_tuple
from .core.reference import ReferenceRelation
from .core.relation import Relation
from .core.spec import RelationSpec
from .core.tuples import Tuple
from .decomposition.model import Decomposition
from .decomposition.parser import parse_decomposition
from .faults import FAULTS, register_site
from .structures.registry import structure_names

__all__ = [
    "LiveRelation",
    "RetunePolicy",
    "RetuneReport",
    "SamplingTraceRecorder",
    "default_layout",
    "open_relation",
]

# Fault-injection sites of the re-tune / migration pipeline (see
# :mod:`repro.faults`): each names one stage at which the self-healing loop
# must fail *cleanly* — abort the attempt, keep the old backing serving,
# quarantine the failed layout.
for _site in (
    "live.retune.tune",
    "live.retune.compile",
    "live.retune.verify",
    "live.migrate.copy",
    "live.swap",
):
    register_site(_site)
del _site

#: The operation kinds a sampler key distinguishes (insert keys carry no
#: pattern — every insert binds the full column set).
Operation = PyTuple

#: The migration guard's payback requirement: a swap must recoup its
#: migration cost within this many ``min_ops`` re-tune windows (or within
#: the ops actually observed since the last tune, whichever is longer).
#: Deliberately generous — the reservoir sample still contains pre-drift
#: operations, so the replayed access gap *understates* the winner's
#: steady-state advantage; the guard exists to stop marginal winners from
#: forcing a full-relation migration on big instances, not to second-guess
#: a clear drift.
_GUARD_PAYBACK_WINDOWS = 16

#: Consecutive re-tune failures after which the circuit breaker opens: no
#: further re-tune runs until :meth:`LiveRelation.reset_circuit`.
_MAX_FAILURES = 3

#: Exponential backoff base: after the *k*-th consecutive failure the next
#: automatic re-tune waits at least ``min_ops * _BACKOFF_FACTOR ** k`` ops.
_BACKOFF_FACTOR = 2


def _op_key(op: Operation) -> PyTuple:
    """The mix-histogram key of one operation: kind + bound pattern columns
    (a range scan's key is its ordered column)."""
    kind = op[0]
    if kind == "insert":
        return ("insert",)
    if kind == "range":
        return ("range", op[1])
    return (kind, op[1].columns if isinstance(op[1], Tuple) else frozenset())


class SamplingTraceRecorder:
    """Bounded-overhead sampler of a live relation's operation stream.

    Two structures, both O(1) per observed operation:

    * a **decayed reservoir** of ``capacity`` concrete operations.  Classic
      reservoir sampling keeps a uniform sample of *all* history; here the
      inclusion draw is floored at ``horizon`` — operation *i* enters with
      probability ``capacity / min(i, horizon)`` — so recent operations
      always retain at least a ``capacity / horizon`` chance and the sample
      decays toward the recent workload.  :meth:`sampled_operations`
      returns the survivors in arrival order, forming the tail of the
      re-tune trace;
    * a **sliding window** (``window`` most recent operations) of mix-key
      counts — ``(kind, pattern columns)`` — compared against the mix at
      the last re-tune (:meth:`rebase`) by total-variation distance
      (:meth:`drift`), the re-tune policy's drift signal.

    The RNG is seeded, so a seeded workload produces a deterministic sample
    (and deterministic re-tune decisions — the property the differential
    tests and the CI gate rely on).
    """

    __slots__ = (
        "capacity",
        "horizon",
        "window",
        "_rng",
        "_seen",
        "_reservoir",
        "_recent",
        "_recent_counts",
        "_baseline_mix",
    )

    def __init__(
        self,
        capacity: int = 256,
        horizon: int = 4096,
        window: int = 512,
        seed: int = 0,
    ):
        if capacity < 1 or window < 1 or horizon < capacity:
            raise LiveRelationError(
                f"sampler needs capacity >= 1, window >= 1 and horizon >= capacity; "
                f"got capacity={capacity}, window={window}, horizon={horizon}"
            )
        self.capacity = capacity
        self.horizon = horizon
        self.window = window
        self._rng = random.Random(seed)
        self._seen = 0
        #: ``(arrival index, operation)`` pairs; order restored on demand.
        self._reservoir: List[PyTuple[int, Operation]] = []
        self._recent: Deque[PyTuple] = deque(maxlen=window)
        self._recent_counts: Dict[PyTuple, int] = {}
        self._baseline_mix: Optional[Dict[PyTuple, float]] = None

    # -- observation (the O(1) hot path) ----------------------------------------

    def observe(self, op: Operation) -> None:
        """Record one operation: update the mix window, maybe sample it."""
        self._seen += 1
        key = _op_key(op)
        recent = self._recent
        counts = self._recent_counts
        if len(recent) == self.window:
            evicted = recent[0]
            remaining = counts[evicted] - 1
            if remaining:
                counts[evicted] = remaining
            else:
                del counts[evicted]
        recent.append(key)
        counts[key] = counts.get(key, 0) + 1

        reservoir = self._reservoir
        if len(reservoir) < self.capacity:
            reservoir.append((self._seen, op))
        else:
            slot = self._rng.randrange(min(self._seen, self.horizon))
            if slot < self.capacity:
                reservoir[slot] = (self._seen, op)

    # -- re-tune inputs ----------------------------------------------------------

    @property
    def seen(self) -> int:
        """Total operations observed."""
        return self._seen

    def sampled_operations(self) -> List[Operation]:
        """The reservoir's operations in arrival order (the trace tail)."""
        return [op for _, op in sorted(self._reservoir)]

    def recent_mix(self) -> Dict[PyTuple, float]:
        """The sliding window's operation mix, normalised to frequencies."""
        total = len(self._recent)
        if not total:
            return {}
        return {key: count / total for key, count in self._recent_counts.items()}

    def drift(self) -> float:
        """Total-variation distance between the recent mix and the baseline.

        ``inf`` before the first :meth:`rebase` — a live relation that has
        never been tuned treats any sufficiently long prefix as drifted.
        """
        if self._baseline_mix is None:
            return math.inf
        recent = self.recent_mix()
        keys = set(recent) | set(self._baseline_mix)
        return 0.5 * sum(
            abs(recent.get(k, 0.0) - self._baseline_mix.get(k, 0.0)) for k in keys
        )

    def rebase(self) -> None:
        """Adopt the current window mix as the drift baseline (post-tune)."""
        self._baseline_mix = self.recent_mix()

    def stats(self) -> Dict[str, object]:
        return {
            "seen": self._seen,
            "sampled": len(self._reservoir),
            "capacity": self.capacity,
            "horizon": self.horizon,
            "window": self.window,
            "drift": None if self._baseline_mix is None else round(self.drift(), 4),
        }

    def __repr__(self) -> str:
        return (
            f"SamplingTraceRecorder(seen={self._seen}, "
            f"sampled={len(self._reservoir)}/{self.capacity})"
        )


class RetunePolicy:
    """When a :class:`LiveRelation` re-tunes itself.

    Attributes:
        auto: run :meth:`LiveRelation.maybe_retune` after every operation.
            ``False`` makes the facade purely explicit (``retune()`` only) —
            the deterministic-test configuration.
        min_ops: minimum operations since the last tune before the drift
            check fires (also the warm-up length of the very first tune,
            whose drift is ``inf`` by construction).
        drift_threshold: total-variation distance on the operation mix at or
            above which a re-tune triggers.

    How the loop reacts to failure is fixed rather than configured: a
    layout whose compile/copy/verify failed is quarantined, the *k*-th
    consecutive failure defers the next automatic re-tune to
    ``min_ops * 2**k`` operations, three consecutive failures open the
    circuit breaker, and every swap must pass the migration cost/benefit
    guard (see :meth:`LiveRelation.retune`).
    """

    __slots__ = ("auto", "min_ops", "drift_threshold")

    def __init__(
        self,
        auto: bool = True,
        min_ops: int = 512,
        drift_threshold: float = 0.3,
    ):
        if min_ops < 1:
            raise LiveRelationError("min_ops must be >= 1")
        if not 0.0 < drift_threshold:
            raise LiveRelationError("drift_threshold must be positive")
        self.auto = auto
        self.min_ops = min_ops
        self.drift_threshold = drift_threshold

    @classmethod
    def coerce(cls, value: Union["RetunePolicy", Mapping, None]) -> "RetunePolicy":
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            unknown = [repr(key) for key in value if key not in cls.__slots__]
            if unknown:
                raise LiveRelationError(
                    f"unknown tune policy field(s) {', '.join(unknown)}; "
                    f"valid fields: {', '.join(cls.__slots__)}"
                )
            return cls(**value)
        raise LiveRelationError(
            f"tune policy must be a RetunePolicy or a mapping of its fields; got {value!r}"
        )

    def __repr__(self) -> str:
        return (
            f"RetunePolicy(auto={self.auto}, min_ops={self.min_ops}, "
            f"drift_threshold={self.drift_threshold})"
        )


class RetuneReport:
    """What one :meth:`LiveRelation.retune` decided and did."""

    __slots__ = (
        "op_index",
        "reason",
        "drift",
        "old_layout",
        "new_layout",
        "swapped",
        "migrated",
        "generation",
        "tuning",
        "error",
        "guard",
    )

    def __init__(
        self,
        op_index: int,
        reason: str,
        drift: Optional[float],
        old_layout: Optional[str],
    ):
        self.op_index = op_index
        self.reason = reason
        self.drift = drift
        self.old_layout = old_layout
        self.new_layout: Optional[str] = None
        self.swapped = False
        self.migrated = 0
        self.generation: Optional[int] = None
        self.tuning: Optional[TuningResult] = None
        #: Failure description when the attempt died (``None`` on success).
        self.error: Optional[str] = None
        #: Migration cost/benefit decision (``None`` when no swap was under
        #: consideration): a dict with the estimated ``migration_cost``,
        #: ``projected_savings``, ``horizon`` and whether the swap was
        #: ``skipped``.
        self.guard: Optional[Dict[str, object]] = None

    def describe(self) -> str:
        if self.error is not None:
            return f"retune @op {self.op_index} ({self.reason}): failed — {self.error}"
        outcome = (
            f"swapped to {self.new_layout!r} ({self.migrated} row(s) migrated)"
            if self.swapped
            else "kept the current layout"
        )
        return f"retune @op {self.op_index} ({self.reason}): {outcome}"

    def __repr__(self) -> str:
        return f"RetuneReport(op={self.op_index}, swapped={self.swapped})"


class LiveRelation(RelationInterface):
    """A relation that outlives — and re-chooses — its own representation.

    The facade owns a *backing* :class:`RelationInterface` (any tier),
    forwards the relational operations to it, and samples each one
    through a :class:`SamplingTraceRecorder`.  When the sampled operation
    mix drifts past the :class:`RetunePolicy`'s threshold (or on an
    explicit :meth:`retune`), the autotuner is re-run on a trace
    synthesized from the current contents plus the sampled tail; if the
    winner's shape differs from the current layout, the instance is
    **migrated via α** — enumerated from the old backing and reinserted
    into a freshly compiled class for the new layout, checked for
    α-equivalence — and the backing is swapped atomically.  The whole
    re-tune runs on the thread of the operation that triggered it (or of
    the explicit caller), so holders of the facade never observe an
    intermediate state: reads are served by the old backing until the swap.

    Between re-tunes the loop keeps three pieces of state: the operation
    count since the last tune, the consecutive-failure count (from which
    the backoff and the circuit breaker follow) and the quarantined
    layouts.  Everything else ``live_stats()`` reports is derived from the
    :attr:`retunes` history.

    The inspection dunders (``len``/``iter``/``in``) forward to the backing
    without being sampled, so inspection does not perturb the workload the
    autotuner sees.
    """

    def __init__(
        self,
        backing: RelationInterface,
        policy: Union[RetunePolicy, Mapping, None] = None,
        sampler: Optional[SamplingTraceRecorder] = None,
        name: str = "live",
    ):
        spec = getattr(backing, "spec", None)
        if spec is None:
            raise LiveRelationError(
                f"cannot wrap {type(backing).__name__}: the backing must expose "
                f"its RelationSpec as `.spec`"
            )
        self.spec: RelationSpec = spec
        self.name = name
        self.enforce_fds: bool = getattr(backing, "enforce_fds", True)
        self.policy = RetunePolicy.coerce(policy)
        self.sampler = sampler if sampler is not None else SamplingTraceRecorder()
        self.generation = 0
        self.retunes: List[RetuneReport] = []
        self._backing = backing
        self._ops_since_tune = 0
        # -- self-healing bookkeeping (see "Failure semantics" in README) --
        self._consecutive_failures = 0
        #: canonical shape -> layout description of every layout whose
        #: compile / migrate / verify failed; quarantined shapes are never
        #: picked as a re-tune winner again.
        self._quarantined: Dict[PyTuple, str] = {}

    # -- backing introspection ---------------------------------------------------

    @property
    def backing(self) -> RelationInterface:
        """The current backing implementation (changes across swaps)."""
        return self._backing

    def backing_decomposition(self) -> Optional[Decomposition]:
        """The backing's decomposition, if it has one (reference has none)."""
        return getattr(type(self._backing), "DECOMPOSITION", None)

    def backing_layout(self) -> Optional[str]:
        decomposition = self.backing_decomposition()
        return decomposition.describe() if decomposition is not None else None

    def live_stats(self) -> Dict[str, object]:
        """Operational counters: sampling overhead is bounded by these.

        Per observed operation the facade pays one histogram update and one
        RNG draw (plus one reservoir slot write with probability
        ``capacity / min(seen, horizon)``); memory is bounded by
        ``capacity`` sampled operations plus a ``window``-length mix
        window.  No container access is charged — the sampled numbers the
        benchmark gates compare are untouched by sampling.
        """
        return {
            "generation": self.generation,
            "retunes": len(self.retunes),
            "swaps": sum(1 for r in self.retunes if r.swapped),
            "ops_since_tune": self._ops_since_tune,
            "backing": type(self._backing).__name__,
            "layout": self.backing_layout(),
            "sampler": self.sampler.stats(),
            "failures": sum(1 for r in self.retunes if r.error is not None),
            "consecutive_failures": self._consecutive_failures,
            "circuit_open": self.circuit_open,
            "quarantined": sorted(self._quarantined.values()),
            "backoff_ops": self._backoff_ops,
            "last_error": self._last_error,
            "guard_skips": sum(
                1 for r in self.retunes if r.guard is not None and r.guard["skipped"]
            ),
            "last_guard": next(
                (r.guard for r in reversed(self.retunes) if r.guard is not None),
                None,
            ),
        }

    @property
    def circuit_open(self) -> bool:
        """``True`` once three consecutive re-tunes failed.

        While open, no re-tune runs — automatic or explicit — until
        :meth:`reset_circuit`; the relation keeps serving on its current
        backing indefinitely (degraded layout beats a crash loop).
        """
        return self._consecutive_failures >= _MAX_FAILURES

    @property
    def _backoff_ops(self) -> int:
        """Operations the next automatic re-tune waits for (0: no backoff)."""
        failures = self._consecutive_failures
        return self.policy.min_ops * _BACKOFF_FACTOR**failures if failures else 0

    @property
    def _last_error(self) -> Optional[str]:
        """The error of the current failure streak's latest attempt."""
        return self.retunes[-1].error if self._consecutive_failures else None

    def reset_circuit(self) -> None:
        """Re-enable re-tuning after the circuit breaker opened.

        Clears the consecutive-failure count, and with it the backoff and
        the reported last error.  Quarantined layouts stay quarantined.
        """
        self._consecutive_failures = 0

    # -- the sampled operations (forward, then sample) ---------------------------

    def insert(self, tup: Union[Tuple, Mapping]) -> None:
        tup = coerce_tuple(tup)
        self._backing.insert(tup)
        self._observe(("insert", tup))

    def remove(self, pattern: Union[Tuple, Mapping, None] = None) -> None:
        pattern = coerce_tuple(pattern)
        self._backing.remove(pattern)
        self._observe(("remove", pattern))

    def update(self, pattern: Union[Tuple, Mapping], changes: Union[Tuple, Mapping]) -> None:
        pattern = coerce_tuple(pattern)
        changes = coerce_tuple(changes)
        self._backing.update(pattern, changes)
        self._observe(("update", pattern, changes))

    def query(
        self,
        pattern: Union[Tuple, Mapping, None] = None,
        output: Union[str, Iterable[str], None] = None,
    ) -> List[Tuple]:
        pattern = coerce_tuple(pattern)
        if output is not None and not isinstance(output, str):
            output = tuple(output)
        results = self._backing.query(pattern, output)
        self._observe(("query", pattern, output))
        return results

    def query_range(self, column: str, lo=None, hi=None) -> List[Tuple]:
        """Forward to the backing's range scan (a bounded descent when its
        layout keeps *column* ordered) and sample it as a ``range`` op."""
        results = self._backing.query_range(column, lo, hi)
        self._observe(("range", column, lo, hi))
        return results

    def _observe(self, op: Operation) -> None:
        """Sample one completed operation, then advance the control loop.

        Never raises on behalf of the control loop: the caller's operation
        already succeeded, so :meth:`maybe_retune` records a failed
        automatic re-tune rather than surfacing it through an unrelated
        ``insert``.
        """
        self._ops_since_tune += 1
        self.sampler.observe(op)
        if self.policy.auto:
            self.maybe_retune()

    # -- the re-tune loop --------------------------------------------------------

    def maybe_retune(self) -> Optional[RetuneReport]:
        """Re-tune if the policy says so; the cheap steady-state check.

        Returns the report when a re-tune ran (whether or not it swapped),
        ``None`` otherwise.  Never fires while the circuit breaker is open
        or before the post-failure backoff has elapsed.  A re-tune failure
        on this (automatic) path is recorded in the report and
        ``live_stats()`` but not raised — the operation that triggered the
        check already succeeded, and the old backing keeps serving.
        """
        failures = self._consecutive_failures
        if failures >= _MAX_FAILURES:
            return None
        # min_ops with no failure streak, the backoff after one.
        if self._ops_since_tune < self.policy.min_ops * _BACKOFF_FACTOR**failures:
            return None
        drift = self.sampler.drift()
        if drift < self.policy.drift_threshold:
            return None
        reason = (
            "warm-up tune (no baseline mix yet)"
            if math.isinf(drift)
            else f"mix drift {drift:.2f} >= threshold {self.policy.drift_threshold:.2f}"
        )
        try:
            return self.retune(reason=reason, drift=None if math.isinf(drift) else drift)
        except LiveRelationError:
            # Recorded by the failure bookkeeping (backoff / quarantine /
            # circuit breaker); self-heal instead of failing the caller.
            return self.retunes[-1] if self.retunes else None

    def _retune_trace(self, contents: List[Tuple]) -> Trace:
        """Synthesize the tuning workload: current contents + sampled tail.

        Always built in ``enforce_fds=False`` (eviction) mode: the sampled
        tail is not a contiguous history — an old sampled insert can
        FD-conflict with the reconstructed current contents — so an FD-on
        replay could spuriously raise mid-scoring.  Eviction replay never
        raises and preserves the operation mix, which is what the scorer
        measures; the swapped-in backing still runs in the live relation's
        own FD mode.
        """
        operations: List[Operation] = [("insert", tup) for tup in contents]
        operations.extend(self.sampler.sampled_operations())
        return Trace(
            self.spec,
            operations,
            name=f"{self.name}-gen{self.generation}",
            enforce_fds=False,
        )

    def retune(self, reason: str = "explicit", drift: Optional[float] = None) -> RetuneReport:
        """Re-run the autotuner now; hot-swap the backing if a better layout wins.

        One synchronous pass on the caller's thread: snapshot the contents,
        tune on them plus the sampled tail, apply the payback guard, compile
        the winner, copy the snapshot into it, α-verify, swap.  No operation
        can run in between, so the one sorted snapshot is the trace's
        prefix, the copy source and the verify's expected relation.

        The current layout is force-included in the search, so "no better
        layout" resolves to a no-swap report rather than a migration to an
        equivalent shape.  Deterministic by construction for seeded
        workloads: the sampler's RNG is seeded and the autotuner's replay
        is exact.

        Failure semantics: any stage can fail (including by an injected
        fault) and the relation survives — the old backing is untouched and
        keeps serving, the failed layout is quarantined, the failure is
        recorded for backoff / circuit-breaker bookkeeping, and the error
        (:class:`RetuneFailed` or :class:`MigrationError`) propagates to
        *this explicit caller*.  Automatic re-tunes (:meth:`maybe_retune`)
        swallow it.
        """
        if self.circuit_open:
            raise RetuneFailed(
                f"circuit breaker open after {self._consecutive_failures} "
                f"consecutive re-tune failures; last error: "
                f"{self._last_error}; call reset_circuit() to re-enable",
                stage="circuit",
            )
        report = RetuneReport(self.sampler.seen, reason, drift, self.backing_layout())
        self.retunes.append(report)
        current = self.backing_decomposition()
        snapshot = self._backing.to_relation()
        contents = sorted(snapshot.tuples, key=Tuple.sort_key)
        tuning = self._run_tune(report, current, contents)
        report.tuning = tuning
        # The tune consumed this window: future drift is measured against it.
        self.sampler.rebase()
        horizon = self._ops_since_tune
        self._ops_since_tune = 0

        current_shape = canonical_shape(current) if current is not None else None
        winner = self._pick_winner(tuning, current_shape)
        if winner is not None and winner is not tuning.winner:
            # Quarantine displaced the access-count winner; compile_winner()
            # compiles `.winner`, so promote the chosen candidate.
            tuning.winner = winner
        shape = canonical_shape(winner.decomposition) if winner is not None else None
        if (
            # Everything the search surfaced has failed before.
            winner is None
            or shape == current_shape
            # The projected savings do not pay for moving every live row.
            # Not a failure: the search succeeded, the swap was not worth it.
            or not self._guard_allows(report, current_shape, tuning, winner, horizon)
        ):
            report.new_layout = report.old_layout
            self._consecutive_failures = 0
            return report

        report.new_layout = winner.decomposition.describe()
        try:
            if FAULTS.active:
                FAULTS.check("live.retune.compile")
            new_backing = tuning.compile_winner()(enforce_fds=self.enforce_fds)
        except ReproError as exc:
            raise self._failed(
                report,
                RetuneFailed(
                    f"compiling winner {report.new_layout!r} failed: {exc}", stage="compile"
                ),
                shape,
            ) from exc
        self._migrate(new_backing, contents, snapshot, report, shape)
        return report

    def _run_tune(
        self, report: RetuneReport, current: Optional[Decomposition], contents: List[Tuple]
    ) -> TuningResult:
        """The search stage: synthesize the trace and run the autotuner."""
        trace = self._retune_trace(contents)
        include = [current] if current is not None else []
        try:
            if FAULTS.active:
                FAULTS.check("live.retune.tune")
            # Eviction-mode replay, matching the synthesized trace (see
            # _retune_trace); the new backing itself runs in self.enforce_fds.
            return autotune(self.spec, trace, include=include, enforce_fds=False)
        except ReproError as exc:
            raise self._failed(
                report, RetuneFailed(f"autotune search failed: {exc}", stage="tune")
            ) from exc

    def _pick_winner(
        self, tuning: TuningResult, current_shape: Optional[PyTuple]
    ) -> Optional[ScoredCandidate]:
        """The best replayed candidate whose shape is not quarantined.

        The current layout always qualifies (it is serving right now), so
        when every better candidate is quarantined the re-tune resolves to
        "keep".  ``None`` only when *everything* replayed is quarantined
        and the current shape is not among the candidates.
        """
        for candidate in tuning.replayed:
            shape = canonical_shape(candidate.decomposition)
            if shape == current_shape or shape not in self._quarantined:
                return candidate
        return None

    def _guard_allows(
        self,
        report: RetuneReport,
        current_shape: Optional[PyTuple],
        tuning: TuningResult,
        winner: "ScoredCandidate",
        horizon: int,
    ) -> bool:
        """Cost/benefit check before a hot swap; records the decision.

        Savings are estimated from the exact replay the autotuner already
        paid for: the access gap between the current layout and the winner
        over the re-tune trace, scaled per-operation and projected over the
        ops observed since the last tune (the best available guess at the
        next window).  Migration cost is proxied as one counted access per
        live row per distinct edge of the winning layout — what the
        enumerate + reinsert pass must pay.  When the current layout was
        not replayed (or has no exact count) the guard abstains and the
        swap proceeds.
        """
        cur_accesses: Optional[int] = None
        for candidate in tuning.replayed:
            if canonical_shape(candidate.decomposition) == current_shape:
                cur_accesses = candidate.accesses
                break
        if cur_accesses is None or winner.accesses is None:
            return True
        # The re-tune trace opens with one rebuild insert per live row (see
        # _retune_trace) — state reconstruction, not workload.  Scale the
        # access gap over the sampled serving ops only, or the guard
        # under-prices winners on well-populated relations.
        serving_ops = max(1, len(tuning.trace) - len(self._backing))
        savings_per_op = (cur_accesses - winner.accesses) / serving_ops
        # A swap keeps earning until the *next* re-tune, not just for one
        # window — require payback within a few windows, so marginal
        # winners stay put but a genuinely better layout is never starved
        # by a short last window.
        payback = max(horizon, self.policy.min_ops * _GUARD_PAYBACK_WINDOWS, 1)
        projected = savings_per_op * payback
        edge_count = sum(len(node.edges) for node in winner.decomposition.nodes())
        migration_cost = float(len(self._backing) * max(1, edge_count))
        skipped = projected < migration_cost
        report.guard = {
            "horizon": payback,
            "savings_per_op": round(savings_per_op, 3),
            "projected_savings": round(projected, 1),
            "migration_cost": migration_cost,
            "skipped": skipped,
        }
        return not skipped

    # -- migration ---------------------------------------------------------------

    def _migrate(
        self,
        new_backing: RelationInterface,
        contents: List[Tuple],
        expected: Relation,
        report: RetuneReport,
        shape: PyTuple,
    ) -> None:
        """α-migration: reinsert *contents*, verify against *expected*, swap.

        The target is private until the final assignment, so any failure
        simply discards it: the old backing is untouched and keeps serving,
        and the failed layout (*shape*) is quarantined.  The swap itself is
        a single attribute write — atomic under the GIL — with nothing left
        to raise after it.
        """
        try:
            for tup in contents:
                if FAULTS.active:
                    FAULTS.check("live.migrate.copy")
                new_backing.insert(tup)
                report.migrated += 1
        except ReproError as exc:
            raise self._failed(
                report,
                MigrationError(
                    f"copying rows into {report.new_layout!r} failed: {exc}", stage="copy"
                ),
                shape,
            ) from exc
        try:
            if FAULTS.active:
                FAULTS.check("live.retune.verify")
            new_backing.check_well_formed()
            migrated = new_backing.to_relation()
            if migrated != expected:
                raise MigrationError(
                    f"α-migration to {report.new_layout!r} diverged: the new backing "
                    f"represents {len(migrated.tuples ^ expected.tuples)} differing "
                    f"tuple(s) — refusing to swap",
                    stage="verify",
                )
            if FAULTS.active:
                FAULTS.check("live.swap")
        except MigrationError as exc:
            self._failed(report, exc, shape)
            raise
        except ReproError as exc:
            stage = (
                "swap" if isinstance(exc, FaultInjected) and exc.site == "live.swap" else "verify"
            )
            raise self._failed(
                report,
                MigrationError(
                    f"α-verification of {report.new_layout!r} failed: {exc}", stage=stage
                ),
                shape,
            ) from exc
        self._backing = new_backing
        self.generation += 1
        report.swapped = True
        report.generation = self.generation
        self._consecutive_failures = 0

    # -- failure bookkeeping -----------------------------------------------------

    def _failed(
        self,
        report: RetuneReport,
        failure: LiveRelationError,
        shape: Optional[PyTuple] = None,
    ) -> LiveRelationError:
        """Record one failed attempt — count it toward backoff and the
        circuit breaker, quarantine *shape* — and return *failure* to raise."""
        self._consecutive_failures += 1
        stage = getattr(failure, "stage", "unknown")
        report.error = f"{type(failure).__name__}[{stage}]: {failure}"
        if shape is not None:
            self._quarantined[shape] = report.new_layout or "<uncompiled>"
        self._ops_since_tune = 0
        return failure

    # -- inspection (forwarded, never sampled) -----------------------------------

    def to_relation(self) -> Relation:
        return self._backing.to_relation()

    def checkpoint(self) -> Relation:
        return self.to_relation()

    def check_well_formed(self) -> None:
        check = getattr(self._backing, "check_well_formed", None)
        if check is not None:
            check()

    def __len__(self) -> int:
        return len(self._backing)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._backing)

    def __contains__(self, pattern: object) -> bool:
        return pattern in self._backing

    def __repr__(self) -> str:
        return (
            f"LiveRelation({type(self._backing).__name__}, gen={self.generation}, "
            f"size={len(self)})"
        )


# -- the unified factory ---------------------------------------------------------

#: The tiers :func:`open_relation` accepts.
TIERS = ("auto", "reference", "compiled")


def default_layout(spec: RelationSpec) -> str:
    """The layout used when the caller supplies neither one nor a trace:
    one hash path keyed by the smallest minimal key, residual columns in
    the unit leaf — adequate for every specification by construction."""
    key = min(spec.minimal_keys(), key=lambda k: (len(k), tuple(sorted(k))))
    rest = sorted(spec.columns - key)
    return f"{', '.join(sorted(key))} -> htable {{{', '.join(rest)}}}"


def open_relation(
    spec: RelationSpec,
    layout: Union[Decomposition, str, None] = None,
    *,
    tier: str = "auto",
    tune: Optional[Trace] = None,
    live: bool = False,
    enforce_fds: bool = True,
    policy: Union[RetunePolicy, Mapping, None] = None,
    sampler: Optional[SamplingTraceRecorder] = None,
    class_name: Optional[str] = None,
    sizes=None,
) -> RelationInterface:
    """Open a relation: the one documented entry point for every tier.

    Exported as ``repro.open``.  Layout resolution:

    * ``layout`` given, ``tune=None`` — use that layout;
    * ``tune`` given (a :class:`~repro.autotuner.trace.Trace`) — run the §5
      autotuner and use its winner; a ``layout`` passed alongside is
      force-included in the search as a baseline candidate;
    * neither — :func:`default_layout` (a hash path over the smallest
      minimal key).

    ``tier`` selects the implementation: ``"reference"`` (the
    specification-level oracle; any layout is ignored), ``"compiled"``
    (:func:`repro.codegen.compile_relation`), or ``"auto"`` (currently the
    compiled tier — the fast one).  ``sizes`` are optional per-edge
    container-size estimates forwarded to the compiler's plan table
    (ignored by the reference tier; rejected together with ``tune``, whose
    winner carries its own trace-derived estimates).

    ``live=True`` wraps the backing in a :class:`LiveRelation` — an
    always-on sampled, self-re-tuning facade governed by ``policy`` (a
    :class:`RetunePolicy` or a mapping of its fields) and ``sampler``.
    """
    if not isinstance(tier, str) or tier not in TIERS:
        raise LiveRelationError(
            f"unknown tier {tier!r}; valid tiers: {', '.join(TIERS)}"
        )
    if tune is not None and sizes is not None:
        raise LiveRelationError(
            "sizes cannot be combined with tune: the autotuned winner is "
            "compiled against its own trace-derived size estimates"
        )
    if layout is not None and not isinstance(layout, (str, Decomposition)):
        raise LiveRelationError(
            f"layout must be a Decomposition or a layout string like "
            f"'ns, pid -> htable {{state, cpu}}'; got {type(layout).__name__}"
        )

    decomposition: Optional[Decomposition] = None
    tuning: Optional[TuningResult] = None
    if isinstance(layout, str):
        try:
            layout = parse_decomposition(layout)
        except ReproError as exc:
            # Re-raise with the valid structure vocabulary attached: a typo'd
            # container name is the common mistake at this entry point.
            raise LiveRelationError(
                f"invalid layout {layout!r}: {exc} "
                f"(valid structures: {', '.join(structure_names())})"
            ) from exc
    if tune is not None:
        include = [layout] if layout is not None else []
        tuning = autotune(spec, tune, include=include, enforce_fds=enforce_fds)
        decomposition = tuning.winner_decomposition
    elif layout is not None:
        decomposition = layout

    backing: RelationInterface
    if tier == "reference":
        backing = ReferenceRelation(spec, enforce_fds=enforce_fds)
    else:
        if decomposition is None:
            decomposition = parse_decomposition(default_layout(spec))
        if tuning is not None:
            cls = tuning.compile_winner(class_name)
        else:
            cls = compile_relation(spec, decomposition, class_name, sizes=sizes)
        backing = cls(enforce_fds=enforce_fds)

    if not live:
        return backing
    return LiveRelation(backing, policy=policy, sampler=sampler)
