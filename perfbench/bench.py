"""Workloads, the closed-loop serve phase, and the metrics of one run.

Load comes from one process and one caller thread in a closed loop with no
think time: the next operation is issued when the previous one returns.  A
*pass* opens a fresh relation, loads the workload's initial rows (untimed),
then times every op of the trace.  Each output is compared with the
oracle's answer once its op's clock has stopped, and the relation's final
state after the pass.  Passes repeat until the serve phase has run for the
requested number of seconds; a pass is never cut, so every pass ends with a
final-state check.

The library is driven only through public entry points: ``repro.open`` on
the default tier (with ``tune=`` and ``live=True``), the class of a tuned
relation, ``clear_codegen_cache``, ``codegen_cache_stats``,
``LiveRelation.live_stats`` and ``repro.structures.COUNTER``.
"""

from __future__ import annotations

import gc
import statistics
import tracemalloc
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, List, Tuple

import repro
from repro import RetunePolicy, parse_decomposition
from repro.autotuner import Trace
from repro.codegen import clear_codegen_cache, codegen_cache_stats
from repro.structures import COUNTER

from . import gen
from .gen import CLASSES, SCAN, WRITE, Generated, derive_seed, fingerprint
from .tracing import Recorder

US = 1e-3  # ns -> µs


class Failed:
    """The outcome of an op that raised."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


class Unit:
    """One relation being served: a generated trace and how to open it fresh."""

    def __init__(self, g: Generated, open_fresh: Callable[[], object]):
        self.gen = g
        self.open_fresh = open_fresh
        self.load = g.ops[: g.load]
        self.ops = g.ops[g.load :]


# -- workloads ---------------------------------------------------------------------

#: Serve-side sizes.  4,000 rows keep every distinct row value (at most
#: 4,000 processes x 3 states x 4 CPUs = 48,000) below the compiled tier's
#: 131,072-entry full-row Tuple intern cache, so the cache never clears.
#: Passes are long (about a second) so that the per-pass reload is rare,
#: and serve_write's ~3,000 scans per pass pin the share of scans that
#: trigger a collection, which falls at the same ops in every pass.
SERVE_ROWS = 4000
SERVE_READ_STEPS = 10_000
SERVE_WRITE_STEPS = 40_000
#: 200 edges; the hot query flips after about 640 ops.  The default policy
#: re-tunes at op 512 (warm-up) and op 1,024 (drift), swaps once, and the
#: new layout then serves the rest of the ~66,000-op pass.  The long tail
#: gives every latency percentile tens of thousands of samples per run: with
#: a 16,000-step tail the re-tunes take nine tenths of each pass, and the
#: p99s of the few samples left swing by a third from run to run.
DRIFT_SCALE = 100
DRIFT_TAIL_STEPS = 64_000


class Workload:
    """Inputs, set-up and serve units of one workload."""

    name = ""
    #: How many cold set-ups one untraced run times (the median is reported).
    setups = 9

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> List[Unit]:
        """Open the workload's relations from a cold codegen cache."""
        raise NotImplementedError

    def memory_ops(self, unit: Unit) -> int:
        """How many trace ops the memory pass replays after the load."""
        return min(500, len(unit.ops))


class OneRelation(Workload):
    """A workload that serves one relation opened on its hand layout."""

    live = False
    g: Generated

    def setup(self) -> List[Unit]:
        layout = parse_decomposition(self.g.layout)
        unit = Unit(self.g, lambda: repro.open(self.g.spec, layout, live=self.live))
        unit.open_fresh()
        return [unit]


class ServeRead(OneRelation):
    name = "serve_read"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.g = gen.scheduler(SERVE_ROWS, derive_seed(0x5EED0, seed), steps=SERVE_READ_STEPS)


class ServeWrite(OneRelation):
    name = "serve_write"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.g = gen.context_switch(SERVE_ROWS, SERVE_WRITE_STEPS, derive_seed(0x5EED8, seed))


#: The held-out relations are opened at this many times the tuning scale.
HELD_OUT_SCALE = 4
#: They serve this many times the generator's default number of draws at
#: that scale.  Each pass opens fresh relations, whose first queries run
#: cold: at the default length those are 0.5% of the lookups, enough, with
#: the collections, to put the lookup p99 on the edge of the slow tail.
HELD_OUT_LENGTH = 8


class Synth(Workload):
    name = "synth"
    setups = 3
    #: ``(generator, default seed, tuning scale, default draws per unit of
    #: scale)``.  Tuning scales are small so that three cold set-ups fit in
    #: one run, and large enough that the winner is the same layout for
    #: nearly every seed: below 40, ordered_scan and spanning traces are too
    #: short to separate their candidates.
    GENERATORS = (
        (gen.scheduler, 0x5EED0, 20, 10),
        (gen.graph_reverse, 0x5EED5, 20, 8),
        (gen.ordered_scan, 0x5EED7, 40, 6),
        (gen.spanning, 0x5EED2, 40, 4),
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        self.tune = [f(n, derive_seed(base, seed, 0)) for f, base, n, _ in self.GENERATORS]
        self.held_out = [
            f(
                n * HELD_OUT_SCALE,
                derive_seed(base, seed, 1),
                steps=n * HELD_OUT_SCALE * per * HELD_OUT_LENGTH,
            )
            for f, base, n, per in self.GENERATORS
        ]
        self.traces = [Trace(g.spec, g.trace_operations(), name=g.name) for g in self.tune]

    def memory_ops(self, unit: Unit) -> int:
        # A default-length trace's worth of ops keeps the figure steady from
        # seed to seed without a long replay under tracemalloc.
        return len(unit.ops) // HELD_OUT_LENGTH

    def setup(self) -> List[Unit]:
        units = []
        for g, trace in zip(self.held_out, self.traces):
            cls = type(repro.open(g.spec, tune=trace))
            units.append(Unit(g, cls))
        return units


class LiveDrift(OneRelation):
    name = "live_drift"
    live = True

    def __init__(self, seed: int):
        super().__init__(seed)
        self.g = gen.graph_drift(
            DRIFT_SCALE, derive_seed(0x5EED6, seed), tail_steps=DRIFT_TAIL_STEPS
        )

    def memory_ops(self, unit: Unit) -> int:
        # Stop before the first re-tune: tracemalloc slows replay several-fold.
        return max(0, min(len(unit.ops), RetunePolicy().min_ops - 1 - len(unit.load)))


WORKLOADS = {w.name: w for w in (ServeRead, ServeWrite, Synth, LiveDrift)}


# -- set-up ------------------------------------------------------------------------


def timed_setup(workload: Workload, repeats: int) -> Tuple[List[Unit], List[float]]:
    """Run the cold set-up *repeats* times; return the last units and every time."""
    times = []
    units: List[Unit] = []
    for _ in range(repeats):
        clear_codegen_cache()
        gc.collect()
        t0 = perf_counter()
        units = workload.setup()
        times.append(perf_counter() - t0)
    return units, times


# -- serving -----------------------------------------------------------------------


def _wrong(op: tuple, r) -> bool:
    """Did a read (or a raising op) fail to match the oracle's answer?"""
    if type(r) is Failed:
        return True
    if op[4] is None:  # A write: nothing to compare.
        return False
    if fingerprint(r) != op[4]:
        return True
    if op[1] == "range":
        keys = [t[op[2]] for t in r]
        return keys != sorted(keys)
    return False


def _run_ops(rel, ops, lat) -> Tuple[int, int]:
    """Time every op; return ``(failed ops, ns spent in ops)``.

    Each result is checked with the clock stopped and then dropped, as a
    caller would, so results never pile up for the garbage collector.
    """
    query = rel.query
    insert = rel.insert
    remove = rel.remove
    update = rel.update
    query_range = rel.query_range
    pc = perf_counter_ns
    failed = busy = 0
    for op in ops:
        cls, kind, a, b, _expected = op
        t0 = pc()
        try:
            if kind == "query":
                r = query(a, b)
            elif kind == "update":
                r = update(a, b)
            elif kind == "insert":
                r = insert(a)
            elif kind == "remove":
                r = remove(a)
            else:
                r = query_range(a, b[0], b[1])
        except Exception as exc:  # Counted as a failed op, never fatal.
            r = Failed(exc)
        took = pc() - t0
        lat[cls].append(took)
        busy += took
        if r is not None and _wrong(op, r):
            failed += 1
    return failed, busy


def _state_ok(unit: Unit, rel) -> bool:
    """Does the relation hold the oracle's final state after a pass?"""
    try:
        return fingerprint(rel.to_relation()) == unit.gen.final
    except Exception:  # A relation that cannot enumerate itself has failed.
        return False


#: Loads of at least this many rows are followed by a collection.  Smaller
#: loads leave little garbage, and collecting after them would make every
#: pass trigger its collections at the same ops: with the small synth
#: relations that pinned, per seed, whether 1% of lookups paid for one.
COLLECT_AFTER_LOAD = 1000


class Served:
    """What a serve phase measured."""

    def __init__(self) -> None:
        self.lat: List[List[int]] = [[], [], []]
        self.ops = 0
        self.failed = 0
        self.bad_states = 0
        self.passes = 0
        self.first_relations: list = []
        #: Ops per second of each pass: a pass is short next to a whole run,
        #: so the median over passes sheds the passes a descheduling hit.
        self.pass_rates: List[float] = []

    def ops_per_s(self) -> float:
        return statistics.median(self.pass_rates)


def _one_pass(units: List[Unit], served: Served, run_ops: Callable, lat: list) -> float:
    """Serve every unit once on a fresh relation; return the pass's ops/s."""
    pass_ops = pass_ns = 0
    for unit in units:
        rel = unit.open_fresh()
        for op in unit.load:
            rel.insert(op[2])
        if len(unit.load) >= COLLECT_AFTER_LOAD:
            # A serving relation's base rows are old: collect now, untimed,
            # so that the timed ops pay for the collections their own churn
            # triggers, as in a long-running server, not for the reload's.
            gc.collect()
        failed, busy = run_ops(rel, unit.ops, lat)
        pass_ns += busy
        pass_ops += len(unit.ops)
        served.failed += failed
        served.bad_states += not _state_ok(unit, rel)
        if not served.passes:
            served.first_relations.append(rel)
    served.ops += pass_ops
    served.passes += 1
    return pass_ops / (pass_ns * 1e-9)


def serve(
    units: List[Unit],
    seconds: float,
    run_ops: Callable = _run_ops,
    warmup: bool = True,
) -> Served:
    """Serve whole passes over *units* until *seconds* of serve time elapsed
    (one pass when *seconds* is 0).

    With *warmup*, a first pass fills the caches and compiles what the
    workload compiles while serving; it is checked but not timed.
    """
    served = Served()
    # The generated inputs are long-lived harness objects; freezing them out
    # of the collector leaves collection pauses to the library's objects.
    gc.collect()
    gc.freeze()
    if warmup:
        _one_pass(units, served, run_ops, [[], [], []])
    start = perf_counter()
    while True:
        served.pass_rates.append(_one_pass(units, served, run_ops, served.lat))
        if perf_counter() - start >= seconds:
            return served


def percentile(sorted_ns: List[int], q: float) -> float:
    """Nearest-rank percentile, in µs."""
    rank = max(1, -(-len(sorted_ns) * q // 100))
    return sorted_ns[int(rank) - 1] * US


def retained_bytes_per_row(workload: Workload, units: List[Unit]) -> float:
    """Bytes the relations retain per live row, from a tracemalloc pass.

    Each unit's relation is opened fresh, loaded, and serves a prefix of its
    trace (so the intern and projection caches fill); the traced memory still
    allocated after ``gc.collect()`` is divided by the live rows.  An
    untraced replay of the same ops runs first, so that first-use
    allocations outside the relation are not counted.  Never run inside a
    timed phase: tracemalloc slows replay several-fold.
    """

    def replay() -> list:
        lat = [[], [], []]
        kept = []
        for unit in units:
            rel = unit.open_fresh()
            for op in unit.load:
                rel.insert(op[2])
            _run_ops(rel, unit.ops[: workload.memory_ops(unit)], lat)
            kept.append(rel)
        return kept

    replay()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kept = replay()
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return used / max(1, sum(len(rel) for rel in kept))


# -- the two kinds of run --------------------------------------------------------


def end_to_end(workload: Workload, seconds: float) -> Dict[str, object]:
    """The untraced run: every end-to-end metric."""
    units, setup_times = timed_setup(workload, workload.setups)
    bpr = retained_bytes_per_row(workload, units)
    served = serve(units, seconds)
    metrics = {"ops_per_s": (served.ops_per_s(), "1/s")}
    samples = {}
    for cls, name in enumerate(CLASSES):
        lat = served.lat[cls]
        samples[name] = len(lat)
        lat.sort()
        metrics[f"{name}_p50_us"] = (percentile(lat, 50), "us")
        metrics[f"{name}_p99_us"] = (percentile(lat, 99), "us")
    metrics["setup_s"] = (statistics.median(setup_times), "s")
    metrics["bytes_per_row"] = (bpr, "B")
    failed = served.failed + served.bad_states
    return {
        "metrics": metrics,
        "samples": samples,
        "attempted": served.ops,
        "failed": failed,
        "error_rate": failed / max(1, served.ops),
        "passes": served.passes,
    }


class TracedLoop:
    """The serve loop of the traced run: one span per op.

    While :attr:`counting`, ``COUNTER`` is on and the loop counts container
    accesses per op class, ``Tuple`` constructions and rows returned.  The
    traced run counts over exactly one pass, so the counts repeat exactly,
    and takes per-call times from later passes, because counting switches
    list containers onto their instrumented walks.  Ops during which a
    re-tune ran are left out of the counts: the tuner resets and disables
    ``COUNTER`` and builds tuples of its own.
    """

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.counting = True
        self.accesses = [0, 0, 0]
        self.counted = [0, 0, 0]
        self.tuples_built = 0
        self.rows_returned = 0
        self.scan_rows = 0
        self.scan_ns = 0

    def run_ops(self, rel, ops, lat) -> Tuple[int, int]:
        rec = self.rec
        starts, ends, parents, name_ids = rec.starts, rec.ends, rec.parents, rec.name_ids
        counter = COUNTER
        counting = self.counting
        calls = {}
        failed = busy = 0
        for i, op in enumerate(ops):
            cls, kind, a, b, _expected = op
            call = calls.get((cls, kind))
            if call is None:
                method = getattr(rel, "query_range" if kind == "range" else kind)
                call = calls[cls, kind] = rec.wrap(f"op.{CLASSES[cls]}", method)
            rec.op_id = i
            if counting:
                counter.enabled = True
                acc0 = counter.accesses
                tup0 = rec.tuples
                retunes0 = rec.retunes
            index = len(starts)
            try:
                if kind == "range":
                    r = call(a, b[0], b[1])
                elif kind == "insert" or kind == "remove":
                    r = call(a)
                else:
                    r = call(a, b)
            except Exception as exc:  # Counted as a failed op, never fatal.
                r = Failed(exc)
            took = ends[index] - starts[index]
            busy += took
            lat[cls].append(took)
            if r is None:
                pass
            elif _wrong(op, r):
                failed += 1
                continue
            if counting:
                if cls != WRITE:
                    self.rows_returned += len(r)
                if rec.retunes == retunes0:
                    self.accesses[cls] += counter.accesses - acc0
                    self.counted[cls] += 1
                    self.tuples_built += rec.tuples - tup0
            elif cls == SCAN and len(starts) > index + 1 and parents[index + 1] == index:
                # The op's first child span is the generated method's call.
                if rec.names[name_ids[index + 1]].startswith("codegen.query"):
                    self.scan_rows += len(r)
                    self.scan_ns += ends[index + 1] - starts[index + 1]
        rec.op_id = -1
        counter.enabled = False
        return failed, busy


def _gc_collections() -> int:
    return sum(s["collections"] for s in gc.get_stats())


def traced(
    workload: Workload, seconds: float, spans_path: str, header: Dict[str, object]
) -> Dict[str, object]:
    """The traced run: every per-layer metric, plus the tracing overhead.

    Counts and layer totals (``*_s``) cover the set-up plus one counting
    pass; per-call means (``*_us``) and the traced throughput come from the
    passes after it; the untraced throughput from a final untraced phase of
    the same length.  Spans go to *spans_path*, after *header*.
    """
    recorder = Recorder()
    loop = TracedLoop(recorder)
    with recorder:
        units, _ = timed_setup(workload, 1)
        gc0 = _gc_collections()
        counted = serve(units, 0, loop.run_ops, warmup=False)
        gc_collections = _gc_collections() - gc0
        # The set-up cleared the cache, so these count this window only.
        cache = codegen_cache_stats()
        window_end = len(recorder)
        loop.counting = False
        timed = serve(units, seconds, loop.run_ops, warmup=False)
    COUNTER.reset()
    untraced = serve(units, seconds)

    first = recorder.layer_times(0, window_end)
    every = recorder.layer_times(window_end, in_ops=True)

    def self_s(name: str) -> float:
        return first.get(name, (0, 0, 0))[2] * 1e-9

    def total_s(name: str) -> float:
        return first.get(name, (0, 0, 0))[1] * 1e-9

    def mean_us(*names: str) -> float:
        calls = sum(every.get(n, (0, 0, 0))[0] for n in names)
        self_ns = sum(every.get(n, (0, 0, 0))[2] for n in names)
        return self_ns * US / calls if calls else 0.0

    lives = [r for r in counted.first_relations if hasattr(r, "live_stats")]
    live_stats = [r.live_stats() for r in lives]
    tunings = recorder.tunings
    m: Dict[str, tuple] = {
        "core.tuples_built": (loop.tuples_built, "count"),
        "core.rows_returned": (loop.rows_returned, "count"),
        "codegen.compile_s": (self_s("codegen.compile"), "s"),
        "codegen.compiles": (cache["misses"], "count"),
        "codegen.cache_hits": (cache["hits"], "count"),
        "codegen.source_lines": (recorder.source_lines, "count"),
        "codegen.query_us": (mean_us("codegen.query"), "us"),
        "codegen.query_range_us": (mean_us("codegen.query_range"), "us"),
        "codegen.insert_us": (mean_us("codegen.insert"), "us"),
        "codegen.remove_us": (mean_us("codegen.remove"), "us"),
        "codegen.update_us": (mean_us("codegen.update"), "us"),
        "codegen.scan_us_per_row": (
            loop.scan_ns * US / loop.scan_rows if loop.scan_rows else 0.0,
            "us",
        ),
    }
    for cls, name in enumerate(CLASSES):
        n = loop.counted[cls]
        m[f"structures.accesses_per_{name}"] = (loop.accesses[cls] / n if n else 0.0, "count")
    m.update(
        {
            "decomposition.plan_calls": (first.get("decomposition.plan", (0,))[0], "count"),
            "decomposition.plan_s": (self_s("decomposition.plan"), "s"),
            "decomposition.replay_s": (self_s("decomposition.replay"), "s"),
            "autotuner.candidates": (sum(len(t.candidates) for t in tunings), "count"),
            "autotuner.replayed": (sum(len(t.replayed) for t in tunings), "count"),
            "autotuner.enumerate_s": (self_s("autotuner.enumerate"), "s"),
            "autotuner.static_s": (self_s("autotuner.static"), "s"),
            "autotuner.exact_s": (self_s("autotuner.exact"), "s"),
            "autotuner.autotune_s": (total_s("autotuner.autotune"), "s"),
            "autotuner.winner_accesses": (sum(t.winner.accesses for t in tunings), "count"),
            "live.retunes": (sum(s["retunes"] for s in live_stats), "count"),
            "live.swaps": (sum(s["swaps"] for s in live_stats), "count"),
            "live.guard_skips": (sum(s["guard_skips"] for s in live_stats), "count"),
            "live.failures": (sum(s["failures"] for s in live_stats), "count"),
            "live.rows_migrated": (sum(r.migrated for rel in lives for r in rel.retunes), "count"),
            "live.retune_s": (total_s("live.retune"), "s"),
            "live.swap_s": (self_s("live.retune"), "s"),
            # An op span's children are the backing's method and any re-tune,
            # so on a live relation its self time is the facade's own cost.
            "live.facade_us": (
                mean_us("op.lookup", "op.scan", "op.write") if lives else 0.0,
                "us",
            ),
            "runtime.gc_collections": (gc_collections, "count"),
            "trace.ops_per_s_traced": (timed.ops_per_s(), "1/s"),
            "trace.ops_per_s_untraced": (untraced.ops_per_s(), "1/s"),
            "trace.overhead_pct": (
                100.0 * (untraced.ops_per_s() - timed.ops_per_s()) / untraced.ops_per_s(),
                "%",
            ),
            "trace.spans": (len(recorder), "count"),
        }
    )
    phases = (counted, timed, untraced)
    failed = sum(p.failed + p.bad_states for p in phases)
    attempted = sum(p.ops for p in phases)
    recorder.write(spans_path, dict(header, metrics={k: v[0] for k, v in m.items()}))
    return {
        "metrics": m,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / max(1, attempted),
        "missing": recorder.missing,
        "passes": timed.passes,
    }
