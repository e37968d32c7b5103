"""Tests for ``repro.live``: the LiveRelation facade, the sampler, the
re-tune loop, α-migration, and the unified ``repro.open`` factory.

The headline property is the ISSUE-6 acceptance differential: a seeded
1000-operation drifting workload driven through ``repro.open(spec,
live=True)`` triggers an automatic re-tune, hot-swaps the compiled backing
class, and the facade's contents match a ``ReferenceRelation`` mirror after
every single operation — FD-on and FD-off.
"""

import math
import random
import threading

import pytest

import repro
from repro import (
    LiveRelation,
    ReferenceRelation,
    RelationInterface,
    RelationSpec,
    RetunePolicy,
    SamplingTraceRecorder,
    Trace,
    TraceRecorder,
    compile_relation,
    open_relation,
    parse_decomposition,
    t,
)
from repro.codegen import clear_codegen_cache, codegen_cache_stats
from repro.core.errors import FunctionalDependencyError, LiveRelationError
from repro.core.tuples import Tuple
from repro.live import default_layout

EDGE_SPEC = RelationSpec("src, dst, weight", fds=["src, dst -> weight"], name="edge")
FORWARD_LAYOUT = "src -> htable (dst -> htable {weight})"


def drifting_workload(n_ops=1000, seed=7, fd_off=False):
    """A seeded workload whose query mix flips from {src} to {dst} mid-run.

    With ``fd_off``, re-inserts of an existing (src, dst) pair carry a fresh
    weight, exercising last-writer-wins eviction across the hot-swap.
    """
    rng = random.Random(seed)
    ops = []
    for i in range(n_ops):
        phase_forward = i < n_ops // 2
        roll = rng.random()
        if roll < 0.3:
            s, d = rng.randrange(12), rng.randrange(12)
            weight = rng.randrange(1000) if fd_off else s * 100 + d
            ops.append(("insert", t(src=s, dst=d, weight=weight)))
        elif roll < 0.35:
            ops.append(("remove", t(src=rng.randrange(12), dst=rng.randrange(12))))
        elif roll < 0.4:
            ops.append(
                ("update", t(src=rng.randrange(12), dst=rng.randrange(12)),
                 t(weight=rng.randrange(1000)))
            )
        elif phase_forward:
            ops.append(("query", t(src=rng.randrange(12)), None))
        else:
            ops.append(("query", t(dst=rng.randrange(12)), None))
    return ops


def apply_op(relation, op):
    kind = op[0]
    if kind == "insert":
        relation.insert(op[1])
    elif kind == "remove":
        relation.remove(op[1])
    elif kind == "update":
        relation.update(op[1], op[2])
    else:
        return relation.query(op[1], op[2])


# -- the sampler -----------------------------------------------------------------


class TestSamplingTraceRecorder:
    def test_bounded_and_ordered(self):
        sampler = SamplingTraceRecorder(capacity=8, horizon=64, window=16, seed=1)
        for i in range(500):
            sampler.observe(("insert", t(src=i, dst=i, weight=i)))
        sampled = sampler.sampled_operations()
        assert len(sampled) == 8  # never exceeds capacity
        indices = [op[1]["src"] for op in sampled]
        assert indices == sorted(indices)  # arrival order restored

    def test_decay_keeps_recent_operations_reachable(self):
        # With the horizon floor, late operations keep a capacity/horizon
        # inclusion chance; over a long tail some must displace early ones.
        sampler = SamplingTraceRecorder(capacity=16, horizon=64, window=16, seed=3)
        for i in range(5000):
            sampler.observe(("insert", t(src=i, dst=0, weight=0)))
        newest = max(op[1]["src"] for op in sampler.sampled_operations())
        assert newest > 1000  # plain reservoir over 5000 ops would rarely keep these

    def test_drift_is_total_variation(self):
        sampler = SamplingTraceRecorder(capacity=8, horizon=64, window=100, seed=0)
        assert math.isinf(sampler.drift())  # no baseline yet
        for _ in range(100):
            sampler.observe(("query", t(src=1), None))
        sampler.rebase()
        assert sampler.drift() == 0.0
        for _ in range(50):
            sampler.observe(("query", t(dst=1), None))
        # Window now 50/50 {src}/{dst} vs baseline 100% {src}: TV = 0.5.
        assert sampler.drift() == pytest.approx(0.5)

    def test_determinism(self):
        ops = drifting_workload(200)
        a = SamplingTraceRecorder(seed=5)
        b = SamplingTraceRecorder(seed=5)
        for op in ops:
            a.observe(op)
            b.observe(op)
        assert a.sampled_operations() == b.sampled_operations()
        assert a.recent_mix() == b.recent_mix()

    def test_rejects_bad_parameters(self):
        with pytest.raises(LiveRelationError):
            SamplingTraceRecorder(capacity=0)
        with pytest.raises(LiveRelationError):
            SamplingTraceRecorder(capacity=16, horizon=8)


# -- the acceptance differential --------------------------------------------------


@pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
def test_drift_differential_across_hot_swap(enforce_fds):
    """Contents match the oracle after every op of a seeded 1000-op
    drifting run, across automatic re-tune + hot-swap (ISSUE 6 acceptance)."""
    live = open_relation(
        EDGE_SPEC,
        FORWARD_LAYOUT,
        live=True,
        enforce_fds=enforce_fds,
        policy={"min_ops": 150, "drift_threshold": 0.25},
        sampler=SamplingTraceRecorder(seed=11),
    )
    mirror = ReferenceRelation(EDGE_SPEC, enforce_fds=enforce_fds)
    initial_backing = type(live.backing)
    for op in drifting_workload(1000, fd_off=not enforce_fds):
        try:
            expected = apply_op(mirror, op)
        except Exception as exc:  # FD violation: both tiers must refuse alike
            with pytest.raises(type(exc)):
                apply_op(live, op)
            continue
        got = apply_op(live, op)
        if op[0] == "query":
            assert sorted(got, key=Tuple.sort_key) == sorted(expected, key=Tuple.sort_key)
        assert live.to_relation() == mirror.to_relation()
    # The drift must actually have re-tuned and swapped the compiled class.
    assert live.generation >= 1
    assert any(r.swapped for r in live.retunes)
    assert type(live.backing) is not initial_backing
    assert type(live.backing).__mro__  # a compiled class, still a real type
    assert isinstance(live.backing, RelationInterface)
    live.check_well_formed()


def test_automatic_retune_flips_to_reverse_layout():
    """The drifted tail ({dst} queries) must pull in a dst-keyed layout."""
    live = open_relation(
        EDGE_SPEC,
        FORWARD_LAYOUT,
        live=True,
        policy={"min_ops": 150, "drift_threshold": 0.25},
        sampler=SamplingTraceRecorder(seed=11),
    )
    for op in drifting_workload(1000):
        try:
            apply_op(live, op)
        except FunctionalDependencyError:
            pass  # updates make some later re-inserts conflict; not under test
    assert live.generation >= 1
    layout = live.backing_layout()
    assert "dst -> htable" in layout


# -- explicit retune + migration --------------------------------------------------


class TestRetune:
    def make_live(self, layout=FORWARD_LAYOUT, **policy):
        policy.setdefault("auto", False)
        live = open_relation(EDGE_SPEC, layout, live=True, policy=policy)
        for i in range(40):
            s, d = divmod(i, 8)
            live.insert(t(src=s, dst=d, weight=i))
        return live

    def test_noop_when_layout_already_optimal(self):
        # Point lookups on the full key: one flat hash probe per query and
        # per insert's FD check, which no candidate beats on compiled counts
        # (a nested or branched layout pays a second probe everywhere).
        live = self.make_live("src, dst -> htable {weight}")
        for _ in range(200):
            live.query(t(src=3, dst=2), None)
        report = live.retune()
        assert not report.swapped
        assert live.generation == 0
        assert report.new_layout == report.old_layout
        assert report.tuning is not None  # the autotuner did run

    def test_swap_preserves_contents_and_counts_migrated_rows(self):
        live = self.make_live()
        for _ in range(200):
            live.query(t(dst=3), None)
        before = live.to_relation()
        report = live.retune()
        assert report.swapped
        assert report.migrated == len(before.tuples)
        assert live.to_relation() == before
        assert live.generation == 1
        assert report.generation == 1

    def test_retune_resets_drift_baseline(self):
        live = self.make_live()
        for _ in range(100):
            live.query(t(dst=3), None)
        live.retune()
        assert live.sampler.drift() == 0.0
        assert live.live_stats()["ops_since_tune"] == 0


# -- the facade contract -----------------------------------------------------------


class TestFacadeContract:
    def test_inspection_is_not_sampled(self):
        live = open_relation(EDGE_SPEC, FORWARD_LAYOUT, live=True, policy={"auto": False})
        live.insert(t(src=1, dst=2, weight=3))
        seen = live.sampler.seen
        len(live), list(live), (t(src=1, dst=2, weight=3) in live)
        live.to_relation()
        assert live.sampler.seen == seen

    def test_wraps_any_tier(self):
        for backing in (
            ReferenceRelation(EDGE_SPEC),
            compile_relation(EDGE_SPEC, parse_decomposition(FORWARD_LAYOUT))(),
        ):
            live = LiveRelation(backing, policy={"auto": False})
            live.insert(t(src=1, dst=2, weight=3))
            assert len(live) == 1
            # Compiled classes reconstruct their spec literally in the
            # generated module, so compare by value, not identity.
            assert live.spec == EDGE_SPEC

    def test_rejects_backing_without_spec(self):
        with pytest.raises(LiveRelationError):
            LiveRelation(object())

    def test_policy_coercion(self):
        assert RetunePolicy.coerce(None).auto
        policy = RetunePolicy(auto=False)
        assert RetunePolicy.coerce(policy) is policy
        assert RetunePolicy.coerce({"min_ops": 7}).min_ops == 7
        with pytest.raises(LiveRelationError):
            RetunePolicy.coerce("eager")
        with pytest.raises(LiveRelationError):
            RetunePolicy(min_ops=0)
        with pytest.raises(LiveRelationError):
            RetunePolicy(drift_threshold=0.0)
        # An unknown field — a typo or a knob that no longer exists — is a
        # LiveRelationError naming the valid fields, never a bare TypeError,
        # including through the factory.
        for bad in ({"min_op": 5}, {"background": True}, {"dual_write_threshold": 10}):
            with pytest.raises(LiveRelationError, match="auto, min_ops, drift_threshold"):
                RetunePolicy.coerce(bad)
            with pytest.raises(LiveRelationError, match=repr(next(iter(bad)))):
                open_relation(EDGE_SPEC, FORWARD_LAYOUT, live=True, policy=bad)
        assert RetunePolicy.__slots__ == ("auto", "min_ops", "drift_threshold")

    def test_query_range_forwards_samples_and_retunes_to_an_ordered_root(self):
        spec = RelationSpec("ts, sensor, reading", fds=["ts -> sensor, reading"], name="ts")
        live = open_relation(
            spec, "ts -> htable {sensor, reading}", live=True, policy={"auto": False}
        )
        for i in range(200):
            live.insert(t(ts=i, sensor=i % 5, reading=i * 3))
        got = live.query_range("ts", 10, 20)
        assert got == live.backing.query_range("ts", 10, 20)
        assert [row["ts"] for row in got] == list(range(10, 21))
        # Sampled as a range scan on its column, not as an unbound query.
        assert live.sampler.sampled_operations()[-1] == ("range", "ts", 10, 20)
        assert ("range", "ts") in live.sampler.recent_mix()
        for i in range(300):
            live.query_range("ts", i % 150, i % 150 + 10)
        report = live.retune()
        assert report.swapped
        root = live.backing_decomposition().root.edges[0]
        assert root.key == frozenset({"ts"}) and root.structure_class().ORDERED
        # The swapped-in class serves the range by bounded descent.
        assert "query_range" in type(live.backing).__dict__
        assert live.query_range("ts", 10, 20) == got


# -- the unified factory -----------------------------------------------------------


class TestOpenFactory:
    def test_tiers(self):
        layout = FORWARD_LAYOUT
        ref = repro.open(EDGE_SPEC, layout, tier="reference")
        compiled = repro.open(EDGE_SPEC, layout, tier="compiled")
        auto = repro.open(EDGE_SPEC, layout)
        assert isinstance(ref, ReferenceRelation)
        assert type(compiled).__name__.startswith("Compiled")
        assert type(auto) is type(compiled)  # auto == compiled, same cache entry
        for r in (ref, compiled):
            assert isinstance(r, RelationInterface)
        # "interpreted" is not a tier: the error names the valid ones.
        with pytest.raises(LiveRelationError, match="interpreted") as excinfo:
            repro.open(EDGE_SPEC, layout, tier="interpreted")
        assert "compiled" in str(excinfo.value) and "reference" in str(excinfo.value)

    def test_default_layout_is_adequate_everywhere(self):
        for spec in (
            EDGE_SPEC,
            RelationSpec("ns, pid, state, cpu", fds=["ns, pid -> state, cpu"]),
            RelationSpec("a, b"),  # no FDs: the key is the full column set
        ):
            layout = default_layout(spec)
            r = repro.open(spec, tier="compiled")
            assert parse_decomposition(layout) is not None
            row = {c: 1 for c in spec.columns}
            r.insert(t(**row))
            assert len(r) == 1

    def test_tune_runs_the_autotuner(self):
        trace = Trace(EDGE_SPEC, name="tuned")
        for i in range(30):
            s, d = divmod(i, 6)
            trace.record("insert", t(src=s, dst=d, weight=i))
        for _ in range(120):
            trace.record("query", t(dst=3), None)
        r = repro.open(EDGE_SPEC, tune=trace)
        assert "dst -> htable" in type(r).DECOMPOSITION.describe()

    def test_tune_with_layout_includes_it_as_baseline(self, monkeypatch):
        import repro.live as live_module
        from repro.autotuner import canonical_shape

        trace = Trace(EDGE_SPEC, name="tuned")
        for i in range(10):
            trace.record("insert", t(src=i, dst=i, weight=i))
        tunings = []
        real_autotune = live_module.autotune

        def recording_autotune(*args, **kwargs):
            tunings.append(real_autotune(*args, **kwargs))
            return tunings[-1]

        monkeypatch.setattr(live_module, "autotune", recording_autotune)
        r = repro.open(EDGE_SPEC, FORWARD_LAYOUT, tune=trace, tier="compiled")
        (tuning,) = tunings
        replayed = {canonical_shape(c.decomposition) for c in tuning.replayed}
        assert canonical_shape(parse_decomposition(FORWARD_LAYOUT)) in replayed
        assert type(r).DECOMPOSITION.describe() == tuning.winner_layout

    def test_enforce_fds_propagates(self):
        for tier in ("reference", "compiled"):
            r = repro.open(EDGE_SPEC, FORWARD_LAYOUT, tier=tier, enforce_fds=False)
            r.insert(t(src=1, dst=2, weight=3))
            r.insert(t(src=1, dst=2, weight=4))  # evicts, does not raise
            assert r.count(t(src=1, dst=2)) == 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(LiveRelationError):
            repro.open(EDGE_SPEC, tier="warp")
        with pytest.raises(LiveRelationError):
            repro.open(EDGE_SPEC, tune=Trace(EDGE_SPEC), sizes={})

    def test_open_is_open_relation(self):
        assert repro.open is open_relation


# -- cross-tier interface conformance (ISSUE 6 satellite) --------------------------


class TestInterfaceConformance:
    def all_tiers(self):
        compiled_cls = compile_relation(EDGE_SPEC, parse_decomposition(FORWARD_LAYOUT))
        tiers = [
            ReferenceRelation(EDGE_SPEC),
            compiled_cls(),
        ]
        tiers.append(TraceRecorder(compiled_cls()))
        tiers.append(LiveRelation(compiled_cls(), policy={"auto": False}))
        return tiers

    def test_compiled_is_a_real_subclass(self):
        cls = compile_relation(EDGE_SPEC, parse_decomposition(FORWARD_LAYOUT))
        assert issubclass(cls, RelationInterface)

    def test_dunders_agree_across_tiers(self):
        rows = [t(src=s, dst=d, weight=s * 10 + d) for s in range(3) for d in range(3)]
        present, absent = rows[0], t(src=9, dst=9, weight=0)
        for tier in self.all_tiers():
            for row in rows:
                tier.insert(row)
            assert len(tier) == len(rows)
            assert sorted(iter(tier), key=Tuple.sort_key) == sorted(rows, key=Tuple.sort_key)
            assert present in tier
            assert absent not in tier
            assert t(src=1) in tier  # partial patterns work in all tiers
            assert "not-a-pattern" not in tier
            assert isinstance(tier, RelationInterface)

    def test_len_is_constant_time_on_reference(self):
        # The base class counts via a full query; the override must not.
        ref = ReferenceRelation(EDGE_SPEC)
        ref.insert(t(src=1, dst=2, weight=3))
        ref._tuples = frozenset(ref._tuples)  # query() would need .extends scans
        assert len(ref) == 1


# -- codegen cache thread-safety (ISSUE 6 satellite) -------------------------------


class TestCacheThreadSafety:
    def test_clear_while_swap_in_flight(self):
        """clear/stats racing compile_relation (as a LiveRelation swap does)
        must neither corrupt the cache nor lose the same-class guarantee."""
        clear_codegen_cache()
        spec = RelationSpec("a, b, c", fds=["a -> b, c"], name="racy")
        layouts = [
            "a -> htable {b, c}",
            "b -> htable (a -> htable {c})",
            "c -> htable (a -> htable {b})",
        ]
        errors = []
        stop = threading.Event()

        def compiler(layout):
            try:
                for _ in range(30):
                    # A clear may land between any two statements here; the
                    # class returned must always be complete and functional.
                    cls = compile_relation(spec, parse_decomposition(layout))
                    r = cls()
                    r.insert(t(a=1, b=2, c=3))
                    assert len(r) == 1
                    assert r.to_relation().tuples == {t(a=1, b=2, c=3)}
            except Exception as exc:  # pragma: no cover - only on failure
                errors.append(exc)

        def clearer():
            while not stop.is_set():
                clear_codegen_cache()
                stats = codegen_cache_stats()
                assert set(stats) == {"hits", "misses", "size"}

        threads = [threading.Thread(target=compiler, args=(lay,)) for lay in layouts]
        churn = threading.Thread(target=clearer)
        churn.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        churn.join()
        assert not errors
        clear_codegen_cache()

    def test_concurrent_same_key_compiles_share_one_class(self):
        """Racing compiles of one key resolve to a single class object
        (the insert re-checks under the lock and adopts the winner)."""
        clear_codegen_cache()
        spec = RelationSpec("a, b, c", fds=["a -> b, c"], name="samekey")
        layout = "a -> htable {b, c}"
        barrier = threading.Barrier(4)
        results = []

        def compiler():
            barrier.wait()
            results.append(compile_relation(spec, parse_decomposition(layout)))

        threads = [threading.Thread(target=compiler) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        assert all(cls is results[0] for cls in results)
        assert codegen_cache_stats()["size"] == 1
        clear_codegen_cache()

    def test_live_swap_during_cache_churn(self):
        clear_codegen_cache()
        live = open_relation(EDGE_SPEC, FORWARD_LAYOUT, live=True, policy={"auto": False})
        for i in range(30):
            s, d = divmod(i, 6)
            live.insert(t(src=s, dst=d, weight=i))
        for _ in range(120):
            live.query(t(dst=2), None)
        before = live.to_relation()
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                clear_codegen_cache()

        thread = threading.Thread(target=churn)
        thread.start()
        try:
            report = live.retune()
        finally:
            stop.set()
            thread.join()
        assert report.swapped
        assert live.to_relation() == before
        clear_codegen_cache()
