"""OperationCounter-based asymptotic guarantees across the tiers.

These tests pin down the *reason* the representations are fast, not just
that they are: hash-indexed patterns must touch O(1) container entries,
list layouts must genuinely scan, the compiled plan choice must flip when
the workload's data distribution flips, and the maintained counts must make
``len`` and truthiness access-free.
"""

import pytest

from repro.autotuner import Trace
from repro.autotuner.scorer import estimate_edge_sizes
from repro.codegen import compile_relation
from repro.core import RelationSpec, t
from repro.decomposition import parse_decomposition, plan_query
from repro.structures import COUNTER

KV_SPEC = RelationSpec("k, v", fds=["k -> v"], name="kv")


def fill_kv(relation, n):
    for i in range(n):
        relation.insert(t(k=i, v=i % 7))


def counted_query(relation, pattern):
    with COUNTER as counter:
        relation.query(pattern)
        return counter.accesses


class TestCompiledAsymptotics:
    @pytest.mark.parametrize("n_small, n_large", [(64, 512)])
    def test_hash_lookup_is_constant(self, n_small, n_large):
        cls = compile_relation(KV_SPEC, "k -> htable {v}", class_name="KvHash")
        small, large = cls(), cls()
        fill_kv(small, n_small)
        fill_kv(large, n_large)
        a_small = counted_query(small, {"k": n_small - 1})
        a_large = counted_query(large, {"k": n_large - 1})
        assert a_small <= 2
        assert a_large <= a_small  # O(1): independent of container size.

    @pytest.mark.parametrize("n_small, n_large", [(64, 512)])
    def test_list_lookup_scans(self, n_small, n_large):
        cls = compile_relation(KV_SPEC, "k -> dlist {v}", class_name="KvList")
        small, large = cls(), cls()
        fill_kv(small, n_small)
        fill_kv(large, n_large)
        # The most recently appended key sits at the end of the entry list.
        a_small = counted_query(small, {"k": n_small - 1})
        a_large = counted_query(large, {"k": n_large - 1})
        assert a_small >= n_small
        assert a_large >= 4 * a_small  # Genuinely linear, not hash-backed.

    def test_counting_is_off_by_default(self):
        cls = compile_relation(KV_SPEC, "k -> htable {v}", class_name="KvOff")
        relation = cls()
        fill_kv(relation, 16)
        COUNTER.reset()
        relation.query({"k": 3})
        assert COUNTER.accesses == 0  # Counter disabled outside the context.


class TestLiveCostPlanning:
    """Plans follow the data distribution: the compiler ranks its plan table
    against per-edge sizes estimated from the workload trace."""

    SPEC = RelationSpec("a, b, c", fds=["a, b -> c"], name="skewed")
    LAYOUT = "[a -> htable (b -> dlist {c}) ; b -> htable (a -> dlist {c})]"

    def sized_class(self, rows):
        decomposition = parse_decomposition(self.LAYOUT)
        trace = Trace(self.SPEC, [("insert", row) for row in rows])
        sizes = estimate_edge_sizes(decomposition, trace.profile())
        return compile_relation(self.SPEC, decomposition, sizes=sizes), sizes

    def chosen_plan(self, cls):
        mask = 0b011  # {a, b} over the sorted columns (a, b, c)
        return cls.__repro_meta__["queries"][mask]["plan"]

    def test_plan_flips_with_the_data_distribution(self):
        # Skew 1: many distinct a, two distinct b — the per-a dlists are
        # tiny, the per-b dlists are huge; the a-branch must win.
        cls, _ = self.sized_class([t(a=i, b=i % 2, c=0) for i in range(64)])
        assert self.chosen_plan(cls).startswith("lookup[a]")
        relation = cls()
        for i in range(64):
            relation.insert(t(a=i, b=i % 2, c=0))
        with COUNTER as counter:
            relation.query(t(a=5, b=1))
            a_first = counter.accesses

        # Skew 2 (reversed): two distinct a and many distinct b; the size
        # classes change, and the b-branch must now win.
        cls, _ = self.sized_class([t(a=i % 2, b=i, c=0) for i in range(64)])
        assert self.chosen_plan(cls).startswith("lookup[b]")
        relation = cls()
        for i in range(64):
            relation.insert(t(a=i % 2, b=i, c=0))
        with COUNTER as counter:
            relation.query(t(a=1, b=5))
            assert counter.accesses <= a_first + 1  # cheap under either skew

    def test_plan_cache_reused_within_a_size_class(self):
        first, _ = self.sized_class([t(a=i, b=i % 2, c=0) for i in range(64)])
        # One more row keeps every estimated size in its size class: the
        # same plan table, so the same generated class.
        again, _ = self.sized_class([t(a=i, b=i % 2, c=0) for i in range(65)])
        assert again is first

    def test_lookup_beats_scan_only_on_real_sizes(self):
        """The scheduler regression behind DEFAULT_COST_SIZE: with estimated
        sizes the planner charges the actual (small) containers."""
        cls, sizes = self.sized_class([t(a=i, b=i % 2, c=0) for i in range(8)])
        plan = plan_query(cls.DECOMPOSITION, "a, b", sizes=sizes)
        assert plan.estimated_cost(sizes=sizes) <= plan.estimated_cost()


class TestMaintainedCounts:
    def test_len_and_is_empty_are_access_free(self):
        relation = compile_relation(KV_SPEC, "k -> htable {v}")()
        fill_kv(relation, 128)
        with COUNTER as counter:
            assert len(relation) == 128
            assert relation
            assert counter.accesses == 0

    def test_compiled_len_is_access_free(self):
        cls = compile_relation(KV_SPEC, "k -> htable {v}", class_name="KvLen")
        relation = cls()
        fill_kv(relation, 128)
        with COUNTER as counter:
            assert len(relation) == 128
            assert counter.accesses == 0

    def test_count_tracks_removals_and_conflicts(self):
        relation = compile_relation(KV_SPEC, "k -> htable {v}")(enforce_fds=False)
        fill_kv(relation, 10)
        relation.insert(t(k=3, v=99))  # Conflict eviction: net count unchanged.
        assert len(relation) == 10
        relation.remove(t(k=3))
        assert len(relation) == 9
        relation.remove(None)
        assert len(relation) == 0 and not relation


class TestUpdateLocality:
    def test_keyed_update_does_not_rescan_the_relation(self, scheduler_spec):
        """The FD check in update must only touch the groups reachable from
        the merged tuples (satellite fix), so a primary-key update costs
        O(1) accesses regardless of the relation size."""

        def accesses_at(n):
            relation = compile_relation(scheduler_spec, "ns, pid -> htable {state, cpu}")()
            for pid in range(n):
                relation.insert(t(ns=1, pid=pid, state="R", cpu=0))
            with COUNTER as counter:
                relation.update({"ns": 1, "pid": n - 1}, {"cpu": 1})
                return counter.accesses

        small, large = accesses_at(32), accesses_at(256)
        # O(1)-ish (was O(n) ≈ hundreds before the fix).  An absolute slack
        # rather than a ratio: the counts are single digits, and hash-table
        # chain layouts add a few probes of jitter under unlucky
        # PYTHONHASHSEEDs, which a 2x ratio on ~4 accesses cannot absorb.
        assert large <= small + 8
