"""Ordered range scans: ``query_range`` on ``avl``-rooted and other layouts.

ROADMAP named ``avl`` range iteration as never exercised; these tests pin it
at every layer:

* the ordered root index — a compiled ``ts -> avl`` relation answers
  ``query_range`` in key order, agrees with a filtered sorted scan, and
  charges O(log n + k) counted accesses (a bounded descent, not a full
  in-order walk);
* the generic fallback — an unordered root answers ``query_range``
  through the interface's filtered sort;
* the relation operation — ``query_range`` returns the identical ordered
  list on the reference and the compiled tier, under a seeded
  differential interleaving range scans with mutations, on ordered and
  unordered layouts alike;
* the asymptotics — an ordered root index serves a narrow window cheaply
  where a hash-rooted layout pays a full scan.
"""

import random

import pytest

from repro.codegen import compile_relation
from repro.core import ReferenceRelation, RelationSpec, Tuple
from repro.core.errors import FunctionalDependencyError
from repro.structures import COUNTER

SPEC = RelationSpec("ts, sensor, reading", fds=["ts -> sensor, reading"], name="event")

LAYOUTS = {
    "avl-root": "ts -> btree {sensor, reading}",
    "avl-deep": "ts -> btree sensor -> htable {reading}",
    "hash-root": "ts -> htable {sensor, reading}",
    "two-branch": (
        "[ts -> btree {sensor, reading} ; sensor -> htable (ts -> dlist {reading})]"
    ),
}

SENSORS = ["temp", "flow", "volt"]


def fill(relation, n, rng):
    expected = {}
    for value in rng.sample(range(n * 3), n):
        relation.insert(Tuple(ts=value, sensor="temp", reading=value * 10))
        expected[value] = value * 10
    return expected


def window(relation, lo=None, hi=None):
    return [(row["ts"], row["reading"]) for row in relation.query_range("ts", lo, hi)]


class TestItemsRange:
    def test_agrees_with_filtered_sorted_scan(self):
        rng = random.Random(7)
        tree = compile_relation(SPEC, LAYOUTS["avl-root"])()
        expected = fill(tree, 120, rng)
        want = [(v, expected[v]) for v in sorted(expected) if 50 <= v <= 200]
        assert window(tree, 50, 200) == want

    def test_open_bounds(self):
        rng = random.Random(8)
        tree = compile_relation(SPEC, LAYOUTS["avl-root"])()
        expected = fill(tree, 60, rng)
        inorder = [(v, expected[v]) for v in sorted(expected)]
        assert window(tree) == inorder
        assert window(tree, lo=90) == [e for e in inorder if e[0] >= 90]
        assert window(tree, hi=90) == [e for e in inorder if e[0] <= 90]

    def test_empty_window_and_empty_tree(self):
        tree = compile_relation(SPEC, LAYOUTS["avl-root"])()
        assert window(tree, 1, 2) == []
        fill(tree, 30, random.Random(9))
        assert window(tree, -5, -1) == []

    def test_bounded_descent_accesses(self):
        """A narrow window touches O(log n + k) entries, not all n."""
        tree = compile_relation(SPEC, LAYOUTS["avl-root"])()
        fill(tree, 512, random.Random(10))
        with COUNTER:
            hits = window(tree, 100, 110)
            accesses = COUNTER.accesses
        assert hits  # The window is non-trivial.
        # Bounded descent: the boundary probes (~log2 n) plus the in-range
        # entries — far below the 512 an in-order walk visits.
        assert accesses <= 2 * 15 + len(hits) + 5
        with COUNTER:
            tree.query()
            full_walk = COUNTER.accesses
        assert accesses < full_walk / 4

    def test_generic_fallback_on_unordered_container(self):
        rng = random.Random(11)
        table = compile_relation(SPEC, LAYOUTS["hash-root"])()
        assert not hasattr(type(table), "_range_rows")  # no ordered index to use
        expected = fill(table, 80, rng)
        want = [(v, expected[v]) for v in sorted(expected) if 40 <= v <= 160]
        assert window(table, 40, 160) == want


def build_tiers(layout, enforce_fds=True):
    return {
        "reference": ReferenceRelation(SPEC, enforce_fds=enforce_fds),
        "compiled": compile_relation(SPEC, layout)(enforce_fds=enforce_fds),
    }


def apply_all(op, tiers):
    """Apply *op* to every tier; FD rejections must agree across tiers."""
    outcomes = {}
    for name, tier in tiers.items():
        try:
            op(tier)
            outcomes[name] = None
        except FunctionalDependencyError as error:
            outcomes[name] = error
    rejected = {name for name, error in outcomes.items() if error is not None}
    assert rejected in (set(), set(tiers)), (
        f"tiers disagree on FD enforcement: rejected by {sorted(rejected)} only"
    )


def random_event(rng):
    return Tuple(
        ts=rng.randrange(300), sensor=rng.choice(SENSORS), reading=rng.randrange(50)
    )


class TestQueryRangeDifferential:
    @pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_seeded_differential(self, layout, enforce_fds):
        """Range scans interleaved with mutations agree across all tiers.

        The reference tier's generic filtered scan is the oracle; the
        compiled tier must return the **identical ordered list** — not merely the same set — whether they serve the scan
        from an ordered root index or from the fallback.  FD-violating
        inserts must be rejected (or evicted) identically everywhere.
        """
        rng = random.Random(20110604)
        tiers = build_tiers(LAYOUTS[layout], enforce_fds=enforce_fds)
        for step in range(400):
            roll = rng.random()
            if roll < 0.45:
                event = random_event(rng)
                apply_all(lambda tier: tier.insert(event), tiers)
            elif roll < 0.6:
                pattern = Tuple(ts=rng.randrange(300))
                for tier in tiers.values():
                    tier.remove(pattern)
            elif roll < 0.75:
                pattern = Tuple(ts=rng.randrange(300))
                changes = Tuple(reading=rng.randrange(50))
                for tier in tiers.values():
                    tier.update(pattern, changes)
            else:
                lo = rng.randrange(300)
                hi = lo + rng.randrange(1, 60)
                expected = tiers["reference"].query_range("ts", lo, hi)
                for name, tier in tiers.items():
                    assert tier.query_range("ts", lo, hi) == expected, (
                        f"tier {name} diverged on range [{lo}, {hi}] at step {step}"
                    )
        # Final full-order agreement, both unbounded and one-sided.
        for bounds in [(), (150, None), (None, 150)]:
            lo, hi = bounds if bounds else (None, None)
            expected = tiers["reference"].query_range("ts", lo, hi)
            assert expected  # The run must have left data behind.
            for name, tier in tiers.items():
                assert tier.query_range("ts", lo, hi) == expected, name

    def test_secondary_column_falls_back_everywhere(self):
        tiers = build_tiers(LAYOUTS["avl-root"])
        rng = random.Random(5)
        for ts in rng.sample(range(200), 50):
            event = Tuple(
                ts=ts, sensor=rng.choice(SENSORS), reading=rng.randrange(50)
            )
            for tier in tiers.values():
                tier.insert(event)
        expected = tiers["reference"].query_range("reading", 10, 30)
        assert expected
        for name, tier in tiers.items():
            assert tier.query_range("reading", 10, 30) == expected, name

    def test_unknown_column_rejected_everywhere(self):
        from repro.core.errors import SpecificationError

        for tier in build_tiers(LAYOUTS["avl-root"]).values():
            with pytest.raises(SpecificationError):
                tier.query_range("nope", 0, 1)


class TestOrderedIndexAsymptotics:
    def populate(self, relation, n=256):
        rng = random.Random(13)
        stamps = list(range(n))
        rng.shuffle(stamps)
        for ts in stamps:
            relation.insert(
                Tuple(ts=ts, sensor=rng.choice(SENSORS), reading=rng.randrange(50))
            )
        return relation

    def measure(self, relation, lo, hi):
        with COUNTER:
            hits = relation.query_range("ts", lo, hi)
            return len(hits), COUNTER.accesses

    def test_compiled_ordered_root_beats_fallback(self):
        ordered = self.populate(compile_relation(SPEC, LAYOUTS["avl-root"])())
        hashed = self.populate(compile_relation(SPEC, LAYOUTS["hash-root"])())
        hits, ordered_accesses = self.measure(ordered, 100, 107)
        hash_hits, hash_accesses = self.measure(hashed, 100, 107)
        assert hits == hash_hits > 0
        # The ordered root serves the window by bounded descent; the hash
        # root filters a full scan of all 256 rows.
        assert hash_accesses >= 256
        assert ordered_accesses < hash_accesses / 4


class TestOrderedScanWorkload:
    def test_workload_replays_identically_across_tiers(self):
        """The benchmark's ordered_scan trace (range ops included) agrees."""
        import os
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        from benchmarks.workloads import ordered_scan

        from repro.autotuner import replay_operations

        workload = ordered_scan(12)
        assert any(op[0] == "range" for op in workload.trace)
        tiers = {
            "reference": ReferenceRelation(workload.spec),
            "compiled": compile_relation(workload.spec, workload.layout)(),
        }
        final = None
        for name, tier in tiers.items():
            replay_operations(tier, workload.trace)
            outcome = tier.to_relation()
            if final is None:
                final = outcome
            else:
                assert outcome == final, f"tier {name} diverged on ordered_scan"
        # And the ordered window agrees after the replay, too.
        expected = tiers["reference"].query_range("ts", 20, 80)
        for name, tier in tiers.items():
            assert tier.query_range("ts", 20, 80) == expected, name
