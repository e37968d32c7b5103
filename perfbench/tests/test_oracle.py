"""The benchmark's generators and oracle, checked against the library's own.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import pytest

import repro
from benchmarks.workloads import WORKLOADS
from perfbench import gen
from perfbench.bench import Unit, _run_ops, _state_ok, _wrong

SEEDED = {
    "scheduler": gen.scheduler,
    "graph_reverse": gen.graph_reverse,
    "graph_drift": gen.graph_drift,
    "ordered_scan": gen.ordered_scan,
    "spanning": gen.spanning,
}


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_default_seed_reproduces_the_existing_traces(name):
    ours = SEEDED[name](60)
    theirs = WORKLOADS[name](60)
    assert ours.trace_operations() == theirs.trace
    assert ours.layout.replace(" ", "") in {
        layout.replace(" ", "") for layout in theirs.hand_layouts().values()
    }


def _short_traces():
    for seed in (1, 2):
        for _name, make in sorted(SEEDED.items()):
            yield make(40, seed)
        yield gen.context_switch(200, 400, seed)
        yield gen.scheduler(200, seed, steps=300)
        yield gen.ordered_scan(20, seed, steps=300)


@pytest.mark.parametrize("g", list(_short_traces()), ids=lambda g: g.name)
def test_model_agrees_with_reference_relation(g):
    rel = repro.open(g.spec, tier="reference")
    unit = Unit(g, None)
    for op in unit.load:
        rel.insert(op[2])
    failed, _ = _run_ops(rel, unit.ops, [[], [], []])
    assert failed == 0
    assert _state_ok(unit, rel)
    reads = [op for op in unit.ops if op[4] is not None]
    assert reads, "every short trace has reads to check"
    assert any(op[4][0] > 1 for op in reads) or g.name == "context_switch"


def test_check_detects_a_wrong_answer_and_a_wrong_state():
    g = gen.scheduler(100, 3, steps=200)
    rel = repro.open(g.spec, g.layout)
    unit = Unit(g, None)
    for op in unit.load:
        rel.insert(op[2])
    scan = next(op for op in unit.ops if op[0] == gen.SCAN and op[4][0] > 1)
    answer = rel.query(scan[2], scan[3])
    assert not _wrong(scan, answer)
    assert _wrong(scan, answer[1:])
    assert _wrong(scan, answer[:1] + answer[:-1])
    rel.remove(unit.load[0][2])  # Lose one row: later per-state scans differ.
    failed, _ = _run_ops(rel, unit.ops, [[], [], []])
    assert failed > 0
    rel.remove(None)
    assert not _state_ok(unit, rel)


def test_operation_classes_follow_the_minimal_key():
    g = gen.scheduler(100, 1, steps=300)
    for cls, kind, a, _b, _expected in g.ops:
        if kind == "query":
            assert (cls == gen.LOOKUP) == ({"ns", "pid"} <= set(a))
        else:
            assert cls == gen.WRITE
    ranges = gen.ordered_scan(20, 1).ops
    assert all(op[0] == gen.SCAN for op in ranges if op[1] == "range")


def test_tuning_and_held_out_seeds_differ():
    tune = gen.graph_reverse(20, gen.derive_seed(0x5EED5, 7, 0))
    held_out = gen.graph_reverse(20, gen.derive_seed(0x5EED5, 7, 1))
    assert tune.trace_operations() != held_out.trace_operations()
    again = gen.graph_reverse(20, gen.derive_seed(0x5EED5, 7, 0))
    assert tune.trace_operations() == again.trace_operations()
