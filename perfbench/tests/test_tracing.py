"""The traced run's recorder: patching, restoring, and self times.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

import repro
from perfbench import tracing
from perfbench.tracing import Recorder
from repro import Tuple


def test_missing_targets_read_zero_instead_of_failing(monkeypatch):
    monkeypatch.setattr(
        tracing,
        "FUNCTIONS",
        tracing.FUNCTIONS + (("repro.retired", "f", "gone.f"), ("repro.live", "nope", "gone.g")),
    )
    with Recorder() as rec:
        repro.open(repro.RelationSpec("a, b", fds=["a -> b"]), "a -> htable {b}")
    assert rec.missing == ["repro.retired.f", "repro.live.nope"]
    times = rec.layer_times()
    assert "gone.f" not in times
    assert times["repro.open"][0] == 1


def test_wrapped_bindings_are_restored():
    open_relation = repro.open
    from_sorted = Tuple.__dict__["from_sorted_items"]
    with Recorder() as rec:
        assert repro.open is not open_relation
        Tuple(a=1)
    assert repro.open is open_relation
    assert Tuple.__dict__["from_sorted_items"] is from_sorted
    assert rec.tuples == 1


def test_self_time_excludes_child_spans():
    rec = Recorder()
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    outer = rec.wrap("outer", lambda: [inner(), inner()])
    outer()
    times = rec.layer_times()
    calls, total, self_ns = times["outer"]
    assert calls == 1 and times["inner"][0] == 2
    assert self_ns == total - times["inner"][1]
    assert times["inner"][1] == times["inner"][2]
