"""The adequacy judgement (Section 3.2) and instance well-formedness (Figure 5)."""

import pytest

import repro
from repro.codegen import compile_relation
from repro.core import RelationSpec, t
from repro.core.errors import AdequacyError, WellFormednessError
from repro.decomposition import (
    adequacy_problems,
    check_adequacy,
    enforced_fds,
    is_adequate,
    parse_decomposition,
)

ADEQUATE = [
    # The flat primary-key map.
    "ns, pid -> htable {state, cpu}",
    # Nested maps, one key column per level.
    "ns -> htable pid -> btree {state, cpu}",
    # The paper's scheduler shape: a primary index and a state index.
    "[ns -> htable pid -> btree {state, cpu} ; state -> htable (ns, pid -> dlist {cpu})]",
    # All columns bound by keys; leaves are pure presence markers.
    "ns, pid -> htable (state, cpu -> dlist {})",
    # A superkey is fine (state is determined but also bound).
    "ns, pid, state -> btree {cpu}",
    # A key-projection secondary branch: the second branch covers only the
    # superkey {ns, pid, state} (no cpu) — queries that need cpu reassemble
    # full tuples with a cross-branch join plan (Figure 8 validity).
    "[ns, pid -> htable {state, cpu} ; state -> htable ns, pid -> dlist {}]",
]

INADEQUATE = [
    # pid never appears: the decomposition cannot distinguish processes.
    "ns -> htable {state, cpu}",
    # {ns} is not a key: the unit would collapse distinct (ns, pid) tuples.
    "ns -> htable {pid, state, cpu}",
    # A partial branch whose covered set {state, cpu} is not a key:
    # distinct processes collapse to one branch entry, so neither
    # per-branch mutation nor a join plan can be sound.
    "[ns, pid -> htable {state, cpu} ; state -> htable cpu -> dlist {}]",
    # {state, cpu} is not a key either.
    "state, cpu -> htable {ns, pid}",
    # Root unit: only constant relations would be representable.
    "{ns, pid, state, cpu}",
    # Primary-branch completeness: the first branch must cover every
    # sibling's columns (key-projection branches come second).
    "[state -> htable ns, pid -> dlist {} ; ns, pid -> htable {state, cpu}]",
]


class TestAdequacyJudgement:
    @pytest.mark.parametrize("text", ADEQUATE)
    def test_adequate_layouts_pass(self, scheduler_spec, text):
        d = parse_decomposition(text)
        assert is_adequate(d, scheduler_spec)
        assert adequacy_problems(d, scheduler_spec) == []
        check_adequacy(d, scheduler_spec)  # must not raise

    @pytest.mark.parametrize("text", INADEQUATE)
    def test_inadequate_layouts_rejected(self, scheduler_spec, text):
        d = parse_decomposition(text)
        assert not is_adequate(d, scheduler_spec)
        with pytest.raises(AdequacyError):
            check_adequacy(d, scheduler_spec)

    def test_fd_problem_message_names_the_unjustified_dependency(self, scheduler_spec):
        problems = adequacy_problems(
            parse_decomposition("ns -> htable {pid, state, cpu}"), scheduler_spec
        )
        assert len(problems) == 1
        assert "not a key" in problems[0]

    def test_column_outside_spec_is_reported(self, scheduler_spec):
        problems = adequacy_problems(
            parse_decomposition("ns, pid -> htable {state, cpu, nice}"), scheduler_spec
        )
        assert any("outside the specification" in p for p in problems)

    def test_adequacy_depends_on_fds(self):
        # Without FDs, no unit with columns can be adequate over >1 column...
        free = RelationSpec("a, b", fds=[], name="free")
        assert not is_adequate(parse_decomposition("a -> htable {b}"), free)
        # ...but binding every column with a presence-marker unit is.
        assert is_adequate(parse_decomposition("a -> htable b -> dlist {}"), free)
        assert is_adequate(parse_decomposition("a, b -> htable {}"), free)

    def test_enforced_fds_are_entailed_by_spec(self, scheduler_spec):
        for text in ADEQUATE:
            for fd in enforced_fds(parse_decomposition(text)):
                assert scheduler_spec.fds.entails_fd(fd)

    def test_instance_construction_checks_adequacy(self, scheduler_spec):
        with pytest.raises(AdequacyError):
            compile_relation(scheduler_spec, parse_decomposition(INADEQUATE[0]))
        with pytest.raises(AdequacyError):
            repro.open(scheduler_spec, INADEQUATE[1])


def compiled(spec, layout):
    return compile_relation(spec, layout)()


class TestInstanceWellFormedness:
    def test_populated_instances_are_well_formed(self, scheduler_spec):
        for text in ADEQUATE:
            rel = compiled(scheduler_spec, text)
            rel.insert(t(ns=1, pid=1, state="R", cpu=0))
            rel.insert(t(ns=1, pid=2, state="S", cpu=1))
            rel.check_well_formed()

    def test_branch_disagreement_is_detected(self, scheduler_spec):
        rel = compiled(
            scheduler_spec,
            "[ns, pid -> htable {state, cpu} ; state -> htable ns, pid -> dlist {cpu}]",
        )
        rel.insert(t(ns=1, pid=1, state="R", cpu=0))
        rel.insert(t(ns=1, pid=2, state="S", cpu=1))
        # Corrupt the second branch behind the interface's back.
        state_index = rel._root[1]
        del state_index[next(iter(state_index))]
        with pytest.raises(WellFormednessError, match="disagree"):
            rel.check_well_formed()

    def test_wrong_key_columns_are_detected(self, scheduler_spec):
        rel = compiled(scheduler_spec, "ns, pid -> htable {state, cpu}")
        rel.insert(t(ns=1, pid=1, state="R", cpu=0))
        container = rel._root
        container[2] = next(iter(container.values()))  # key missing the pid column
        with pytest.raises(WellFormednessError, match="key columns"):
            rel.check_well_formed()

    def test_dangling_empty_subinstance_is_detected(self, scheduler_spec):
        rel = compiled(scheduler_spec, "ns -> htable pid -> btree {state, cpu}")
        rel.insert(t(ns=1, pid=1, state="R", cpu=0))
        rel._root[2] = {}  # an empty sub-instance the mutators would prune
        with pytest.raises(WellFormednessError, match="empty sub-instance"):
            rel.check_well_formed()

    def test_list_side_index_disagreement_is_detected(self, scheduler_spec):
        # A list container's uncounted probes read only its side index, so
        # an entry appended without indexing it (or a duplicate key) makes
        # the fast path miss rows the counted walk still sees.
        rel = compiled(scheduler_spec, "cpu -> dlist ns, pid -> htable {state}")
        rel.insert(t(ns=1, pid=1, state="R", cpu=0))
        rel.check_well_formed()
        entries = rel._root
        entries.append([1, {(2, 2): "S"}])  # appended, never indexed
        with pytest.raises(WellFormednessError, match="side index"):
            rel.check_well_formed()
        entries.idx[1] = entries[-1]
        entries.append([1, {(3, 3): "W"}])  # a second entry for key 1
        entries.idx[1] = entries[-1]
        with pytest.raises(WellFormednessError, match="side index"):
            rel.check_well_formed()
