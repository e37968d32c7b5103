"""Chaos differentials: seeded fault sweeps against every tier.

Exception safety is a property of *interleaving points*: a bug only shows
when a failure lands at exactly the wrong instruction inside a mutator.
These tests make that happen on purpose — the seeded 1000-op differentials
re-run with a one-shot fault armed at a different registered site on every
step, asserting after each **survived** fault that

* the faulted operation rolled back completely (α unchanged),
* the disarmed retry succeeds and agrees with the reference mirror,
* the instance stays well-formed (Figure 5),

and that the :class:`~repro.live.LiveRelation` self-healing loop survives
an injected failure at every re-tune / migration stage, explicit or
triggered by a user operation: the old backing keeps serving, the failed
layout is quarantined, and the circuit breaker opens after three
consecutive failures.

``REPRO_CHAOS_OPS`` shortens the differentials (CI quick mode uses 250).
"""

import os
import random

import pytest

import repro
from repro import RelationSpec, Tuple, t
from repro.codegen import compile_relation
from repro.core import ReferenceRelation
from repro.core.errors import (
    FaultInjected,
    FunctionalDependencyError,
    LiveRelationError,
    MigrationError,
    ReproError,
    RetuneFailed,
)
from repro.faults import FAULTS, fault_sites, inject

CHAOS_OPS = int(os.environ.get("REPRO_CHAOS_OPS", "1000"))

#: The shared-subnode scheduler layout: two branches, an intrusive list and
#: a shared residual node — the layout with the most distinct interleaving
#: points (registry entries, intrusive links, shared cells) per operation.
SHARED_LAYOUT = (
    "[ns, pid -> htable (state -> htable @rec)"
    " ; state -> htable (ns, pid -> ilist @rec)] where @rec = {cpu}"
)

#: The per-branch-copy twin: plain unit leaves (residual stores) and a
#: list-strategy ``dlist`` whose entries are journalled through the list
#: helpers — the interleaving points the shared layout does not have.
COPIED_LAYOUT = "[ns, pid -> htable {state, cpu} ; state -> htable (ns, pid -> dlist {cpu})]"

COLUMNS = ("ns", "pid", "state", "cpu")
DOMAINS = {"ns": [0, 1, 2], "pid": [0, 1, 2, 3], "state": ["R", "S", "W"], "cpu": [0, 1]}


def scheduler_spec():
    return RelationSpec("ns, pid, state, cpu", fds=["ns, pid -> state, cpu"], name="process")


def make_tier(tier, enforce_fds, layout=SHARED_LAYOUT):
    spec = scheduler_spec()
    if tier == "reference":
        return ReferenceRelation(spec, enforce_fds=enforce_fds)
    return compile_relation(spec, layout)(enforce_fds=enforce_fds)


def own_sites(relation):
    """The fault sites *relation*'s mutators can reach: the ones the code
    generator emitted into its class, or the reference oracle's."""
    meta = getattr(type(relation), "__repro_meta__", None)
    if meta is not None:
        return sorted(meta["fault_sites"])
    return [s for s in fault_sites() if s.startswith("reference.")]


def random_full_tuple(rng):
    return Tuple({c: rng.choice(DOMAINS[c]) for c in COLUMNS})


def random_pattern(rng, max_columns=3):
    chosen = rng.sample(COLUMNS, k=rng.randint(0, max_columns))
    return Tuple({c: rng.choice(DOMAINS[c]) for c in chosen})


@pytest.fixture(autouse=True)
def _clean_injector():
    """Every test starts disarmed with fresh firing stats and ends disarmed."""
    FAULTS.disarm()
    FAULTS.reset_stats()
    yield
    FAULTS.disarm()


#: Every site the library registers: the two tiers' mutators and the live
#: facade's re-tune stages.
REGISTERED_SITES = {
    "codegen.insert.fd_evict",
    "codegen.insert.link_shared",
    "codegen.insert.registry",
    "codegen.insert.store",
    "codegen.remove.batch",
    "codegen.remove.registry_pop",
    "codegen.remove.unlink",
    "codegen.update.in_place",
    "codegen.update.reinsert",
    "live.migrate.copy",
    "live.retune.compile",
    "live.retune.tune",
    "live.retune.verify",
    "live.swap",
    "reference.insert",
    "reference.remove",
    "reference.update",
}


def test_sweep_surface_spans_every_layer():
    """The registry is exactly the known sites, each in a layer the sweeps
    below arm — a site added or dropped anywhere must be named here."""
    sites = fault_sites()
    assert set(sites) == REGISTERED_SITES, sorted(set(sites) ^ REGISTERED_SITES)
    assert len(sites) == len(REGISTERED_SITES)


def test_inject_context_manager_arms_and_always_disarms():
    with inject("reference.insert") as injector:
        assert injector.armed == ("reference.insert", 1)
    assert FAULTS.armed is None
    with pytest.raises(ReproError, match="unknown fault site"):
        FAULTS.arm("no.such.site")


def _faulted(mutate, relation, alpha_before):
    """Apply *mutate* to *relation* under the currently armed fault.

    If the fault fires, assert the operation rolled back completely (α is
    byte-identical to *alpha_before*), then retry disarmed.  Returns the
    FD error the (possibly retried) operation raised, or ``None``.
    """
    try:
        mutate(relation)
        return None
    except FunctionalDependencyError as error:
        return error
    except FaultInjected:
        assert relation.to_relation() == alpha_before, (
            "a faulted operation left partial effects behind"
        )
        try:
            mutate(relation)  # the one-shot plan disarmed itself: must succeed
            return None
        except FunctionalDependencyError as error:
            return error


@pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
@pytest.mark.parametrize("tier", ["reference", "compiled"])
def test_chaos_differential(tier, enforce_fds):
    """The seeded differential with a fault armed at a new site every step."""
    _chaos_run(make_tier(tier, enforce_fds), tier, enforce_fds)


@pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
def test_chaos_differential_copied_layout(enforce_fds):
    """The same sweep over the per-branch-copy layout's residual stores and
    journalled list entries."""
    _chaos_run(make_tier("compiled", enforce_fds, COPIED_LAYOUT), "compiled", enforce_fds)


def test_every_registered_site_is_swept():
    """The sweeps in this module cover the whole registry: each site is the
    reference oracle's, a live stage, or emitted into one of the two swept
    compiled layouts — and each of those fires in a per-site test below."""
    swept = set(own_sites(make_tier("reference", True)))
    for layout in (SHARED_LAYOUT, COPIED_LAYOUT):
        swept |= set(own_sites(make_tier("compiled", True, layout)))
    swept |= {s for s in fault_sites() if s.startswith("live.")}
    assert swept == set(fault_sites())
    assert {site for _, site in COMPILED_SITE_CASES} == {
        s for s in fault_sites() if s.startswith("codegen.")
    }


#: The operation that must reach each emitted site on a seeded relation.
SITE_OPS = {
    "codegen.insert.store": lambda r: r.insert(t(ns=2, pid=3, state="W", cpu=1)),
    "codegen.insert.registry": lambda r: r.insert(t(ns=2, pid=3, state="W", cpu=1)),
    "codegen.insert.link_shared": lambda r: r.insert(t(ns=2, pid=3, state="W", cpu=1)),
    "codegen.insert.fd_evict": lambda r: r.insert(t(ns=0, pid=1, state="W", cpu=1)),
    "codegen.remove.unlink": lambda r: r.remove(t(ns=0)),
    "codegen.remove.registry_pop": lambda r: r.remove(t(ns=0)),
    "codegen.remove.batch": lambda r: r.remove(t(ns=0, pid=1, state="R")),
    "codegen.update.in_place": lambda r: r.update(t(state="R"), t(cpu=1)),
    "codegen.update.reinsert": lambda r: r.update(t(ns=0), t(state="W")),
}

COMPILED_SITE_CASES = [
    (layout, site)
    for layout in (SHARED_LAYOUT, COPIED_LAYOUT)
    for site in own_sites(make_tier("compiled", True, layout))
]


@pytest.mark.parametrize(
    "layout, site",
    COMPILED_SITE_CASES,
    ids=[
        f"{'shared' if layout == SHARED_LAYOUT else 'copied'}-{site}"
        for layout, site in COMPILED_SITE_CASES
    ],
)
def test_compiled_rollback_per_site(layout, site):
    """Each emitted site, deterministically: the armed operation reaches
    it, rolls back completely, and the disarmed retry agrees with the
    reference mirror."""
    relation = make_tier("compiled", False, layout)
    mirror = ReferenceRelation(scheduler_spec(), enforce_fds=False)
    for row in (t(ns=0, pid=1, state="R", cpu=0), t(ns=0, pid=2, state="R", cpu=1),
                t(ns=1, pid=1, state="S", cpu=0)):
        relation.insert(row)
        mirror.insert(row)
    before = relation.to_relation()
    op = SITE_OPS[site]
    with inject(site):
        with pytest.raises(FaultInjected):
            op(relation)
    assert relation.to_relation() == before, f"{site} left partial effects"
    relation.check_well_formed()
    op(relation)
    op(mirror)
    assert relation.to_relation() == mirror.to_relation()
    relation.check_well_formed()


def _chaos_run(relation, tier, enforce_fds):
    """Sites cycle through every site *relation* can reach, with the target
    hit index deepening on every full cycle — later hits land at
    interleaving points deeper inside multi-branch walks (conflict
    eviction only exists with FDs off)."""
    rng = random.Random(0xFA117 + (1 if enforce_fds else 0))
    mirror = ReferenceRelation(scheduler_spec(), enforce_fds=enforce_fds)
    sites = own_sites(relation)
    if enforce_fds:
        sites = [s for s in sites if s != "codegen.insert.fd_evict"]

    for step in range(CHAOS_OPS):
        site = sites[step % len(sites)]
        on_hit = (step // len(sites)) % 3 + 1
        roll = rng.random()
        alpha_before = mirror.to_relation()

        FAULTS.arm(site, on_hit)
        try:
            if roll < 0.45:
                tup = random_full_tuple(rng)
                op = lambda r: r.insert(tup)  # noqa: E731
            elif roll < 0.65:
                pattern = random_pattern(rng)
                op = lambda r: r.remove(pattern)  # noqa: E731
            elif roll < 0.85:
                pattern = random_pattern(rng, max_columns=2)
                changes = random_pattern(rng, max_columns=2)
                op = lambda r: r.update(pattern, changes)  # noqa: E731
            else:
                pattern = random_pattern(rng)
                output = rng.sample(COLUMNS, k=rng.randint(1, 4))
                try:
                    got = relation.query(pattern, output)
                except FaultInjected:
                    got = relation.query(pattern, output)  # reads mutate nothing
                FAULTS.disarm()
                assert set(got) == set(mirror.query(pattern, output))
                continue
            tier_error = _faulted(op, relation, alpha_before)
        finally:
            FAULTS.disarm()

        mirror_error = None
        try:
            op(mirror)
        except FunctionalDependencyError as error:
            mirror_error = error
        assert (tier_error is None) == (mirror_error is None), (
            f"[{tier}] FD enforcement diverged at step {step} (site {site!r}): "
            f"tier={tier_error!r}, mirror={mirror_error!r}"
        )

        assert relation.to_relation() == mirror.to_relation(), (
            f"[{tier}] α diverged from the mirror at step {step} (site {site!r})"
        )
        if step % 100 == 0 or step == CHAOS_OPS - 1:
            check = getattr(relation, "check_well_formed", None)
            if check is not None:
                check()

    # The sweep must have actually exercised this tier's own sites, not
    # just armed them: the seeded mix fires many distinct ones.  The
    # reference tier's 3 sites are each guarded by duplicate/FD early-outs,
    # so its floor is lower; the deterministic per-site tests below fire
    # every site of both tiers individually.
    fired = set(FAULTS.fired_sites()) & set(sites)
    floor = (1 if tier == "reference" else 3) if CHAOS_OPS >= 250 else 1
    assert len(fired) >= floor, (
        f"[{tier}] sweep fired only {sorted(fired)} of its own sites {sites}"
    )


@pytest.mark.parametrize("enforce_fds", [True, False], ids=["fd-on", "fd-off"])
def test_reference_atomic_commit_per_site(enforce_fds):
    """Each reference.* site, deterministically: the oracle's compute-then-
    swap commit means a fault leaves the stored set byte-identical."""
    relation = ReferenceRelation(scheduler_spec(), enforce_fds=enforce_fds)
    relation.insert(t(ns=0, pid=0, state="R", cpu=0))
    relation.insert(t(ns=0, pid=1, state="S", cpu=1))
    before = relation.to_relation()

    with inject("reference.insert"):
        with pytest.raises(FaultInjected):
            relation.insert(t(ns=1, pid=0, state="W", cpu=0))
    assert relation.to_relation() == before
    with inject("reference.remove"):
        with pytest.raises(FaultInjected):
            relation.remove(t(ns=0))
    assert relation.to_relation() == before
    with inject("reference.update"):
        with pytest.raises(FaultInjected):
            relation.update(t(pid=1), t(cpu=0))
    assert relation.to_relation() == before

    # Disarmed retries all land.
    relation.insert(t(ns=1, pid=0, state="W", cpu=0))
    relation.update(t(pid=1), t(cpu=0))
    relation.remove(t(ns=0))
    assert len(relation) == 1


# -- the self-healing live relation ------------------------------------------------


#: Operations :func:`live_relation` warms a relation up with.
WARMUP_OPS = 96


def live_relation(**policy_overrides):
    """A live relation on a deliberately poor layout, warmed up with a
    lookup-heavy workload (``WARMUP_OPS`` operations) so an unfaulted
    re-tune *will* swap."""
    policy = {"auto": False, "min_ops": 1}
    policy.update(policy_overrides)
    spec = scheduler_spec()
    rel = repro.open(
        spec,
        "ns, pid -> dlist {state, cpu}",
        live=True,
        policy=policy,
    )
    for i in range(48):
        rel.insert(t(ns=i % 3, pid=i % 4, state="R", cpu=i % 2))
    for i in range(48):
        rel.query(t(ns=i % 3, pid=i % 4))
    return rel


#: Each live.* site with the error and stage a fault there must surface as.
LIVE_SITE_CASES = [
    ("live.retune.tune", RetuneFailed, "tune"),
    ("live.retune.compile", RetuneFailed, "compile"),
    ("live.retune.verify", MigrationError, "verify"),
    ("live.migrate.copy", MigrationError, "copy"),
    ("live.swap", MigrationError, "swap"),
]


def test_live_site_cases_cover_every_live_site():
    assert {site for site, _, _ in LIVE_SITE_CASES} == {
        s for s in fault_sites() if s.startswith("live.")
    }


@pytest.mark.parametrize("site, error_type, stage", LIVE_SITE_CASES)
def test_retune_stage_failure_never_corrupts(site, error_type, stage):
    """A fault at each re-tune/migration stage aborts cleanly: the old
    backing keeps serving, α is untouched, the failure is recorded."""
    rel = live_relation()
    before = rel.to_relation()
    with inject(site):
        with pytest.raises(error_type) as excinfo:
            rel.retune()
    assert excinfo.value.stage == stage
    assert isinstance(excinfo.value.__cause__, FaultInjected)
    assert rel.generation == 0
    assert rel.to_relation() == before
    rel.check_well_formed()
    stats = rel.live_stats()
    assert stats["failures"] == 1
    assert stats["consecutive_failures"] == 1
    assert stats["backoff_ops"] > 0
    assert stats["last_error"] and stage in stats["last_error"]
    if stage in ("compile", "verify", "copy", "swap"):
        assert stats["quarantined"], "failed layout was not quarantined"
    # Still fully serviceable after the failure (the warm-up saturated the
    # key domain, so replace a row rather than growing the relation).
    rel.remove(t(ns=2, pid=3))
    rel.insert(t(ns=2, pid=3, state="W", cpu=1))
    assert len(rel) == len(before.tuples)
    assert rel.query(t(ns=2, pid=3))[0]["state"] == "W"


@pytest.mark.parametrize("site, error_type, stage", LIVE_SITE_CASES)
def test_automatic_retune_failure_never_fails_the_user_op(site, error_type, stage):
    """A fault at each stage of a re-tune that a user's query triggers
    (auto=True): the query still returns the right rows and does not
    raise, nothing swaps, α is unchanged and the failure is recorded."""
    rel = live_relation(auto=True, min_ops=WARMUP_OPS + 1)
    assert rel.retunes == []  # the warm-up alone stays below min_ops
    before = rel.to_relation()
    pattern = t(ns=1, pid=1)
    expected = ReferenceRelation(scheduler_spec())
    for row in before.tuples:
        expected.insert(row)
    with inject(site):
        got = rel.query(pattern)  # the (WARMUP_OPS + 1)-th op re-tunes
    assert sorted(got, key=Tuple.sort_key) == sorted(
        expected.query(pattern), key=Tuple.sort_key
    )
    assert FAULTS.fired_sites() == [site]
    assert len(rel.retunes) == 1
    report = rel.retunes[0]
    assert report.error is not None
    assert report.error.startswith(f"{error_type.__name__}[{stage}]")
    assert not report.swapped
    assert rel.generation == 0
    assert rel.to_relation() == before
    rel.check_well_formed()
    stats = rel.live_stats()
    assert stats["failures"] == 1 and stats["consecutive_failures"] == 1
    assert stats["last_error"] == report.error
    assert bool(stats["quarantined"]) == (stage != "tune")


def test_quarantined_layout_is_never_retried():
    rel = live_relation()
    with inject("live.retune.verify"):
        with pytest.raises(MigrationError):
            rel.retune()
    quarantined = rel.live_stats()["quarantined"]
    assert quarantined
    # The next re-tune avoids the quarantined winner: it either swaps to a
    # different layout or keeps the current one — never the failed one.
    report = rel.retune()
    assert report.error is None
    # A success ends the failure streak; the failed report stays in history.
    stats = rel.live_stats()
    assert stats["last_error"] is None and stats["failures"] == 1
    if report.swapped:
        assert report.new_layout not in quarantined
    rel.check_well_formed()


def test_circuit_breaker_opens_and_resets():
    """The breaker opens on exactly the third consecutive failure."""
    rel = live_relation()
    for failures in range(1, 4):
        assert not rel.circuit_open
        with inject("live.retune.tune"):
            with pytest.raises(RetuneFailed):
                rel.retune()
        assert rel.live_stats()["consecutive_failures"] == failures
    stats = rel.live_stats()
    assert stats["circuit_open"]
    assert stats["failures"] == 3
    # Explicit re-tunes are refused while open; automatic ones are skipped.
    with pytest.raises(RetuneFailed, match="circuit breaker open") as excinfo:
        rel.retune()
    assert excinfo.value.stage == "circuit"
    assert rel.maybe_retune() is None
    # The relation itself never stops serving.
    rel.update(t(ns=0, pid=0), t(state="S"))
    assert rel.query(t(ns=0, pid=0))[0]["state"] == "S"
    rel.reset_circuit()
    stats = rel.live_stats()
    assert not stats["circuit_open"]
    assert stats["backoff_ops"] == 0 and stats["last_error"] is None
    assert stats["failures"] == 3  # the history is kept
    report = rel.retune()
    assert report.error is None


def test_exponential_backoff_defers_automatic_retunes():
    """After the k-th consecutive failure an automatic re-tune waits for
    min_ops * 2**k operations."""
    rel = live_relation(min_ops=4)
    for k in (1, 2):
        with inject("live.retune.tune"):
            with pytest.raises(RetuneFailed):
                rel.retune()
        assert rel.live_stats()["backoff_ops"] == 4 * 2**k
    backoff = 4 * 2**2
    # Fewer than `backoff` ops since the failure: the drift check is deferred.
    for i in range(backoff - 1):
        rel.query(t(ns=i % 3))
    assert rel.maybe_retune() is None
    rel.query(t(ns=0))
    report = rel.maybe_retune()
    assert report is not None and report.error is None


def test_open_relation_structured_errors_name_valid_choices():
    spec = scheduler_spec()
    with pytest.raises(LiveRelationError, match="valid tiers: auto, reference"):
        repro.open(spec, tier="compliled")
    with pytest.raises(LiveRelationError, match="valid structures: "):
        repro.open(spec, "ns, pid -> zipmap {state, cpu}")
    with pytest.raises(LiveRelationError, match="Decomposition or a layout string"):
        repro.open(spec, layout=42)


def test_faults_are_exported_at_the_top_level():
    assert repro.FAULTS is FAULTS
    assert repro.fault_sites() == fault_sites()
    with repro.inject("reference.insert"):
        assert FAULTS.active


def test_register_site_enforces_the_dotted_namespace():
    from repro.faults import FaultInjector

    inj = FaultInjector()
    assert inj.register_site("custom.layer.op") == "custom.layer.op"
    assert inj.register_site("custom.layer.op") == "custom.layer.op"  # idempotent
    assert inj.sites() == ["custom.layer.op"]
    for bad in ("", "nodots", "Upper.case", "has space.op", "trailing.", ".leading"):
        with pytest.raises(ReproError, match="site name|non-empty"):
            inj.register_site(bad)
    assert inj.sites() == ["custom.layer.op"]


def test_assert_all_sites_known_accepts_registered_and_names_unknown():
    from repro.faults import assert_all_sites_known

    sites = fault_sites()
    assert_all_sites_known(sites)  # the full registry round-trips
    assert_all_sites_known([])
    assert_all_sites_known(iter(sites[:3]))  # any iterable
    with pytest.raises(ReproError, match="'codegen.insert.bogus'") as exc:
        assert_all_sites_known([sites[0], "codegen.insert.bogus", "zzz.unknown"])
    # Every unknown name is listed, known ones are not.
    assert "'zzz.unknown'" in str(exc.value)
    assert "unknown fault site(s): 'codegen.insert.bogus'" in str(exc.value)
