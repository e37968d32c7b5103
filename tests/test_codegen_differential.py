"""Randomized differential testing of compiled classes vs ReferenceRelation.

The acceptance bar of the codegen tier: the exact seeded 1000-operation
differential harness of ``test_differential.py`` — insert/remove/update/
query mixes, FD-rejection agreement, α equality after every operation —
run against classes produced by :func:`repro.codegen.compile_relation`
for the same three layouts, uncounted (``test_differential.py`` alternates
the counted walks).
"""

import random

import pytest

from repro.codegen import compile_relation
from repro.core import ReferenceRelation, Tuple
from test_differential import (
    COLUMNS,
    DECOMPOSITIONS,
    NS_DOMAIN,
    PID_DOMAIN,
    STATE_DOMAIN,
    CPU_DOMAIN,
    apply_both,
    random_full_tuple,
    random_pattern,
)


@pytest.fixture(params=sorted(DECOMPOSITIONS))
def compiled_class(request, scheduler_spec):
    return request.param, compile_relation(
        scheduler_spec, DECOMPOSITIONS[request.param]
    )


def test_differential_1000_ops_compiled(compiled_class, scheduler_spec):
    layout, cls = compiled_class
    rng = random.Random(20110604)  # Same seed as test_differential.py.
    reference = ReferenceRelation(scheduler_spec)
    compiled = cls()

    operations = 0
    for step in range(1000):
        roll = rng.random()
        if roll < 0.45:
            tup = random_full_tuple(rng)
            apply_both(lambda r: r.insert(tup), reference, compiled)
        elif roll < 0.65:
            pattern = random_pattern(rng)
            apply_both(lambda r: r.remove(pattern), reference, compiled)
        elif roll < 0.85:
            pattern = random_pattern(rng, max_columns=2)
            changes = random_pattern(rng, max_columns=2)
            apply_both(lambda r: r.update(pattern, changes), reference, compiled)
        else:
            pattern = random_pattern(rng)
            output = rng.sample(COLUMNS, k=rng.randint(1, 4))
            assert set(compiled.query(pattern, output)) == set(
                reference.query(pattern, output)
            )
        operations += 1

        alpha = compiled.to_relation()
        assert alpha == reference.to_relation(), (
            f"[{layout}] compiled class diverged from the reference after step {step}"
        )
        assert len(compiled) == len(reference)
        if step % 100 == 0 or step == 999:
            compiled.check_well_formed()
            assert alpha.satisfies(scheduler_spec.fds)

    assert operations == 1000


def test_differential_without_fd_enforcement_compiled(compiled_class, scheduler_spec):
    """FD-respecting op sequences agree even with enforcement turned off."""
    layout, cls = compiled_class
    rng = random.Random(7)
    compiled = cls(enforce_fds=False)
    reference = ReferenceRelation(scheduler_spec, enforce_fds=False)
    live = {}
    for _ in range(300):
        if live and rng.random() < 0.3:
            key = rng.choice(sorted(live))
            del live[key]
            pattern = Tuple({"ns": key[0], "pid": key[1]})
            reference.remove(pattern)
            compiled.remove(pattern)
        else:
            ns, pid = rng.choice(NS_DOMAIN), rng.choice(PID_DOMAIN)
            residual = (rng.choice(STATE_DOMAIN), rng.choice(CPU_DOMAIN))
            if (ns, pid) in live:
                # Replace via remove+insert so the sequence stays FD-respecting.
                reference.remove(Tuple({"ns": ns, "pid": pid}))
                compiled.remove(Tuple({"ns": ns, "pid": pid}))
            live[(ns, pid)] = residual
            tup = Tuple({"ns": ns, "pid": pid, "state": residual[0], "cpu": residual[1]})
            reference.insert(tup)
            compiled.insert(tup)
        assert compiled.to_relation() == reference.to_relation()
    compiled.check_well_formed()
    assert len(compiled) == len(live)


def test_unenforced_insert_evicts_conflicts_in_every_branch(scheduler_spec):
    """Structural last-writer-wins: a conflicting unenforced insert replaces
    the displaced tuple in the sibling branches too (no stale index entries)."""
    cls = compile_relation(scheduler_spec, DECOMPOSITIONS["scheduler-indexes"])
    rel = cls(enforce_fds=False)
    rel.insert(Tuple(ns=1, pid=2, state="R", cpu=0))
    rel.insert(Tuple(ns=1, pid=2, state="S", cpu=1))
    rel.check_well_formed()
    assert len(rel) == 1
    assert rel.query({"state": "R"}) == []
    assert rel.query({"state": "S"}) == [Tuple(ns=1, pid=2, state="S", cpu=1)]
