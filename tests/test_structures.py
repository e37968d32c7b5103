"""The container contract, checked for every registered structure.

A structure is a description the code generator lowers (see
:mod:`repro.structures.base`), so the contract is checked on what ships:
the one-edge relation ``k -> <structure> {v}`` compiled for each
registered structure must behave as a key→value map, with the counted
asymptotics its cost model claims.
"""

import random

import pytest

from repro.codegen import compile_relation
from repro.core import RelationSpec, t
from repro.core.errors import DecompositionError
from repro.structures import (
    COUNTER,
    STRUCTURE_REGISTRY,
    AVLTreeMap,
    default_structure_names,
    get_structure,
    register_structure,
    structure_cost,
    structure_names,
)

ALL_NAMES = sorted(STRUCTURE_REGISTRY)

KV = RelationSpec("k, v", fds=["k -> v"], name="kv")
NAMED = RelationSpec("name, v", fds=["name -> v"], name="named")


def kv_map(name, spec=KV, enforce_fds=True):
    key = "k" if spec is KV else "name"
    return compile_relation(spec, f"{key} -> {name} {{v}}")(enforce_fds=enforce_fds)


def lookup(relation, key):
    """The value stored under *key*, or ``None`` when there is none."""
    rows = relation.query(t(k=key), "v")
    assert len(rows) <= 1
    return rows[0]["v"] if rows else None


@pytest.fixture(params=ALL_NAMES)
def name(request):
    return request.param


KEYS = range(8)


class TestContract:
    def test_insert_lookup_roundtrip(self, name):
        container = kv_map(name)
        for i in KEYS:
            container.insert(t(k=i, v=f"v{i}"))
        for i in KEYS:
            assert lookup(container, i) == f"v{i}"
        assert len(container) == len(KEYS)
        container.check_well_formed()

    def test_lookup_missing(self, name):
        container = kv_map(name)
        assert lookup(container, 99) is None
        container.insert(t(k=1, v="x"))
        assert lookup(container, 99) is None

    def test_insert_overwrites(self, name):
        # Last writer wins on the key (FD enforcement off evicts the old row).
        container = kv_map(name, enforce_fds=False)
        container.insert(t(k=0, v="old"))
        container.insert(t(k=0, v="new"))
        assert lookup(container, 0) == "new"
        assert len(container) == 1
        container.check_well_formed()

    def test_remove(self, name):
        container = kv_map(name)
        container.insert(t(k=0, v="a"))
        container.insert(t(k=1, v="b"))
        container.remove(t(k=0))
        assert len(container) == 1
        container.remove(t(k=0))  # Removing a missing key is a no-op.
        assert lookup(container, 0) is None
        assert lookup(container, 1) == "b"
        assert len(container) == 1
        container.check_well_formed()

    def test_items_cover_all_entries(self, name):
        container = kv_map(name)
        expected = {}
        for i in KEYS:
            container.insert(t(k=i, v=i * 10))
            expected[i] = i * 10
        assert {row["k"]: row["v"] for row in container.query()} == expected
        assert {row["k"] for row in container.query(None, "k")} == set(expected)

    def test_contains_and_bool(self, name):
        container = kv_map(name)
        assert not container
        container.insert(t(k=1, v="x"))
        assert container
        assert t(k=1) in container
        assert t(k=2) not in container
        assert "not-a-tuple" not in container

    def test_clear(self, name):
        container = kv_map(name)
        for i in KEYS:
            container.insert(t(k=i, v="x"))
        container.remove(None)
        assert len(container) == 0 and not container and container.query() == []
        container.check_well_formed()

    def test_remove_value(self, name):
        # Removing by the full row (key and value) unlinks the held entry.
        container = kv_map(name)
        container.insert(t(k=1, v="x"))
        container.remove(t(k=1, v="x"))
        assert len(container) == 0
        container.check_well_formed()

    def test_non_integer_keys(self, name):
        container = kv_map(name, spec=NAMED)
        container.insert(t(name="alpha", v=1))
        container.insert(t(name="beta", v=2))
        assert container.query(t(name="alpha"), "v")[0]["v"] == 1
        container.remove(t(name="beta"))
        assert container.query(t(name="beta")) == []
        container.check_well_formed()

    def test_cost_model_positive_and_monotone(self, name):
        cls = STRUCTURE_REGISTRY[name]
        small, large = cls.estimate_accesses(4), cls.estimate_accesses(4096)
        assert small >= 1.0
        assert large >= small
        assert cls.scan_cost(100) >= 1.0


class TestStructureSpecifics:
    def test_avl_invariants_after_churn(self):
        # The tree lowering keeps its ordered-scan snapshot consistent with
        # the live keys through interleaved inserts and removes.
        tree = compile_relation(KV, "k -> avl {v}")()

        def in_order():
            return [r["k"] for r in tree.query_range("k")]

        keys = list(range(64))
        random.Random(4).shuffle(keys)
        for i in keys:
            tree.insert(t(k=i, v=i))
            assert in_order() == sorted(r["k"] for r in tree.query())
        for i in range(0, 64, 2):
            tree.remove(t(k=i))
            assert in_order() == sorted(r["k"] for r in tree.query())
        assert in_order() == list(range(1, 64, 2))
        tree.check_well_formed()

    def test_btree_iterates_in_key_order(self):
        tree = compile_relation(KV, "k -> btree {v}")()
        for i in [5, 3, 8, 1, 9, 2]:
            tree.insert(t(k=i, v=i))
        assert [row["k"] for row in tree.query_range("k")] == [1, 2, 3, 5, 8, 9]

    def test_counter_sees_linear_vs_constant_lookup(self):
        dlist, htable = kv_map("dlist"), kv_map("htable")
        for i in range(64):
            dlist.insert(t(k=i, v=i))
            htable.insert(t(k=i, v=i))
        with COUNTER as c:
            dlist.query(t(k=63))
            linear = c.accesses
        with COUNTER as c:
            htable.query(t(k=63))
            constant = c.accesses
        assert linear > 8 * constant


class TestRegistry:
    def test_structure_names_match_registry(self):
        assert structure_names() == sorted(STRUCTURE_REGISTRY)

    def test_get_structure_unknown(self):
        with pytest.raises(DecompositionError, match="unknown data structure"):
            get_structure("splaytree")

    def test_default_names_are_validated_and_registered(self):
        names = default_structure_names()
        assert names
        for name in names:
            assert name in STRUCTURE_REGISTRY

    def test_default_names_fail_loudly_when_renamed(self, monkeypatch):
        # Simulate a rename (avl -> avltree): the default list must now
        # fail at call time instead of surfacing later as an unknown
        # structure deep inside decomposition construction.
        monkeypatch.delitem(STRUCTURE_REGISTRY, "avl")
        with pytest.raises(DecompositionError, match="default structure names"):
            default_structure_names()

    def test_register_rejects_duplicate_names(self):
        class Impostor(AVLTreeMap):
            NAME = "avl"

        with pytest.raises(DecompositionError, match="already registered"):
            register_structure(Impostor)

    def test_register_rejects_alias_collisions(self):
        class Impostor(AVLTreeMap):
            NAME = "btree"

        with pytest.raises(DecompositionError, match="already registered as an alias"):
            register_structure(Impostor)

    def test_btree_alias_resolves_to_avl(self):
        from repro.structures.registry import canonical_structure_name

        assert AVLTreeMap.NAME == "avl"
        assert get_structure("btree") is AVLTreeMap
        assert get_structure("avl") is AVLTreeMap
        assert canonical_structure_name("btree") == "avl"
        assert canonical_structure_name("avl") == "avl"
        assert "avl" in STRUCTURE_REGISTRY and "btree" not in STRUCTURE_REGISTRY
        # Decomposition strings written with either name keep parsing.
        from repro.decomposition import parse_decomposition

        for name in ("btree", "avl"):
            parsed = parse_decomposition(f"ns, pid -> {name} {{state, cpu}}")
            assert parsed.root.edges[0].structure_class() is AVLTreeMap

    def test_register_requires_name(self):
        from repro.structures import AssociativeContainer

        class Nameless(AssociativeContainer):
            @classmethod
            def estimate_accesses(cls, n):
                return 1.0

        with pytest.raises(DecompositionError, match="must define a NAME"):
            register_structure(Nameless)

    def test_structure_cost_hook(self):
        assert structure_cost("htable", 1000) == 1.0
        assert structure_cost("dlist", 1000) > 100
        assert structure_cost("btree", 1024, "scan") >= 1024
        with pytest.raises(DecompositionError, match="unknown cost operation"):
            structure_cost("htable", 10, "sort")
