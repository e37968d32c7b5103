"""The built-in container library, mirroring the paper's C++ container set.

Each entry describes one structure to the code generator and the planner
(see :class:`~repro.structures.base.AssociativeContainer`); the compiled
lowering of each strategy lives in :mod:`repro.codegen.compiler`.
"""

from __future__ import annotations

from .base import AssociativeContainer, log2_cost

__all__ = [
    "AVLTreeMap",
    "DListMap",
    "HashTableMap",
    "IndexedVectorMap",
    "IntrusiveListMap",
    "VectorMap",
]


class HashTableMap(AssociativeContainer):
    """Hash table (``htable``; ``boost::unordered_map``): O(1) probes."""

    NAME = "htable"

    @classmethod
    def estimate_accesses(cls, n: float) -> float:
        return 1.0


class DListMap(AssociativeContainer):
    """Unordered doubly-linked list of key/value pairs (``dlist``; ``std::list``)."""

    NAME = "dlist"
    CODEGEN_STRATEGY = "list"

    @classmethod
    def estimate_accesses(cls, n: float) -> float:
        return max(1.0, float(n) / 2.0)


class IntrusiveListMap(AssociativeContainer):
    """Intrusive doubly-linked list (``ilist``; ``boost::intrusive::list``).

    The links live inside the stored value, so an entry whose value the
    caller holds unlinks in O(1) without searching — the property that
    makes shared decompositions such as decomposition 5 of Figure 12 cheap
    to update.
    """

    NAME = "ilist"
    INTRUSIVE = True
    CODEGEN_STRATEGY = "intrusive"

    @classmethod
    def estimate_accesses(cls, n: float) -> float:
        return max(1.0, float(n) / 2.0)

    @classmethod
    def unlink_cost(cls, n: float) -> float:
        # The defining property: given the value, unlinking is O(1).
        return 1.0


class AVLTreeMap(AssociativeContainer):
    """Balanced ordered map (``avl``; ``std::map``): O(log n), key-ordered.

    Registered as ``"avl"``; the historical name ``"btree"`` — the paper's
    generic "balanced tree" — remains usable everywhere as a registry
    alias, so existing decomposition strings keep parsing.
    """

    NAME = "avl"
    ORDERED = True
    CODEGEN_STRATEGY = "tree"

    @classmethod
    def estimate_accesses(cls, n: float) -> float:
        return log2_cost(n)


class VectorMap(AssociativeContainer):
    """Dynamic array of key/value pairs (``vector``; ``std::vector``)."""

    NAME = "vector"
    CODEGEN_STRATEGY = "list"

    @classmethod
    def estimate_accesses(cls, n: float) -> float:
        # Linear probe, but with a smaller constant than a linked list
        # because the entries are contiguous.
        return max(1.0, float(n) / 4.0)


class IndexedVectorMap(AssociativeContainer):
    """Dense array indexed by a small non-negative integer key (``ivector``).

    What a C programmer would write for e.g. per-CPU or per-state tables:
    constant-time lookup, lowered like a hash table.
    """

    NAME = "ivector"

    @classmethod
    def estimate_accesses(cls, n: float) -> float:
        return 1.0
