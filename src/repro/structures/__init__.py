"""Primitive container library used by map decompositions.

Each container is described by an :class:`AssociativeContainer` subclass
(name, ordering, intrusiveness, code-generation strategy and the cost model
``m_ψ(n)`` used by the query planner); the code generator lowers it.  The
library mirrors the paper's C++ container set:

=============  =================================  ==========================
Name           Paper counterpart                  Characteristics
=============  =================================  ==========================
``dlist``      ``std::list``                      unordered list, O(n) lookup
``ilist``      ``boost::intrusive::list``         intrusive list, O(1) unlink
``htable``     ``boost::unordered_map``           hash table, O(1) lookup
``btree``      ``std::map`` / intrusive ``set``   AVL tree, O(log n), ordered
``vector``     ``std::vector``                    array of pairs, O(n) lookup
``ivector``    dense ``std::vector`` index        O(1) lookup for small ints
=============  =================================  ==========================
"""

from .base import COUNTER, AssociativeContainer, OperationCounter
from .library import (
    AVLTreeMap,
    DListMap,
    HashTableMap,
    IndexedVectorMap,
    IntrusiveListMap,
    VectorMap,
)
from .registry import (
    STRUCTURE_REGISTRY,
    default_structure_names,
    get_structure,
    register_structure,
    size_class,
    structure_cost,
    structure_names,
)

__all__ = [
    "AVLTreeMap",
    "AssociativeContainer",
    "COUNTER",
    "DListMap",
    "HashTableMap",
    "IndexedVectorMap",
    "IntrusiveListMap",
    "OperationCounter",
    "STRUCTURE_REGISTRY",
    "VectorMap",
    "default_structure_names",
    "get_structure",
    "register_structure",
    "size_class",
    "structure_cost",
    "structure_names",
]
