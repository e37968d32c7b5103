"""Decompositions: rooted DAGs describing how a relation is laid out (Section 3).

A *decomposition* describes how to represent a relation over columns ``C``
as a hierarchy of primitive containers.  It is a rooted directed acyclic
graph:

* an internal node has one or more outgoing :class:`MapEdge`\\ s.  An edge
  ``x --ψ, K--> y`` says: store the sub-relation at *x* in an associative
  container of kind ``ψ`` (``htable``, ``btree``, ``dlist``, ...) keyed by
  the columns ``K``, each entry holding a sub-instance shaped like *y*.
  A node with several outgoing edges stores its sub-relation once per edge
  (the paper's join/branch decompositions — e.g. an index by ``{ns, pid}``
  *and* an index by ``{state}``);
* a leaf node is a *unit* holding a single tuple over its residual columns
  (possibly none, in which case the unit is a pure presence marker).

Every node has a *type* ``B ▷ C``: ``B`` is the set of columns bound by map
keys on the way from the root, and ``C`` the columns the node's subtree
represents.  In this reproduction types are computed per root-to-leaf
:class:`Path` rather than stored on nodes, which lets the same node object
be reused in several positions.

This module defines the static shape only.  Judging a decomposition against
a :class:`~repro.core.spec.RelationSpec` lives in
:mod:`repro.decomposition.adequacy`; populated instances are the classes
:mod:`repro.codegen` compiles from a decomposition.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple as PyTuple, Union

from ..core.columns import ColumnSet, columns, format_columns
from ..core.errors import DecompositionError
from ..structures.registry import get_structure

__all__ = [
    "MapEdge",
    "DecompNode",
    "Path",
    "Decomposition",
    "unit",
    "edge",
    "format_node",
    "format_decomposition",
]


class MapEdge:
    """A map edge ``--ψ, K-->`` from a node to a child node.

    Parameters:
        key: the key columns ``K`` (non-empty).
        structure: the name of a registered container class (``htable``, ...).
        child: the target :class:`DecompNode`.
    """

    __slots__ = ("key", "structure", "child")

    def __init__(self, key: Union[str, Iterable[str]], structure: str, child: "DecompNode"):
        self.key: ColumnSet = columns(key)
        if not self.key:
            raise DecompositionError("a map edge needs at least one key column")
        if not isinstance(structure, str) or not structure:
            raise DecompositionError(f"edge structure must be a container name; got {structure!r}")
        # Fail fast on unknown container names (raises DecompositionError).
        get_structure(structure)
        if not isinstance(child, DecompNode):
            raise DecompositionError(f"edge child must be a DecompNode; got {type(child).__name__}")
        self.structure = structure
        self.child = child

    def structure_class(self):
        """The registered :class:`AssociativeContainer` subclass for this edge."""
        return get_structure(self.structure)

    def __repr__(self) -> str:
        return f"MapEdge({format_columns(self.key)} -> {self.structure})"


class DecompNode:
    """A node of a decomposition: either a unit leaf or a map node.

    A node holds *either* outgoing edges (an internal map node) *or* a set
    of unit columns (a leaf); the paper's grammar keeps the two separate and
    so does this class.
    """

    __slots__ = ("edges", "unit_columns")

    def __init__(
        self,
        edges: Sequence[MapEdge] = (),
        unit_columns: Union[str, Iterable[str]] = (),
    ):
        self.edges: PyTuple[MapEdge, ...] = tuple(edges)
        self.unit_columns: ColumnSet = columns(unit_columns)
        if self.edges and self.unit_columns:
            raise DecompositionError(
                "a decomposition node is either a map node (with edges) or a unit leaf "
                f"(with columns), not both: edges={list(self.edges)!r}, "
                f"unit={format_columns(self.unit_columns)}"
            )
        for e in self.edges:
            if not isinstance(e, MapEdge):
                raise DecompositionError(f"node edges must be MapEdge instances; got {e!r}")

    @property
    def is_unit(self) -> bool:
        """Is this node a unit leaf?"""
        return not self.edges

    def __repr__(self) -> str:
        if self.is_unit:
            return f"unit{format_columns(self.unit_columns)}"
        return f"DecompNode({len(self.edges)} edges)"


def unit(unit_columns: Union[str, Iterable[str]] = ()) -> DecompNode:
    """Build a unit leaf node, e.g. ``unit("state, cpu")``."""
    return DecompNode(unit_columns=unit_columns)


def edge(
    key: Union[str, Iterable[str]],
    structure: str,
    child: Union[DecompNode, str, Iterable[str]],
) -> DecompNode:
    """Build a single-edge map node, e.g. ``edge("ns, pid", "htable", unit("state, cpu"))``.

    As a convenience the child may be given as a column string/iterable, in
    which case it is wrapped in a unit leaf.
    """
    if not isinstance(child, DecompNode):
        child = unit(child)
    return DecompNode(edges=(MapEdge(key, structure, child),))


class Path:
    """A root-to-leaf path: the sequence of edges followed plus the leaf node.

    The per-path node typing ``B ▷ C`` of the paper is recovered from paths:
    :meth:`bound_at` gives ``B`` after the first *depth* edges and
    :meth:`covered` gives the full column set the path accounts for.
    """

    __slots__ = ("edges", "leaf", "edge_indices")

    def __init__(self, edges: Sequence[MapEdge], leaf: DecompNode, edge_indices: Sequence[int]):
        self.edges: PyTuple[MapEdge, ...] = tuple(edges)
        self.leaf = leaf
        #: For each step, the index of the edge among its source node's edges.
        self.edge_indices: PyTuple[int, ...] = tuple(edge_indices)

    def bound_at(self, depth: int) -> ColumnSet:
        """Columns bound after following the first *depth* edges of the path."""
        bound: ColumnSet = frozenset()
        for e in self.edges[:depth]:
            bound |= e.key
        return bound

    @property
    def bound(self) -> ColumnSet:
        """Columns bound at the leaf (the leaf's ``B``)."""
        return self.bound_at(len(self.edges))

    @property
    def covered(self) -> ColumnSet:
        """Every column this path accounts for: bound keys plus unit columns."""
        return self.bound | self.leaf.unit_columns

    def describe(self) -> str:
        parts = [f"{format_columns(e.key)}:{e.structure}" for e in self.edges]
        parts.append(f"unit{format_columns(self.leaf.unit_columns)}")
        return " -> ".join(parts)

    def __repr__(self) -> str:
        return f"Path({self.describe()})"


class Decomposition:
    """A named, validated decomposition: a root node plus structural checks.

    Construction performs the *structural* well-formedness checks that do
    not require a specification: the graph must be acyclic, every edge's
    structure must be registered, and no path may bind or store a column
    twice.  Checks against a specification (column coverage and the
    adequacy judgement of Section 3.2) are performed by
    :func:`repro.decomposition.adequacy.check_adequacy`.
    """

    __slots__ = ("name", "root", "_paths", "_node_bounds", "_parent_counts", "_coverage")

    #: Guard against pathological graphs: branching nodes multiply paths.
    MAX_PATHS = 64

    def __init__(self, root: DecompNode, name: str = "decomposition"):
        if not isinstance(root, DecompNode):
            raise DecompositionError(f"decomposition root must be a DecompNode; got {root!r}")
        self.name = name
        self.root = root
        self._paths: List[Path] = []
        self._node_bounds: Optional[Dict[int, List[ColumnSet]]] = None
        self._parent_counts: Optional[Dict[int, int]] = None
        self._coverage: Optional[Dict[int, ColumnSet]] = None
        self._validate()

    # -- structural validation -------------------------------------------------

    def _validate(self) -> None:
        paths: List[Path] = []

        def walk(node: DecompNode, edges: List[MapEdge], indices: List[int], on_path: List[DecompNode]) -> None:
            if any(node is seen for seen in on_path):
                raise DecompositionError(
                    f"decomposition {self.name!r} contains a cycle through {node!r}"
                )
            bound: ColumnSet = frozenset()
            for e in edges:
                bound |= e.key
            if node.is_unit:
                clash = node.unit_columns & bound
                if clash:
                    raise DecompositionError(
                        f"unit columns {format_columns(clash)} are already bound by "
                        f"map keys on the path to the leaf"
                    )
                if len(paths) >= self.MAX_PATHS:
                    raise DecompositionError(
                        f"decomposition {self.name!r} has more than "
                        f"{self.MAX_PATHS} root-to-leaf paths"
                    )
                paths.append(Path(edges, node, indices))
                return
            for index, e in enumerate(node.edges):
                clash = e.key & bound
                if clash:
                    raise DecompositionError(
                        f"map key {format_columns(e.key)} re-binds columns "
                        f"{format_columns(clash)} already bound on the path from the root"
                    )
                walk(e.child, edges + [e], indices + [index], on_path + [node])

        walk(self.root, [], [], [])
        self._paths = paths

    # -- inspection ------------------------------------------------------------

    def paths(self) -> List[Path]:
        """Every root-to-leaf path, in deterministic (left-to-right) order."""
        return list(self._paths)

    def nodes(self) -> List[DecompNode]:
        """Every distinct node, in pre-order (deduplicated by identity)."""
        seen: List[DecompNode] = []

        def visit(node: DecompNode) -> None:
            if any(node is s for s in seen):
                return
            seen.append(node)
            for e in node.edges:
                visit(e.child)

        visit(self.root)
        return seen

    def node_names(self) -> Dict[int, str]:
        """Stable display names (``x0``, ``x1``, ...) keyed by ``id(node)``."""
        return {id(node): f"x{i}" for i, node in enumerate(self.nodes())}

    # -- node sharing (Section 3's shared sub-nodes) -----------------------------

    def parent_counts(self) -> Dict[int, int]:
        """How many distinct map edges point at each node, keyed by ``id(node)``.

        A node with two or more parents is *shared*: several branches store
        a reference to the same child object (the paper's scheduler records,
        reached from both the ``ns, pid`` index and the per-``state`` lists).
        The root has no entry.  Cached — the graph is immutable after
        validation, and the planner asks on every ``plan_query`` call.
        """
        if self._parent_counts is not None:
            return self._parent_counts
        counts: Dict[int, int] = {}
        for node in self.nodes():
            for e in node.edges:
                counts[id(e.child)] = counts.get(id(e.child), 0) + 1
        self._parent_counts = counts
        return counts

    def shared_nodes(self) -> List[DecompNode]:
        """Every node reachable through two or more parent edges, in pre-order."""
        counts = self.parent_counts()
        return [node for node in self.nodes() if counts.get(id(node), 0) >= 2]

    def node_bounds(self) -> Dict[int, List[ColumnSet]]:
        """The bound column sets each node is reachable with, keyed by ``id(node)``.

        Computed by a traversal memoised on ``(node, bound)`` pairs, so a
        shared node is visited once per *distinct* bound set rather than once
        per root-to-leaf path — the adequacy checker uses this to type-check
        shared decompositions without enumerating an exponential path set.
        The result is cached (the graph is immutable after validation):
        callers iterating shared nodes pay one traversal, not one per node.
        """
        if self._node_bounds is not None:
            return self._node_bounds
        bounds: Dict[int, List[ColumnSet]] = {}
        seen: set = set()
        stack: List[PyTuple[DecompNode, ColumnSet]] = [(self.root, frozenset())]
        while stack:
            node, bound = stack.pop()
            key = (id(node), bound)
            if key in seen:
                continue
            seen.add(key)
            bounds.setdefault(id(node), []).append(bound)
            for e in reversed(node.edges):
                stack.append((e.child, bound | e.key))
        for entry in bounds.values():
            entry.sort(key=sorted)
        self._node_bounds = bounds
        return bounds

    def shared_bound(self, node: DecompNode) -> ColumnSet:
        """The unique bound column set of a shared node.

        Raises :class:`DecompositionError` when the node is reached with
        more than one bound set — the code generator requires
        every shared node to have one type ``B ▷ C`` (the adequacy checker
        reports this as an adequacy problem first).
        """
        entries = self.node_bounds().get(id(node), [])
        if len(entries) != 1:
            raise DecompositionError(
                f"shared node {node!r} of decomposition {self.name!r} is reached "
                f"with {len(entries)} different bound column sets "
                f"({[format_columns(b) for b in entries]}); a shared sub-node "
                f"must have a single type"
            )
        return entries[0]

    def node_coverage(self) -> Dict[int, ColumnSet]:
        """The columns each node's subtree reads or binds, keyed by ``id(node)``.

        A unit leaf covers its unit columns; a map node covers the union of
        ``edge.key ∪ coverage(child)`` over its edges.  With
        **key-projection branches** (a branch storing only a key subset of
        the columns — see :mod:`repro.decomposition.adequacy`) coverage
        differs per branch, and the planner's join search, the instances'
        projected branch-agreement check and the code generator's
        projected well-formedness all consume this map.  Cached — the graph
        is immutable after validation.
        """
        if self._coverage is not None:
            return self._coverage
        coverage: Dict[int, ColumnSet] = {}

        def visit(node: DecompNode) -> ColumnSet:
            cached = coverage.get(id(node))
            if cached is not None:
                return cached
            if node.is_unit:
                result = node.unit_columns
            else:
                result = frozenset()
                for e in node.edges:
                    result |= e.key | visit(e.child)
            coverage[id(node)] = result
            return result

        visit(self.root)
        self._coverage = coverage
        return coverage

    def edge_coverage(self, e: MapEdge) -> ColumnSet:
        """The columns one branch accounts for: ``e.key ∪ coverage(e.child)``."""
        return e.key | self.node_coverage()[id(e.child)]

    def structures(self) -> List[str]:
        """The container names used by the decomposition, sorted."""
        return sorted({e.structure for p in self._paths for e in p.edges})

    def key_columns(self) -> ColumnSet:
        """Every column bound by some map key."""
        result: ColumnSet = frozenset()
        for p in self._paths:
            result |= p.bound
        return result

    def covered_columns(self) -> ColumnSet:
        """Every column mentioned anywhere in the decomposition."""
        result: ColumnSet = frozenset()
        for p in self._paths:
            result |= p.covered
        return result

    def depth(self) -> int:
        """Length of the longest root-to-leaf path (number of map levels)."""
        return max(len(p.edges) for p in self._paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self._paths)

    # -- formatting -------------------------------------------------------------

    def describe(self) -> str:
        """Render the decomposition in the textual notation of
        :mod:`repro.decomposition.parser` (the rendering re-parses to an
        equivalent decomposition, preserving node sharing via ``@name``
        references and a ``where`` clause)."""
        return format_decomposition(self.root)

    def __repr__(self) -> str:
        return f"Decomposition({self.name!r}, {self.describe()})"


def format_node(
    node: DecompNode,
    structure_name: Optional[Callable[[str], str]] = None,
    shared_names: Optional[Dict[int, str]] = None,
) -> str:
    """Render *node* (and its subtree) in the textual decomposition notation.

    *structure_name* maps each edge's structure name for display — the
    default renders names as written; the autotuner passes alias resolution
    (for canonical dedup keys) or a constant (for structure-free shape
    skeletons), so every rendering shares one formatter.

    *shared_names* maps ``id(child)`` to a name for children that must be
    rendered as ``@name`` references instead of being expanded in place —
    :func:`format_decomposition` uses it to emit each shared node once.
    The node passed in is always expanded (so a shared node's own
    definition body renders normally).
    """
    if node.is_unit:
        return "{" + ", ".join(sorted(node.unit_columns)) + "}"

    def child_text(child: DecompNode) -> str:
        if shared_names is not None and id(child) in shared_names:
            return f"@{shared_names[id(child)]}"
        return format_node(child, structure_name, shared_names)

    rendered = [
        f"{', '.join(sorted(e.key))} -> "
        f"{structure_name(e.structure) if structure_name else e.structure} "
        f"{child_text(e.child)}"
        for e in node.edges
    ]
    if len(rendered) == 1:
        return rendered[0]
    return "[" + " ; ".join(rendered) + "]"


def format_decomposition(
    root: DecompNode, structure_name: Optional[Callable[[str], str]] = None
) -> str:
    """Render a whole decomposition, emitting each shared node exactly once.

    Nodes with a single parent render inline as before.  Nodes reached
    through several parent edges are replaced by ``@name`` references and
    defined once in a trailing ``where`` clause::

        [ns, pid -> htable (state -> htable @s0) ;
         state -> htable (ns, pid -> ilist @s0)] where @s0 = {cpu}

    Definitions are emitted innermost-first, so each definition only
    references names defined before it — the property the parser's
    single-pass resolution relies on.  Re-parsing the rendering yields one
    node object per name, so sharing survives a ``parse(format(d))``
    round-trip by object identity.
    """
    order: List[DecompNode] = []

    def visit(node: DecompNode) -> None:
        if any(node is s for s in order):
            return
        order.append(node)
        for e in node.edges:
            visit(e.child)

    visit(root)
    counts: Dict[int, int] = {}
    for node in order:
        for e in node.edges:
            counts[id(e.child)] = counts.get(id(e.child), 0) + 1
    shared = [node for node in order if counts.get(id(node), 0) >= 2]
    if not shared:
        return format_node(root, structure_name)
    names = {id(node): f"s{i}" for i, node in enumerate(shared)}

    postorder: List[DecompNode] = []

    def post(node: DecompNode) -> None:
        if any(node is s for s in postorder):
            return
        for e in node.edges:
            post(e.child)
        postorder.append(node)

    post(root)
    definitions = [
        f"@{names[id(node)]} = {format_node(node, structure_name, names)}"
        for node in postorder
        if id(node) in names
    ]
    main = format_node(root, structure_name, names)
    return f"{main} where {' ; '.join(definitions)}"
