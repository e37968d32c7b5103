"""``DL0xx`` — decomposition / specification linting before synthesis.

Where :mod:`repro.analysis.emitted` proves disciplines on the *output* of
the compiler, this pass inspects its *input*: the decomposition itself, the
spec's FDs, and (when given) the workload trace the layout is meant to
serve.  One code (``DL001``) is an error — the parser silently drops unused
``where`` definitions, so a typo'd sharing name vanishes without a sound —
the rest are advisory: they flag layouts that are *legal but wasteful* for
the given FDs or trace, which is exactly what several benchmark
*alternative* layouts are on purpose.

Diagnostic codes:

=======  =====================================================================
DL001    unused ``where`` definition (unreachable node) — **error**
DL002    edge whose key is FD-implied by the columns already bound (warning)
DL003    ``where``-defined node referenced by a single parent (warning)
DL004    ordered structure whose key the trace never range-queries (warning)
DL005    trace range-queries a column no ordered full path serves (warning)
DL006    key-projection branch no trace query plan ever touches (warning)
=======  =====================================================================
"""

from __future__ import annotations

import re
from typing import Dict, List, Set, Union

from ..autotuner.scorer import estimate_edge_sizes
from ..core.spec import RelationSpec
from ..decomposition.model import Decomposition, DecompNode, MapEdge
from ..decomposition.parser import parse_decomposition
from ..decomposition.plan import JoinPlan, QueryPlan, plan_query
from .diagnostics import ERROR, WARNING, Diagnostic, Loc

__all__ = ["lint"]

_REF_RE = re.compile(r"@([A-Za-z_]\w*)")


def _edge_label(edge: MapEdge) -> str:
    return "{" + ", ".join(sorted(edge.key)) + "}:" + edge.structure


def lint(
    spec: RelationSpec,
    layout: Union[Decomposition, str],
    trace=None,
    name: str = "layout",
) -> List[Diagnostic]:
    """Lint *layout* for *spec* (and optionally against a recorded *trace*).

    *layout* may be the textual notation (enabling the text-level checks
    DL001/DL003, which need the ``where`` clauses the parser erases) or an
    already-parsed :class:`Decomposition`.  *trace* is a
    :class:`repro.autotuner.Trace`; without one the trace-informed checks
    (DL004–DL006) are skipped.
    """
    diags: List[Diagnostic] = []
    if isinstance(layout, str):
        _check_where_definitions(layout, name, diags)
        decomposition = parse_decomposition(layout)
    else:
        decomposition = layout
    _check_fd_redundant_edges(spec, decomposition, name, diags)
    if trace is not None:
        range_cols = {op[1] for op in trace.operations if op[0] == "range"}
        _check_ordered_structures(decomposition, range_cols, name, diags)
        _check_range_coverage(spec, decomposition, range_cols, name, diags)
        _check_unjoined_branches(spec, decomposition, trace, name, diags)
    return diags


# -- DL001 / DL003: where-definition reachability -------------------------------


def _check_where_definitions(text: str, name: str, diags: List[Diagnostic]) -> None:
    """Count ``@name`` definitions vs references in the textual notation.

    The parser resolves sharing references against the ``where`` environment
    and silently ignores definitions nothing references — so a misspelled
    reference doesn't fail, it just quietly builds an unshared layout.
    """
    defs: Dict[str, int] = {}
    refs: Dict[str, int] = {}
    for match in _REF_RE.finditer(text):
        ident = match.group(1)
        rest = text[match.end():].lstrip()
        if rest.startswith("="):
            defs[ident] = defs.get(ident, 0) + 1
        else:
            refs[ident] = refs.get(ident, 0) + 1
    for ident in sorted(defs):
        count = refs.get(ident, 0)
        if count == 0:
            diags.append(
                Diagnostic(
                    "DL001",
                    ERROR,
                    f"where-definition @{ident} is never referenced — the parser "
                    "drops it silently, so the layout is missing a node you "
                    "wrote (typo'd reference?)",
                    Loc(name, f"@{ident}"),
                )
            )
        elif count == 1:
            diags.append(
                Diagnostic(
                    "DL003",
                    WARNING,
                    f"where-definition @{ident} has a single parent — sharing "
                    "buys nothing with one referrer; inline it",
                    Loc(name, f"@{ident}"),
                )
            )


# -- DL002: FD-redundant edges --------------------------------------------------


def _check_fd_redundant_edges(
    spec: RelationSpec, decomposition: Decomposition, name: str, diags: List[Diagnostic]
) -> None:
    fds = spec.fds
    seen: Set[int] = set()
    for path in decomposition.paths():
        bound: Set[str] = set()
        for edge in path.edges:
            if bound and id(edge) not in seen and edge.key <= fds.closure(bound):
                seen.add(id(edge))
                diags.append(
                    Diagnostic(
                        "DL002",
                        WARNING,
                        f"edge {_edge_label(edge)} is redundant under the FDs: "
                        f"{sorted(edge.key)} is determined by the bound columns "
                        f"{sorted(bound)}, so each container holds exactly one "
                        "entry (a unit leaf or merged key would be cheaper)",
                        Loc(name, _edge_label(edge)),
                    )
                )
            bound |= edge.key


# -- DL004: ordered structures the trace never range-queries --------------------


def _check_ordered_structures(
    decomposition: Decomposition, range_cols: Set[str], name: str, diags: List[Diagnostic]
) -> None:
    for node in decomposition.nodes():
        for edge in node.edges:
            if not edge.structure_class().ORDERED:
                continue
            key_col = next(iter(edge.key)) if len(edge.key) == 1 else None
            if key_col is None or key_col not in range_cols:
                diags.append(
                    Diagnostic(
                        "DL004",
                        WARNING,
                        f"ordered structure {_edge_label(edge)} but the trace "
                        "never range-queries its key — paying the O(log n) "
                        "probes for nothing; a hash table would be cheaper",
                        Loc(name, _edge_label(edge)),
                    )
                )


# -- DL005: range-heavy traces over hash primaries ------------------------------


def _check_range_coverage(
    spec: RelationSpec,
    decomposition: Decomposition,
    range_cols: Set[str],
    name: str,
    diags: List[Diagnostic],
) -> None:
    all_cols = frozenset(spec.columns)
    for col in sorted(range_cols):
        served = any(
            path.edges
            and len(path.edges[0].key) == 1
            and next(iter(path.edges[0].key)) == col
            and path.edges[0].structure_class().ORDERED
            and path.covered == all_cols
            for path in decomposition.paths()
        )
        if not served:
            diags.append(
                Diagnostic(
                    "DL005",
                    WARNING,
                    f"the trace range-queries {col!r} but no full-coverage path "
                    "starts with an ordered single-column edge on it — every "
                    "range falls back to a filtered full scan",
                    Loc(name, col),
                )
            )


# -- DL006: projection branches no plan joins -----------------------------------


def _branch_edges(root_edge: MapEdge) -> List[MapEdge]:
    edges = [root_edge]
    stack: List[DecompNode] = [root_edge.child]
    seen: Set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for edge in node.edges:
            edges.append(edge)
            stack.append(edge.child)
    return edges


def _plan_edge_ids(plan) -> Set[int]:
    if isinstance(plan, JoinPlan):
        return _plan_edge_ids(plan.build) | _plan_edge_ids(plan.probe)
    if isinstance(plan, QueryPlan):
        return {id(step.edge) for step in plan.steps}
    return set()


def _check_unjoined_branches(
    spec: RelationSpec,
    decomposition: Decomposition,
    trace,
    name: str,
    diags: List[Diagnostic],
) -> None:
    all_cols = frozenset(spec.columns)
    root = decomposition.root
    if not root.edges:
        return
    # Which edges does any trace-pattern plan actually walk?  Plan both
    # unsized (the CLI compile) and with trace-estimated sizes: a branch
    # the planner only reaches as a join side under workload sizes — the
    # key-projection secondary of the reverse-neighbour graph — is serving
    # queries, not dead weight.
    used: Set[int] = set()
    patterns = set(trace.profile().pattern_columns())
    patterns.add(frozenset())
    try:
        sizes = estimate_edge_sizes(decomposition, trace.profile())
    except Exception:
        sizes = None  # trace stub without distinct-count statistics
    size_variants = [None] if sizes is None else [None, sizes]
    for pattern in patterns:
        for variant in size_variants:
            try:
                plan = plan_query(decomposition, pattern, spec=spec, sizes=variant)
            except Exception:
                continue
            used |= _plan_edge_ids(plan)
    for root_edge in root.edges:
        branch_paths = [p for p in decomposition.paths() if p.edges and p.edges[0] is root_edge]
        if not branch_paths:
            continue
        if any(p.covered == all_cols for p in branch_paths):
            continue  # full branch, not a key projection
        edge_ids = {id(e) for e in _branch_edges(root_edge)}
        if not (edge_ids & used):
            diags.append(
                Diagnostic(
                    "DL006",
                    WARNING,
                    f"key-projection branch {_edge_label(root_edge)} is never "
                    "walked by any trace query plan (neither directly nor as a "
                    "join side) — it costs every mutation and serves nothing",
                    Loc(name, _edge_label(root_edge)),
                )
            )
