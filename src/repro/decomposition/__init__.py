"""Decompositions (Section 3): describing relations as container hierarchies.

This package implements the middle layer of the paper — the bridge between
relational specifications (:mod:`repro.core`) and primitive containers
(:mod:`repro.structures`):

* :mod:`~repro.decomposition.model` — the decomposition DAG
  (:class:`Decomposition`, :class:`DecompNode`, :class:`MapEdge`) and the
  :func:`unit` / :func:`edge` construction helpers;
* :mod:`~repro.decomposition.parser` — the textual notation,
  e.g. ``"ns, pid -> htable {state, cpu}"``;
* :mod:`~repro.decomposition.adequacy` — the adequacy judgement of
  Section 3.2 (:func:`check_adequacy`, :func:`is_adequate`);
* :mod:`~repro.decomposition.plan` — the recursive query-plan IR: chain
  plans, cross-branch joins and Figure 8 FD-validity
  (:func:`plan_query`, :func:`validate_plan`).

Populated instances are the classes :mod:`repro.codegen` compiles from a
decomposition and its plans.
"""

from .adequacy import adequacy_problems, check_adequacy, enforced_fds, is_adequate
from .model import Decomposition, DecompNode, MapEdge, Path, edge, format_decomposition, unit
from .parser import parse_decomposition, tokenize
from .plan import (
    JoinPlan,
    LookupStep,
    PlanWitness,
    QueryPlan,
    ResidualFilter,
    ScanStep,
    converging_plans,
    path_steps,
    plan_query,
    validate_plan,
)

__all__ = [
    "Decomposition",
    "DecompNode",
    "JoinPlan",
    "LookupStep",
    "MapEdge",
    "Path",
    "PlanWitness",
    "QueryPlan",
    "ResidualFilter",
    "ScanStep",
    "adequacy_problems",
    "check_adequacy",
    "converging_plans",
    "edge",
    "enforced_fds",
    "format_decomposition",
    "is_adequate",
    "parse_decomposition",
    "path_steps",
    "plan_query",
    "tokenize",
    "unit",
    "validate_plan",
]
