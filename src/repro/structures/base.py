"""Container descriptions and the access counter.

Map decompositions ``C --ψ--> v`` are implemented by a data structure ψ
drawn from an extensible library of primitives (Section 3.1 and Section 6
of the paper).  The code generator (:mod:`repro.codegen`) lowers every
structure itself, so a library entry is a *description*, not a runtime
container: :class:`AssociativeContainer` carries what the lowering and the
planner need — the structure's name, whether it is ordered or intrusive,
how it is lowered, and its cost model ``m_ψ(n)`` — and
:class:`OperationCounter` is the deterministic cost metric the generated
code charges as it probes.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = ["AssociativeContainer", "OperationCounter", "COUNTER"]


class OperationCounter:
    """Counts primitive container operations.

    The counter approximates "memory accesses": each probe of a list node,
    hash bucket, or tree node counts as one access.  The autotuner uses it
    as a deterministic, machine-independent cost metric, and tests use it
    to verify asymptotic claims (e.g. that hash lookups touch O(1) entries
    while list lookups touch O(n)).  Generated code charges it only while
    ``enabled``, so uninstrumented runs pay one attribute read per probe.
    """

    __slots__ = ("enabled", "accesses")

    def __init__(self) -> None:
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        self.accesses = 0

    # -- context manager -------------------------------------------------------

    def __enter__(self) -> "OperationCounter":
        self.reset()
        self.enabled = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.enabled = False


#: The library-wide counter charged by every generated relation class.
COUNTER = OperationCounter()


class AssociativeContainer:
    """Description of a key→value container usable on a map edge.

    Subclasses define:

    * ``NAME`` — the identifier used in decompositions (``htable``, ``dlist``, ...),
    * ``ORDERED`` — whether iteration follows the key ordering,
    * ``INTRUSIVE`` — whether values are linked into the container so that
      removing a held value is constant time,
    * ``CODEGEN_STRATEGY`` — how the code generator lowers the structure,
    * :meth:`estimate_accesses` — the cost model ``m_ψ(n)``.
    """

    #: Identifier used in decompositions and mapping files.
    NAME: str = "abstract"
    #: Whether iteration follows key order.
    ORDERED: bool = False
    #: Whether the structure supports O(1) removal given the stored value.
    INTRUSIVE: bool = False
    #: How the code generator (:mod:`repro.codegen`) lowers this structure:
    #: ``"hash"`` — a Python dict with O(1) probes; ``"tree"`` — a dict whose
    #: probes are charged ``log2(n)`` accesses (matching the cost model of a
    #: balanced tree); ``"list"`` — a plain list of entries with genuinely
    #: linear search, so compiled list layouts keep their real asymptotics;
    #: ``"intrusive"`` — a dict charged like an intrusive linked list: key
    #: *searches* cost ``n`` accesses (an unordered list cannot probe), but
    #: linking a known-new entry and unlinking a held entry cost 1.
    #: Structures registered by users default to ``"hash"``.
    CODEGEN_STRATEGY: str = "hash"

    @classmethod
    def estimate_accesses(cls, n: float) -> float:
        """``m_ψ(n)``: expected memory accesses to look up a key among *n* entries."""
        raise NotImplementedError

    @classmethod
    def scan_cost(cls, n: float) -> float:
        """Expected accesses to iterate over all *n* entries (default: ``n``)."""
        return max(1.0, float(n))

    @classmethod
    def unlink_cost(cls, n: float) -> float:
        """Expected accesses to remove an entry whose *value* the caller
        already holds (default: the entry must still be found by key, so the
        lookup cost).  Intrusive structures override this with ``O(1)`` —
        the property that makes shared decompositions cheap to update."""
        return cls.estimate_accesses(n)


def log2_cost(n: float) -> float:
    """Helper shared by tree-like structures: ``log2(n) + 1`` accesses."""
    return math.log2(n) + 1.0 if n > 1 else 1.0
