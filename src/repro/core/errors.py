"""Exception hierarchy for the repro library.

All errors raised by the library derive from :class:`ReproError`, so client
code can catch a single exception type at the relational API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SpecificationError(ReproError):
    """A relational specification is malformed.

    Raised for empty column sets, functional dependencies that mention
    columns outside the specification, duplicate column names, and similar
    structural problems.
    """


class TupleError(ReproError):
    """A tuple is used with the wrong columns for an operation."""


class FunctionalDependencyError(ReproError):
    """An operation would violate the specification's functional dependencies."""


class DecompositionError(ReproError):
    """A decomposition is structurally malformed.

    Examples: unbound variables, duplicate let bindings, cycles in the
    decomposition graph, unit primitives with inconsistent columns.
    """


class AdequacyError(DecompositionError):
    """A decomposition fails the adequacy judgement of Figure 6.

    The decomposition cannot faithfully represent every relation over the
    specification's columns satisfying its functional dependencies.
    """


class WellFormednessError(DecompositionError):
    """A decomposition instance violates the well-formedness rules of Figure 5."""


class QueryPlanError(ReproError):
    """A query plan is invalid for a decomposition (Figure 8), or no valid
    plan exists for a requested query."""


class OperationError(ReproError):
    """A relational operation was invoked with unsupported arguments.

    For example, an ``update`` whose pattern is not a key of the relation, or
    an ``insert`` of a tuple with missing columns.
    """


class SynthesisError(ReproError):
    """The RELC synthesizer could not produce an implementation.

    Raised when code generation fails, when a required operation
    instantiation cannot be planned, or when a backend is misconfigured.
    """


class AutotunerError(ReproError):
    """The autotuner was misconfigured or could not enumerate candidates."""


class LiveRelationError(ReproError):
    """A live relation could not re-tune or migrate between layouts.

    Raised when an α-migration fails its equivalence check (the old and new
    backings disagree on the represented relation), or when the
    :func:`repro.live.open_relation` factory is called with an invalid tier
    or an inconsistent combination of arguments.
    """


class MigrationError(LiveRelationError):
    """An α-migration between layouts failed and was aborted.

    The old backing is left intact and keeps serving; the partially-built
    target is discarded.  Raised (and caught by the self-healing loop) for
    α-equivalence mismatches, failures while copying rows into the target,
    and faults injected at the verify or swap stage.
    """

    def __init__(self, message: str, stage: str = "migrate"):
        super().__init__(message)
        #: Which migration stage failed: ``"copy"``, ``"verify"`` or
        #: ``"swap"``.
        self.stage = stage


class RetuneFailed(LiveRelationError):
    """A live re-tune attempt failed end to end.

    Carries the failed *stage* (``"tune"``, ``"compile"``, or ``"circuit"``
    when the circuit breaker refuses the attempt) so the circuit-breaker
    bookkeeping and ``live_stats()`` can report where the attempt died.
    """

    def __init__(self, message: str, stage: str = "tune"):
        super().__init__(message)
        self.stage = stage


class FaultInjected(ReproError):
    """A deliberately injected fault fired (see :mod:`repro.faults`).

    Never raised in production configurations: the fault layer is inert
    unless a test (or the chaos suite) arms a plan.  Carries the *site*
    that fired and the 1-based *hit* index at which it fired, so sweeps
    can assert exactly which interleaving point was exercised.
    """

    def __init__(self, site: str, hit: int = 1):
        super().__init__(f"injected fault at site {site!r} (hit #{hit})")
        self.site = site
        self.hit = hit


class IntegrityError(ReproError):
    """An exception-safety rollback could not restore the previous state.

    This is the one error after which an instance may be corrupt: a mutator
    failed mid-flight *and* undoing its partial effects failed too.  The
    original failure is attached as ``__cause__``.
    """


class ParseError(ReproError):
    """A specification / decomposition mapping file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column
