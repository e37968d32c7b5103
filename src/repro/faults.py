"""``repro.faults`` — deterministic, seeded fault injection.

Differential equivalence between the tiers is a 2-safety property: a
bug only shows up when *two* executions (the tier and its reference mirror)
are compared.  Exception-safety bugs are worse still — they only show up
when a failure lands at exactly the wrong interleaving point inside a
mutator.  Waiting for such failures to happen is hopeless; following
McKenney's discipline, this module makes them happen *on purpose*, at named
injection points, deterministically.

Design:

* **Named sites.**  Every interleaving point worth failing at is registered
  once under a stable dotted name (``reference.insert``,
  ``codegen.remove.unlink``, ``live.migrate.dual_write`` ...).
  Registration happens at import time — the reference oracle registers its
  mutators, the code generator the walk points it emits into every
  compiled mutator, the live facade its migration stages — so
  :func:`fault_sites` enumerates the complete sweep surface, and the chaos
  suite asserts every site fires.

* **Inert by default.**  Production code guards every check with the
  singleton's ``active`` flag::

      if FAULTS.active:
          FAULTS.check("reference.insert")

  When no plan is armed ``active`` is ``False`` and the entire layer costs
  one attribute read per site — and, crucially, **zero counted accesses**:
  nothing here ever touches the
  :class:`~repro.structures.base.OperationCounter`, so benchmark gates are
  byte-identical with the layer compiled in.

* **Deterministic firing.**  :meth:`FaultInjector.arm` arms a one-shot
  plan: the *n*-th hit of one site raises
  :class:`~repro.core.errors.FaultInjected` and disarms the plan, so a
  rollback path never re-faults while undoing (exactly one failure per
  armed plan — the discipline strong exception safety is tested under).
  A seeded sweep is then just a loop over ``(site, hit)`` pairs.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple as PyTuple

from .core.errors import FaultInjected, ReproError

__all__ = [
    "FAULTS",
    "FaultInjector",
    "assert_all_sites_known",
    "fault_sites",
    "inject",
    "register_site",
]

#: Site names are dotted paths of lower-case snake-case segments
#: (``codegen.remove.unlink``, ``structures.htable.insert``): at least two
#: segments, so a bare word — almost always a typo'd or stale name — is
#: rejected at registration instead of silently never arming.
_SITE_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")


class FaultInjector:
    """The process-wide fault plan: a site registry plus one armed plan.

    Thread-compatible by design rather than heavily locked: arming and
    disarming take a lock, but the hot-path ``check`` reads plain
    attributes — a background re-tune thread hitting a site concurrently
    with the main thread at worst fires the fault on a neighbouring hit,
    and the deterministic tests drive a single thread.
    """

    __slots__ = (
        "active",
        "_sites",
        "_armed_site",
        "_armed_hit",
        "_armed_count",
        "_fired",
        "_lock",
    )

    def __init__(self) -> None:
        #: The cheap hot-path guard: ``True`` only while a plan is armed.
        self.active = False
        #: site name → total hits observed while armed (diagnostics).
        self._sites: Dict[str, int] = {}
        self._armed_site: Optional[str] = None
        self._armed_hit = 0
        self._armed_count = 0
        #: ``(site, hit)`` pairs that actually fired, in order.
        self._fired: List[PyTuple[str, int]] = []
        self._lock = threading.Lock()

    # -- registry ---------------------------------------------------------------

    def register_site(self, name: str) -> str:
        """Register *name* as an injection site (idempotent); returns it.

        Names must live in the dotted site namespace
        (``<layer>.<operation>[.<detail>...]``, lower-case snake-case
        segments) — the same namespace :meth:`assert_all_sites_known` and
        the static verifier round-trip against.
        """
        if not name:
            raise ReproError("fault site names must be non-empty")
        if _SITE_NAME_RE.match(name) is None:
            raise ReproError(
                f"fault site name {name!r} is outside the site namespace "
                "(expected dotted lower-case segments like "
                "'codegen.remove.unlink')"
            )
        self._sites.setdefault(name, 0)
        return name

    def sites(self) -> List[str]:
        """Every registered site name, sorted."""
        return sorted(self._sites)

    def assert_all_sites_known(self, names: Iterable[str]) -> None:
        """Fail fast unless every name in *names* is a registered site.

        A typo'd site in a sweep list or an emitted guard would otherwise
        silently never arm (the check self-selects by name, so an unknown
        name simply never fires).  Raises :class:`ReproError` listing every
        unknown name; accepts any iterable of names.
        """
        unknown = sorted(set(names) - set(self._sites))
        if unknown:
            raise ReproError(
                "unknown fault site(s): "
                + ", ".join(repr(n) for n in unknown)
                + "; registered sites: "
                + ", ".join(self.sites())
            )

    # -- arming -----------------------------------------------------------------

    def arm(self, site: str, on_hit: int = 1) -> None:
        """Arm a one-shot fault: the *on_hit*-th hit of *site* raises.

        Unknown sites are rejected — a sweep armed against a renamed site
        would otherwise silently test nothing.
        """
        if site not in self._sites:
            known = ", ".join(self.sites())
            raise ReproError(
                f"cannot arm unknown fault site {site!r}; registered sites: {known}"
            )
        if on_hit < 1:
            raise ReproError(f"on_hit must be >= 1, got {on_hit}")
        with self._lock:
            self._armed_site = site
            self._armed_hit = on_hit
            self._armed_count = 0
            self.active = True

    def disarm(self) -> None:
        """Disarm any armed plan (idempotent)."""
        with self._lock:
            self._armed_site = None
            self._armed_hit = 0
            self._armed_count = 0
            self.active = False

    @property
    def armed(self) -> Optional[PyTuple[str, int]]:
        """The armed ``(site, on_hit)`` plan, or ``None``."""
        if not self.active or self._armed_site is None:
            return None
        return (self._armed_site, self._armed_hit)

    # -- the hot path ------------------------------------------------------------

    def check(self, site: str) -> None:
        """Fire if the armed plan targets *site* and its hit count is due.

        Callers guard with ``if FAULTS.active`` so this is never reached in
        the disabled configuration; when armed for a *different* site the
        cost is one comparison.
        """
        if site != self._armed_site:
            return
        self._sites[site] = self._sites.get(site, 0) + 1
        self._armed_count += 1
        if self._armed_count >= self._armed_hit:
            hit = self._armed_count
            self.disarm()  # One-shot: rollback paths never re-fault.
            self._fired.append((site, hit))
            raise FaultInjected(site, hit)

    # -- diagnostics -------------------------------------------------------------

    def fired(self) -> List[PyTuple[str, int]]:
        """Every ``(site, hit)`` that fired since the last :meth:`reset_stats`."""
        return list(self._fired)

    def fired_sites(self) -> List[str]:
        """Distinct sites that have fired, sorted."""
        return sorted({site for site, _ in self._fired})

    def reset_stats(self) -> None:
        """Clear firing history and per-site hit counts (keeps the registry)."""
        with self._lock:
            self._fired.clear()
            for name in self._sites:
                self._sites[name] = 0

    def stats(self) -> Dict[str, object]:
        return {
            "sites": len(self._sites),
            "armed": self.armed,
            "fired": len(self._fired),
            "fired_sites": self.fired_sites(),
        }

    def __repr__(self) -> str:
        return f"FaultInjector(sites={len(self._sites)}, armed={self.armed})"


#: The library-wide injector every instrumented module checks.
FAULTS = FaultInjector()


def register_site(name: str) -> str:
    """Register *name* on the library-wide injector (idempotent)."""
    return FAULTS.register_site(name)


def fault_sites() -> List[str]:
    """Every registered injection site (import ``repro`` first so all
    instrumented modules have registered theirs)."""
    return FAULTS.sites()


def assert_all_sites_known(names: Iterable[str]) -> None:
    """Validate *names* against the library-wide registry (fail fast)."""
    FAULTS.assert_all_sites_known(names)


@contextmanager
def inject(site: str, on_hit: int = 1) -> Iterator[FaultInjector]:
    """Arm a one-shot fault for the duration of a ``with`` block.

    The plan is disarmed on exit even if it never fired, so a site that a
    particular operation sequence does not reach cannot leak into later
    tests.
    """
    FAULTS.arm(site, on_hit)
    try:
        yield FAULTS
    finally:
        FAULTS.disarm()
