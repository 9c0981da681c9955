"""Deterministic fault-injection points (the production-side half).

H2O's correctness story — adaptation is invisible to query answers —
only holds if every failure of the adaptive machinery (a compile error
in a generated operator, a stitch aborted mid-reorganization, a worker
thread dying, a query timing out) degrades to a *documented* exception
or a clean fallback, never a wrong answer or a torn snapshot.  Proving
that requires failing those components on purpose, deterministically.

This module is the hook: production modules call :func:`fault_point` at
named injectable sites.  With no injector installed (always, outside the
testkit) the call is one module-global read and a ``None`` check — it
never allocates and never raises.  The testkit's
:class:`repro.testkit.faults.FaultInjector` installs a handler that
counts occurrences of each point and raises a scheduled exception at
exactly the seeded occurrence index, making every fault reproducible
from a single seed.

Registered points (name → site → injected failure):

- ``codegen.compile`` — :func:`repro.codegen.compile.compile_kernel`,
  before compiling generated source (a compiler failure);
- ``reorg.online`` — :meth:`repro.core.reorganizer.Reorganizer.online`,
  at the start of each morsel's stitch (a stitch aborted
  mid-reorganization, after earlier morsels have been written into the
  new group's backing array);
- ``service.worker`` — :meth:`repro.service.service.H2OService.
  _run_ticket`, after the query is marked running but outside the
  per-query exception scope (an abrupt worker-thread death);
- ``service.execute`` — same site, inside the per-query scope (a forced
  per-query failure, e.g. an injected timeout).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Optional

Handler = Callable[[str, Dict[str, Any]], None]

_lock = threading.Lock()
_active: Optional[Handler] = None


def install(handler: Handler) -> None:
    """Install ``handler`` as the process-wide fault injector.

    Only one injector may be active at a time — fault schedules are
    seeded and occurrence-counted, so two overlapping injectors would
    make each other's schedules nondeterministic.
    """
    global _active
    with _lock:
        if _active is not None:
            raise RuntimeError(
                "a fault injector is already installed; "
                "fault schedules must not overlap"
            )
        _active = handler


def uninstall(handler: Handler) -> None:
    """Remove ``handler`` if it is the active injector (idempotent)."""
    global _active
    with _lock:
        # ``==`` rather than ``is``: bound methods are re-created on
        # every attribute access, so identity would never match when an
        # injector installs ``self._handle``.
        if _active == handler:
            _active = None


def active() -> Optional[Handler]:
    """The currently installed injector handler, if any."""
    return _active


def fault_point(name: str, **context: Any) -> None:
    """Mark an injectable failure site.

    No-op unless an injector is installed; the injector may raise to
    simulate the failure this site models.  ``context`` carries
    site-specific detail (attribute sets, query SQL, block offsets) for
    the injector's records.
    """
    handler = _active
    if handler is not None:
        handler(name, context)
