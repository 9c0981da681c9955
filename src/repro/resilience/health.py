"""The service's health snapshot: one consistent view of degradation.

A self-healing runtime is only trustworthy if every rung of its
degradation ladder is *visible*: a query shape silently served
interpreted, a quarantined candidate never re-stitched, a worker pool
quietly running below strength — each is correct behaviour in the
moment and an operational problem if unnoticed.  :class:`HealthReport`
is the defensive, immutable snapshot
:meth:`repro.service.H2OService.health` assembles from the admission
controller, the worker pool and every engine's quarantine and fallback
counters; ``GET /healthz`` serves it.

``status`` summarizes the ladder:

- ``"healthy"`` — full worker strength, no query shape's compiles and
  no candidate quarantined;
- ``"degraded"`` — serving correct answers through at least one
  fallback rung (the whole point of the ladder: degraded, never wrong);
- ``"closed"`` — the service has been shut down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping


@dataclass(frozen=True)
class HealthReport:
    """Immutable snapshot of the service's degradation state."""

    status: str  # "healthy" | "degraded" | "closed"
    #: Worker pool.
    workers_alive: int
    workers_expected: int
    worker_deaths: int
    worker_respawns: int
    #: Load.
    queue_depth: int
    in_flight: int
    capacity: int
    #: Retry ladder.
    requeued_deaths: int
    retried_failures: int
    degraded_queries: int
    #: Per-table candidate quarantine telemetry (see
    #: QuarantineList.snapshot()).
    quarantines: Mapping[str, Mapping[str, object]] = field(
        default_factory=dict
    )
    #: Per-table switching-policy telemetry (hedging factor, debt
    #: ledger, switches, deferrals — see AdaptationPolicy.snapshot()
    #: and docs/adaptation.md).
    policies: Mapping[str, Mapping[str, object]] = field(
        default_factory=dict
    )
    #: Engine-side degradation counters, summed over tables.
    codegen_fallbacks: int = 0
    #: Queries served interpreted because their shape's compiles were
    #: quarantined.
    compiles_blocked: int = 0
    reorg_aborts: int = 0
    deadline_aborts: int = 0
    #: Materializations the switching policy deferred (hedged-benefit
    #: gate not yet met), summed over tables.
    reorgs_deferred: int = 0
    #: Layout switches the policy granted, summed over tables.
    layout_switches: int = 0
