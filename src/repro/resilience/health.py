"""The service's health snapshot: one consistent view of degradation.

A self-healing runtime is only trustworthy if every rung of its
degradation ladder is *visible*: a breaker silently serving interpreted
plans, a quarantined candidate never re-stitched, a worker pool quietly
running below strength — each is correct behaviour in the moment and an
operational problem if unnoticed.  :class:`HealthReport` is the
defensive, immutable snapshot :meth:`repro.service.H2OService.health`
assembles from the admission controller, the worker pool, the
scheduler, and every engine's breaker/quarantine/fallback counters.

``status`` summarizes the ladder:

- ``"healthy"`` — full worker strength, no open breakers, nothing
  quarantined, scheduler running;
- ``"degraded"`` — serving correct answers through at least one
  fallback rung (the whole point of the ladder: degraded, never wrong);
- ``"closed"`` — the service has been shut down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple


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
    #: Background adaptation.
    scheduler_paused: bool
    scheduler_pauses: int
    stitch_failures: int
    #: Per-table breaker telemetry (see CircuitBreaker.snapshot()).
    breaker_states: Mapping[str, Mapping[str, object]] = field(
        default_factory=dict
    )
    #: Per-table quarantine telemetry (see QuarantineList.snapshot()).
    quarantines: Mapping[str, Mapping[str, object]] = field(
        default_factory=dict
    )
    #: Per-table switching-policy telemetry (debt ledger, switches,
    #: deferrals — see AdaptationPolicy.snapshot() and
    #: docs/adaptation.md).
    policies: Mapping[str, Mapping[str, object]] = field(
        default_factory=dict
    )
    #: Engine-side degradation counters, summed over tables.
    codegen_fallbacks: int = 0
    breaker_short_circuits: int = 0
    reorg_aborts: int = 0
    deadline_aborts: int = 0
    #: Materializations the switching policy deferred (hedged-benefit
    #: gate not yet met), summed over tables.
    reorgs_deferred: int = 0
    #: Layout switches the policy granted, summed over tables.
    layout_switches: int = 0

    # Derived views --------------------------------------------------------

    @property
    def open_breakers(self) -> Tuple[Tuple[str, str], ...]:
        """(table, signature) pairs with a non-closed breaker."""
        pairs = []
        for table, snap in sorted(self.breaker_states.items()):
            for key in snap.get("open", ()):
                pairs.append((table, key))
        return tuple(pairs)

    @property
    def quarantined_candidates(self) -> Tuple[Tuple[str, str], ...]:
        """(table, attr-set) pairs currently inside their backoff."""
        pairs = []
        for table, snap in sorted(self.quarantines.items()):
            for key in snap.get("blocked", ()):
                pairs.append((table, key))
        return tuple(pairs)

    def counters(self) -> Dict[str, int]:
        """The scalar counters as one plain dict (for tests/dashboards)."""
        return {
            "workers_alive": self.workers_alive,
            "workers_expected": self.workers_expected,
            "worker_deaths": self.worker_deaths,
            "worker_respawns": self.worker_respawns,
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "capacity": self.capacity,
            "requeued_deaths": self.requeued_deaths,
            "retried_failures": self.retried_failures,
            "degraded_queries": self.degraded_queries,
            "scheduler_pauses": self.scheduler_pauses,
            "stitch_failures": self.stitch_failures,
            "codegen_fallbacks": self.codegen_fallbacks,
            "breaker_short_circuits": self.breaker_short_circuits,
            "reorg_aborts": self.reorg_aborts,
            "deadline_aborts": self.deadline_aborts,
            "reorgs_deferred": self.reorgs_deferred,
            "layout_switches": self.layout_switches,
        }

    def describe(self) -> str:
        """Multi-line human-readable rendering for logs and the shell."""
        lines = [
            f"health: {self.status}",
            f"  workers: {self.workers_alive}/{self.workers_expected} "
            f"alive (deaths={self.worker_deaths}, "
            f"respawns={self.worker_respawns})",
            f"  load: queue={self.queue_depth} "
            f"in_flight={self.in_flight}/{self.capacity}",
            f"  retries: deaths_requeued={self.requeued_deaths} "
            f"failures_retried={self.retried_failures} "
            f"degraded_queries={self.degraded_queries}",
            f"  adaptation: paused={self.scheduler_paused} "
            f"(pauses={self.scheduler_pauses}, "
            f"stitch_failures={self.stitch_failures})",
            f"  fallbacks: codegen={self.codegen_fallbacks} "
            f"breaker_short_circuits={self.breaker_short_circuits} "
            f"reorg_aborts={self.reorg_aborts} "
            f"deadline_aborts={self.deadline_aborts}",
            f"  policy: switches={self.layout_switches} "
            f"deferred={self.reorgs_deferred}",
        ]
        if self.open_breakers:
            rendered = ", ".join(
                f"{table}:{sig}" for table, sig in self.open_breakers
            )
            lines.append(f"  open breakers: {rendered}")
        if self.quarantined_candidates:
            rendered = ", ".join(
                f"{table}:[{attrs}]"
                for table, attrs in self.quarantined_candidates
            )
            lines.append(f"  quarantined: {rendered}")
        return "\n".join(lines)
