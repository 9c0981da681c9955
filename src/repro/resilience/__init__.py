"""The self-healing layer: every adaptive mechanism gets a safety net.

H2O's premise is that adaptation — JiT code generation, online
reorganization, plan caching — runs *inside* the serving
path.  That makes every adaptive mechanism a failure surface for live
queries.  This package holds the runtime's answers, all deterministic
and clock-injectable so the degradation ladder is unit-testable without
sleeps:

- :class:`~repro.resilience.quarantine.QuarantineList` — exponential
  backoff counted in queries, used twice by each engine: a query shape
  whose compile failed is served interpreted for a growing number of
  queries, and a candidate whose stitch aborted is not re-stitched for
  a growing number of queries;
- :class:`~repro.resilience.supervisor.Supervisor` — the watchdog
  thread over the service's worker pool, whose :class:`~repro.resilience.
  budget.TokenBucket` keeps a crash loop from becoming a respawn storm;
- :class:`~repro.resilience.health.HealthReport` — one defensive
  snapshot of the whole degradation state (workers alive, quarantined
  candidates, fallback/respawn counters, queue depth), exposed through
  :meth:`repro.service.H2OService.health`.

The ladder these pieces implement, from cheapest to most drastic:

1. *fall back per query* — a compile failure answers through the
   interpreted path (``Executor.codegen_fallbacks``);
2. *stop retrying what keeps failing* — one quarantine blocks compiles
   per query shape and re-stitching per candidate, with backoff that
   grows 4, 8, … 256 queries and clears on the first success;
3. *heal the pool* — a dead worker is detected by the watchdog and
   replaced at a bounded rate, its ticket requeued;
4. *shed load* — the service rejects submissions once the admission
   bound is hit, instead of queueing without bound.

Every rung is observable (counters, the health report) and audited by
the testkit's chaos mode (``python -m repro.testkit chaos``): an
absorbed fault that leaves no evidence fails the oracle.
"""

from .budget import TokenBucket
from .health import HealthReport
from .quarantine import QuarantineList
from .supervisor import Supervisor

__all__ = [
    "HealthReport",
    "QuarantineList",
    "Supervisor",
    "TokenBucket",
]
