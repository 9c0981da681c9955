"""The self-healing layer: every adaptive mechanism gets a safety net.

H2O's premise is that adaptation — JiT code generation, online
reorganization, plan caching — runs *inside* the serving
path.  That makes every adaptive mechanism a failure surface for live
queries.  This package holds the runtime's answers, all deterministic
and clock-injectable so the degradation ladder is unit-testable without
sleeps:

- :class:`~repro.resilience.breaker.CircuitBreaker` — a per-key
  (query-shape-signature) breaker over the codegen path: after N
  consecutive compile failures the breaker *opens* and the engine stops
  attempting compilation for that shape, serving the interpreted plan
  instead; after a cooldown it *half-opens* and lets exactly one probe
  through;
- :class:`~repro.resilience.quarantine.QuarantineList` — exponential
  backoff for poisoned reorganization candidates: a candidate whose
  stitch aborted is blocked for a growing number of queries so the
  advisor stops re-stitching it on every trigger;
- :class:`~repro.resilience.supervisor.Supervisor` — the watchdog
  thread over the service's worker pool, whose :class:`~repro.resilience.
  budget.TokenBucket` keeps a crash loop from becoming a respawn storm;
- :class:`~repro.resilience.health.HealthReport` — one defensive
  snapshot of the whole degradation state (workers alive, breaker
  states, quarantined candidates, fallback/respawn counters, queue
  depth), exposed through :meth:`repro.service.H2OService.health`.

The ladder these pieces implement, from cheapest to most drastic:

1. *fall back per query* — a compile failure answers through the
   interpreted Volcano path (``Executor.codegen_fallbacks``);
2. *stop retrying what keeps failing* — the breaker short-circuits
   compilation per signature; the quarantine blocks re-stitching per
   candidate, both with bounded, growing backoff;
3. *heal the pool* — a dead worker is detected by the watchdog and
   replaced at a bounded rate, its ticket requeued;
4. *shed load* — the service rejects submissions once the admission
   bound is hit, instead of queueing without bound.

Every rung is observable (counters, the health report) and audited by
the testkit's chaos mode (``python -m repro.testkit chaos``): an
absorbed fault that leaves no evidence fails the oracle.
"""

from .breaker import CircuitBreaker
from .budget import TokenBucket
from .health import HealthReport
from .quarantine import QuarantineList
from .supervisor import Supervisor

__all__ = [
    "CircuitBreaker",
    "HealthReport",
    "QuarantineList",
    "Supervisor",
    "TokenBucket",
]
