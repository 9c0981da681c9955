"""The concurrent query service: many clients over one store.

This package lifts the single-threaded :class:`~repro.core.system.H2OSystem`
into a multi-client service:

- :class:`~repro.service.service.H2OService` — worker pool + submission
  API (futures, timeouts, graceful shutdown);
- :class:`~repro.service.admission.AdmissionController` — bounded
  in-flight capacity with O(1) back-pressure rejection;
- :class:`~repro.service.stats.ServiceStats` — the service's one set of
  thread-safe counters and latency percentiles.

The service is *self-healing* (docs/resilience.md): a worker watchdog
prunes dead threads and respawns them under a token-bucket budget,
tickets whose worker died (or whose failure was transient, see
``H2OError.is_retryable``) are requeued within an attempt budget and
deadline, and :meth:`~repro.service.service.H2OService.health`
exposes the whole degradation state as one immutable
:class:`~repro.resilience.health.HealthReport`.

Correctness rests on snapshot-isolated layout reads
(:class:`~repro.storage.relation.LayoutSnapshot`): queries plan and scan
against an immutable snapshot while reorganization publishes new layouts
via a single atomic epoch bump.
"""

from ..resilience.health import HealthReport
from .admission import AdmissionController
from .service import H2OService, QueryFuture
from .stats import ServiceStats, percentile

__all__ = [
    "AdmissionController",
    "H2OService",
    "HealthReport",
    "QueryFuture",
    "ServiceStats",
    "percentile",
]
