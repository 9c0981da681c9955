"""Thread-safe service telemetry: counters and latency percentiles.

The service records one latency sample per completed query into a
bounded reservoir (most recent ``capacity`` samples) and a handful of
monotonic counters.  :meth:`ServiceStats.snapshot` returns a fully
defensive copy — a plain dict of numbers computed under the lock — so
dashboards and tests can never observe or corrupt live internal state.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List


def percentile(samples: List[float], fraction: float) -> float:
    """The ``fraction`` (0..1) percentile of ``samples`` (nearest-rank).

    Returns 0.0 for an empty sample set.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if fraction <= 0.0:
        return ordered[0]
    if fraction >= 1.0:
        return ordered[-1]
    rank = max(0, min(len(ordered) - 1, int(round(fraction * len(ordered))) - 1))
    return ordered[rank]


class ServiceStats:
    """Counters + bounded latency reservoir for one service instance."""

    def __init__(self, capacity: int = 8192) -> None:
        self._lock = threading.Lock()
        self._latencies: Deque[float] = deque(maxlen=capacity)
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.timeouts = 0
        self.failed = 0
        self.cancelled = 0
        #: Worker threads that died abruptly (exception escaping the
        #: per-ticket scope); each is replaced by a fresh thread unless
        #: the service is closing.  The testkit oracle matches this
        #: count against its injected worker-death faults.
        self.worker_deaths = 0
        #: Replacement workers spawned by the watchdog to restore the
        #: pool to its target strength after deaths.
        self.worker_respawns = 0
        #: Tickets put back on the queue because their worker died
        #: mid-flight (the ticket survives the thread: same admission
        #: slot, attempt counter bumped).  The chaos oracle matches this
        #: against its injected ``service.worker`` faults.
        self.requeued_deaths = 0
        #: Tickets requeued after a *retryable* per-query failure
        #: (``exc.is_retryable``, see repro/errors.py) within their
        #: attempt budget and deadline.  Matched against injected
        #: ``service.execute`` faults.
        self.retried_failures = 0
        #: Queries answered correctly but through a degradation rung
        #: (``QueryReport.degraded``): codegen fallback, quarantined
        #: compile, or an aborted online reorganization.
        self.degraded = 0
        #: Peak number of queries executing simultaneously (a direct
        #: measure of scan overlap across workers).
        self.peak_concurrency = 0
        self._running = 0

    # Recording -----------------------------------------------------------

    def note_submitted(self) -> None:
        with self._lock:
            self.submitted += 1

    def note_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def note_started(self) -> None:
        with self._lock:
            self._running += 1
            if self._running > self.peak_concurrency:
                self.peak_concurrency = self._running

    def note_completed(self, seconds: float) -> None:
        with self._lock:
            self._running = max(0, self._running - 1)
            self.completed += 1
            self._latencies.append(seconds)

    def note_failed(self, started: bool = True) -> None:
        """Count a failed query; ``started=False`` when it never ran
        (e.g. drained at shutdown) so the in-flight gauge stays honest.
        """
        with self._lock:
            if started:
                self._running = max(0, self._running - 1)
            self.failed += 1

    def note_worker_death(self) -> None:
        with self._lock:
            self.worker_deaths += 1

    def note_worker_respawn(self) -> None:
        with self._lock:
            self.worker_respawns += 1

    def note_requeued(self, death: bool) -> None:
        """A started ticket went back on the queue for another attempt.

        Decrements the in-flight gauge (the ticket re-enters through
        ``note_started`` on its next attempt) and records which retry
        rung fired: a worker death (``death=True``) or a retryable
        per-query failure.
        """
        with self._lock:
            self._running = max(0, self._running - 1)
            if death:
                self.requeued_deaths += 1
            else:
                self.retried_failures += 1

    def note_degraded(self) -> None:
        with self._lock:
            self.degraded += 1

    def running(self) -> int:
        """Queries executing right now (the scan pool's load provider).

        Called from arbitrary threads on every grant decision, so it
        must stay cheap: one lock acquisition, one int read.
        """
        with self._lock:
            return self._running

    def note_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def note_cancelled(self) -> None:
        with self._lock:
            self.cancelled += 1

    # Reporting -----------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """A consistent defensive copy of all counters and percentiles."""
        with self._lock:
            samples = list(self._latencies)
            snap: Dict[str, float] = {
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "worker_deaths": self.worker_deaths,
                "worker_respawns": self.worker_respawns,
                "requeued_deaths": self.requeued_deaths,
                "retried_failures": self.retried_failures,
                "degraded": self.degraded,
                "in_flight": self._running,
                "peak_concurrency": self.peak_concurrency,
            }
        snap["latency_samples"] = len(samples)
        snap["p50_ms"] = percentile(samples, 0.50) * 1e3
        snap["p99_ms"] = percentile(samples, 0.99) * 1e3
        snap["max_ms"] = (max(samples) if samples else 0.0) * 1e3
        snap["mean_ms"] = (
            sum(samples) / len(samples) if samples else 0.0
        ) * 1e3
        return snap
