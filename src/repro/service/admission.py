"""Admission control: a bounded queue with graceful rejection.

A store serving heavy concurrent traffic must bound the work it accepts
— an unbounded queue turns a transient overload into an ever-growing
latency cliff.  The admission controller tracks the number of queries
*in the system* (waiting or executing) against a fixed capacity and
rejects the excess at submission time with
:class:`~repro.errors.ServiceOverloadedError` — back-pressure, not a
crash.  Rejection is O(1) and happens in the client's thread before any
resources are committed.  The controller counts nothing else: admitted
and rejected submissions are the owner's counters (``ServiceStats``
for the service, ``Tenant`` for a gateway tenant's quota).
"""

from __future__ import annotations

import threading

from ..errors import ServiceError


class AdmissionController:
    """Counts in-flight queries against a hard capacity bound."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ServiceError(
                f"admission capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._in_flight = 0

    def try_acquire(self) -> bool:
        """Admit one query if the bound allows."""
        with self._lock:
            if self._in_flight >= self.capacity:
                return False
            self._in_flight += 1
            return True

    def release(self) -> None:
        """One admitted query left the system (finished, failed, or
        was cancelled)."""
        with self._lock:
            if self._in_flight > 0:
                self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight
