"""Exponential-backoff quarantine for whatever keeps failing.

The engine keeps two: one keyed by query shape over code generation,
one keyed by candidate over online reorganization.  A failed compile
or an aborted stitch is usually transient, so the shape or candidate
stays eligible — but retrying it on the very next matching query turns
every hot query into a failed attempt.  The quarantine list is the
middle ground: after each failure the key is blocked for an
exponentially growing span, so retries happen but thin out
(``base``, ``2·base``, ``4·base``, … capped at ``cap``), and one
success clears the history entirely.  A key that has stayed
failure-free for ``cap`` past the end of its backoff is forgotten too,
so keys that fail once and never recur (a shape seen once, a candidate
never rebuilt) do not accumulate.  A blocked shape runs
interpreted; a blocked candidate is not re-stitched.

The clock is injectable and *unitless*: the engine passes its own query
counter, so backoff is measured in **queries** — deterministic under
test and meaningful under load (a quarantined candidate is retried
after N more queries, not N wall-clock seconds of possibly idle time).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Hashable, List, Tuple


class _Entry:
    __slots__ = ("failures", "blocked_until")

    def __init__(self) -> None:
        self.failures = 0
        self.blocked_until = 0.0


class QuarantineList:
    """Keyed exponential backoff (thread-safe, clock-injectable)."""

    def __init__(
        self,
        base: float = 4.0,
        cap: float = 256.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if base <= 0:
            raise ValueError(f"base must be > 0, got {base}")
        if cap < base:
            raise ValueError(
                f"cap must be >= base, got cap={cap} base={base}"
            )
        self.base = base
        self.cap = cap
        self.clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[Hashable, _Entry] = {}
        #: Total quarantine events ever recorded (monotonic telemetry).
        self.events = 0

    def _forget_expired(self, now: float) -> None:
        """Drop every key failure-free since ``blocked_until + cap``
        (caller holds the lock).  Only a failure adds a key and every
        failure sweeps first, so the list never holds more than the keys
        that failed within ``2 · cap`` of clock before the latest one."""
        expired = [
            key
            for key, entry in self._entries.items()
            if now >= entry.blocked_until + self.cap
        ]
        for key in expired:
            del self._entries[key]

    # Recording ------------------------------------------------------------

    def note_failure(self, key: Hashable) -> float:
        """Record one failure for ``key``; returns the backoff applied."""
        with self._lock:
            now = self.clock()
            self._forget_expired(now)
            entry = self._entries.setdefault(key, _Entry())
            entry.failures += 1
            backoff = min(
                self.cap, self.base * (2.0 ** (entry.failures - 1))
            )
            entry.blocked_until = now + backoff
            self.events += 1
            return backoff

    def note_success(self, key: Hashable) -> None:
        """``key`` succeeded: clear its failure history entirely."""
        with self._lock:
            self._entries.pop(key, None)

    # Decisions ------------------------------------------------------------

    def blocked(self, key: Hashable) -> bool:
        """Whether ``key`` is currently quarantined."""
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and self.clock() < entry.blocked_until

    # Introspection --------------------------------------------------------

    def blocked_keys(self) -> List[Hashable]:
        """Keys currently inside their backoff span."""
        with self._lock:
            now = self.clock()
            return [
                key
                for key, entry in self._entries.items()
                if now < entry.blocked_until
            ]

    def snapshot(self) -> Dict[str, object]:
        """Defensive copy for health reports (keys stringified)."""
        with self._lock:
            now = self.clock()
            self._forget_expired(now)
            blocked: Tuple[str, ...] = tuple(
                sorted(
                    _describe_key(key)
                    for key, entry in self._entries.items()
                    if now < entry.blocked_until
                )
            )
            return {
                "tracked": len(self._entries),
                "blocked": blocked,
                "events": self.events,
            }


def _describe_key(key: Hashable) -> str:
    """Stable, human-readable rendering (frozensets sort their items)."""
    if isinstance(key, frozenset):
        return ",".join(sorted(str(item) for item in key))
    return str(key)
