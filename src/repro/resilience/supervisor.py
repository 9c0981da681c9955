"""The one watchdog: a daemon thread that calls its owner's ``heal``.

Worker threads (the service) and shard processes (the coordinator) are
healed alike: on every tick, or at once on :meth:`Supervisor.wake`,
``heal(budget)`` prunes the dead and respawns them at one token each; a
dry bucket defers to the next tick, so a crash loop is throttled and the
pool still converges back to full strength (see budget.py).
"""

from __future__ import annotations

import threading
from typing import Callable

from .budget import TokenBucket

#: Seconds between heal ticks when nothing wakes the watchdog earlier.
WATCHDOG_INTERVAL = 0.05


class Supervisor:
    """Runs ``heal(budget)`` every tick and on :meth:`wake`, until closed."""

    def __init__(
        self, name: str, heal: Callable[[TokenBucket], None], size: int
    ) -> None:
        self._heal = heal
        self.budget = TokenBucket(burst=max(4, 2 * size), window=1.0)
        self._closed = False
        self._wake = threading.Event()
        #: Heal now instead of at the next tick (non-blocking).
        self.wake = self._wake.set
        self._thread = threading.Thread(
            target=self._loop, name=f"{name}-watchdog", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        while True:
            self._wake.wait(WATCHDOG_INTERVAL)
            self._wake.clear()
            if self._closed:
                return
            self._heal(self.budget)

    def close(self, timeout: float) -> None:
        """Stop ticking and join the thread (bounded)."""
        self._closed = True
        self._wake.set()
        self._thread.join(timeout)
