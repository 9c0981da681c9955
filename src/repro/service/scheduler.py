"""Background adaptation: the advisor and reorganizer off the query path.

The paper charges all adaptation cost — advisor runs, layout stitching
— to the triggering query (``adaptation_mode="inline"``).  A service
under heavy concurrent traffic can instead run adaptation as a
*background plugin* next to the live workload (the model of Hyrise's
automatic clustering plugin, and the "safe online reorganization
concurrent with query arrival" framing of Rong et al.):

1. query threads merely *signal* that an engine's adaptation window
   elapsed (a non-blocking Event set);
2. the scheduler thread runs the advisor under the engine lock — brief,
   queries' scans continue — refreshing the candidate pool;
3. eligible candidates are stitched **off-lock** from a pinned
   :class:`~repro.storage.relation.LayoutSnapshot` (the expensive part:
   a full pass over the source layouts);
4. each finished group is published atomically under the engine lock
   via a single layout-epoch bump — concurrent queries keep scanning
   their pinned snapshots and simply pick up the new layout (and drop
   their cached plans) on their next admission.

A publication invalidated by a concurrent row append is discarded and
retried against a fresh snapshot on the next cycle.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Set

from ..errors import ReorganizationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import H2OEngine
    from ..core.system import H2OSystem


#: Seconds the scheduler sleeps between cycles when no query signals
#: due-ness (the signal wakes it at once; the poll only picks up
#: candidates left over from an earlier cycle).
POLL_INTERVAL = 0.02


class AdaptationScheduler:
    """Daemon thread running adaptation cycles for a system's engines."""

    def __init__(
        self, system: "H2OSystem", name: str = "h2o-adaptation"
    ) -> None:
        self.system = system
        self._wake = threading.Event()
        self._stop = threading.Event()
        #: Overload ladder (docs/resilience.md): the service pauses
        #: background stitching *before* it starts shedding queries —
        #: adaptation is an optimization and must yield to load.
        self._paused = threading.Event()
        self._pause_lock = threading.Lock()
        self._attached: Set[int] = set()
        self._thread = threading.Thread(
            target=self._loop, name=name, daemon=True
        )
        #: Telemetry (monotonic; read without a lock — single writer).
        self.cycles = 0
        self.advisor_runs = 0
        self.groups_published = 0
        self.groups_discarded = 0
        #: Stitches that aborted mid-build (ReorganizationError).  The
        #: candidate stays eligible and is retried on a later cycle;
        #: the testkit oracle matches this count against its injected
        #: faults so an abort can never be swallowed silently.
        self.stitch_failures = 0
        #: How many times the overload ladder paused this scheduler.
        self.pauses = 0

    # Lifecycle ------------------------------------------------------------

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the thread and detach the due-ness signals."""
        self._stop.set()
        self._wake.set()
        if self._thread.is_alive():
            self._thread.join(timeout)
        for engine in self.system.engines():
            if id(engine) in self._attached:
                engine.attach_adaptation_signal(None)
        self._attached.clear()

    @property
    def running(self) -> bool:
        return self._thread.is_alive() and not self._stop.is_set()

    # Overload ladder --------------------------------------------------------

    def pause(self) -> None:
        """Suspend adaptation cycles (idempotent, counted once per
        pause).  In-flight stitches finish; no new cycle starts."""
        with self._pause_lock:
            if not self._paused.is_set():
                self._paused.set()
                self.pauses += 1

    def resume(self) -> None:
        """Lift an overload pause (idempotent)."""
        with self._pause_lock:
            if self._paused.is_set():
                self._paused.clear()
                self._wake.set()

    @property
    def paused(self) -> bool:
        return self._paused.is_set()

    # Signalling -----------------------------------------------------------

    def notify(self, engine: "H2OEngine") -> None:
        """Non-blocking due-ness signal (called from query threads)."""
        self._wake.set()

    def attach(self, engine: "H2OEngine") -> None:
        """Wire this scheduler's due-ness signal into ``engine``.

        Idempotent; called eagerly by the service at table registration
        and lazily by :meth:`run_cycle` for engines created elsewhere.
        """
        if id(engine) not in self._attached:
            engine.attach_adaptation_signal(self.notify)
            self._attached.add(id(engine))

    # The cycle ------------------------------------------------------------

    def _loop(self) -> None:
        while not self._stop.is_set():
            self._wake.wait(POLL_INTERVAL)
            self._wake.clear()
            if self._stop.is_set():
                break
            self.run_cycle()

    def run_cycle(self) -> int:
        """One pass over all engines; returns groups published.

        Also callable synchronously (tests, draining on shutdown).
        """
        if self._paused.is_set():
            # Overloaded: adaptation yields to query traffic entirely.
            return 0
        published = 0
        self.cycles += 1
        for engine in self.system.engines():
            self.attach(engine)
            if engine.config.adaptation_mode != "background":
                continue
            if engine.adaptation_due():
                candidates = engine.run_adaptation_cycle()
                self.advisor_runs += 1
            else:
                candidates = engine.background_candidates()
            for candidate in candidates:
                if self._stop.is_set():
                    return published
                # The expensive stitch runs against a pinned snapshot
                # with no lock held; queries keep planning/scanning.
                snapshot = engine.table.snapshot()
                if snapshot.find_group(candidate.attrs) is not None:
                    continue
                try:
                    outcome = engine.reorganizer.offline(
                        snapshot, candidate.attrs
                    )
                except ReorganizationError:
                    # The stitch died before producing a group: nothing
                    # was published, the candidate stays eligible, and
                    # the next cycle retries from a fresh snapshot —
                    # under the engine's exponential-backoff quarantine,
                    # so a persistently poisoned group thins out instead
                    # of failing every cycle.
                    self.stitch_failures += 1
                    engine.note_stitch_failure(candidate)
                    continue
                if engine.publish_group(outcome.group, outcome.seconds):
                    self.groups_published += 1
                    published += 1
                else:
                    self.groups_discarded += 1
        return published

    def stats(self) -> dict:
        """Defensive copy of the scheduler's telemetry."""
        return {
            "cycles": self.cycles,
            "advisor_runs": self.advisor_runs,
            "groups_published": self.groups_published,
            "groups_discarded": self.groups_discarded,
            "stitch_failures": self.stitch_failures,
            "running": self.running,
            "paused": self.paused,
            "pauses": self.pauses,
        }
