"""A process-wide bounded thread pool for morsel-parallel scans.

NumPy kernels release the GIL during array work, so a small shared pool
of plain threads yields real multi-core speedups for scan-heavy queries.
The pool is deliberately *bounded and shared*:

- One :class:`ScanPool` serves every engine in the process (see
  :func:`get_scan_pool`), sized to the usable cores by default.
- Grants are budgeted against *external load*: the query service
  registers a load provider reporting how many queries its workers are
  running, and each grant deducts the other busy workers from the
  available thread budget.  A saturated service therefore degrades
  toward one thread per query instead of oversubscribing the machine.
- The calling thread always participates in its own scan, so a grant of
  ``k`` threads reserves only ``k - 1`` helpers — and a grant of one
  thread (the contended case) costs nothing at all.

Work distribution is dynamic: helpers and the caller steal morsel
indices from a shared counter, so a skewed morsel (page faults, NUMA,
pruned neighbours) never idles the other threads.  Result *combination*
order is the caller's business — :mod:`repro.execution.morsel` combines
partial states in morsel-index order regardless of completion order,
which is what keeps parallel answers bit-identical to serial ones.

Deadlock-freedom: helper tasks never block on other tasks (each drains
an independent index counter and exits), and grant arithmetic keeps
``Σ helpers + callers ≤ max_threads``, so queued tasks always find a
worker eventually.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
from typing import Callable, Dict, List, Optional

__all__ = ["ScanPool", "ScanGrant", "get_scan_pool", "usable_cores"]


def usable_cores() -> int:
    """CPU cores this process may actually run on (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class ScanGrant:
    """A reservation of ``1 + extra`` threads for one scan.

    Use as a context manager; :meth:`map_indexed` runs a per-index
    function across the grant's threads with dynamic work stealing.
    """

    def __init__(self, pool: "ScanPool", extra: int) -> None:
        self._pool = pool
        self.extra = extra
        self._released = False

    @property
    def threads(self) -> int:
        """Total threads this grant may occupy (caller included)."""
        return 1 + self.extra

    def __enter__(self) -> "ScanGrant":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._pool._release(self.extra)

    def map_indexed(self, total: int, fn: Callable[[int], None]) -> int:
        """Run ``fn(i)`` for every ``i in range(total)``.

        Helpers and the caller pull indices from one shared counter
        (``next`` on :func:`itertools.count` is atomic under the GIL).
        The first exception raised by any thread stops the remaining
        work and is re-raised in the caller.  Returns the number of
        threads that actually participated.
        """
        helpers = min(self.extra, max(0, total - 1))
        if helpers == 0:
            for index in range(total):
                fn(index)
            return 1
        counter = itertools.count()
        errors: List[BaseException] = []
        error_lock = threading.Lock()

        def drain() -> None:
            while not errors:
                index = next(counter)
                if index >= total:
                    return
                try:
                    fn(index)
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    with error_lock:
                        errors.append(exc)
                    return

        latch = threading.Semaphore(0)

        def helper_task() -> None:
            try:
                drain()
            finally:
                latch.release()

        for _ in range(helpers):
            self._pool._submit(helper_task)
        drain()  # the caller is a worker too
        for _ in range(helpers):
            latch.acquire()
        if errors:
            raise errors[0]
        return 1 + helpers


class ScanPool:
    """Bounded pool of persistent daemon threads for morsel scans."""

    def __init__(self, max_threads: Optional[int] = None) -> None:
        self.max_threads = (
            max_threads if max_threads and max_threads > 0 else usable_cores()
        )
        self._lock = threading.Lock()
        self._reserved = 0  # helper threads currently granted
        self._load_providers: Dict[str, Callable[[], int]] = {}
        self._tasks: "queue.SimpleQueue[Callable[[], None]]" = (
            queue.SimpleQueue()
        )
        self._spawned = 0
        self._idle = 0
        self._threads: List[threading.Thread] = []
        self._closed = False

    # Load accounting --------------------------------------------------

    def register_load(self, name: str, provider: Callable[[], int]) -> None:
        """Register an external load source (e.g. the query service).

        ``provider()`` must cheaply return how many external workers are
        currently busy; grants deduct the *other* busy workers (the
        caller is assumed to be one of them) from the thread budget.
        """
        with self._lock:
            self._load_providers[name] = provider

    def unregister_load(self, name: str) -> None:
        with self._lock:
            self._load_providers.pop(name, None)

    def _external_busy(self) -> int:
        busy = 0
        for provider in list(self._load_providers.values()):
            try:
                busy += max(0, int(provider()))
            except Exception:  # noqa: BLE001 - load is advisory only
                continue
        return busy

    # Granting ---------------------------------------------------------

    def acquire(self, want: int) -> ScanGrant:
        """Reserve up to ``want`` threads (caller included) for a scan.

        The grant never exceeds what the budget allows:
        ``max_threads - reserved helpers - other busy callers``.  Always
        succeeds — in the worst case with zero helpers, meaning the scan
        simply runs serially on the caller.
        """
        want = max(1, int(want))
        with self._lock:
            external = self._external_busy()
            # The caller occupies one slot; other busy external workers
            # occupy theirs; granted helpers occupy the rest.
            occupied = 1 + max(0, external - 1) + self._reserved
            available = (
                0 if self._closed else max(0, self.max_threads - occupied)
            )
            extra = min(want - 1, available)
            self._reserved += extra
        return ScanGrant(self, extra)

    def _release(self, extra: int) -> None:
        with self._lock:
            self._reserved = max(0, self._reserved - extra)

    # Worker threads ---------------------------------------------------

    def _submit(self, task: Callable[[], None]) -> None:
        with self._lock:
            if self._idle == 0 and self._spawned < max(
                0, self.max_threads - 1
            ):
                self._spawned += 1
                thread = threading.Thread(
                    target=self._worker,
                    name=f"h2o-scan-{self._spawned}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        self._tasks.put(task)

    def _worker(self) -> None:
        while True:
            with self._lock:
                self._idle += 1
            try:
                task = self._tasks.get()
            finally:
                with self._lock:
                    self._idle -= 1
            if task is None:
                return  # close(): one sentinel per helper
            try:
                task()
            except Exception:  # noqa: BLE001 - tasks report their own errors
                pass

    def close(self) -> None:
        """Stop the idle helper threads: one sentinel per spawned helper,
        then join them.  Later grants carry no helpers, so a scan on a
        closed pool runs serially on its caller."""
        with self._lock:
            self._closed = True
            threads, self._threads = self._threads, []
        for _ in threads:
            self._tasks.put(None)
        for thread in threads:
            thread.join()

    def snapshot(self) -> Dict[str, int]:
        """Introspection for stats/health endpoints (defensive copy)."""
        with self._lock:
            return {
                "max_threads": self.max_threads,
                "reserved": self._reserved,
                "spawned": self._spawned,
                "idle": self._idle,
                "external_busy": self._external_busy(),
            }


_pool_lock = threading.Lock()
_shared_pool: Optional[ScanPool] = None


def get_scan_pool() -> ScanPool:
    """The process-wide shared scan pool (created on first use)."""
    global _shared_pool
    with _pool_lock:
        if _shared_pool is None:
            _shared_pool = ScanPool()
        return _shared_pool
