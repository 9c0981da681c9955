"""The concurrent query service fronting the adaptive store.

:class:`H2OService` turns the single-caller :class:`~repro.core.system.
H2OSystem` into a multi-client service:

- **worker pool** — ``num_workers`` threads drain a shared queue and
  execute queries through the (thread-safe) engines.  NumPy kernels
  release the GIL on large blocks, so scans from different workers
  genuinely overlap on multi-core hosts;
- **admission control** — at most ``max_pending`` queries may be in the
  system (queued + executing); the excess is rejected *at submission*
  with :class:`~repro.errors.ServiceOverloadedError` instead of piling
  up without bound;
- **per-query timeouts** — a query that has not finished within its
  timeout raises :class:`~repro.errors.QueryTimeoutError` to the
  waiter; if it had not started it is cancelled and never runs;
- **snapshot-isolated reads** — every query executes against the layout
  snapshot pinned at its admission into the engine (see
  :class:`~repro.storage.relation.LayoutSnapshot`), so another
  worker's online reorganization can never mutate a layout mid-scan.
  Adaptation stays inline: the worker running the triggering query
  pays for it, as in the paper.
"""

from __future__ import annotations

import asyncio
import itertools
import queue
import threading
import time
from typing import Callable, List, Optional, Union

from ..config import EngineConfig
from ..core.engine import QueryReport
from ..core.system import H2OSystem
from ..errors import (
    QueryTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from ..execution.parallel import get_scan_pool
from ..resilience.budget import TokenBucket
from ..resilience.health import HealthReport
from ..resilience.supervisor import Supervisor
from ..sql.parser import parse_query
from ..util import faultpoints
from ..util.faultpoints import fault_point
from ..sql.query import Query
from ..storage.relation import Table
from .admission import AdmissionController
from .stats import ServiceStats

_PENDING = "pending"
_RUNNING = "running"
_DONE = "done"
_FAILED = "failed"
_CANCELLED = "cancelled"

#: Base sleep before a retryable failure's next attempt (PR 4's
#: retry ladder): doubles per attempt, capped at 100 ms.
RETRY_BACKOFF = 0.005


class _QueryTicket:
    """One submitted query's lifecycle, shared by waiter and worker."""

    __slots__ = (
        "query",
        "deadline",
        "submitted_at",
        "lock",
        "event",
        "state",
        "report",
        "exception",
        "abandoned",
        "attempts",
        "callbacks",
    )

    def __init__(self, query: Query, deadline: Optional[float]) -> None:
        self.query = query
        self.deadline = deadline
        self.submitted_at = time.monotonic()
        self.lock = threading.Lock()
        self.event = threading.Event()
        self.state = _PENDING
        self.report: Optional[QueryReport] = None
        self.exception: Optional[BaseException] = None
        #: The waiter gave up (timeout) while the query was running;
        #: the worker finishes it but discards the outcome silently.
        self.abandoned = False
        #: Execution attempts started so far (the retry ladder caps
        #: this at the service's ``max_query_attempts``).
        self.attempts = 0
        #: Run once when the ticket resolves (see :meth:`on_settled`).
        self.callbacks: List[Callable[[], None]] = []

    def on_settled(self, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once the ticket is done, failed or
        cancelled — right away when it already is.  It runs on the
        thread that settles the ticket, so it must not block."""
        with self.lock:
            if not self.event.is_set():
                self.callbacks.append(callback)
                return
        callback()

    def _settle(self) -> List[Callable[[], None]]:
        """Wake the waiters; returns the callbacks to run once the lock
        is released (the caller holds it)."""
        self.event.set()
        callbacks, self.callbacks = self.callbacks, []
        return callbacks

    # Worker side ---------------------------------------------------------

    def mark_running(self) -> bool:
        """PENDING → RUNNING; False if cancelled meanwhile."""
        with self.lock:
            if self.state != _PENDING:
                return False
            self.state = _RUNNING
            return True

    def complete(self, report: QueryReport) -> None:
        with self.lock:
            self.state = _DONE
            self.report = report
            callbacks = self._settle()
        for callback in callbacks:
            callback()

    def fail(self, exc: BaseException) -> None:
        with self.lock:
            self.state = _FAILED
            self.exception = exc
            callbacks = self._settle()
        for callback in callbacks:
            callback()

    def reset_for_retry(self) -> bool:
        """RUNNING → PENDING for another attempt; False once finished.

        The ticket object survives its failed attempt (same admission
        slot, same deadline, same waiter) — only the state machine is
        rewound so a worker can pick it up again.
        """
        with self.lock:
            if self.state != _RUNNING or self.event.is_set():
                return False
            self.state = _PENDING
            return True

    # Waiter side ---------------------------------------------------------

    def cancel(self) -> bool:
        """PENDING → CANCELLED; False once running or finished."""
        with self.lock:
            if self.state != _PENDING:
                return False
            self.state = _CANCELLED
            callbacks = self._settle()
        for callback in callbacks:
            callback()
        return True

    def abandon(self) -> None:
        with self.lock:
            self.abandoned = True


class QueryFuture:
    """Handle to an admitted query; resolves to a :class:`QueryReport`."""

    def __init__(self, ticket: _QueryTicket, service: "H2OService") -> None:
        self._ticket = ticket
        self._service = service

    def done(self) -> bool:
        return self._ticket.event.is_set()

    def cancel(self) -> bool:
        """Cancel if not started; releases the admission slot."""
        if self._ticket.cancel():
            self._service._on_cancelled(self._ticket)
            return True
        return False

    def result(self, timeout: Optional[float] = None) -> QueryReport:
        """The query's report, waiting up to ``timeout`` seconds.

        Raises :class:`QueryTimeoutError` when neither the explicit
        ``timeout`` nor the ticket's own deadline is met; re-raises the
        worker-side exception if execution failed.
        """
        wait = self._wait_budget(timeout)
        return self._outcome(self._ticket.event.wait(wait), wait, timeout)

    async def aresult(self, timeout: Optional[float] = None) -> QueryReport:
        """:meth:`result` for a coroutine: the running event loop waits
        instead of a thread.  The ticket's settling thread wakes the
        loop with ``call_soon_threadsafe``; a loop timer stands in for
        the timeout.  The outcome is :meth:`result`'s, status for
        status."""
        wait = self._wait_budget(timeout)
        loop = asyncio.get_running_loop()
        settled = loop.create_future()

        def wake() -> None:
            try:
                loop.call_soon_threadsafe(_resolve, settled, True)
            except RuntimeError:  # the loop closed; nobody is waiting
                pass

        self._ticket.on_settled(wake)
        timer = (
            None
            if wait is None
            else loop.call_later(wait, _resolve, settled, False)
        )
        try:
            finished = await settled
        except asyncio.CancelledError:
            self._give_up()
            raise
        finally:
            if timer is not None:
                timer.cancel()
        return self._outcome(finished, wait, timeout)

    def _wait_budget(self, timeout: Optional[float]) -> Optional[float]:
        """Seconds to wait: ``timeout`` capped by the ticket's deadline."""
        wait = timeout
        deadline = self._ticket.deadline
        if deadline is not None:
            remaining = deadline - time.monotonic()
            wait = remaining if wait is None else min(wait, remaining)
        return None if wait is None else max(0.0, wait)

    def _give_up(self) -> None:
        """Cancel the query if still queued; a running query completes
        in the background with its result discarded."""
        if not self.cancel():
            self._ticket.abandon()

    def _outcome(
        self,
        finished: bool,
        wait: Optional[float],
        timeout: Optional[float],
    ) -> QueryReport:
        """The report, or the error a waiter sees; ``finished`` says
        whether the ticket settled before the wait ran out."""
        ticket = self._ticket
        if not finished:
            self._give_up()
            self._service._on_timeout(ticket)
            raise QueryTimeoutError(
                f"query did not finish within "
                f"{wait if timeout is None else timeout:.3f}s: "
                f"{ticket.query.to_sql()}"
            )
        with ticket.lock:
            state = ticket.state
            report = ticket.report
            exception = ticket.exception
        if state == _DONE:
            return report
        if state == _CANCELLED:
            raise QueryTimeoutError(
                f"query was cancelled before execution: "
                f"{ticket.query.to_sql()}"
            )
        # Never raise the worker's stored exception object itself:
        # ``result()`` may be called from several threads, and a raised
        # exception mutates (``__traceback__``) — sharing one instance
        # across waiters cross-contaminates their tracebacks.  Each
        # waiter gets a fresh clone chained (``from``) to the original,
        # so ``__cause__`` still carries the worker-side story.
        raise _rebuild_exception(exception) from exception


def _resolve(future: "asyncio.Future", value: bool) -> None:
    if not future.done():
        future.set_result(value)


def _rebuild_exception(exc: BaseException) -> BaseException:
    """A fresh per-waiter instance of the worker-side exception.

    ``copy.copy`` preserves the concrete type and attributes for the
    common dataclass-style errors; exotic exceptions whose copy fails
    degrade to a :class:`ServiceError` wrapper — the original is still
    attached as ``__cause__`` by the caller's ``raise ... from``.
    """
    import copy

    try:
        clone = copy.copy(exc)
        clone.__traceback__ = None
        return clone
    except Exception:  # pragma: no cover - exotic uncopyable errors
        return ServiceError(f"query failed: {exc!r}")


class H2OService:
    """Multi-client concurrent query service over the adaptive store."""

    _ids = itertools.count(1)

    def __init__(
        self,
        system: Optional[H2OSystem] = None,
        *,
        config: Optional[EngineConfig] = None,
        num_workers: int = 4,
        max_pending: int = 64,
        default_timeout: Optional[float] = None,
        max_query_attempts: int = 3,
        name: str = "h2o-service",
    ) -> None:
        if system is not None and config is not None:
            raise ValueError(
                "pass either an existing system or a config, not both"
            )
        self.system = (
            system if system is not None else H2OSystem(config=config)
        )
        if num_workers < 0:
            raise ValueError(
                f"num_workers must be >= 0, got {num_workers}"
            )
        if max_query_attempts < 1:
            raise ValueError(
                f"max_query_attempts must be >= 1, got "
                f"{max_query_attempts}"
            )
        self.name = name
        self.default_timeout = default_timeout
        #: Retry ladder: total execution attempts one ticket may start
        #: (first try included) before its failure surfaces.
        self.max_query_attempts = max_query_attempts
        self.admission = AdmissionController(max_pending)
        self.stats = ServiceStats()
        #: Budget the shared scan pool against this service's load: the
        #: pool deducts the *other* in-flight queries from every
        #: parallel-scan grant, so a saturated worker pool degrades
        #: toward one scan thread per query instead of oversubscribing
        #: the cores (see repro/execution/parallel.py).
        self._scan_load_key = f"{name}-{next(self._ids)}"
        get_scan_pool().register_load(
            self._scan_load_key, self.stats.running
        )
        self._queue: "queue.SimpleQueue[Optional[_QueryTicket]]" = (
            queue.SimpleQueue()
        )
        self._closed = threading.Event()
        self._worker_lock = threading.Lock()
        self._worker_ids = itertools.count()
        self._workers: List[threading.Thread] = []
        #: Pool strength the watchdog restores after deaths.
        self._target_workers = num_workers
        for _ in range(num_workers):
            self._spawn_worker()
        #: Watchdog: prunes dead worker threads and respawns them within
        #: its budget.  Only a service that owns workers needs one.
        self._supervisor: Optional[Supervisor] = None
        if num_workers > 0:
            self._supervisor = Supervisor(name, self._heal_pool, num_workers)

    # Catalog -------------------------------------------------------------

    def register(self, table: Table, replace: bool = False) -> None:
        """Register a table with the underlying system."""
        self.system.register(table, replace=replace)

    # Submission ----------------------------------------------------------

    def submit(
        self,
        query: Union[Query, str],
        timeout: Optional[float] = None,
    ) -> QueryFuture:
        """Admit a query into the bounded queue; returns a future.

        Raises :class:`ServiceOverloadedError` when the queue bound is
        exceeded and :class:`ServiceClosedError` after :meth:`close`.
        SQL text is parsed in the caller's thread, so syntax errors
        raise synchronously; a repeat of a known shape is bound from
        the parser's shape table rather than parsed (see
        :func:`~repro.sql.parser.parse_query`), cheap enough for the
        gateway to submit from its event loop.
        """
        if self._closed.is_set():
            raise ServiceClosedError(f"service {self.name!r} is closed")
        if isinstance(query, str):
            query = parse_query(query)
        if timeout is None:
            timeout = self.default_timeout
        self.stats.note_submitted()
        if not self.admission.try_acquire():
            self.stats.note_rejected()
            raise ServiceOverloadedError(
                f"service {self.name!r} is at capacity "
                f"({self.admission.capacity} queries in flight); "
                "retry later"
            )
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        ticket = _QueryTicket(query, deadline)
        self._queue.put(ticket)
        return QueryFuture(ticket, self)

    def execute(
        self,
        query: Union[Query, str],
        timeout: Optional[float] = None,
    ) -> QueryReport:
        """Submit and block for the report (the synchronous API)."""
        return self.submit(query, timeout=timeout).result(timeout)

    # Worker loop ---------------------------------------------------------

    def _spawn_worker(
        self, respawn: bool = False
    ) -> Optional[threading.Thread]:
        """Start one worker thread (initial pool or watchdog respawn)."""
        worker = threading.Thread(
            target=self._worker_loop,
            name=f"{self.name}-worker-{next(self._worker_ids)}",
            daemon=True,
        )
        with self._worker_lock:
            # Checked under the lock close() reads the pool with, so a
            # worker is either refused or joined by close().
            if self._closed.is_set():
                return None
            self._workers.append(worker)
        if respawn:
            # Counted before the thread runs: no reader may see the
            # restored worker alive with its respawn not yet counted.
            self.stats.note_worker_respawn()
        worker.start()
        return worker

    # Watchdog -------------------------------------------------------------

    def _heal_pool(self, budget: TokenBucket) -> None:
        """Prune dead threads and respawn the deficit, budget willing."""
        with self._worker_lock:
            self._workers = [w for w in self._workers if w.is_alive()]
            deficit = self._target_workers - len(self._workers)
        for _ in range(max(0, deficit)):
            if not budget.try_take():
                break  # budget exhausted; next tick retries
            if self._spawn_worker(respawn=True) is None:
                break  # the service closed meanwhile

    def alive_workers(self) -> int:
        """How many worker threads are currently alive."""
        with self._worker_lock:
            return sum(1 for w in self._workers if w.is_alive())

    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is None:  # shutdown sentinel
                return
            try:
                requeued = self._run_ticket(ticket)
            except BaseException as exc:  # noqa: BLE001 - worker death
                # An exception escaped the per-ticket scope: this worker
                # thread is dying.  The *ticket* outlives the thread —
                # it is requeued for another attempt when its budget
                # and deadline allow; otherwise the waiter is failed
                # (never left hanging).  The watchdog restores pool
                # strength; this thread just exits.
                requeued = self._on_worker_death(ticket, exc)
                if not requeued:
                    self.admission.release()
                if self._supervisor is not None:
                    self._supervisor.wake()
                return
            if not requeued:
                self.admission.release()

    def _on_worker_death(
        self, ticket: _QueryTicket, exc: BaseException
    ) -> bool:
        """Handle a dying worker's in-flight ticket; True if requeued."""
        self.stats.note_worker_death()
        with ticket.lock:
            was_running = ticket.state == _RUNNING
        if (
            was_running
            and not self._closed.is_set()
            and not ticket.abandoned
            and ticket.attempts < self.max_query_attempts
            and not self._deadline_passed(ticket)
            and ticket.reset_for_retry()
        ):
            # The query never completed (the death fault fires before
            # execution starts; a mid-scan death never published
            # results — snapshots are read-only), so re-running it is
            # safe.  Same admission slot, same deadline, same waiter.
            self.stats.note_requeued(death=True)
            self._queue.put(ticket)
            return True
        if not ticket.event.is_set():
            failure = ServiceError(
                f"worker died while serving query: {exc!r} "
                f"({ticket.query.to_sql()})"
            )
            failure.__cause__ = exc
            ticket.fail(failure)
            self.stats.note_failed(started=was_running)
        elif was_running:
            # Already resolved elsewhere; keep the in-flight gauge
            # honest for the attempt this thread had started.
            self.stats.note_failed()
        return False

    @staticmethod
    def _deadline_passed(ticket: _QueryTicket) -> bool:
        return (
            ticket.deadline is not None
            and time.monotonic() >= ticket.deadline
        )

    def _should_retry(
        self, ticket: _QueryTicket, exc: BaseException
    ) -> bool:
        """Whether a failed attempt goes back on the queue.

        Only *transient* failures (``exc.is_retryable``, see
        repro/errors.py) are retried, and only while the ticket has
        attempt budget left, its deadline has not passed, the waiter
        has not given up, and the service is still open.  Permanent
        errors (parse/analysis/schema) surface immediately — retrying
        the same bytes can only fail the same way.
        """
        if self._closed.is_set() or ticket.abandoned:
            return False
        if ticket.event.is_set():
            return False
        if ticket.attempts >= self.max_query_attempts:
            return False
        if self._deadline_passed(ticket):
            return False
        return bool(getattr(exc, "is_retryable", False))

    def _retry_delay(self, attempt: int) -> float:
        """Exponential backoff (capped) before attempt ``attempt+1``."""
        return min(
            0.1, RETRY_BACKOFF * (2.0 ** max(0, attempt - 1))
        )

    def _run_ticket(self, ticket: _QueryTicket) -> bool:
        """Run one execution attempt; True when the ticket was requeued
        (its admission slot is then kept for the next attempt)."""
        if self._closed.is_set():
            ticket.fail(
                ServiceClosedError(f"service {self.name!r} is closed")
            )
            self.stats.note_failed(started=False)
            return False
        if self._deadline_passed(ticket):
            # Expired while queued: never start it.
            if ticket.cancel():
                self.stats.note_cancelled()
            return False
        if not ticket.mark_running():
            return False  # cancelled by the waiter
        ticket.attempts += 1
        self.stats.note_started()
        started = time.monotonic()
        # Injectable failure site: an abrupt worker death.  Deliberately
        # *outside* the per-query exception scope, so the raise escapes
        # to the worker loop's death handler (the ticket is requeued or
        # failed there; the watchdog replaces the thread).
        # The SQL is rendered for the injector's records only, so a
        # serving path without one never renders it.
        injecting = faultpoints.active() is not None
        if injecting:
            fault_point("service.worker", query=ticket.query.to_sql())
        try:
            # Injectable failure site: a per-query failure inside the
            # execution scope (the testkit injects QueryTimeoutError to
            # model a forced timeout); retried below when transient.
            if injecting:
                fault_point("service.execute", query=ticket.query.to_sql())
            report = self.system.execute(
                ticket.query, deadline=ticket.deadline
            )
        except BaseException as exc:  # noqa: BLE001 - retried/forwarded
            if self._should_retry(ticket, exc):
                delay = self._retry_delay(ticket.attempts)
                if delay > 0.0:
                    time.sleep(delay)
                if ticket.reset_for_retry():
                    self.stats.note_requeued(death=False)
                    self._queue.put(ticket)
                    return True
            ticket.fail(exc)
            self.stats.note_failed()
            return False
        ticket.complete(report)
        if not ticket.abandoned:
            self.stats.note_completed(time.monotonic() - started)
            if report.degraded:
                # Correct answer through a fallback rung (codegen
                # fallback, quarantined compile, or aborted online
                # reorg) — visible in stats and health, never silent.
                self.stats.note_degraded()
        else:
            # The waiter already gave up; the slot is released but the
            # latency sample would skew percentiles, so only count the
            # completion against the in-flight gauge.
            self.stats.note_failed()
        return False

    # Internal accounting (called by futures) ------------------------------

    def _on_timeout(self, ticket: _QueryTicket) -> None:
        self.stats.note_timeout()

    def _on_cancelled(self, ticket: _QueryTicket) -> None:
        self.stats.note_cancelled()

    # Lifecycle ------------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting work and drain the workers.

        Every ticket still queued when the workers exit — including one
        that raced past the closed check in :meth:`submit` — is failed
        with :class:`~repro.errors.ServiceClosedError`, so no waiter is
        ever left blocking on a queue that nobody drains.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        get_scan_pool().unregister_load(self._scan_load_key)
        if self._supervisor is not None:
            self._supervisor.close(timeout)
        with self._worker_lock:
            workers = list(self._workers)
        for _ in workers:
            self._queue.put(None)
        for worker in workers:
            worker.join(timeout)
        # Fail anything left in the queue (raced submissions, tickets
        # behind a dead worker's unconsumed sentinel).
        while True:
            try:
                ticket = self._queue.get_nowait()
            except queue.Empty:
                break
            if ticket is None:
                continue
            if not ticket.event.is_set():
                ticket.fail(
                    ServiceClosedError(
                        f"service {self.name!r} closed before the query "
                        f"ran: {ticket.query.to_sql()}"
                    )
                )
                self.stats.note_failed(started=False)
            self.admission.release()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def __enter__(self) -> "H2OService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Reporting ------------------------------------------------------------

    def health(self) -> HealthReport:
        """One consistent snapshot of the whole degradation ladder.

        Assembled from the worker pool, the admission controller and
        every engine's quarantine and fallback counters — see
        :mod:`repro.resilience.health` for the status semantics
        (``healthy`` / ``degraded`` / ``closed``).
        """
        snap = self.stats.snapshot()
        engines = self.system.engines()
        workers_alive = self.alive_workers()
        if self._closed.is_set():
            status = "closed"
        elif workers_alive < self._target_workers or any(
            e.compile_quarantine.blocked_keys()
            or e.quarantine.blocked_keys()
            for e in engines
        ):
            status = "degraded"
        else:
            status = "healthy"
        return HealthReport(
            status=status,
            workers_alive=workers_alive,
            workers_expected=self._target_workers,
            worker_deaths=int(snap["worker_deaths"]),
            worker_respawns=int(snap["worker_respawns"]),
            queue_depth=self._queue.qsize(),
            in_flight=self.admission.in_flight,
            capacity=self.admission.capacity,
            requeued_deaths=int(snap["requeued_deaths"]),
            retried_failures=int(snap["retried_failures"]),
            degraded_queries=int(snap["degraded"]),
            quarantines={
                e.table.name: e.quarantine.snapshot() for e in engines
            },
            policies={e.table.name: e.policy.snapshot() for e in engines},
            codegen_fallbacks=sum(
                e.executor.codegen_fallbacks for e in engines
            ),
            compiles_blocked=sum(e.compiles_blocked for e in engines),
            reorg_aborts=sum(e.reorg_aborts for e in engines),
            deadline_aborts=sum(e.deadline_aborts for e in engines),
            reorgs_deferred=sum(e.policy.deferrals for e in engines),
            layout_switches=sum(e.policy.switch_count for e in engines),
        )
