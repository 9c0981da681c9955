"""Client sessions: per-caller handles onto the shared service.

A :class:`Session` is a lightweight, thread-safe view a client holds:
it carries a default timeout, accumulates per-client accounting
(submitted / completed / rejected / timed-out), and routes everything
through its :class:`~repro.service.service.H2OService`.  Many sessions
share one worker pool and one adaptive store — the multi-client model
of the concurrent query service.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Optional, Union

from ..errors import ServiceClosedError
from ..sql.query import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import QueryReport
    from .service import H2OService, QueryFuture


class Session:
    """One client's handle onto a shared :class:`H2OService`."""

    def __init__(
        self,
        service: "H2OService",
        session_id: str,
        default_timeout: Optional[float] = None,
    ) -> None:
        self.service = service
        self.session_id = session_id
        self.default_timeout = default_timeout
        self._lock = threading.Lock()
        self._closed = False
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.timeouts = 0
        self.failed = 0

    # Accounting hooks (called by the service/worker) ----------------------

    def _note(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    # Client API -----------------------------------------------------------

    def submit(
        self,
        query: Union[Query, str],
        timeout: Optional[float] = None,
    ) -> "QueryFuture":
        """Enqueue a query under this session; returns a future.

        Raises :class:`~repro.errors.ServiceClosedError` when either the
        session or its service has been closed (the service performs its
        own check in :meth:`H2OService.submit`) — shutdown always
        surfaces as the documented error, never a bare queue failure.
        """
        if self._closed:
            raise ServiceClosedError(
                f"session {self.session_id!r} is closed"
            )
        effective = timeout if timeout is not None else self.default_timeout
        return self.service.submit(query, session=self, timeout=effective)

    def execute(
        self,
        query: Union[Query, str],
        timeout: Optional[float] = None,
    ) -> "QueryReport":
        """Submit and wait for the report (or raise on timeout)."""
        effective = timeout if timeout is not None else self.default_timeout
        return self.submit(query, timeout=effective).result(effective)

    def close(self) -> None:
        """Refuse further submissions; the service forgets the session."""
        with self._lock:
            self._closed = True
        self.service._forget_session(self)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, int]:
        """A consistent defensive copy of this session's counters."""
        with self._lock:
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "failed": self.failed,
            }

    def __repr__(self) -> str:
        return (
            f"Session({self.session_id!r}, submitted={self.submitted}, "
            f"completed={self.completed})"
        )
