"""Shutdown semantics: closing always surfaces ``ServiceClosedError``.

The contract: after ``close()`` every further submission, and every
ticket that was still queued, fails with the *documented*
:class:`~repro.errors.ServiceClosedError`, never a bare queue error,
and the admission gauge returns to zero so nothing leaks.
"""

from __future__ import annotations

import pytest

from repro import H2OService, generate_table
from repro.config import EngineConfig
from repro.errors import ServiceClosedError, ServiceError


def make_service(num_workers=2, **kwargs):
    service = H2OService(
        config=EngineConfig(),
        num_workers=num_workers,
        max_pending=16,
        **kwargs,
    )
    service.register(generate_table("r", num_attrs=4, num_rows=256, rng=3))
    return service


def test_service_submit_after_close_raises_closed_error():
    service = make_service()
    service.close()
    with pytest.raises(ServiceClosedError):
        service.submit("SELECT sum(a1) FROM r")
    # The synchronous API gets the same error.
    with pytest.raises(ServiceClosedError):
        service.execute("SELECT sum(a1) FROM r", timeout=30.0)
    # ServiceClosedError is a ServiceError (callers catching the broad
    # class keep working), but never a queue/attribute error.
    try:
        service.submit("SELECT count(*) FROM r")
    except ServiceError:
        pass


def test_close_fails_queued_tickets_with_closed_error():
    """Tickets still queued at close() resolve, not hang (0 workers)."""
    service = make_service(num_workers=0)
    futures = [
        service.submit(f"SELECT sum(a{1 + i % 4}) FROM r") for i in range(5)
    ]
    assert service.admission.in_flight == 5
    service.close()
    for future in futures:
        with pytest.raises(ServiceClosedError):
            future.result(5.0)
    assert service.admission.in_flight == 0


def test_close_is_idempotent():
    service = make_service()
    service.close()
    service.close()
    assert service.closed
