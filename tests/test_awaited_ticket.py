"""The gateway awaits a query's ticket on its event loop.

A query is submitted from the loop and awaited through
``QueryFuture.aresult``; the worker that settles the ticket wakes the
loop.  These tests pin what a waiter sees in every way a ticket can end:
answered, timed out while queued or while running, failed, its worker
dead, or its service closed — the same statuses the blocking
``QueryFuture.result`` gives, and no admission slot or tenant quota
left behind.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading

import pytest

from tests.conftest import wait_until
from tests.test_gateway import running_gateway, seed_table
from repro import H2OService, generate_table
from repro.config import EngineConfig
from repro.errors import ExecutionError, QueryTimeoutError, ServiceClosedError
from repro.gateway import GatewayClient, GatewayHTTPError
from repro.util import faultpoints

QUERY = "SELECT count(*) FROM t"


class Workers:
    """A fault injector that holds, fails or kills service workers.

    ``hold`` parks every query at the ``service.execute`` site until
    :meth:`release`; ``fail`` raises it there; ``die`` raises an error
    out of the worker loop at ``service.worker``.
    """

    def __init__(self, hold=False, fail=None, die=False):
        self.hold, self.fail, self.die = hold, fail, die
        self.released = threading.Event()
        self.lock = threading.Lock()
        self.entered = 0

    def __call__(self, name, context):
        if name == "service.worker" and self.die:
            raise RuntimeError("worker killed")
        if name != "service.execute":
            return
        with self.lock:
            self.entered += 1
        if self.fail is not None:
            raise self.fail
        if self.hold:
            self.released.wait(30)

    def release(self):
        self.released.set()


@contextlib.contextmanager
def injected(workers):
    faultpoints.install(workers)
    try:
        yield workers
    finally:
        workers.release()
        faultpoints.uninstall(workers)


def status_of(port, sql=QUERY, timeout_ms=None):
    """The HTTP status one query gets (200 when it answers)."""
    with GatewayClient("127.0.0.1", port) as client:
        try:
            client.query(sql, timeout_ms=timeout_ms)
        except GatewayHTTPError as exc:
            return exc.status, exc.payload["error"]
    return 200, None


@contextlib.contextmanager
def background_queries(port, count):
    """``count`` queries in flight on their own connections; yields the
    list their statuses land in."""
    statuses = []
    threads = [
        threading.Thread(
            target=lambda: statuses.append(status_of(port)), daemon=True
        )
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    try:
        yield statuses
    finally:
        for thread in threads:
            thread.join(30)


@pytest.fixture()
def gateway(tmp_path):
    with running_gateway(tmp_path / "data") as gw:
        with GatewayClient("127.0.0.1", gw.port) as client:
            seed_table(client)
        yield gw


def quiescent(gateway):
    """No query left in the service, and no quota held by a tenant."""
    return gateway.store.service.admission.in_flight == 0 and all(
        tenant.admission.in_flight == 0
        for tenant in gateway.tenants.tenants().values()
    )


def test_timeout_while_queued_is_504_and_frees_slot_and_quota(gateway):
    service = gateway.store.service
    with injected(Workers(hold=True)) as workers:
        # Both workers are parked, so the third query waits in the queue.
        with background_queries(gateway.port, 2) as statuses:
            wait_until(lambda: workers.entered == 2, message="workers held")
            assert status_of(gateway.port, timeout_ms=200) == (
                504,
                "QueryTimeoutError",
            )
            workers.release()
        assert statuses == [(200, None)] * 2
        wait_until(lambda: quiescent(gateway), message="slots released")
        # The cancelled ticket never reached a worker.
        assert workers.entered == 2
    snap = service.stats.snapshot()
    assert (snap["timeouts"], snap["cancelled"]) == (1, 1)
    assert status_of(gateway.port) == (200, None)


def test_timeout_while_running_is_504_and_result_is_discarded(gateway):
    service = gateway.store.service
    with injected(Workers(hold=True)) as workers:
        assert status_of(gateway.port, timeout_ms=200) == (
            504,
            "QueryTimeoutError",
        )
        assert workers.entered == 1
        completed = service.stats.snapshot()["completed"]
        workers.release()
        wait_until(lambda: quiescent(gateway), message="slots released")
    snap = service.stats.snapshot()
    # The worker finished the query but nobody was waiting for it.
    assert snap["completed"] == completed
    assert snap["timeouts"] == 1
    assert snap["in_flight"] == 0


@pytest.mark.parametrize(
    "fail, expected",
    [
        (ExecutionError("boom"), (500, "ExecutionError")),
        # Retryable: the retry ladder re-runs it, then it surfaces.
        (QueryTimeoutError("forced"), (504, "QueryTimeoutError")),
    ],
)
def test_failing_worker_maps_to_its_error_status(gateway, fail, expected):
    with injected(Workers(fail=fail)):
        assert status_of(gateway.port) == expected
    wait_until(lambda: quiescent(gateway), message="slots released")


def test_dying_worker_maps_to_500(gateway):
    service = gateway.store.service
    with injected(Workers(die=True)):
        assert status_of(gateway.port) == (500, "ServiceError")
    assert service.stats.snapshot()["worker_deaths"] == (
        service.max_query_attempts
    )
    wait_until(lambda: quiescent(gateway), message="slots released")
    wait_until(
        lambda: service.alive_workers() == 2, message="workers respawned"
    )
    assert status_of(gateway.port) == (200, None)


def test_gateway_close_answers_queued_request(tmp_path):
    with running_gateway(tmp_path / "data") as gateway:
        with GatewayClient("127.0.0.1", gateway.port) as client:
            seed_table(client)
        service = gateway.store.service
        with injected(Workers(hold=True)) as workers:
            with background_queries(gateway.port, 3) as statuses:
                wait_until(
                    lambda: workers.entered == 2
                    and service.admission.in_flight == 3,
                    message="two held, one queued",
                )
                loop = gateway._server.get_loop()
                closing = asyncio.run_coroutine_threadsafe(
                    gateway.close(checkpoint=False), loop
                )
                wait_until(lambda: service.closed, message="closing")
                # The held queries finish; the queued one, which never
                # started, is failed by the closed service and answered.
                workers.release()
                closing.result(60)
            assert sorted(statuses) == [(200, None)] * 2 + [
                (503, "ServiceClosedError")
            ]


def test_service_close_settles_an_awaited_ticket():
    """No worker ever takes the ticket: ``close`` fails it, and the
    awaiting coroutine wakes with the documented error."""
    service = H2OService(config=EngineConfig(), num_workers=0)
    service.register(generate_table("r", num_attrs=2, num_rows=64, rng=1))

    async def wait_for_answer():
        future = service.submit("SELECT sum(a1) FROM r")
        waiting = asyncio.ensure_future(future.aresult(30))
        await asyncio.sleep(0)
        await asyncio.get_running_loop().run_in_executor(
            None, service.close
        )
        with pytest.raises(ServiceClosedError):
            await asyncio.wait_for(waiting, 10)

    asyncio.run(wait_for_answer())
    assert service.admission.in_flight == 0


def test_aresult_times_out_like_result():
    service = H2OService(config=EngineConfig(), num_workers=0)
    service.register(generate_table("r", num_attrs=2, num_rows=64, rng=1))
    try:
        sync = service.submit("SELECT sum(a1) FROM r")
        with pytest.raises(QueryTimeoutError) as blocking:
            sync.result(0.05)
        awaited = service.submit("SELECT sum(a1) FROM r")
        with pytest.raises(QueryTimeoutError) as waited:
            asyncio.run(awaited.aresult(0.05))
        assert str(waited.value) == str(blocking.value)
        assert sync.done() and awaited.done()  # both cancelled
        snap = service.stats.snapshot()
        assert (snap["timeouts"], snap["cancelled"]) == (2, 2)
    finally:
        service.close()
