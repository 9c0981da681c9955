"""The asyncio gateway: HTTP routes bridged onto the threaded service.

One event loop accepts connections and parses requests.  A query is
submitted to the service's queue from the loop itself and awaited there
(:meth:`~repro.service.service.QueryFuture.aresult`); the worker that
answers it wakes the loop with ``call_soon_threadsafe``, so the query
crosses one thread hop, to a worker and back.  Everything else that can
block — WAL writes, checkpoints, table creation, health and metrics
snapshots — runs on a thread pool via ``loop.run_in_executor`` so the
loop never stalls.  Appends are coalesced by :class:`AppendBatcher` into
group commits: requests that queue up while the previous commit's fsync
is in flight share a single WAL batch and fsync, and every rider is
acknowledged only after that fsync returns.

Routes::

    POST /v1/query               {"sql": ..., "timeout_ms"?: ...}
    PUT  /v1/tables/{name}       {"attributes": [...], "columns"?: {...}}
    POST /v1/tables/{name}/append {"columns": {...}}
    GET  /v1/tables              list tables
    POST /v1/checkpoint          force a snapshot + WAL compaction
    GET  /healthz                service health, worst rung wins
    GET  /metrics                Prometheus text format
"""

from __future__ import annotations

import asyncio
import dataclasses
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from ..config import GatewayConfig
from ..errors import (
    AuthError,
    BadRequestError,
    CatalogError,
    GatewayError,
    H2OError,
    QueryTimeoutError,
    SchemaError,
    ServiceClosedError,
    ServiceOverloadedError,
    SQLError,
    TenantQuotaError,
)
from .http import (
    API_KEY_HEADER,
    HTTPError,
    Request,
    json_response,
    read_request,
    render_response,
    split_path,
)
from .metrics import render_metrics
from .persist import DurableStore
from .tenancy import Tenant, TenantRegistry

#: Upper bound on appends coalesced into one group commit (one WAL
#: batch, one fsync): whatever queued up during the previous commit.
GROUP_COMMIT_MAX_BATCH = 64

#: Exception class → HTTP status, most specific first.
_STATUS_MAP: Tuple[Tuple[type, int], ...] = (
    (HTTPError, 400),  # carries its own status; handled specially
    (QueryTimeoutError, 504),
    (AuthError, 401),
    (TenantQuotaError, 429),
    (ServiceOverloadedError, 429),
    (ServiceClosedError, 503),
    (CatalogError, 404),
    (BadRequestError, 400),
    (SQLError, 400),
    (SchemaError, 400),
)


def _status_for(exc: BaseException) -> int:
    if isinstance(exc, HTTPError):
        return exc.status
    for klass, status in _STATUS_MAP:
        if isinstance(exc, klass):
            return status
    return 500


def _error_body(exc: BaseException) -> Dict[str, object]:
    return {
        "error": type(exc).__name__,
        "message": str(exc),
        "retryable": bool(getattr(exc, "is_retryable", False)),
    }


class PlainText:
    """A handler payload rendered as-is instead of JSON (``/metrics``)."""

    def __init__(
        self,
        text: str,
        content_type: str = "text/plain; version=0.0.4; charset=utf-8",
    ) -> None:
        self.text = text
        self.content_type = content_type


class AppendBatcher:
    """Coalesces concurrent appends into group commits.

    A single drainer task pulls items off an asyncio queue; the first
    item opens a batch, everything already queued behind it (up to
    :data:`GROUP_COMMIT_MAX_BATCH`) rides along, and the whole batch
    ships at once to :meth:`DurableStore.append_many` (one WAL write +
    one fsync) on the executor.  There is no timer: appends that arrive
    during a commit wait in the queue and form the next batch, so
    coalescing scales with commit latency and a lone writer never waits
    for riders.  Each rider's future resolves with its own outcome — a
    validation failure in one item never poisons the batch.
    """

    def __init__(
        self, store: DurableStore, executor: ThreadPoolExecutor
    ) -> None:
        self._store = store
        self._executor = executor
        self._queue: "asyncio.Queue[Tuple[str, dict, asyncio.Future]]" = (
            asyncio.Queue()
        )
        self._task: Optional[asyncio.Task] = None
        self._closed = False
        self.batches = 0
        self.items = 0

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._drain())

    async def submit(self, table: str, columns: dict) -> int:
        """Enqueue one append; resolves after its group commit fsyncs."""
        if self._closed:
            raise ServiceClosedError("gateway is shutting down")
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        await self._queue.put((table, columns, future))
        return await future

    async def _drain(self) -> None:
        while True:
            item = await self._queue.get()
            if item is None:  # type: ignore[comparison-overlap]
                break
            batch = [item]
            while (
                len(batch) < GROUP_COMMIT_MAX_BATCH
                and not self._queue.empty()
            ):
                extra = self._queue.get_nowait()
                if extra is None:  # type: ignore[comparison-overlap]
                    self._closed = True
                    break
                batch.append(extra)
            await self._commit(batch)
            if self._closed:
                break

    async def _commit(self, batch: List[Tuple[str, dict, asyncio.Future]]) -> None:
        loop = asyncio.get_running_loop()
        items = [(table, columns) for table, columns, _ in batch]
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._store.append_many, items
            )
        except BaseException as exc:  # the whole commit failed
            for _, _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        self.batches += 1
        self.items += len(batch)
        for (_, _, future), outcome in zip(batch, outcomes):
            if future.done():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    async def close(self) -> None:
        """Stop accepting, drain what's queued, stop the task."""
        self._closed = True
        await self._queue.put(None)  # type: ignore[arg-type]
        if self._task is not None:
            await self._task
        # Flush stragglers that slipped in before the sentinel.
        leftovers: List[Tuple[str, dict, asyncio.Future]] = []
        while not self._queue.empty():
            extra = self._queue.get_nowait()
            if extra is not None:
                leftovers.append(extra)
        if leftovers:
            await self._commit(leftovers)

    def stats(self) -> Dict[str, int]:
        return {"batches": self.batches, "items": self.items}


class Gateway:
    """The HTTP serving tier over one :class:`DurableStore`."""

    def __init__(
        self,
        store: DurableStore,
        config: Optional[GatewayConfig] = None,
    ) -> None:
        self.store = store
        self.config = config or store.gateway_config
        self.tenants = TenantRegistry(
            quota=self.config.tenant_quota,
            allowed_keys=self.config.api_keys,
            max_tenants=self.config.max_tenants,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="gateway-exec"
        )
        self.batcher = AppendBatcher(store, self._executor)
        self._server: Optional[asyncio.AbstractServer] = None
        self._counter_lock = threading.Lock()
        self._endpoint_counters: Dict[Tuple[str, int], int] = {}
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.batcher.start()

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise GatewayError("gateway is not listening")
        return self._server.sockets[0].getsockname()[1]

    async def close(self, checkpoint: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain appends, close store."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.batcher.close()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            self._executor, lambda: self.store.close(checkpoint=checkpoint)
        )
        self._executor.shutdown(wait=False)

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, self.config.max_body_bytes
                    )
                except HTTPError as exc:
                    writer.write(
                        json_response(
                            exc.status, _error_body(exc), keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                writer.write(response)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: Request) -> bytes:
        endpoint = "unknown"
        try:
            endpoint, handler, args = self._route(request)
            status, payload = await handler(request, *args)
            if isinstance(payload, PlainText):
                body = render_response(
                    status,
                    payload.text.encode("utf-8"),
                    content_type=payload.content_type,
                    keep_alive=request.keep_alive,
                )
            else:
                body = json_response(
                    status, payload, keep_alive=request.keep_alive
                )
        except H2OError as exc:
            status = _status_for(exc)
            body = json_response(
                status, _error_body(exc), keep_alive=request.keep_alive
            )
        except Exception as exc:  # never leak a traceback to the wire
            status = 500
            body = json_response(
                status, _error_body(exc), keep_alive=request.keep_alive
            )
        self._count(endpoint, status)
        return body

    def _count(self, endpoint: str, status: int) -> None:
        with self._counter_lock:
            key = (endpoint, status)
            self._endpoint_counters[key] = (
                self._endpoint_counters.get(key, 0) + 1
            )

    def _route(self, request: Request):
        parts = split_path(request.path)
        method = request.method.upper()
        if parts == ("healthz",) and method == "GET":
            return "healthz", self._handle_healthz, ()
        if parts == ("metrics",) and method == "GET":
            return "metrics", self._handle_metrics, ()
        if parts == ("v1", "query") and method == "POST":
            return "query", self._handle_query, ()
        if parts == ("v1", "tables") and method == "GET":
            return "tables", self._handle_list_tables, ()
        if parts == ("v1", "checkpoint") and method == "POST":
            return "checkpoint", self._handle_checkpoint, ()
        if (
            len(parts) == 3
            and parts[:2] == ("v1", "tables")
            and method == "PUT"
        ):
            return "create", self._handle_create, (parts[2],)
        if (
            len(parts) == 4
            and parts[:2] == ("v1", "tables")
            and parts[3] == "append"
            and method == "POST"
        ):
            return "append", self._handle_append, (parts[2],)
        raise HTTPError(
            404, f"no route for {method} {request.path}"
        )

    def _tenant(self, request: Request) -> Tenant:
        return self.tenants.resolve(request.header(API_KEY_HEADER) or None)

    @staticmethod
    def _timeout_from(body: object, default: float) -> float:
        if isinstance(body, dict) and "timeout_ms" in body:
            try:
                timeout = float(body["timeout_ms"]) / 1e3
            except (TypeError, ValueError):
                raise BadRequestError(
                    f"timeout_ms must be a number, got {body['timeout_ms']!r}"
                )
            if not 0 < timeout < math.inf:
                raise BadRequestError(
                    "timeout_ms must be positive and finite"
                )
            return timeout
        return default

    # -- handlers ----------------------------------------------------------

    async def _handle_query(self, request: Request):
        body = request.json()
        if not isinstance(body, dict) or not isinstance(
            body.get("sql"), str
        ):
            raise BadRequestError('body must be {"sql": "..."}')
        sql = body["sql"]
        timeout = self._timeout_from(body, self.config.default_timeout)
        tenant = self._tenant(request)
        tenant.acquire()
        try:
            # Submitted from the loop: a known shape binds in microseconds
            # (the parser's shape table), and the worker that settles the
            # ticket wakes the loop directly — one thread hop per query.
            future = self.store.service.submit(sql, timeout=timeout)
            report = await future.aresult(timeout)
        finally:
            tenant.release()
        result = report.result
        payload = {
            "columns": list(result.column_names),
            "rows": result.data.tolist(),
            "num_rows": result.num_rows,
            "elapsed_ms": report.seconds * 1e3,
            "plan_cache_hit": report.plan_cache_hit,
            "snapshot_epoch": report.snapshot_epoch,
            "tenant": tenant.name,
        }
        return 200, payload

    async def _handle_create(self, request: Request, name: str):
        body = request.json()
        if not isinstance(body, dict) or "attributes" not in body:
            raise BadRequestError(
                'body must be {"attributes": [{"name", "dtype"}, ...]}'
            )
        tenant = self._tenant(request)
        tenant.acquire()
        loop = asyncio.get_running_loop()
        try:
            table = await loop.run_in_executor(
                self._executor,
                lambda: self.store.create_table(
                    name, body["attributes"], body.get("columns")
                ),
            )
        finally:
            tenant.release()
        return 201, {
            "table": table.name,
            "num_rows": table.num_rows,
            "attributes": [
                {"name": a.name, "dtype": a.dtype.value}
                for a in table.schema
            ],
        }

    async def _handle_append(self, request: Request, name: str):
        body = request.json()
        if not isinstance(body, dict) or not isinstance(
            body.get("columns"), dict
        ):
            raise BadRequestError('body must be {"columns": {...}}')
        tenant = self._tenant(request)
        tenant.acquire()
        try:
            appended = await self.batcher.submit(name, body["columns"])
        finally:
            tenant.release()
        return 200, {
            "table": name,
            "appended": appended,
            "durable": bool(
                self.config.wal_enabled and self.config.wal_fsync
            ),
        }

    async def _handle_list_tables(self, request: Request):
        # Snapshot under the store's apply lock (in the executor so the
        # event loop never blocks on it): iterating the live catalog
        # here would race concurrent creates.
        loop = asyncio.get_running_loop()
        tables = await loop.run_in_executor(
            self._executor, self.store.table_infos
        )
        return 200, {"tables": tables}

    async def _handle_checkpoint(self, request: Request):
        loop = asyncio.get_running_loop()
        snap = await loop.run_in_executor(
            self._executor, self.store.checkpoint
        )
        return 200, {"snapshot": snap.name}

    async def _handle_healthz(self, request: Request):
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            self._executor, self.store.service.health
        )
        status = 200 if report.status == "healthy" else 503
        payload = dataclasses.asdict(report)
        # The nested quarantine map can hold non-JSON values; keep the
        # wire payload to the scalar rungs.
        payload.pop("quarantines", None)
        return status, payload

    async def _handle_metrics(self, request: Request):
        loop = asyncio.get_running_loop()

        def collect() -> str:
            with self._counter_lock:
                counters = dict(self._endpoint_counters)
            return render_metrics(
                service_stats=self.store.service.stats.snapshot(),
                endpoint_counters=counters,
                tenant_stats={
                    name: tenant.stats()
                    for name, tenant in self.tenants.tenants().items()
                },
                store_stats=self.store.stats(),
                health_status=self.store.service.health().status,
                batcher_stats=self.batcher.stats(),
                # Engines are created on first query; tables never
                # queried have no pruning story to report yet.
                engine_stats={
                    engine.table.name: engine.stats()
                    for engine in self.store.system.engines()
                },
            )

        text = await loop.run_in_executor(self._executor, collect)
        return 200, PlainText(text)
