"""Per-layer probes: spans around each layer's public functions.

The same op stream is driven at adjacent public entry points of the
stack — ``H2OSystem.execute``, ``H2OService.execute``, the HTTP round
trip — by one caller, so a layer's self time is the difference of the
medians on either side of it (peeling).  Single functions a request
crosses (``read_request``, ``parse_query``, ``json_response``,
``WriteAheadLog.append_batch``, ``Table.append_rows``) are timed by
direct calls.  Nothing here edits or patches the program.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .loadgen import Tracer
from .measure import RunResult, median, ratio
from .procs import Scratch
from .workloads import TABLE, AppendOp, QueryOp

#: One append rides in front of every this-many replayed queries on
#: ``ingest-mixed`` (the measured mix is about one append per 3 queries).
QUERIES_PER_APPEND = 4
DIRECT_PROBE_CALLS = 30
REPLAY_OP_PREFIX = "p"


@dataclass
class Replay:
    """What the in-process replay saw."""

    tracer: Tracer
    reports: List[object] = field(default_factory=list)
    engine_stats: Dict[str, object] = field(default_factory=dict)
    layout_bytes: int = 0
    scan_threads: List[int] = field(default_factory=list)
    wal_append_us: List[float] = field(default_factory=list)
    append_apply_us: List[float] = field(default_factory=list)

    def median_us(self, span: str) -> float:
        return median(self.tracer.durations(span)) * 1e6

    def per_op_us(self, span: str) -> List[float]:
        """Duration of ``span`` in each replayed op, in op order."""
        by_op = {
            op: (end - start) * 1e6
            for _, name, start, end, _, op in self.tracer.spans
            if name == span and op.startswith(REPLAY_OP_PREFIX)
        }
        return [by_op[f"{REPLAY_OP_PREFIX}{i}"] for i in range(len(by_op))]


def _request_bytes(sql: str) -> bytes:
    """The bytes ``http.client`` puts on the wire for one query."""
    body = json.dumps({"sql": sql}).encode("utf-8")
    head = (
        "POST /v1/query HTTP/1.1\r\n"
        "Host: 127.0.0.1:8080\r\n"
        "Accept-Encoding: identity\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Content-Type: application/json\r\n\r\n"
    )
    return head.encode("latin-1") + body


def _payload(report) -> dict:
    """The reply body the gateway builds from a report."""
    return {
        "columns": list(report.result.column_names),
        "rows": report.result.data.tolist(),
        "num_rows": report.result.num_rows,
        "elapsed_ms": report.seconds * 1e3,
        "plan_cache_hit": report.plan_cache_hit,
        "snapshot_epoch": report.snapshot_epoch,
        "tenant": "public",
    }


def _arrays(op: AppendOp) -> Dict[str, np.ndarray]:
    return {k: np.asarray(v, dtype=np.int64) for k, v in op.columns.items()}


async def _replay(store, ops, tracer: Tracer, replay: Replay) -> None:
    """Each op at every entry point below the socket, one caller."""
    from repro.config import GatewayConfig
    from repro.gateway.http import json_response, read_request
    from repro.sql import analyze_query, parse_query, shape_signature

    schema = store.system.catalog.get(TABLE).schema
    max_body = GatewayConfig().max_body_bytes
    for number, op in enumerate(ops):
        op_id = f"{REPLAY_OP_PREFIX}{number}"
        with tracer.span("op", op_id) as root:
            reader = asyncio.StreamReader()
            reader.feed_data(_request_bytes(op.sql))
            reader.feed_eof()
            with tracer.span("gateway.http_parse", op_id, root):
                await read_request(reader, max_body)
            with tracer.span("sql.parse", op_id, root):
                query = parse_query(op.sql)
                analyze_query(query, schema)
                shape_signature(query)
            # Alternate which entry point goes first, so neither always
            # finds the caches the other just warmed.
            order = ("service", "system") if number % 2 else ("system", "service")
            for entry in order:
                if entry == "service":
                    with tracer.span("service.execute", op_id, root):
                        store.service.execute(op.sql)
                else:
                    with tracer.span("core.system_execute", op_id, root):
                        report = store.system.execute(op.sql)
            replay.reports.append(report)
            payload = _payload(report)
            with tracer.span("gateway.serialise", op_id, root):
                json_response(200, payload)


def _replay_with_appends(store, ops, appends, tracer: Tracer) -> None:
    """The read/write mix through ``DurableStore``: every append bumps
    the layout epoch, which is what invalidates cached plans."""
    for number, op in enumerate(ops):
        op_id = f"w{number}"
        with tracer.span("op", op_id) as root:
            if number % QUERIES_PER_APPEND == 0:
                with tracer.span("gateway.durable_append", op_id, root):
                    store.append(TABLE, _arrays(next(appends)))
            with tracer.span("core.system_execute_mixed", op_id, root):
                store.system.execute(op.sql)


def _two_callers(store, ops: Sequence[QueryOp]) -> List[int]:
    """Scan threads the pool grants when two callers compete."""
    used: List[int] = []

    def call(mine: Sequence[QueryOp]) -> None:
        for op in mine:
            used.append(store.service.execute(op.sql).scan_threads_used)

    threads = [threading.Thread(target=call, args=(ops[i::2],)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return used


def _direct_probes(store, appends: Iterator[AppendOp], scratch: Scratch, replay: Replay) -> None:
    """One 64-row batch through the WAL, and through the table."""
    from repro.gateway.wal import KIND_APPEND, WALRecord, WriteAheadLog

    table = store.system.catalog.get(TABLE)
    attributes = [(a.name, a.dtype.value) for a in table.schema]
    wal = WriteAheadLog(scratch.new_dir("wal") / "probe.log", fsync=True)
    try:
        for lsn in range(DIRECT_PROBE_CALLS):
            arrays = _arrays(next(appends))
            record = WALRecord(KIND_APPEND, TABLE, lsn + 1, attributes, arrays)
            before = time.perf_counter()
            wal.append_batch([record])
            logged = time.perf_counter()
            table.append_rows(arrays)
            applied = time.perf_counter()
            replay.wal_append_us.append((logged - before) * 1e6)
            replay.append_apply_us.append((applied - logged) * 1e6)
    finally:
        wal.close()


def replay_in_process(
    data_dir: Path,
    ops: Sequence[QueryOp],
    appends: Optional[Iterator[AppendOp]],
    scratch: Scratch,
    tracer: Tracer,
) -> Replay:
    """Recover ``data_dir`` in this process and replay ``ops`` on it."""
    from repro.gateway import DurableStore

    replay = Replay(tracer)
    store = DurableStore(data_dir)
    try:
        asyncio.run(_replay(store, ops, tracer, replay))
        replay.scan_threads = _two_callers(store, ops[:200])
        if appends is not None:
            _replay_with_appends(store, ops, appends, tracer)
        engine = store.system.engine_for(TABLE)
        replay.engine_stats = engine.stats()
        replay.layout_bytes = engine.table.nbytes
        if appends is not None:
            _direct_probes(store, appends, scratch, replay)
    finally:
        store.abandon()
    return replay


def report_metrics(result: RunResult, reports: Sequence[object]) -> None:
    """Numbers every ``QueryReport`` carries (source R: returned by the
    program's public API at no extra cost)."""
    count = len(reports)

    def phase_sum(name: str) -> float:
        return sum(r.phases.get(name, 0.0) for r in reports)

    result.put("core.plan_s", phase_sum("plan"), count)
    result.put("core.adapt_s", phase_sum("adapt"), count)
    result.put("codegen.compile_s", phase_sum("codegen"), count)
    result.put("execution.run_s", phase_sum("execute"), count)
    result.put("storage.reorg_s", phase_sum("reorg"), count)
    result.put(
        "core.bookkeeping_us",
        median([(r.seconds - sum(r.phases.values())) * 1e6 for r in reports]),
        count,
    )
    compiled = sum(bool(r.used_codegen) for r in reports)
    result.put(
        "codegen.operator_cache_hit_rate",
        ratio(sum(bool(r.codegen_cache_hit) for r in reports), compiled),
        compiled,
    )


def engine_metrics(result: RunResult, stats: Dict[str, object], layout_bytes: int) -> None:
    result.put("core.layouts_created", float(stats["layouts_created"]))
    result.put(
        "core.plan_cache_invalidations",
        float(sum(stats["plan_cache"]["invalidations"].values())),
    )
    result.put("storage.layout_mb", layout_bytes / 1e6)


def peel(result: RunResult, replay: Replay, solo: Sequence[object]) -> None:
    """Self times from the same ops at adjacent entry points, one caller.

    ``solo`` are the one-client HTTP samples of the very ops the replay
    ran in process, in the same order, so every difference is taken per
    op and the median of the differences reported: the shapes of one
    workload cost up to 50× apart, and a difference of two medians over
    such a mix says nothing.

    round trip = gateway overhead + service hop + system.execute, and
    system.execute = parse + engine + the rest; that rest is
    ``bench.unattributed_us``.
    """
    service = replay.per_op_us("service.execute")
    system = replay.per_op_us("core.system_execute")
    parse = replay.per_op_us("sql.parse")
    pairs = [
        (i, s.seconds * 1e6, s.payload["elapsed_ms"] * 1e3)
        for i, s in enumerate(solo[: len(service)])
        if s.error is None
    ]
    replayed = len(service)
    result.put("sql.parse_us", median(parse), replayed)
    result.put(
        "service.hop_us", median([a - b for a, b in zip(service, system)]), replayed
    )
    result.put("gateway.solo_rtt_us", median([rtt for _, rtt, _ in pairs]), len(pairs))
    result.put(
        "gateway.overhead_us",
        median([rtt - service[i] for i, rtt, _ in pairs]),
        len(pairs),
    )
    result.put(
        "bench.unattributed_us",
        median([system[i] - parse[i] - engine for i, _, engine in pairs]),
        len(pairs),
    )
    result.put("gateway.http_parse_us", replay.median_us("gateway.http_parse"), replayed)
    result.put("gateway.serialise_us", replay.median_us("gateway.serialise"), replayed)
    result.put(
        "execution.scan_threads_mean",
        ratio(sum(replay.scan_threads), len(replay.scan_threads)),
        len(replay.scan_threads),
    )
    result.put("gateway.wal_append_us", median(replay.wal_append_us), len(replay.wal_append_us))
    result.put(
        "storage.append_apply_us",
        median(replay.append_apply_us),
        len(replay.append_apply_us),
    )
    report_metrics(result, replay.reports)
    engine_metrics(result, replay.engine_stats, replay.layout_bytes)


def write_trace(path: Path, workload: str, seed: int, tracer: Tracer) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(
            {"workload": workload, "seed": seed, "spans": tracer.as_dicts()}
        )
    )


def span_problems(spans: Sequence[dict]) -> List[str]:
    """Why the spans do not form per-op trees (empty when they do):
    every child lies inside its parent and shares its op id."""
    by_id = {span["id"]: span for span in spans}
    problems: List[str] = []
    for span in spans:
        if span["end"] < span["start"]:
            problems.append(f"span {span['id']} ends before it starts")
        if not span["parent"]:
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            problems.append(f"span {span['id']} has no parent {span['parent']}")
        elif parent["op"] != span["op"]:
            problems.append(f"span {span['id']} and its parent differ in op id")
        elif not (parent["start"] <= span["start"] and span["end"] <= parent["end"]):
            problems.append(f"span {span['id']} is not inside its parent")
    return problems
