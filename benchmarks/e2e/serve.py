"""steady-serve, scan-serve, ingest-mixed: a gateway child under load.

The child is ``python -m repro.gateway`` with every default (only the
port and the data dir are set), recovered from a data dir this harness
seeded through ``DurableStore.create_table``.  Keep-alive connections
drive it closed-loop: two query clients on ``steady-serve``, one on
``scan-serve``, one writer and one reader on ``ingest-mixed``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from . import probes
from .loadgen import Sample, Tracer, run_ingest, run_queries
from .measure import RunResult, median, p95, p99, ratio
from .procs import (
    GatewayProc,
    RssSampler,
    Scratch,
    dir_bytes,
    parse_prometheus,
    proc_status_mb,
)
from .workloads import (
    BATCH_ROWS,
    QUERY_SHAPES,
    TABLE,
    Columns,
    IngestLedger,
    ServeReference,
    append_stream,
    attr_specs,
    query_stream,
    rows_equal,
    serve_columns,
    user_bytes,
)

#: Closed-loop query clients.  One on ``scan-serve``: a single scan
#: already takes both cores through the scan pool, so a second client
#: added 8 % of throughput and a tail set by which scans happened to
#: collide (p99 62–80 ms over six runs, against 27.6–29.5 ms with one).
CLIENTS = {"steady-serve": 2, "scan-serve": 1}
#: Phases of one run draw from disjoint stream numbers, this far apart.
STREAMS_PER_PHASE = 2
#: Rounds of every shape sent before timing: three adaptation windows
#: (20 queries each) pass, so start-up layout decisions are behind us.
WARMUP_ROUNDS = 16
#: ``ingest-mixed`` sizes its writer from ``--seconds`` instead of stopping
#: it at a deadline: 55 batches per second is what the seed commit
#: acknowledges, and a fixed count puts exactly one auto-checkpoint (at
#: record 1 024) into the default 20 s run whatever the host's speed, so
#: stall, snapshot bytes and WAL counters repeat.
APPENDS_PER_SECOND = 55
#: The stream the one-client phase and the in-process replay both run,
#: so the peeling can pair the same op at every entry point.
REPLAY_CLIENT = 2 * STREAMS_PER_PHASE
#: In-process replay length per measured second (a fixed prefix, so its
#: phase sums compare across commits).
REPLAY_OPS_PER_SECOND = {"steady-serve": 40, "scan-serve": 6, "ingest-mixed": 20}


@dataclass
class Served:
    workload: str
    seed: int
    columns: Columns
    data_dir: Path
    gateway: GatewayProc
    setup_seconds: float

    @property
    def port(self) -> int:
        return self.gateway.port

    def stream(self, client: int):
        return query_stream(self.workload, self.seed, client, self.columns)


def _client(port: int):
    from repro.gateway import GatewayClient

    return GatewayClient("127.0.0.1", port, timeout=120.0)


def set_up(workload: str, seed: int, smoke: bool, scratch: Scratch) -> Served:
    """Generate, seed, boot, warm: everything before the first timed op."""
    from repro.gateway import DurableStore

    started = time.perf_counter()
    columns = serve_columns(workload, seed, smoke)
    data_dir = scratch.new_dir("data")
    store = DurableStore(data_dir)
    try:
        store.create_table(TABLE, attr_specs(columns), columns)
    finally:
        store.abandon()
    gateway = GatewayProc(scratch, data_dir)
    served = Served(workload, seed, columns, data_dir, gateway, 0.0)
    _warm_up(served)
    served.setup_seconds = time.perf_counter() - started
    return served


def _warm_up(served: Served) -> None:
    """Every shape is sent until it is answered from the plan cache."""
    shapes = set(QUERY_SHAPES[served.workload])
    stream = served.stream(client=99)
    with _client(served.port) as client:
        for op in itertools.islice(stream, WARMUP_ROUNDS * len(shapes)):
            client.query(op.sql)
        cold = set(shapes)
        for op in itertools.islice(stream, 50 * len(shapes)):
            if client.query(op.sql)["plan_cache_hit"]:
                cold.discard(op.shape)
            if not cold:
                return
    raise RuntimeError(f"shapes never served from the plan cache: {sorted(cold)}")


def _set_up_repeated(workload, seed, smoke, scratch, setups) -> Tuple[Served, List[float]]:
    """Set up ``setups`` times; keep the last one, report every time."""
    times: List[float] = []
    served = None
    for _ in range(setups):
        if served is not None:
            served.gateway.kill()
        served = set_up(workload, seed, smoke, scratch)
        times.append(served.setup_seconds)
    return served, times


# Observation from outside --------------------------------------------------


def observe(served: Served) -> Dict[str, object]:
    with _client(served.port) as client:
        prom = parse_prometheus(client.metrics())
        _, health = client.healthz()
    return {
        "prom": prom,
        "health": health,
        "hwm_mb": proc_status_mb(served.gateway.pid),
    }


def space_amp(served: Served, rows: int) -> float:
    """Bytes the data dir holds after a checkpoint ÷ bytes of user data."""
    with _client(served.port) as client:
        client.checkpoint()
    return dir_bytes(served.data_dir) / user_bytes(rows, len(served.columns))


# Answer checking ----------------------------------------------------------


def check_queries(
    served: Served,
    samples: Sequence[Sample],
    ledger: Optional[IngestLedger] = None,
) -> int:
    """Number of failed or wrongly answered queries among ``samples``."""
    reference = ServeReference(served.columns)
    failed = 0
    for sample in samples:
        if sample.error is not None:
            failed += 1
            continue
        rows = sample.payload["rows"]
        if sample.op.shape == "all":
            low, high = sample.window
            ok = len(rows) == 1 and low <= ledger.batches_in(rows[0]) <= high
        else:
            ok = rows_equal(rows, reference.expect(sample.op))
        failed += not ok
    return failed


def _flat(per_client: Sequence[Sequence[Sample]]) -> List[Sample]:
    return [s for samples in per_client for s in samples]


def _ok(samples: Sequence[Sample]) -> List[Sample]:
    return [s for s in samples if s.error is None]


# One measured phase -------------------------------------------------------


@dataclass
class Phase:
    """One load phase: what was sent, how long it took, what came back."""

    queries: List[Sample]
    appends: List[Sample]
    wall: float
    ledger: Optional[IngestLedger] = None
    generator_cpu: float = 0.0

    @property
    def rate_samples(self) -> List[Sample]:
        """The ops whose rate is this workload's throughput: appends on
        ``ingest-mixed`` (the reader only rides along), queries elsewhere."""
        return self.appends if self.ledger is not None else self.queries


def drive(
    served: Served,
    seconds: float,
    tracer: Optional[Tracer] = None,
    ledger: Optional[IngestLedger] = None,
    first_client: int = 0,
) -> Phase:
    """Run the workload's clients against the child for ``seconds`` (on
    ``ingest-mixed``: for ``APPENDS_PER_SECOND * seconds`` appends).

    ``first_client`` numbers the op streams, so a later phase draws
    fresh ops instead of repeating an earlier phase's.
    """
    cpu = time.process_time()
    label = f"c{first_client}"
    if served.workload == "ingest-mixed":
        appends = itertools.islice(
            append_stream(served.seed, first_client, len(served.columns)),
            int(APPENDS_PER_SECOND * seconds),
        )
        written, read, wall = run_ingest(
            served.port, appends, served.stream(first_client), ledger, tracer, label
        )
        phase = Phase(read, written, wall, ledger)
    else:
        streams = [
            served.stream(first_client + i) for i in range(CLIENTS[served.workload])
        ]
        per_client, wall = run_queries(served.port, streams, seconds, tracer, label)
        phase = Phase(_flat(per_client), [], wall)
    phase.generator_cpu = ratio(time.process_time() - cpu, phase.wall)
    return phase


def crash_and_recover(served: Served, scratch: Scratch, ledger: IngestLedger):
    """SIGKILL the child, restart it on the same dir, count lost rows.

    Returns (rows lost, restart-to-ready seconds).  Every acknowledged
    batch was fsync'd into the WAL or a snapshot, so none may be missing.
    """
    served.gateway.kill()
    served.gateway = GatewayProc(scratch, served.data_dir)
    with _client(served.port) as client:
        rows = client.query(QUERY_SHAPES["ingest-mixed"]["all"])["rows"]
    expected = ledger.expect(ledger.acked)
    lost = 0
    if not rows_equal(rows, expected):
        lost = max(1, int(expected[0][0] - float(rows[0][0])))
    return lost, served.gateway.boot_seconds


# End-to-end run -----------------------------------------------------------


def run_e2e(workload: str, seed: int, seconds: float, smoke: bool, setups: int) -> RunResult:
    result = RunResult()
    with Scratch() as scratch:
        served, setup_times = _set_up_repeated(workload, seed, smoke, scratch, setups)
        ingest = workload == "ingest-mixed"
        ledger = IngestLedger(served.columns) if ingest else None
        with RssSampler(served.gateway.pid) as rss:
            phase = drive(served, seconds, ledger=ledger)
        rows = len(served.columns["a1"])
        lost = 0
        if ingest:
            acked = len(_ok(phase.appends))
            rows += acked * BATCH_ROWS
            lost, _ = crash_and_recover(served, scratch, ledger)
        amp = space_amp(served, rows)
    failed = check_queries(served, phase.queries, ledger)
    failed += len(phase.appends) - len(_ok(phase.appends)) + lost
    result.attempted = len(phase.queries) + len(phase.appends)
    result.failed = failed
    latencies = [s.seconds * 1e3 for s in _ok(phase.queries)]
    result.put("setup_s", median(setup_times), len(setup_times))
    result.put(
        "throughput_ops_s",
        len(_ok(phase.rate_samples)) / phase.wall,
        len(phase.rate_samples),
    )
    result.put("query_p50_ms", median(latencies), len(latencies))
    result.put("query_p95_ms", p95(latencies), len(latencies))
    result.put("peak_rss_mb", rss.peak_mb(), len(rss.samples))
    result.put("space_amp", amp)
    return result


# Traced run ---------------------------------------------------------------


def run_traced(workload: str, seed: int, seconds: float, smoke: bool, trace_path: Path) -> RunResult:
    """Per-layer numbers: an untraced phase for what the public API
    returns, traced phases for spans, then in-process probes.

    Phases, as shares of ``seconds``: 0.35 untraced (the workload's own
    clients), 0.15 traced (the same; gives the tracing overhead), 0.15
    traced with one query client (the serial chain the peeling needs);
    the in-process replay is a fixed number of ops.
    """
    result = RunResult()
    ingest = workload == "ingest-mixed"
    tracer = Tracer()
    with Scratch() as scratch:
        served = set_up(workload, seed, smoke, scratch)
        ledger = IngestLedger(served.columns) if ingest else None
        untraced = drive(served, 0.35 * seconds, ledger=ledger)
        seen = observe(served)
        traced = drive(
            served,
            0.15 * seconds,
            tracer=tracer,
            ledger=ledger,
            first_client=STREAMS_PER_PHASE,
        )
        (solo,), _ = run_queries(
            served.port,
            [served.stream(REPLAY_CLIENT)],
            0.15 * seconds,
            tracer,
            "solo",
            ledger,
        )
        lost, recovery_s = 0, 0.0
        if ingest:
            lost, recovery_s = crash_and_recover(served, scratch, ledger)
        health_rung = observe(served)["prom"].get("h2o_gateway_health_rung", 2.0)
        served.gateway.kill()
        replay_ops = max(8, int(REPLAY_OPS_PER_SECOND[workload] * seconds))
        replay = probes.replay_in_process(
            served.data_dir,
            list(itertools.islice(served.stream(REPLAY_CLIENT), replay_ops)),
            append_stream(seed, REPLAY_CLIENT, len(served.columns)) if ingest else None,
            scratch,
            tracer,
        )
    queries = untraced.queries + traced.queries + solo
    appends = untraced.appends + traced.appends
    result.attempted = len(queries) + len(appends)
    result.failed = (
        check_queries(served, queries, ledger)
        + len(appends)
        - len(_ok(appends))
        + lost
    )

    _payload_metrics(result, served, untraced)
    _outside_metrics(result, served, seen, untraced, health_rung)
    result.put("gateway.recovery_s", recovery_s)
    result.put("gateway.acked_rows_lost", lost)
    append_ms = [s.seconds * 1e3 for s in _ok(untraced.appends)]
    result.put("gateway.append_p50_ms", median(append_ms), len(append_ms))
    result.put("gateway.append_p99_ms", p99(append_ms), len(append_ms))
    result.put(
        "bench.reader_ops_s",
        len(_ok(untraced.queries)) / untraced.wall if ingest else 0.0,
        len(untraced.queries) if ingest else 0,
    )

    probes.peel(result, replay, solo)
    # Closed loop: rate = clients / mean latency.  The medians say the
    # same of the tracing cost and ignore a checkpoint stall that lands
    # in only one of the two phases.
    result.put(
        "bench.trace_overhead_frac",
        1.0
        - ratio(
            median([s.seconds for s in _ok(untraced.rate_samples)]),
            median([s.seconds for s in _ok(traced.rate_samples)]),
        ),
        len(traced.rate_samples),
    )
    result.put("bench.generator_cpu_frac", untraced.generator_cpu)
    result.put("bench.failed_ops_frac", ratio(result.failed, result.attempted), result.attempted)
    if untraced.generator_cpu > 0.5:
        result.warnings.append(
            f"generator used {untraced.generator_cpu:.2f} of a core: "
            "the numbers may measure the generator"
        )
    probes.write_trace(trace_path, workload, seed, tracer)
    return result


def _payload_metrics(result: RunResult, served: Served, phase: Phase) -> None:
    """What each ``/v1/query`` reply says about the engine (source R)."""
    ok = _ok(phase.queries)
    engine_ms = [s.payload["elapsed_ms"] for s in ok]
    result.put("core.engine_p50_ms", median(engine_ms), len(ok))
    result.put(
        "core.plan_cache_hit_rate",
        ratio(sum(bool(s.payload["plan_cache_hit"]) for s in ok), len(ok)),
        len(ok),
    )
    result.put("bench.query_p99_ms", p99([s.seconds * 1e3 for s in ok]), len(ok))
    result.put(
        "gateway.above_engine_ms",
        median([s.seconds * 1e3 - s.payload["elapsed_ms"] for s in ok]),
        len(ok),
    )
    rows = len(served.columns["a1"])
    result.put(
        "execution.rows_per_s", ratio(rows * len(ok), sum(engine_ms) / 1e3), len(ok)
    )
    for shape in ("pruned", "filter", "conj", "full"):
        mine = [s.payload["elapsed_ms"] for s in ok if s.op.shape == shape]
        result.put(f"execution.shape_{shape}_p50_ms", median(mine), len(mine))
    middle = min((s.sent for s in phase.queries), default=0.0) + phase.wall / 2
    early = sum(s.done <= middle for s in ok)
    result.put("core.late_vs_early_ratio", ratio(len(ok) - early, early), len(ok))


def _outside_metrics(
    result: RunResult, served: Served, seen, phase: Phase, health_rung: float
) -> None:
    """``GET /metrics`` and ``GET /healthz`` after the untraced phase."""
    prom, health = seen["prom"], seen["health"]

    def outcome(name: str) -> float:
        return prom.get(f'h2o_service_queries_total{{outcome="{name}"}}', 0.0)

    result.put("service.rejected", outcome("rejected"))
    result.put("service.timeouts", outcome("timeouts"))
    result.put("service.degraded", float(health.get("degraded_queries", 0)))
    result.put("codegen.fallbacks", float(health.get("codegen_fallbacks", 0)))
    result.put("resilience.health_rung", health_rung)
    result.put("bench.vm_hwm_mb", seen["hwm_mb"])
    table = f'{{table="{TABLE}"}}'
    result.put(
        "execution.morsels_pruned_frac",
        ratio(
            prom.get("h2o_scan_morsels_pruned_total" + table, 0.0),
            prom.get("h2o_scan_morsels_total" + table, 0.0),
        ),
        int(prom.get("h2o_scan_morsels_total" + table, 0.0)),
    )
    acked = len(_ok(phase.appends))
    result.put(
        "gateway.wal_fsyncs_per_append",
        ratio(prom.get("h2o_wal_fsyncs_total", 0.0), acked),
        acked,
    )
    result.put(
        "gateway.group_commit_riders",
        ratio(
            prom.get("h2o_gateway_appends_coalesced_total", 0.0),
            prom.get("h2o_gateway_append_batches_total", 0.0),
        ),
        acked,
    )
    result.put(
        "gateway.wal_bytes_per_user_byte",
        ratio(
            prom.get("h2o_wal_bytes_total", 0.0),
            user_bytes(acked * BATCH_ROWS, len(served.columns)),
        ),
        acked,
    )
    result.put(
        "gateway.checkpoints", prom.get("h2o_snapshot_checkpoints_total", 0.0)
    )
