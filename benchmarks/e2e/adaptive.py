"""adaptive-seq: the paper's drifting query sequence, in process.

``H2OEngine.execute`` over a cold column-major table, one caller, no
warm-up: users pay the adaptation on every run, and its cumulative time
is the paper's own metric (Fig. 7/8).  The gateway and the service are
not involved, and the table is below ``parallel_threshold_rows`` so
scans take the monolithic path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from . import probes
from .loadgen import Tracer
from .measure import RunResult, median, p95, p99, ratio
from .procs import RssSampler, proc_status_mb
from .workloads import (
    TABLE,
    Columns,
    adaptive_queries,
    adaptive_reference,
    adaptive_segments,
    rows_equal,
    table_shape,
    user_bytes,
)


@dataclass
class Cold:
    """A freshly built table and engine, and the sequence to run."""

    columns: Columns
    engine: object
    queries: Sequence[object]
    setup_seconds: float


def set_up(seed: int, smoke: bool, segments: int) -> Cold:
    from repro.config import EngineConfig
    from repro.core.engine import H2OEngine
    from repro.storage import Table, uniform_columns, wide_schema

    started = time.perf_counter()
    rows, attrs = table_shape("adaptive-seq", smoke)
    schema = wide_schema(attrs)
    columns = uniform_columns(schema, rows, rng=seed)
    table = Table.from_columns(TABLE, schema, columns, initial_layout="column")
    engine = H2OEngine(table, EngineConfig())
    queries = adaptive_queries(segments, smoke)
    return Cold(columns, engine, queries, time.perf_counter() - started)


def run_sequence(
    cold: Cold, count: int, tracer: Optional[Tracer] = None
) -> Tuple[List[object], List[float], float]:
    """Execute the first ``count`` queries; (reports, latencies, wall)."""
    execute = cold.engine.execute
    reports: List[object] = []
    latencies: List[float] = []
    start = time.perf_counter()
    for number, query in enumerate(cold.queries[:count]):
        sent = time.perf_counter()
        if tracer is None:
            report = execute(query)
        else:
            op_id = f"a{number}"
            with tracer.span("op", op_id) as root:
                with tracer.span("core.engine_execute", op_id, root):
                    report = execute(query)
        latencies.append(time.perf_counter() - sent)
        reports.append(report)
    return reports, latencies, time.perf_counter() - start


def check(cold: Cold, reports: Sequence[object]) -> int:
    """Number of wrong answers, against numpy on the generated columns."""
    return sum(
        not rows_equal(
            report.result.data.tolist(),
            adaptive_reference(query, cold.columns),
        )
        for query, report in zip(cold.queries, reports)
    )


def run_e2e(seed: int, seconds: float, smoke: bool, setups: int) -> RunResult:
    result = RunResult()
    segments = adaptive_segments(seconds)
    setup_times = []
    cold = None
    for _ in range(setups):
        cold = None  # release the previous table before building the next
        cold = set_up(seed, smoke, segments)
        setup_times.append(cold.setup_seconds)
    with RssSampler(os.getpid()) as rss:
        reports, latencies, wall = run_sequence(cold, len(cold.queries))
    rows, attrs = table_shape("adaptive-seq", smoke)
    result.attempted = len(reports)
    result.failed = check(cold, reports)
    millis = [s * 1e3 for s in latencies]
    result.put("setup_s", median(setup_times), len(setup_times))
    result.put("throughput_ops_s", len(reports) / wall, len(reports))
    result.put("query_p50_ms", median(millis), len(millis))
    result.put("query_p95_ms", p95(millis), len(millis))
    result.put("peak_rss_mb", rss.peak_mb(), len(rss.samples))
    result.put("space_amp", cold.engine.table.nbytes / user_bytes(rows, attrs))
    return result


def run_traced(seed: int, seconds: float, smoke: bool, trace_path: Path) -> RunResult:
    """The first half of the sequence twice from cold: once untraced
    (what the reports say), once with a span around every call."""
    result = RunResult()
    segments = adaptive_segments(seconds)
    cold = set_up(seed, smoke, segments)
    count = max(1, len(cold.queries) // 2)
    reports, latencies, wall = run_sequence(cold, count)
    result.put("bench.vm_hwm_mb", proc_status_mb(os.getpid()))
    tracer = Tracer()
    again = set_up(seed, smoke, segments)
    traced_reports, _, traced_wall = run_sequence(again, count, tracer)
    _parse_probe(cold.queries[:count], again.engine.table.schema, tracer)

    result.attempted = 2 * count
    result.failed = check(cold, reports) + check(again, traced_reports)
    probes.report_metrics(result, reports)
    stats = cold.engine.stats()
    probes.engine_metrics(result, stats, cold.engine.table.nbytes)
    seconds_in_engine = [r.seconds for r in reports]
    rows, _ = table_shape("adaptive-seq", smoke)
    result.put("core.engine_p50_ms", median(seconds_in_engine) * 1e3, count)
    result.put(
        "core.plan_cache_hit_rate",
        ratio(sum(bool(r.plan_cache_hit) for r in reports), count),
        count,
    )
    half = count // 2
    result.put(
        "core.late_vs_early_ratio",
        ratio(sum(seconds_in_engine[:half]), sum(seconds_in_engine[half:])),
        count,
    )
    result.put(
        "execution.rows_per_s", ratio(rows * count, sum(seconds_in_engine)), count
    )
    result.put(
        "execution.scan_threads_mean",
        ratio(sum(r.scan_threads_used for r in reports), count),
        count,
    )
    result.put("execution.morsels_pruned_frac", float(stats["pruned_fraction"]))
    result.put("codegen.fallbacks", sum(bool(r.codegen_fallback) for r in reports), count)
    result.put("sql.parse_us", median(tracer.durations("sql.parse")) * 1e6, count)
    result.put(
        "bench.trace_overhead_frac", 1.0 - ratio(count / traced_wall, count / wall), count
    )
    result.put("bench.failed_ops_frac", ratio(result.failed, result.attempted), result.attempted)
    result.put("bench.query_p99_ms", p99(latencies) * 1e3, count)
    probes.write_trace(trace_path, "adaptive-seq", seed, tracer)
    return result


def _parse_probe(queries: Sequence[object], schema, tracer: Tracer) -> None:
    """Parse + analyse + shape-sign each query's SQL text."""
    from repro.sql import analyze_query, parse_query, shape_signature

    for number, query in enumerate(queries):
        text = query.to_sql()
        op_id = f"s{number}"
        with tracer.span("op", op_id) as root:
            with tracer.span("sql.parse", op_id, root):
                parsed = parse_query(text)
                analyze_query(parsed, schema)
                shape_signature(parsed)
