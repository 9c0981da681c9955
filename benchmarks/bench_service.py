"""Service throughput scaling — QPS at 1/2/4/8 workers plus overload.

Measures the concurrent query service on a steady-state mixed workload:

- **scaling sweep** — queries/second, p50, and p99 latency at 1, 2, 4,
  and 8 workers over the same shape mix (big scans, so NumPy's
  GIL-released kernels can genuinely overlap);
- **overload probe** — floods a 1-worker, small-capacity service and
  records how many submissions were gracefully rejected (back-pressure,
  not crashes).

The measurement lands in ``BENCH_service.json`` (or
``$BENCH_SERVICE_JSON``).  The scaling assertion is honest about the
host: parallel speedup needs parallel hardware, so the >= 1.5x bar for
4 workers vs 1 only applies when the machine has at least 2 usable
cores.  On a single-core host the sweep still runs and the test instead
asserts the service does not *collapse* under added workers (>= 0.6x)
and that scan overlap was actually observed.

Run directly (``python benchmarks/bench_service.py``) or via pytest.
"""

import json
import os
import time

from repro.config import EngineConfig
from repro.errors import ServiceOverloadedError
from repro.service import H2OService
from repro.storage.generator import generate_table

WORKER_COUNTS = (1, 2, 4, 8)
QUERIES_PER_RUN = 320
NUM_ATTRS = 24
NUM_ROWS = 60_000


def _artifact_path() -> str:
    return os.environ.get("BENCH_SERVICE_JSON", "BENCH_service.json")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _workload():
    """A steady mix of shapes with rotating literals (fast-lane heavy)."""
    queries = []
    for i in range(QUERIES_PER_RUN):
        threshold = (i % 40 - 20) * 10_000_000
        kind = i % 4
        if kind == 0:
            sql = (
                f"SELECT sum(a1 + a2 + a3) FROM r WHERE a4 > {threshold}"
            )
        elif kind == 1:
            sql = f"SELECT count(*) FROM r WHERE a5 < {threshold}"
        elif kind == 2:
            sql = (
                f"SELECT min(a6), max(a7) FROM r "
                f"WHERE a8 > {threshold} AND a6 < 900000000"
            )
        else:
            sql = f"SELECT sum(a9 - a10) FROM r WHERE a11 > {threshold}"
        queries.append(sql)
    return queries


def _measure_workers(num_workers: int, queries) -> dict:
    service = H2OService(
        config=EngineConfig(),
        num_workers=num_workers,
        max_pending=4 * QUERIES_PER_RUN,
        name=f"bench-{num_workers}w",
    )
    try:
        service.register(
            generate_table("r", num_attrs=NUM_ATTRS, num_rows=NUM_ROWS, rng=23)
        )
        # Warmup: let the fast lane and inline adaptation settle.
        for sql in queries[:40]:
            service.execute(sql, timeout=120.0)
        started = time.perf_counter()
        futures = [
            service.submit(sql, timeout=300.0) for sql in queries
        ]
        for future in futures:
            future.result(300.0)
        elapsed = time.perf_counter() - started
        snap = service.stats.snapshot()
        return {
            "workers": num_workers,
            "queries": len(queries),
            "seconds": elapsed,
            "qps": len(queries) / elapsed,
            "p50_ms": snap["p50_ms"],
            "p99_ms": snap["p99_ms"],
            "peak_concurrency": snap["peak_concurrency"],
        }
    finally:
        service.close()


def _measure_overload() -> dict:
    service = H2OService(
        config=EngineConfig(),
        num_workers=1,
        max_pending=8,
        name="bench-overload",
    )
    try:
        service.register(
            generate_table("r", num_attrs=NUM_ATTRS, num_rows=NUM_ROWS, rng=23)
        )
        futures = []
        rejected = 0
        for i in range(200):
            try:
                futures.append(
                    service.submit(
                        f"SELECT sum(a1 + a2) FROM r WHERE a3 > {i}",
                        timeout=300.0,
                    )
                )
            except ServiceOverloadedError:
                rejected += 1
        for future in futures:
            future.result(300.0)
        snap = service.stats.snapshot()
        return {
            "submitted": 200,
            "admitted": len(futures),
            "rejected": rejected,
            "completed": snap["completed"],
            "failed": snap["failed"],
        }
    finally:
        service.close()


def measure() -> dict:
    queries = _workload()
    sweep = [_measure_workers(n, queries) for n in WORKER_COUNTS]
    by_workers = {entry["workers"]: entry for entry in sweep}
    data = {
        "cores": _usable_cores(),
        "num_rows": NUM_ROWS,
        "num_attrs": NUM_ATTRS,
        "queries_per_run": QUERIES_PER_RUN,
        "sweep": sweep,
        "scaling_4v1": by_workers[4]["qps"] / by_workers[1]["qps"],
        "overload": _measure_overload(),
    }
    with open(_artifact_path(), "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    return data


def test_service_scales_and_sheds_load():
    data = measure()
    ratio = data["scaling_4v1"]
    if data["cores"] >= 2:
        assert ratio >= 1.5, (
            f"4-worker QPS only {ratio:.2f}x of 1-worker on "
            f"{data['cores']} cores"
        )
    else:
        # Single-core host: parallel speedup is physically impossible;
        # require that concurrency does not collapse throughput and
        # that scans actually overlapped.
        assert ratio >= 0.6, (
            f"4 workers collapsed throughput to {ratio:.2f}x on a "
            "single-core host"
        )
    multi = [e for e in data["sweep"] if e["workers"] >= 4]
    assert all(e["peak_concurrency"] >= 2 for e in multi), (
        "no scan overlap observed with >= 4 workers"
    )
    overload = data["overload"]
    assert overload["rejected"] > 0, "overload probe never hit capacity"
    assert overload["completed"] == overload["admitted"]
    assert overload["failed"] == 0


if __name__ == "__main__":
    result = measure()
    print(json.dumps(result, indent=2, sort_keys=True))
    for entry in result["sweep"]:
        print(
            f"{entry['workers']} workers: {entry['qps']:7.1f} QPS  "
            f"p50={entry['p50_ms']:.2f}ms p99={entry['p99_ms']:.2f}ms "
            f"(peak concurrency {entry['peak_concurrency']})"
        )
    print(
        f"\n4v1 scaling: {result['scaling_4v1']:.2f}x on "
        f"{result['cores']} core(s); overload rejected "
        f"{result['overload']['rejected']}/200 submissions"
    )
