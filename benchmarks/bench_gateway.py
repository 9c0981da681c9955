"""Gateway serving throughput and the WAL durability ablation.

Two measurements against a real in-process gateway (asyncio server on a
private loop, actual sockets on 127.0.0.1):

- **query sweep** — HTTP QPS and p50/p99 latency of a repeated-shape
  aggregation at 1, 4 and 16 concurrent clients (one keep-alive
  connection per client thread).  The gates are host-honest: on a
  single-core runner more clients only add queueing, so the sweep
  asserts correctness, sane latency ordering (p99 >= p50) and that
  concurrency does not collapse throughput (worst config >= 0.2x best),
  not linear scaling;
- **WAL ablation** — append throughput from 4 concurrent clients with
  the write-ahead log fsync'd per group commit vs disabled entirely.
  Durability has a price, group commit caps it: the bench records both
  rates plus how many riders each fsync amortized, and asserts the
  coalescing actually happened (commits < acknowledged appends).

The measurement lands in ``BENCH_gateway.json`` (or
``$BENCH_GATEWAY_JSON``).  Run directly
(``python benchmarks/bench_gateway.py``) or via pytest.
"""

import asyncio
import contextlib
import json
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.config import EngineConfig, GatewayConfig
from repro.gateway import DurableStore, Gateway, GatewayClient
from repro.service import percentile

NUM_ROWS = 50_000
QUERIES_PER_CLIENT = 40
CLIENT_SWEEP = (1, 4, 16)
APPEND_CLIENTS = 4
APPENDS_PER_CLIENT = 50
SQL = "SELECT sum(a), max(b), count(*) FROM r WHERE a > 100"


def _artifact_path() -> str:
    return os.environ.get("BENCH_GATEWAY_JSON", "BENCH_gateway.json")


@contextlib.contextmanager
def running_gateway(data_dir, **overrides):
    overrides.setdefault("port", 0)
    overrides.setdefault("snapshot_every_records", 0)
    config = GatewayConfig(**overrides)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    store = DurableStore(
        data_dir,
        engine_config=EngineConfig(),
        gateway_config=config,
        num_workers=2,
    )
    gateway = Gateway(store, config)
    asyncio.run_coroutine_threadsafe(gateway.start(), loop).result(30)
    try:
        yield gateway
    finally:
        asyncio.run_coroutine_threadsafe(
            gateway.close(checkpoint=False), loop
        ).result(120)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


def _seed(client) -> None:
    rng = np.random.default_rng(7)
    client.create_table(
        "r",
        [{"name": "a", "dtype": "int64"}, {"name": "b", "dtype": "int64"}],
        {
            "a": rng.integers(-1000, 1000, size=NUM_ROWS, dtype=np.int64).tolist(),
            "b": rng.integers(-1000, 1000, size=NUM_ROWS, dtype=np.int64).tolist(),
        },
    )


def _query_sweep(port, expected_rows):
    sweep = {}
    for clients in CLIENT_SWEEP:
        latencies = []
        lock = threading.Lock()

        def worker(_):
            mine = []
            with GatewayClient("127.0.0.1", port, timeout=120.0) as client:
                for _ in range(QUERIES_PER_CLIENT):
                    started = time.perf_counter()
                    answer = client.query(SQL)
                    mine.append(time.perf_counter() - started)
                    assert answer["rows"] == expected_rows
            with lock:
                latencies.extend(mine)

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            list(pool.map(worker, range(clients)))
        elapsed = time.perf_counter() - started
        millis = sorted(s * 1e3 for s in latencies)
        sweep[str(clients)] = {
            "clients": clients,
            "queries": len(latencies),
            "qps": len(latencies) / elapsed,
            "p50_ms": percentile(millis, 0.5),
            "p99_ms": percentile(millis, 0.99),
            "elapsed_seconds": elapsed,
        }
    return sweep


def _append_rate(data_dir, wal_enabled):
    with running_gateway(
        data_dir,
        wal_enabled=wal_enabled,
        wal_fsync=wal_enabled,
    ) as gateway:
        port = gateway.port
        with GatewayClient("127.0.0.1", port) as setup:
            setup.create_table(
                "w",
                [{"name": "x", "dtype": "int64"}],
                {"x": []},
            )

        def worker(base):
            with GatewayClient("127.0.0.1", port, timeout=120.0) as client:
                for i in range(APPENDS_PER_CLIENT):
                    client.append("w", {"x": [base * APPENDS_PER_CLIENT + i]})

        started = time.perf_counter()
        with ThreadPoolExecutor(max_workers=APPEND_CLIENTS) as pool:
            list(pool.map(worker, range(APPEND_CLIENTS)))
        elapsed = time.perf_counter() - started
        total = APPEND_CLIENTS * APPENDS_PER_CLIENT
        with GatewayClient("127.0.0.1", port) as check:
            count = int(check.query("SELECT count(*) FROM w")["rows"][0][0])
        stats = gateway.store.stats()
        return {
            "wal_enabled": wal_enabled,
            "appends": total,
            "rows_confirmed": count,
            "appends_per_second": total / elapsed,
            "elapsed_seconds": elapsed,
            "group_commits": stats["wal_group_commits"],
            "fsyncs": stats["wal_fsyncs"],
            "riders_per_commit": (
                stats["wal_records_written"] / stats["wal_group_commits"]
                if stats["wal_group_commits"]
                else 0.0
            ),
        }


def measure():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        with running_gateway(tmp / "query") as gateway:
            port = gateway.port
            with GatewayClient("127.0.0.1", port, timeout=120.0) as client:
                _seed(client)
                expected = client.query(SQL)["rows"]
            sweep = _query_sweep(port, expected)
        wal_on = _append_rate(tmp / "wal_on", wal_enabled=True)
        wal_off = _append_rate(tmp / "wal_off", wal_enabled=False)
    data = {
        "num_rows": NUM_ROWS,
        "sql": SQL,
        "cores": os.cpu_count(),
        "query_sweep": sweep,
        "wal_ablation": {
            "on": wal_on,
            "off": wal_off,
            "durability_cost": (
                wal_off["appends_per_second"] / wal_on["appends_per_second"]
                if wal_on["appends_per_second"]
                else 0.0
            ),
        },
    }
    with open(_artifact_path(), "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    return data


def test_gateway_serving_and_durability():
    data = measure()
    sweep = data["query_sweep"]
    for entry in sweep.values():
        assert entry["qps"] > 0
        assert entry["p99_ms"] >= entry["p50_ms"]
        assert entry["queries"] == entry["clients"] * QUERIES_PER_CLIENT
    best = max(entry["qps"] for entry in sweep.values())
    worst = min(entry["qps"] for entry in sweep.values())
    assert worst >= 0.2 * best, (
        "concurrency collapsed throughput: "
        f"worst={worst:.0f} best={best:.0f} QPS"
    )
    ablation = data["wal_ablation"]
    for side in (ablation["on"], ablation["off"]):
        assert side["rows_confirmed"] == side["appends"]
    on = ablation["on"]
    assert on["group_commits"] < on["appends"] + 1, (
        "group commit never coalesced: "
        f"{on['group_commits']} commits for {on['appends']} appends"
    )
    assert on["fsyncs"] == on["group_commits"]


if __name__ == "__main__":
    result = measure()
    print(json.dumps(result, indent=2, sort_keys=True))
    sweep = result["query_sweep"]
    for key in sorted(sweep, key=int):
        entry = sweep[key]
        print(
            f"{entry['clients']:>2} clients: {entry['qps']:7.0f} QPS  "
            f"p50={entry['p50_ms']:.2f}ms p99={entry['p99_ms']:.2f}ms"
        )
    ablation = result["wal_ablation"]
    print(
        f"appends/s: wal+fsync={ablation['on']['appends_per_second']:.0f} "
        f"({ablation['on']['riders_per_commit']:.1f} riders/commit), "
        f"no-wal={ablation['off']['appends_per_second']:.0f} "
        f"(cost {ablation['durability_cost']:.2f}x)"
    )
