"""Adaptive clustering + encoded layouts: the bytes-per-scan story.

Three physical states of the same >= 1M-row table, same logical bytes:

- **shuffled** — rows in a seeded random order: zone maps exist but a
  selective range query can prune (almost) nothing;
- **clustered** — the adaptive engine, hands-free, sorts the table on
  the hot predicate column mid-stream; the same query then skips >= 90%
  of morsels with bit-identical answers;
- **clustered + encoded** — both knobs on: the engine additionally
  materializes an encoded (dictionary / bit-packed) replica of the
  low-cardinality probe column, and the compiled equality scan runs
  over 1-byte codes instead of 8-byte values.

A separate **encoded probe** isolates the codec speedup from the
advisor: the same equality scan over an explicit encoded replica vs the
plain column, min-of-``TRIALS`` wall time both ways.

Gates (all data math, honest on any host — the scan pool uses 4
threads only when the host has >= 4 usable cores, else it stays
serial, and no gate depends on the thread count):

- shuffled ``pruned_fraction`` < 0.1 and clustered >= 0.9, answers
  bit-identical across all three states;
- the hands-free run must actually materialize an encoded replica of
  the low-cardinality column;
- the encoded equality scan is >= 1.3x the plain scan (8 bytes -> 1
  byte per scanned value; bandwidth math, not hardware).

The measurement lands in ``BENCH_clustering.json`` (or
``$BENCH_CLUSTERING_JSON``).  Run directly
(``python benchmarks/bench_clustering.py``) or via pytest.
"""

import json
import os
import time

import numpy as np

from repro.config import EngineConfig, scaled_rows
from repro.core.engine import H2OEngine
from repro.execution.parallel import ScanPool
from repro.storage import Schema, Table
from repro.storage.encoded_layout import encode_column
from repro.storage.generator import shuffle_columns
from repro.storage.layout import LayoutKind

NUM_ROWS = scaled_rows(1_048_576, minimum=1_048_576)
MORSEL_ROWS = 16_384
TRIALS = 2
LOW_CARDINALITY = 50

SELECTIVE_SQL = "SELECT sum(a3), count(*) FROM r WHERE a1 < {t}"
# COUNT-only keeps the probe about scanned bytes: the count-mask late
# path needs no selection vector, so predicate evaluation over 1-byte
# codes vs 8-byte values is the whole scan.
EQUALITY_SQL = "SELECT count(*) FROM r WHERE a2 = 7"


def _artifact_path() -> str:
    return os.environ.get("BENCH_CLUSTERING_JSON", "BENCH_clustering.json")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _scan_threads() -> int:
    return 4 if _usable_cores() >= 4 else 1


def _make_shuffled_table() -> Table:
    """a1 clustered-by-construction then shuffled; a2 low-cardinality."""
    rng = np.random.default_rng(29)
    columns = {
        "a1": np.arange(NUM_ROWS, dtype=np.int64),
        "a2": rng.integers(0, LOW_CARDINALITY, size=NUM_ROWS, dtype=np.int64),
        "a3": rng.integers(-(10**9), 10**9, size=NUM_ROWS, dtype=np.int64),
        "a4": rng.integers(-(10**9), 10**9, size=NUM_ROWS, dtype=np.int64),
    }
    columns = shuffle_columns(columns, rng)
    schema = Schema.from_names(tuple(columns))
    return Table.from_columns("r", schema, columns, "column")


def _config(**overrides) -> EngineConfig:
    knobs = dict(
        morsel_rows=MORSEL_ROWS,
        max_scan_threads=_scan_threads(),
        # Static runs: no adaptation churn unless a sweep turns it on.
        window_size=10**6,
        max_window=10**6,
        dynamic_window=False,
    )
    knobs.update(overrides)
    return EngineConfig(**knobs)


_ADAPT_KNOBS = dict(
    window_size=4,
    min_window=2,
    max_window=12,
    dynamic_window=True,
    amortization_threshold=0.1,
    adaptive_clustering=True,
    cluster_rows_min=1024,
)


def _engine(table: Table, **overrides) -> H2OEngine:
    engine = H2OEngine(table, _config(**overrides))
    engine.executor.scan_pool = ScanPool(max_threads=_scan_threads())
    return engine


def _time_best(engine: H2OEngine, sql: str) -> dict:
    best = float("inf")
    report = None
    for _ in range(TRIALS):
        started = time.perf_counter()
        report = engine.execute(sql)
        best = min(best, time.perf_counter() - started)
    return {
        "seconds": best,
        "morsels_total": report.morsels_total,
        "morsels_pruned": report.morsels_pruned,
        "pruned_fraction": (
            report.morsels_pruned / max(1, report.morsels_total)
        ),
        "answer": list(report.result.scalars()),
    }


def _measure_shuffled(sql: str) -> dict:
    engine = _engine(_make_shuffled_table())
    engine.execute(sql)  # warm: plan + kernel cached
    return _time_best(engine, sql)


def _measure_clustered(sql: str) -> dict:
    """Hands-free: drive the selective query until the engine clusters."""
    engine = _engine(_make_shuffled_table(), **_ADAPT_KNOBS)
    queries_to_cluster = 0
    for _ in range(30):
        if engine.table.cluster_key == "a1":
            break
        queries_to_cluster += 1
        engine.execute(sql)
    run = _time_best(engine, sql)
    run["queries_to_cluster"] = queries_to_cluster
    run["cluster_key"] = engine.table.cluster_key
    run["clustered_fraction"] = engine.table.clustered_fraction
    return run


def _measure_clustered_encoded(selective_sql: str, equality_sql: str) -> dict:
    """Both knobs on; a mixed stream must cluster *and* encode."""
    engine = _engine(
        _make_shuffled_table(),
        encoded_layouts=True,
        encoding_min_rows=1024,
        **_ADAPT_KNOBS,
    )
    queries_driven = 0
    for _ in range(40):
        encoded = any(
            layout.kind is LayoutKind.ENCODED and layout.attrs == ("a2",)
            for layout in engine.table.layouts
        )
        if engine.table.cluster_key == "a1" and encoded:
            break
        queries_driven += 1
        engine.execute(selective_sql)
        engine.execute(equality_sql)
    run = _time_best(engine, equality_sql)
    run["selective"] = _time_best(engine, selective_sql)
    run["queries_driven"] = queries_driven
    run["cluster_key"] = engine.table.cluster_key
    run["clustered_fraction"] = engine.table.clustered_fraction
    run["layouts"] = [layout.describe() for layout in engine.table.layouts]
    run["encoded_materialized"] = any(
        layout.kind is LayoutKind.ENCODED for layout in engine.table.layouts
    )
    return run


def _measure_encoded_probe(sql: str) -> dict:
    """Codec speedup in isolation: plain vs explicit encoded replica."""
    plain = _engine(_make_shuffled_table())
    plain.execute(sql)
    plain_run = _time_best(plain, sql)

    table = _make_shuffled_table()
    replica = encode_column("a2", table.column("a2"))
    assert replica is not None, "low-cardinality column refused to encode"
    table.add_layout(replica)
    encoded = _engine(table)
    encoded.execute(sql)
    encoded_run = _time_best(encoded, sql)
    return {
        "sql": sql,
        "encoding": replica.describe(),
        "plain": plain_run,
        "encoded": encoded_run,
        "speedup": plain_run["seconds"] / encoded_run["seconds"],
        "answers_identical": plain_run["answer"] == encoded_run["answer"],
    }


def measure() -> dict:
    threshold = NUM_ROWS // 25
    selective_sql = SELECTIVE_SQL.format(t=threshold)
    shuffled = _measure_shuffled(selective_sql)
    clustered = _measure_clustered(selective_sql)
    clustered_encoded = _measure_clustered_encoded(
        selective_sql, EQUALITY_SQL
    )
    encoded_probe = _measure_encoded_probe(EQUALITY_SQL)
    data = {
        "cores": _usable_cores(),
        "scan_threads": _scan_threads(),
        "num_rows": NUM_ROWS,
        "morsel_rows": MORSEL_ROWS,
        "trials": TRIALS,
        "selective_sql": selective_sql,
        "qualifying_fraction": threshold / NUM_ROWS,
        "shuffled": shuffled,
        "clustered": clustered,
        "clustered_encoded": clustered_encoded,
        "encoded_probe": encoded_probe,
        "clustering_speedup": shuffled["seconds"] / clustered["seconds"],
        "answers_identical": (
            shuffled["answer"]
            == clustered["answer"]
            == clustered_encoded["selective"]["answer"]
        ),
    }
    with open(_artifact_path(), "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    return data


def test_clustering_and_encoding_gates():
    data = measure()
    assert data["answers_identical"], (
        "physical state changed the selective answer"
    )
    assert data["shuffled"]["pruned_fraction"] < 0.1, (
        f"shuffled rows should start nearly unprunable, got "
        f"{data['shuffled']['pruned_fraction']:.0%}"
    )
    assert data["clustered"]["cluster_key"] == "a1", (
        "adaptive clustering never fired on the hot column"
    )
    assert data["clustered"]["pruned_fraction"] >= 0.9, (
        f"clustering only lifted pruning to "
        f"{data['clustered']['pruned_fraction']:.0%}"
    )
    assert data["clustered_encoded"]["encoded_materialized"], (
        "hands-free run never materialized an encoded replica: "
        f"{data['clustered_encoded']['layouts']}"
    )
    probe = data["encoded_probe"]
    assert probe["answers_identical"], "encoding changed the answer"
    assert probe["speedup"] >= 1.3, (
        f"encoded equality scan only {probe['speedup']:.2f}x of plain "
        f"({probe['encoding']})"
    )


if __name__ == "__main__":
    result = measure()
    print(json.dumps(result, indent=2, sort_keys=True))
    probe = result["encoded_probe"]
    print(
        f"\npruning: {result['shuffled']['pruned_fraction']:.0%} shuffled "
        f"-> {result['clustered']['pruned_fraction']:.0%} clustered "
        f"({result['clustering_speedup']:.2f}x, "
        f"{result['clustered']['queries_to_cluster']} queries to cluster); "
        f"encoded equality scan {probe['speedup']:.2f}x of plain "
        f"({probe['encoding']})"
    )
