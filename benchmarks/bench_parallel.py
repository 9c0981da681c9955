"""Morsel-parallel scan scaling and pruning.

Two measurements on a >= 1M-row table:

- **thread sweep** — wall time of a scan-heavy aggregation at 1, 2, and
  4 scan threads (the engine's shared pool is swapped per run), plus the
  4v1 speedup ratio;
- **pruning ablation** — a selective (< 5% qualifying) range query over
  a column that arrives sorted, with ``zone_maps`` on vs off: fraction
  of morsels skipped, wall time both ways, and bit-identical answers.

The measurement lands in ``BENCH_parallel.json`` (or
``$BENCH_PARALLEL_JSON``) with a provenance block (git sha, usable
cores, Python and NumPy versions).  Every thread count runs the same
morsel loop (one thread is a pool grant of one), so ``scaling_2v1`` and
``scaling_4v1`` measure threads and nothing else.  The scaling
assertions are honest about the host: parallelism needs parallel
hardware.  Threads: >= 2x for 4v1 only with >= 4 usable cores; below
that the gate is no-collapse + engagement (two shared vCPUs need not
deliver any speedup: plain NumPy reductions on two threads measured
0.82x of serial on the 2-vCPU host that produced the committed
artefact).  The pruning bar — a < 5% qualifying query skips >= 80% of
morsels — holds on any host: pruning is data math, not hardware.

Run directly (``python benchmarks/bench_parallel.py``) or via pytest.
"""

import json
import os
import platform
import subprocess
import time

import numpy as np

from repro.config import EngineConfig, scaled_rows
from repro.core.engine import H2OEngine
from repro.execution.parallel import ScanPool
from repro.storage import Schema, Table

THREAD_COUNTS = (1, 2, 4)
NUM_ROWS = scaled_rows(1_048_576, minimum=1_048_576)
MORSEL_ROWS = 16_384
REPEATS = 5

SCAN_SQL = "SELECT sum(a1 + a2 + a3), min(a4), max(a5) FROM r WHERE a6 > {t}"
SELECTIVE_SQL = "SELECT sum(a2), count(*) FROM r WHERE a1 < {t}"


def _artifact_path() -> str:
    return os.environ.get("BENCH_PARALLEL_JSON", "BENCH_parallel.json")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _git_sha() -> "str | None":
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": _usable_cores(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _make_table() -> Table:
    """1M+ rows, a1 sorted in arrival order (the pruning target),
    random a2..a6."""
    rng = np.random.default_rng(41)
    columns = {"a1": np.arange(NUM_ROWS, dtype=np.int64)}
    for i in range(2, 7):
        columns[f"a{i}"] = rng.integers(
            -(10**9), 10**9, size=NUM_ROWS, dtype=np.int64
        )
    schema = Schema.from_names(tuple(columns))
    return Table.from_columns("r", schema, columns, "column")


def _config(**overrides) -> EngineConfig:
    knobs = dict(
        morsel_rows=MORSEL_ROWS,
        max_scan_threads=4,
        # Keep the sweep about scan time: no adaptation churn mid-run.
        window_size=10**6,
        min_window=10**6,
        max_window=10**6,
    )
    knobs.update(overrides)
    return EngineConfig(**knobs)


def _time_best(engine: H2OEngine, sql_template: str) -> dict:
    """Best-of-N wall time (plus the report of the final run)."""
    best = float("inf")
    report = None
    for i in range(REPEATS):
        sql = sql_template.format(t=0)
        started = time.perf_counter()
        report = engine.execute(sql)
        best = min(best, time.perf_counter() - started)
    return {"seconds": best, "report": report}


def _measure_threads(table: Table) -> list:
    sweep = []
    for threads in THREAD_COUNTS:
        engine = H2OEngine(table, _config())
        engine.executor.scan_pool = ScanPool(max_threads=threads)
        engine.execute(SCAN_SQL.format(t=0))  # warm: plan + kernel cached
        timing = _time_best(engine, SCAN_SQL)
        report = timing["report"]
        sweep.append(
            {
                "threads": threads,
                "seconds": timing["seconds"],
                "rows_per_second": NUM_ROWS / timing["seconds"],
                "scan_threads_used": report.scan_threads_used,
                "parallel_scan": report.parallel_scan,
                "morsels_total": report.morsels_total,
                "answer": list(report.result.scalars()),
            }
        )
    return sweep


def _measure_pruning(table: Table) -> dict:
    # < 5% qualifying: a1 < NUM_ROWS // 25.  a1 arrives sorted, so the
    # zone maps alone confine the scan to the leading morsels.
    threshold = NUM_ROWS // 25
    sql = SELECTIVE_SQL.format(t=threshold)
    runs = {}
    for label, zone_maps in (("pruned", True), ("unpruned", False)):
        engine = H2OEngine(table, _config(zone_maps=zone_maps))
        engine.executor.scan_pool = ScanPool(max_threads=4)
        engine.execute(sql)  # warm: plan + kernel cached
        best = float("inf")
        report = None
        for _ in range(REPEATS):
            started = time.perf_counter()
            report = engine.execute(sql)
            best = min(best, time.perf_counter() - started)
        runs[label] = {
            "seconds": best,
            "morsels_total": report.morsels_total,
            "morsels_pruned": report.morsels_pruned,
            "answer": list(report.result.scalars()),
        }
    pruned = runs["pruned"]
    total = max(1, pruned["morsels_total"])
    return {
        "sql": sql,
        "qualifying_fraction": threshold / NUM_ROWS,
        "pruned": pruned,
        "unpruned": runs["unpruned"],
        "pruned_fraction": pruned["morsels_pruned"] / total,
        "speedup": runs["unpruned"]["seconds"] / pruned["seconds"],
        "answers_identical": pruned["answer"] == runs["unpruned"]["answer"],
    }


def measure() -> dict:
    table = _make_table()
    sweep = _measure_threads(table)
    by_threads = {entry["threads"]: entry for entry in sweep}
    data = {
        "provenance": provenance(),
        "cores": _usable_cores(),
        "num_rows": NUM_ROWS,
        "morsel_rows": MORSEL_ROWS,
        "sweep": sweep,
        "scaling_4v1": by_threads[1]["seconds"] / by_threads[4]["seconds"],
        "scaling_2v1": by_threads[1]["seconds"] / by_threads[2]["seconds"],
        "pruning": _measure_pruning(table),
    }
    with open(_artifact_path(), "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    return data


def test_parallel_scan_scales_and_prunes():
    data = measure()
    sweep = {entry["threads"]: entry for entry in data["sweep"]}
    # Identical answers at every thread count (bit-identity bar).
    answers = {tuple(entry["answer"]) for entry in data["sweep"]}
    assert len(answers) == 1, f"thread count changed the answer: {answers}"
    ratio = data["scaling_4v1"]
    if data["cores"] >= 4:
        assert ratio >= 2.0, (
            f"4-thread scan only {ratio:.2f}x of 1-thread on "
            f"{data['cores']} cores"
        )
    else:
        # Too few cores for a speedup bar (one core cannot, two shared
        # vCPUs need not): require that fan-out does not collapse the
        # scan and actually engaged.
        assert ratio >= 0.5, (
            f"morsel fan-out collapsed the scan to {ratio:.2f}x on "
            f"{data['cores']} core(s)"
        )
    assert sweep[4]["parallel_scan"], "4-thread run never went parallel"
    assert sweep[4]["scan_threads_used"] >= 2
    assert sweep[1]["scan_threads_used"] == 1
    pruning = data["pruning"]
    assert pruning["answers_identical"], "pruning changed the answer"
    assert pruning["pruned_fraction"] >= 0.8, (
        f"selective query only skipped {pruning['pruned_fraction']:.0%} "
        "of morsels"
    )
    assert pruning["unpruned"]["morsels_pruned"] == 0


if __name__ == "__main__":
    result = measure()
    print(json.dumps(result, indent=2, sort_keys=True))
    for entry in result["sweep"]:
        print(
            f"{entry['threads']} threads: {entry['seconds'] * 1e3:8.1f} ms  "
            f"({entry['rows_per_second'] / 1e6:6.1f} Mrows/s, "
            f"used {entry['scan_threads_used']})"
        )
    pruning = result["pruning"]
    print(
        f"\n4v1 scaling: {result['scaling_4v1']:.2f}x on "
        f"{result['cores']} core(s); pruning skipped {pruning['pruned_fraction']:.0%} of morsels "
        f"({pruning['speedup']:.2f}x vs unpruned)"
    )
