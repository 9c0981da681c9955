"""Self-test of the benchmark harness at ``--smoke`` scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` (not part of
the tier-1 suite, whose ``testpaths`` is ``tests``).
"""

import itertools
import json
import subprocess
import sys
from pathlib import Path

import pytest

from . import ROOT, load_spec
from .compare import compare, verdict
from .loadgen import Sample
from .probes import span_problems
from .serve import Served, check_queries
from .workloads import (
    QUERY_SHAPES,
    IngestLedger,
    ServeReference,
    append_stream,
    query_stream,
    rows_equal,
    serve_columns,
)

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """The full set once at smoke scale: (results, wall seconds)."""
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e.run", "--smoke", "--seed", "3", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(out.read_text()), done.stdout


def _runs(results, trace):
    return {r["workload"]: r for r in results["runs"] if r["trace"] == trace}


def test_every_metric_is_emitted_with_its_unit(smoke):
    results, _ = smoke
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        runs = _runs(results, trace)
        assert sorted(runs) == sorted(WORKLOADS)
        for run in runs.values():
            assert set(run["metrics"]) == {e["name"] for e in SPEC[key]}
            for entry in SPEC[key]:
                assert run["metrics"][entry["name"]]["unit"] == entry["unit"]
    for run in _runs(results, 0).values():
        assert all(m["value"] > 0 for m in run["metrics"].values()), run


def test_no_op_failed_and_no_acked_row_was_lost(smoke):
    results, _ = smoke
    for run in results["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] > 0
    ingest = _runs(results, 1)["ingest-mixed"]["metrics"]
    assert ingest["gateway.acked_rows_lost"]["value"] == 0
    assert ingest["bench.failed_ops_frac"]["value"] == 0
    assert ingest["gateway.append_p50_ms"]["value"] > 0


def test_results_record_where_they_came_from(smoke):
    results, stdout = smoke
    for key in ("seed", "git_sha", "nproc", "python", "numpy"):
        assert key in results["provenance"]
    for run in results["runs"]:
        assert run["wall_s"] > 0 and run["samples"]
    assert "query_p95_ms" in stdout and "bound" in stdout


def test_smoke_set_is_quick(smoke):
    results, _ = smoke
    assert sum(run["wall_s"] for run in results["runs"]) < 30


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_share_an_op_id(smoke, workload):
    trace = json.loads(
        (Path(__file__).parent / "out" / f"trace-{workload}.json").read_text()
    )
    spans = trace["spans"]
    assert spans and trace["workload"] == workload
    assert span_problems(spans) == []
    assert any(span["parent"] for span in spans)
    broken = [dict(span) for span in spans]
    child = next(span for span in broken if span["parent"])
    child["end"] += 3600.0
    assert span_problems(broken)


@pytest.mark.parametrize("workload", sorted(QUERY_SHAPES))
def test_indexed_reference_agrees_with_boolean_masks(workload):
    columns = serve_columns(workload, seed=11, smoke=True)
    reference = ServeReference(columns)
    ops = list(itertools.islice(query_stream(workload, 11, 0, columns), 80))
    assert {op.shape for op in ops} == set(QUERY_SHAPES[workload])
    for op in ops:
        if op.shape != "all":  # the writer's ledger answers that one
            assert rows_equal(reference.brute(op), reference.expect(op)), op


def test_a_wrong_answer_is_counted():
    columns = serve_columns("steady-serve", seed=5, smoke=True)
    reference = ServeReference(columns)
    ops = list(itertools.islice(query_stream("steady-serve", 5, 0, columns), 40))
    samples = [
        Sample(op, 0.0, 1e-3, payload={"rows": reference.brute(op)}) for op in ops
    ]
    served = Served("steady-serve", 5, columns, Path("."), None, 0.0)
    assert check_queries(served, samples) == 0
    wrong = next(s for s in samples if s.op.shape == "agg3")
    wrong.payload["rows"][0][0] += 1.0
    assert check_queries(served, samples) == 1
    samples[0].error = "timeout"
    assert check_queries(served, samples) == 2


def test_ledger_accepts_only_a_prefix_inside_the_window():
    columns = serve_columns("ingest-mixed", seed=2, smoke=True)
    ledger = IngestLedger(columns)
    batches = list(itertools.islice(append_stream(2, 0, len(columns)), 3))
    for batch in batches:
        ledger.note_submitted(batch)
    assert [ledger.batches_in(ledger.expect(k)[0]) for k in range(4)] == [0, 1, 2, 3]
    count, total = ledger.expect(2)[0]
    assert ledger.batches_in([count, total + 1]) == -1
    assert ledger.batches_in([count + 1, total]) == -1
    served = Served("ingest-mixed", 2, columns, Path("."), None, 0.0)
    op = next(
        op for op in query_stream("ingest-mixed", 2, 0, columns) if op.shape == "all"
    )
    stale = Sample(op, 0.0, 1e-3, payload={"rows": ledger.expect(1)}, window=(2, 3))
    assert check_queries(served, [stale], ledger) == 1
    fresh = Sample(op, 0.0, 1e-3, payload={"rows": ledger.expect(2)}, window=(2, 3))
    assert check_queries(served, [fresh], ledger) == 0


def test_compare_verdicts():
    assert verdict([10, 10, 10], [10.5], "lower", 0.1)[-1] == "ok"
    assert verdict([10, 10, 10], [12], "lower", 0.1)[-1] == "regressed"
    assert verdict([10, 10, 10], [8], "higher", 0.1)[-1] == "regressed"
    assert verdict([10, 10, 10], [12], "higher", 0.1)[-1] == "ok"
    assert verdict([8, 10, 12, 14], [20], "lower", 0.1)[-1] == "unresolved"
    run = {
        "workload": "steady-serve",
        "trace": 0,
        "metrics": {"query_p50_ms": {"value": 3.0, "unit": "ms"}},
    }
    slow = json.loads(json.dumps(run))
    slow["metrics"]["query_p50_ms"]["value"] = 4.0
    rows = compare({"runs": [run]}, {"runs": [slow]}, SPEC)
    assert [r["verdict"] for r in rows] == ["regressed"]
