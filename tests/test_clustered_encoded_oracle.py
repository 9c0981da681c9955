"""The ninth differential-oracle path and its restart-recovery story.

- **20-sequence smoke** — seeded random workloads through
  ``adaptive-clustered-encoded``: clustering may permute row order and
  dictionary/bit-packed replicas may materialize mid-sequence, yet
  aggregations stay bit-identical to the row reference, projections stay
  multiset-identical, zone maps recompute exactly, and the switch
  ledger balances.
- **restart recovery** — a :class:`DurableStore` with both knobs on
  clusters and encodes, checkpoints, and is reopened: the physical row
  permutation, the cluster telemetry, and the encoded replica (same
  codec, same signature) must all survive, and probe queries must
  answer bit-identically across the restart.
- The multiset comparator itself is exercised on adversarial payloads
  (NaN, ``-0.0``) so the ninth path's weaker-ordering compare is known
  to stay bit-exact in every other respect.
"""

import numpy as np
import pytest

from repro.config import EngineConfig, GatewayConfig
from repro.execution.result import QueryResult
from repro.gateway.persist import DurableStore
from repro.storage.generator import shuffle_columns
from repro.storage.layout import LayoutKind
from repro.testkit.generate import random_case
from repro.testkit.oracle import (
    CLEAN_MODES,
    DifferentialOracle,
    results_multiset_identical,
)

pytestmark = pytest.mark.oracle

SEED_CHUNKS = [range(0, 5), range(5, 10), range(10, 15), range(15, 20)]


def test_clustered_encoded_is_a_clean_mode():
    assert "adaptive-clustered-encoded" in CLEAN_MODES
    assert len(CLEAN_MODES) == 8  # + the row reference: nine paths


@pytest.mark.parametrize("seeds", SEED_CHUNKS, ids=lambda r: f"seeds{r.start}-{r.stop - 1}")
def test_clustered_encoded_smoke(seeds):
    oracle = DifferentialOracle(with_faults=False)
    for seed in seeds:
        spec = random_case(seed)
        expected = oracle.reference_results(spec)
        oracle._run_adaptive_clustered_encoded(spec, expected)


def _result(columns, rows):
    return QueryResult(
        column_names=tuple(columns),
        data=np.asarray(rows, dtype=np.float64),
    )


def test_multiset_compare_is_order_insensitive_but_bit_exact():
    a = _result(("x", "y"), [[1.0, -0.0], [np.nan, 2.0]])
    b = _result(("x", "y"), [[np.nan, 2.0], [1.0, -0.0]])
    assert results_multiset_identical(a, b)
    # -0.0 vs +0.0 differ in bits: the comparator must notice.
    c = _result(("x", "y"), [[np.nan, 2.0], [1.0, 0.0]])
    assert not results_multiset_identical(a, c)
    # Same multiset of values in the wrong columns is not equal.
    d = _result(("x", "y"), [[-0.0, 1.0], [2.0, np.nan]])
    assert not results_multiset_identical(a, d)
    assert not results_multiset_identical(
        a, _result(("x", "z"), [[1.0, -0.0], [np.nan, 2.0]])
    )


# Restart recovery -----------------------------------------------------------

ROWS = 8_000
SELECTIVE_SQL = f"SELECT sum(a3), count(*) FROM r WHERE a1 < {ROWS // 50}"
EQUALITY_SQL = "SELECT count(*) FROM r WHERE a2 = 7"

STORE_CONFIG = EngineConfig(
    window_size=4,
    min_window=2,
    max_window=12,
    amortization_threshold=0.1,
    adaptive_clustering=True,
    encoded_layouts=True,
    cluster_rows_min=256,
    encoding_min_rows=256,
    vector_size=512,
    morsel_rows=512,
)


def _open_store(data_dir) -> DurableStore:
    return DurableStore(
        data_dir,
        engine_config=STORE_CONFIG,
        gateway_config=GatewayConfig(
            wal_enabled=True,
            wal_fsync=False,
            snapshot_every_records=0,  # manual checkpoint only
            default_timeout=60.0,
        ),
        num_workers=2,
    )


def _encoded_layouts(engine):
    return [
        layout
        for layout in engine.table.layouts
        if layout.kind is LayoutKind.ENCODED
    ]


def test_restart_recovers_permutation_and_encoding(tmp_path):
    rng = np.random.default_rng(23)
    columns = shuffle_columns(
        {
            "a1": np.arange(ROWS, dtype=np.int64),
            "a2": rng.integers(0, 50, ROWS, dtype=np.int64),
            "a3": rng.integers(-1000, 1000, ROWS, dtype=np.int64),
        },
        rng,
    )
    store = _open_store(tmp_path)
    try:
        store.create_table(
            "r", [("a1", "int64"), ("a2", "int64"), ("a3", "int64")], columns
        )
        engine = store.system.engine_for("r")
        for _ in range(25):
            if engine.table.cluster_key == "a1" and _encoded_layouts(engine):
                break
            store.execute(SELECTIVE_SQL)
            store.execute(EQUALITY_SQL)
        assert engine.table.cluster_key == "a1"
        encoded_before = _encoded_layouts(engine)
        assert encoded_before, "encoded replica never materialized"
        signatures_before = sorted(
            (layout.attrs, layout.encoding_signature())
            for layout in encoded_before
        )
        clustered_rows_before = engine.table.clustered_rows
        a1_before = engine.table.column("a1").copy()
        answers_before = (
            store.execute(SELECTIVE_SQL).result.data.tobytes(),
            store.execute(EQUALITY_SQL).result.data.tobytes(),
        )
        store.checkpoint()
    finally:
        store.close(checkpoint=True)

    reopened = _open_store(tmp_path)
    try:
        engine = reopened.system.engine_for("r")
        # The physical permutation is baked into the persisted columns.
        assert np.array_equal(engine.table.column("a1"), a1_before)
        assert engine.table.cluster_key == "a1"
        assert engine.table.clustered_rows == clustered_rows_before
        # The encoded replica was rebuilt deterministically (same codec,
        # same burned-in signature => compiled kernels are reusable).
        signatures_after = sorted(
            (layout.attrs, layout.encoding_signature())
            for layout in _encoded_layouts(engine)
        )
        assert signatures_after == signatures_before
        answers_after = (
            reopened.execute(SELECTIVE_SQL).result.data.tobytes(),
            reopened.execute(EQUALITY_SQL).result.data.tobytes(),
        )
        assert answers_after == answers_before
    finally:
        reopened.close(checkpoint=False)