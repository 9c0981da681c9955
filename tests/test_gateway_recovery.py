"""Restart-recovery: the crash oracle plus targeted learned-state checks.

The oracle (repro/testkit/restart.py) kills a durable store mid-workload
and demands bit-identical answers and an intact adaptation state after
recovery.  The targeted test drives an engine through a real adaptation
ramp (repeated projection shape → materialized column group → grown
window → warm plan cache) and asserts each piece survives a checkpoint +
SIGKILL-equivalent + recovery.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.config import EngineConfig, GatewayConfig
from repro.errors import SnapshotError
from repro.gateway.persist import DurableStore, list_snapshots
from repro.testkit.restart import restart_case

pytestmark = pytest.mark.oracle


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 8])
def test_restart_oracle(seed, tmp_path):
    evidence = restart_case(seed, base_dir=tmp_path)
    assert evidence.ops > 0
    assert evidence.queries_compared > 0


def test_learned_state_survives_recovery(tmp_path):
    """The tentpole's core claim, stated directly: recovery restores the
    *learned* store, not just the rows."""
    config = EngineConfig(window_size=10, min_window=4, max_window=30)
    gateway_config = GatewayConfig(snapshot_every_records=0)

    def open_store():
        return DurableStore(
            tmp_path / "d",
            engine_config=config,
            gateway_config=gateway_config,
            num_workers=1,
        )

    rng = np.random.default_rng(42)
    store = open_store()
    store.create_table(
        "t",
        [("a", "int64"), ("b", "int64"), ("c", "int64"), ("d", "int64")],
        {
            name: rng.integers(-500, 500, size=2000, dtype=np.int64)
            for name in "abcd"
        },
    )
    # Ramp: one repeated shape makes (a, b) hot together.
    for i in range(40):
        store.execute(f"SELECT a, b FROM t WHERE a > {i * 7 % 300}")
    engine = store.system.engine_for("t")
    window_size = engine.window.size
    queries_seen = engine.monitor.queries_seen
    affinity = engine.monitor.select_affinity.matrix.copy()
    layouts = sorted(
        tuple(l.attrs) for l in store.system.catalog.get("t").layouts
    )
    assert ("a", "b") in layouts  # the ramp actually materialized a group
    assert window_size != config.window_size  # and the window moved

    store.checkpoint()
    # Post-checkpoint activity lives only in the WAL tail.
    store.append(
        "t", {name: rng.integers(-500, 500, size=5) for name in "abcd"}
    )
    expected = store.execute("SELECT a, b FROM t WHERE a > 7").result.data
    store.abandon()  # SIGKILL-equivalent

    recovered = open_store()
    try:
        stats = recovered.stats()
        assert stats["recovered"]
        assert stats["replayed_records"] == 1  # the tail append

        engine = recovered.system.engine_for("t")
        assert engine.window.size == window_size
        assert engine.monitor.queries_seen == queries_seen
        assert np.array_equal(
            engine.monitor.select_affinity.matrix, affinity
        )
        recovered_layouts = sorted(
            tuple(l.attrs)
            for l in recovered.system.catalog.get("t").layouts
        )
        assert recovered_layouts == layouts

        # Warm plan cache: the very first repeat of the ramped shape
        # hits, i.e. the adaptation ramp was not re-paid.
        report = recovered.execute("SELECT a, b FROM t WHERE a > 7")
        assert report.plan_cache_hit
        assert report.result.data.tobytes() == expected.tobytes()
    finally:
        recovered.close(checkpoint=False)


def test_guarded_policy_ledger_survives_recovery(tmp_path):
    """The switching policy's debt ledger is learned state too: a
    hedged store that accrued (and deferred) toward a candidate must
    not restart its accrual from zero after a crash."""
    config = EngineConfig(
        window_size=6,
        min_window=3,
        max_window=18,
        hedging_factor=1e9,  # high enough that the ramp only defers
    )
    gateway_config = GatewayConfig(snapshot_every_records=0)

    def open_store():
        return DurableStore(
            tmp_path / "d",
            engine_config=config,
            gateway_config=gateway_config,
            num_workers=1,
        )

    rng = np.random.default_rng(7)
    store = open_store()
    store.create_table(
        "t",
        [("a", "int64"), ("b", "int64"), ("c", "int64"), ("d", "int64")],
        {
            name: rng.integers(-500, 500, size=2000, dtype=np.int64)
            for name in "abcd"
        },
    )
    for i in range(40):
        store.execute(f"SELECT a, b FROM t WHERE a > {i * 7 % 300}")
    engine = store.system.engine_for("t")
    exported = engine.policy.export()
    assert engine.policy.hedging_factor == 1e9
    assert engine.policy.deferrals > 0  # the guard actually refused
    assert exported["entries"]  # and accrued toward the candidate

    store.checkpoint()
    store.abandon()  # SIGKILL-equivalent

    recovered = open_store()
    try:
        engine = recovered.system.engine_for("t")
        assert engine.policy.export() == exported
        # The restored ledger keeps accruing (not a frozen snapshot):
        # once the next adaptation run re-proposes the hot candidate,
        # more of the same shape strictly grows its entry.  (Recovery
        # clears the candidate pool, so run past an adaptation window.)
        before = max(
            e.accrued for e in engine.policy.ledger.values()
        )
        for i in range(40):
            recovered.execute(
                f"SELECT a, b FROM t WHERE a > {i * 11 % 300}"
            )
        after = max(
            e.accrued for e in engine.policy.ledger.values()
        )
        assert after > before
    finally:
        recovered.close(checkpoint=False)


def test_recovery_without_adaptation_seeding(tmp_path):
    """seed_adaptation=False still recovers rows (state is optional)."""
    store = DurableStore(tmp_path / "d", num_workers=1)
    store.create_table("t", [("a", "int64")], {"a": [1, 2, 3]})
    store.execute("SELECT sum(a) FROM t")
    store.close(checkpoint=True)
    recovered = DurableStore(
        tmp_path / "d", num_workers=1, seed_adaptation=False
    )
    try:
        result = recovered.execute("SELECT sum(a) FROM t").result
        assert result.data.tolist() == [[6]]
        # only the verification query above — nothing was re-seeded
        assert recovered.system.engine_for("t").monitor.queries_seen == 1
    finally:
        recovered.close(checkpoint=False)


def _old_format_checkpoint(tmp_path):
    """A checkpointed store whose snapshot is rewritten, by hand, in the
    format older versions wrote: an encoded-replica layout descriptor,
    row-order bookkeeping in the adaptation state, and non-group ledger
    entries.  Returns (data_dir, answers before the crash, layouts,
    path of the rewritten state.json)."""
    data_dir = tmp_path / "d"
    store = DurableStore(data_dir, num_workers=1)
    rng = np.random.default_rng(3)
    store.create_table(
        "t",
        [("a", "int64"), ("b", "int64"), ("c", "float64")],
        {
            "a": rng.integers(-50, 50, size=3000, dtype=np.int64),
            "b": rng.integers(-9, 9, size=3000, dtype=np.int64),
            "c": rng.integers(-7, 7, size=3000).astype(np.float64),
        },
    )
    for i in range(12):
        store.execute(f"SELECT a, b FROM t WHERE a > {i}")
    answers = {
        sql: store.execute(sql).result.data.tobytes()
        for sql in OLD_FORMAT_SQL
    }
    layouts = sorted(l.attrs for l in store.system.catalog.get("t").layouts)
    store.checkpoint()
    store.abandon()

    (_, _, snap_dir), = list_snapshots(data_dir / "snapshots")
    state_path = snap_dir / "state.json"
    state = json.loads(state_path.read_text())
    table = state["tables"]["t"]
    table["layouts"] += [
        {"kind": "encoded", "attrs": ["b"], "codec": "pack"},
        {"kind": "encoded", "attrs": ["c"], "codec": "dict"},
    ]
    adaptation = table["adaptation"]
    adaptation.update({"cluster_key": "a", "clustered_rows": 3000})
    policy = adaptation.setdefault("policy", {})
    policy["entries"] = [
        {"attrs": ["a", "b"], "kind": "group", "accrued": 1.5},
        {"attrs": ["a"], "kind": "cluster", "accrued": 9.0},
        {"attrs": ["b"], "kind": "encode", "accrued": 4.0},
    ]
    state_path.write_text(json.dumps(state))
    return data_dir, answers, layouts, state_path


OLD_FORMAT_SQL = (
    "SELECT count(*), sum(b), max(c) FROM t WHERE a < 10",
    "SELECT a, b FROM t WHERE a > 3",
    "SELECT sum(c), min(a) FROM t WHERE b = 2",
)


def test_restore_reads_checkpoints_with_row_order_and_replica_state(tmp_path):
    """Checkpoints written while the engine could sort rows and add
    encoded replicas must still recover.  Replicas were additive, so the
    plain layouts still cover every attribute; recovery drops them and
    ignores the row-order bookkeeping and non-group ledger entries."""
    data_dir, answers, layouts, _ = _old_format_checkpoint(tmp_path)
    recovered = DurableStore(data_dir, num_workers=1)
    try:
        assert recovered.stats()["recovered"]
        table = recovered.system.catalog.get("t")
        assert sorted(l.attrs for l in table.layouts) == layouts
        ledger = recovered.system.engine_for("t").policy.ledger
        assert list(ledger) == [frozenset(("a", "b"))]
        for sql, want in answers.items():
            got = recovered.execute(sql).result.data
            assert got.tobytes() == want, sql
    finally:
        recovered.close(checkpoint=False)


def test_restore_still_rejects_an_unknown_layout_kind(tmp_path):
    data_dir, _, _, state_path = _old_format_checkpoint(tmp_path)
    state = json.loads(state_path.read_text())
    state["tables"]["t"]["layouts"].append({"kind": "bogus", "attrs": ["a"]})
    state_path.write_text(json.dumps(state))
    with pytest.raises(SnapshotError, match="unknown layout kind"):
        DurableStore(data_dir, num_workers=1)


def test_recovers_a_snapshot_in_the_older_deflated_int64_format(tmp_path):
    """Snapshots used to hold every column at its schema dtype, deflated
    (``np.savez_compressed``).  Now integers are stored narrowed and
    uncompressed; a data dir checkpointed in the older format recovers
    to the same answers, WAL tail included."""
    data_dir = tmp_path / "d"
    store = DurableStore(data_dir, num_workers=1)
    rng = np.random.default_rng(11)
    info = np.iinfo(np.int64)
    columns = {
        "a": rng.integers(-50, 50, size=2000, dtype=np.int64),
        "b": rng.integers(0, 2**40, size=2000, dtype=np.int64),
        "c": rng.standard_normal(2000),
    }
    columns["b"][:2] = [info.min, info.max]
    columns["c"][:3] = [np.nan, -0.0, np.inf]
    store.create_table(
        "t", [("a", "int64"), ("b", "int64"), ("c", "float64")], columns
    )
    for i in range(6):
        store.execute(f"SELECT a, b FROM t WHERE a > {i}")
    store.checkpoint()
    store.append(
        "t", {"a": [7, -7], "b": [1, 2**50], "c": [0.25, -0.0]}
    )
    sqls = (
        "SELECT count(*), sum(a), max(c) FROM t WHERE a < 10",
        "SELECT a, b, c FROM t WHERE a > 3",
        "SELECT min(b), max(b) FROM t",
    )
    answers = {sql: store.execute(sql).result.data.tobytes() for sql in sqls}
    store.abandon()

    (_, _, snap_dir), = list_snapshots(data_dir / "snapshots")
    npz = snap_dir / "tables" / "t.npz"
    with np.load(npz) as archive:
        assert archive["a"].dtype == np.int8
        old = {
            "a": archive["a"].astype(np.int64),
            "b": archive["b"].astype(np.int64),
            "c": archive["c"],
        }
    np.savez_compressed(npz, **old)

    recovered = DurableStore(data_dir, num_workers=1)
    try:
        assert recovered.stats()["recovered"]
        assert recovered.replayed_records == 1
        table = recovered.system.catalog.get("t")
        assert table.column("a").dtype == np.int64
        for sql, want in answers.items():
            assert recovered.execute(sql).result.data.tobytes() == want, sql
    finally:
        recovered.close(checkpoint=False)
