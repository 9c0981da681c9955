"""Restart-recovery: the crash oracle plus targeted learned-state checks.

The oracle (repro/testkit/restart.py) kills a durable store mid-workload
and demands bit-identical answers and an intact adaptation state after
recovery.  The targeted test drives an engine through a real adaptation
ramp (repeated projection shape → materialized column group → grown
window → warm plan cache) and asserts each piece survives a checkpoint +
SIGKILL-equivalent + recovery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EngineConfig, GatewayConfig
from repro.gateway.persist import DurableStore
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
        amortization_threshold=1.0,
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
