"""Restart-recovery oracle: kill, recover, and demand bit-identity.

One seeded scenario runs the same op stream (create → interleaved
appends and queries) through two stores:

- **reference** — uninterrupted, WAL off: pure in-memory semantics;
- **crash** — WAL on; a checkpoint fires at a seeded midpoint, the
  store is abandoned (no flush, no final checkpoint — the process-death
  equivalent) at a later seeded cut, optionally with garbage bytes
  appended to the WAL to simulate a write torn mid-record, and a fresh
  :class:`~repro.gateway.persist.DurableStore` recovers from disk and
  runs the remaining ops.

Assertions:

1. **Bit-identity** — every query answered after recovery returns the
   same dtype and the same *bytes* as the reference run's answer at the
   same op index (NaNs included; this is the repo-wide invariant that
   physical layout and recovery history must never leak into answers).
2. **No re-learning ramp** — the recovered engine's adaptation state
   equals the state persisted at the checkpoint: same materialized
   layout attribute sets, same dynamic-window size, same windowed query
   count, an affinity matrix equal to the pre-crash one, and a
   plan-cache *hit* on the first re-execution of a warm shape.
3. **Torn-tail handling** — injected trailing garbage is diagnosed and
   discarded without losing any acknowledged write.
"""

from __future__ import annotations

import shutil
import struct
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import EngineConfig, GatewayConfig
from ..gateway.persist import DurableStore
from ..sql.parser import parse_query
from ..util.rng import ensure_rng
from .generate import random_case

#: Engine knobs sized so adaptation (window cycling, group creation,
#: plan-cache warmth) actually happens within one short scenario.
ORACLE_ENGINE_CONFIG = EngineConfig(
    window_size=8, min_window=4, max_window=24
)


class RestartOracleFailure(AssertionError):
    """A recovery divergence, with enough context to replay it."""


@dataclass
class RestartEvidence:
    """What one scenario exercised (returned on success)."""

    seed: int
    ops: int
    queries_compared: int
    appends: int
    checkpoint_at: int
    cut_at: int
    torn_tail_injected: bool
    replayed_records: int
    recovered_layouts: Tuple[Tuple[str, ...], ...] = ()
    plan_cache_warm: bool = False

    def describe(self) -> str:
        return (
            f"seed={self.seed} ops={self.ops} "
            f"compared={self.queries_compared} appends={self.appends} "
            f"checkpoint@{self.checkpoint_at} cut@{self.cut_at} "
            f"torn={self.torn_tail_injected} "
            f"replayed={self.replayed_records} "
            f"warm={self.plan_cache_warm}"
        )


@dataclass
class _Scenario:
    """The seeded op stream, fully determined by the seed."""

    seed: int
    table: str
    attributes: List[Tuple[str, str]]
    initial_columns: Dict[str, np.ndarray]
    #: ("append", columns) | ("query", sql), executed in order.
    ops: List[Tuple[str, object]] = field(default_factory=list)
    checkpoint_at: int = 0
    cut_at: int = 0
    torn_tail: bool = False


def _build_scenario(seed: int) -> _Scenario:
    spec = random_case(seed)
    table = spec.build_table()
    columns = {
        name: table.column(name).copy() for name in table.schema.names
    }
    scenario = _Scenario(
        seed=seed,
        table=spec.table_name,
        attributes=[
            (attr.name, attr.dtype.value) for attr in table.schema
        ],
        initial_columns=columns,
    )
    rng = ensure_rng(seed ^ 0x5EED1E57)
    for sql in spec.queries:
        if rng.random() < 0.3:
            rows = int(rng.integers(1, 33))
            batch = {
                name: rng.integers(-1000, 1000, size=rows, dtype=np.int64)
                for name in table.schema.names
            }
            scenario.ops.append(("append", batch))
        scenario.ops.append(("query", sql))
    total = len(scenario.ops)
    # Checkpoint after roughly a third of the stream (so learned state
    # exists to persist), cut strictly later with at least one op left.
    scenario.checkpoint_at = max(1, total // 3)
    scenario.cut_at = int(
        rng.integers(scenario.checkpoint_at + 1, total)
    )
    scenario.torn_tail = bool(rng.random() < 0.5)
    return scenario


def _open_store(
    data_dir: Path, wal: bool, engine_config: EngineConfig
) -> DurableStore:
    return DurableStore(
        data_dir,
        engine_config=engine_config,
        gateway_config=GatewayConfig(
            wal_enabled=wal,
            wal_fsync=wal,
            snapshot_every_records=0,  # manual checkpoint only
            default_timeout=60.0,
        ),
        num_workers=2,
    )


def _run_op(store: DurableStore, table: str, op: Tuple[str, object]):
    kind, payload = op
    if kind == "append":
        store.append(table, payload)  # type: ignore[arg-type]
        return None
    report = store.execute(payload)  # type: ignore[arg-type]
    return report.result


def _result_key(result) -> Tuple[str, Tuple[int, ...], bytes]:
    data = result.data
    return (str(data.dtype), tuple(data.shape), data.tobytes())


def _engine_fingerprint(store: DurableStore, table: str) -> Dict[str, object]:
    engine = store.system.engine_for(table)
    return {
        "layouts": tuple(
            sorted(
                tuple(layout.attrs)
                for layout in store.system.catalog.get(table).layouts
            )
        ),
        "window_size": engine.window.size,
        "windowed": len(engine.monitor),
        "queries_seen": engine.monitor.queries_seen,
        "select_affinity": engine.monitor.select_affinity.matrix.copy(),
        "where_affinity": engine.monitor.where_affinity.matrix.copy(),
        "warmup_sql": list(engine.adaptation_state()["warmup_sql"]),
        "policy": engine.policy.export(),
    }


def restart_case(
    seed: int,
    base_dir: Optional[Path] = None,
    engine_config: Optional[EngineConfig] = None,
) -> RestartEvidence:
    """Run one seeded kill/recover scenario; raise on any divergence."""
    engine_config = engine_config or ORACLE_ENGINE_CONFIG
    scenario = _build_scenario(seed)
    work_dir = Path(
        base_dir if base_dir is not None else tempfile.mkdtemp()
    )
    owns_dir = base_dir is None
    try:
        return _run_scenario(scenario, work_dir, engine_config)
    finally:
        if owns_dir:
            shutil.rmtree(work_dir, ignore_errors=True)


def _run_scenario(
    scenario: _Scenario, work_dir: Path, engine_config: EngineConfig
) -> RestartEvidence:
    seed = scenario.seed

    def fail(message: str) -> "RestartOracleFailure":
        return RestartOracleFailure(
            f"restart oracle seed {seed}: {message} "
            f"(checkpoint@{scenario.checkpoint_at}, cut@"
            f"{scenario.cut_at}, torn={scenario.torn_tail})"
        )

    # ---- reference: uninterrupted, WAL off --------------------------------
    reference = _open_store(work_dir / "ref", wal=False,
                            engine_config=engine_config)
    try:
        reference.create_table(
            scenario.table, scenario.attributes, scenario.initial_columns
        )
        expected: Dict[int, Tuple[str, Tuple[int, ...], bytes]] = {}
        for index, op in enumerate(scenario.ops):
            result = _run_op(reference, scenario.table, op)
            if result is not None:
                expected[index] = _result_key(result)
    finally:
        reference.close(checkpoint=False)

    # ---- crash run: checkpoint, keep going, die ---------------------------
    crash_dir = work_dir / "crash"
    store = _open_store(crash_dir, wal=True, engine_config=engine_config)
    fingerprint: Optional[Dict[str, object]] = None
    try:
        store.create_table(
            scenario.table, scenario.attributes, scenario.initial_columns
        )
        for index, op in enumerate(scenario.ops[: scenario.cut_at]):
            result = _run_op(store, scenario.table, op)
            if result is not None and _result_key(result) != expected[index]:
                raise fail(
                    f"pre-crash divergence at op {index} — the two runs "
                    "disagree before any crash was involved"
                )
            if index == scenario.checkpoint_at:
                store.checkpoint()
                fingerprint = _engine_fingerprint(store, scenario.table)
    finally:
        store.abandon()  # the kill: no flush, no final checkpoint
    if fingerprint is None:
        raise fail("scenario never reached its checkpoint")

    if scenario.torn_tail:
        # A record claiming 4096 payload bytes of which 7 arrived.
        with open(crash_dir / "wal.log", "ab") as handle:
            handle.write(struct.pack("<II", 4096, 0xDEADBEEF) + b"partial")

    # ---- recovery ---------------------------------------------------------
    recovered = _open_store(
        crash_dir, wal=True, engine_config=engine_config
    )
    try:
        stats = recovered.stats()
        if not stats["recovered"]:
            raise fail("store did not report recovery")
        if scenario.torn_tail and not stats["torn_tail_discarded"]:
            raise fail("injected torn tail was not diagnosed")

        # (2) no re-learning ramp: state matches the checkpoint exactly.
        post = _engine_fingerprint(recovered, scenario.table)
        for key in ("window_size", "windowed", "queries_seen"):
            if post[key] != fingerprint[key]:
                raise fail(
                    f"adaptation state {key!r} re-ramped: checkpoint had "
                    f"{fingerprint[key]}, recovery has {post[key]}"
                )
        for key in ("select_affinity", "where_affinity"):
            if not np.array_equal(post[key], fingerprint[key]):
                raise fail(f"{key} matrix diverged across recovery")
        if post["policy"] != fingerprint["policy"]:
            raise fail(
                "switching-policy ledger diverged across recovery: "
                f"checkpoint had {fingerprint['policy']}, recovery has "
                f"{post['policy']}"
            )
        missing = set(fingerprint["layouts"]) - set(post["layouts"])
        if missing:
            raise fail(
                f"checkpointed layouts were not recovered: {sorted(missing)}"
            )

        # Plan-cache warmth: the first repeat of a persisted warm shape
        # must ride the fast lane — unless that very query triggers a
        # reorganization (the restored window can legitimately be one
        # query away from adapting, which bumps the epoch and is a miss
        # with or without a crash in between).
        plan_cache_warm = False
        # Attribute-free shapes (`SELECT count(*) ...`) are never cached
        # by design, so probe the most recent warm shape that actually
        # touches attributes.
        warmup_sql = [
            sql
            for sql in fingerprint["warmup_sql"]
            if parse_query(sql).attributes
        ]
        if warmup_sql:
            engine = recovered.system.engine_for(scenario.table)
            before = (
                engine.window.shrink_events,
                engine.window.grow_events,
                engine.window.since_adaptation,
            )
            report = recovered.execute(warmup_sql[-1])
            after = (
                engine.window.shrink_events,
                engine.window.grow_events,
                engine.window.since_adaptation,
            )
            adapted = (
                after[:2] != before[:2] or after[2] < before[2]
            )
            plan_cache_warm = bool(report.plan_cache_hit)
            if not plan_cache_warm and not adapted:
                raise fail(
                    "first re-execution of a persisted warm shape missed "
                    "the plan cache — the adaptation ramp was re-paid"
                )

        # (1) bit-identity on everything after the cut.
        compared = 0
        for index in range(scenario.cut_at, len(scenario.ops)):
            result = _run_op(
                recovered, scenario.table, scenario.ops[index]
            )
            if result is None:
                continue
            compared += 1
            if _result_key(result) != expected[index]:
                exp_dtype, exp_shape, _ = expected[index]
                got = result.data
                raise fail(
                    f"post-recovery answer at op {index} diverged: "
                    f"expected {exp_dtype}{exp_shape}, got "
                    f"{got.dtype}{got.shape} with different bytes"
                )
        return RestartEvidence(
            seed=seed,
            ops=len(scenario.ops),
            queries_compared=compared,
            appends=sum(
                1 for kind, _ in scenario.ops if kind == "append"
            ),
            checkpoint_at=scenario.checkpoint_at,
            cut_at=scenario.cut_at,
            torn_tail_injected=scenario.torn_tail,
            replayed_records=int(stats["replayed_records"]),
            recovered_layouts=tuple(post["layouts"]),
            plan_cache_warm=plan_cache_warm,
        )
    finally:
        recovered.close(checkpoint=False)
