"""Stress tests: many clients, inline adaptation, overload, appends.

The acceptance bar for the concurrent service:

- N >= 8 client threads x M >= 50 mixed query shapes, with triggering
  queries stitching layouts online on whichever worker runs them,
  produce results *identical* to serial execution;
- overload triggers graceful admission rejection, never a crash;
- no query ever observes a partially materialized layout or a torn
  row count, even with concurrent appends.

Determinism note: the generated tables hold integer values, so every
float aggregate (sums of |v| < 2**31 over a few thousand rows) stays
far below 2**53 and is *exactly* order-independent — concurrent and
serial runs must agree bit-for-bit, not just approximately.

Timing discipline: no fixed sleeps for synchronization.  Every wait is
a bounded poll on an observable condition (``conftest.wait_until``), so
slow CI runners extend a deadline instead of flipping an outcome.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from tests.conftest import wait_until
from repro import H2OService, generate_table
from repro.baselines.row_engine import RowStoreEngine
from repro.config import EngineConfig
from repro.core.system import H2OSystem
from repro.errors import ServiceOverloadedError
from repro.sql.parser import parse_query
from repro.storage.stitcher import stitch_group
from repro.testkit.faults import FaultInjector, random_schedule
from repro.testkit.oracle import results_identical
from repro.util.rng import derive_rng
from repro.workloads.scenarios import build_scenario

pytestmark = pytest.mark.stress

NUM_CLIENTS = 8
NUM_SHAPES = 56  # 8 clients x 7 queries, > 50 mixed shapes


def make_table(name="r", rng=17):
    return generate_table(name, num_attrs=12, num_rows=4000, rng=rng)


def mixed_workload():
    """56 aggregation queries over mixed shapes, literals, and widths."""
    queries = []
    for i in range(NUM_SHAPES):
        a = 1 + (i % 6)
        b = 1 + ((i + 3) % 6)
        c = 7 + (i % 5)
        threshold = (i - 28) * 10_000_000
        kind = i % 7
        if kind == 0:
            sql = f"SELECT sum(a{a} + a{b}) FROM r WHERE a{c} > {threshold}"
        elif kind == 1:
            sql = f"SELECT count(*) FROM r WHERE a{a} < {threshold}"
        elif kind == 2:
            sql = (
                f"SELECT min(a{a}), max(a{b}) FROM r "
                f"WHERE a{c} > {threshold} AND a{a} < 500000000"
            )
        elif kind == 3:
            sql = (
                f"SELECT sum(a{a}), count(*) FROM r "
                f"WHERE a{b} IN ({threshold}, {threshold + 1})"
            )
        elif kind == 4:
            # Hot repeated shape: drives the advisor toward a group.
            sql = f"SELECT sum(a1 + a2 + a3) FROM r WHERE a4 > {threshold}"
        elif kind == 5:
            sql = f"SELECT max(a{a} + a{b}) FROM r"
        else:
            sql = (
                f"SELECT sum(a{a} - a{b}) FROM r "
                f"WHERE NOT (a{c} > {threshold})"
            )
        queries.append(sql)
    return queries


def serial_results(queries):
    """The ground truth: one fresh engine, one thread, paper defaults."""
    system = H2OSystem(config=EngineConfig())
    system.register(make_table())
    return [system.execute(sql).result.scalars() for sql in queries]


# ---------------------------------------------------------------------------
# Serial equivalence under heavy concurrency + inline adaptation
# ---------------------------------------------------------------------------


def test_concurrent_results_identical_to_serial():
    queries = mixed_workload()
    expected = serial_results(queries)

    service = H2OService(
        config=EngineConfig(),
        num_workers=NUM_CLIENTS,
        max_pending=4 * NUM_CLIENTS * NUM_SHAPES,
    )
    service.register(make_table())
    results: dict = {}
    errors: list = []

    def client(worker_id: int) -> None:
        try:
            # Each client runs the full workload in a rotated order so
            # shapes overlap across threads (maximum cache contention).
            for offset in range(NUM_SHAPES):
                index = (offset + worker_id * 7) % NUM_SHAPES
                report = service.execute(queries[index], timeout=120.0)
                results.setdefault(index, []).append(
                    report.result.scalars()
                )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(NUM_CLIENTS)
    ]
    # GIL guarantees dict.setdefault/append atomicity per op; each index
    # list only ever gains complete scalar tuples.
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(300.0)
    try:
        assert not errors, f"client thread failed: {errors[0]!r}"
        assert all(not t.is_alive() for t in threads), "stress run hung"
        for index, sql in enumerate(queries):
            for got in results[index]:
                assert got == expected[index], (
                    f"divergence on {sql!r}: {got} != {expected[index]}"
                )
        snap = service.stats.snapshot()
        assert snap["completed"] == NUM_CLIENTS * NUM_SHAPES
        assert snap["failed"] == 0
        assert snap["peak_concurrency"] >= 2, (
            "no scan overlap observed across workers"
        )
    finally:
        service.close()


def test_inline_adaptation_publishes_during_traffic():
    """Online stitches publish a layout mid-run under concurrent
    traffic, and late queries still agree."""
    hot = "SELECT sum(a1 + a2 + a3) FROM r WHERE a4 > 0"
    serial = H2OSystem(config=EngineConfig())
    serial.register(make_table())
    expected = serial.execute(hot).result.scalars()

    service = H2OService(
        config=EngineConfig(),
        num_workers=NUM_CLIENTS,
        max_pending=2048,
    )
    service.register(make_table())
    errors: list = []
    epochs: list = []

    def client(worker_id: int) -> None:
        try:
            for _ in range(30):
                report = service.execute(hot, timeout=120.0)
                epochs.append(report.snapshot_epoch)
                assert report.result.scalars() == expected
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,))
        for i in range(NUM_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(300.0)
    try:
        assert not errors, f"client thread failed: {errors[0]!r}"
        engine = service.system.engine_for("r")
        assert engine.table.layout_epoch >= 1, (
            "inline adaptation never published a layout"
        )
        online = [
            event
            for event in engine.manager.creation_log
            if event.mode == "online"
        ]
        assert len(online) >= 1
        # Queries that planned against the new epoch saw the same data.
        assert service.execute(hot, timeout=60.0).result.scalars() == (
            expected
        )
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Overload: back-pressure, not crashes
# ---------------------------------------------------------------------------


def test_overload_rejects_gracefully_from_many_threads():
    service = H2OService(
        config=EngineConfig(),
        num_workers=1,
        max_pending=4,
    )
    service.register(make_table())
    outcomes = {"completed": 0, "rejected": 0}
    errors: list = []
    lock = threading.Lock()

    def flood(worker_id: int) -> None:
        for i in range(12):
            try:
                report = service.execute(
                    f"SELECT sum(a{1 + i % 4}) FROM r",
                    timeout=120.0,
                )
                assert len(report.result.scalars()) == 1
                with lock:
                    outcomes["completed"] += 1
            except ServiceOverloadedError:
                with lock:
                    outcomes["rejected"] += 1
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

    threads = [
        threading.Thread(target=flood, args=(i,)) for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(300.0)
    try:
        assert not errors, f"unexpected failure: {errors[0]!r}"
        total = outcomes["completed"] + outcomes["rejected"]
        assert total == 8 * 12
        assert outcomes["rejected"] >= 1, (
            "the flood never tripped admission control"
        )
        assert outcomes["completed"] >= 1
        snap = service.stats.snapshot()
        assert snap["rejected"] == outcomes["rejected"]
        assert service.admission.in_flight == 0
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Adversarial scenario through the service, under chaos faults
# ---------------------------------------------------------------------------


def _run_ping_pong_service(scenario, expected, policy_config, tag):
    """Replay the scenario serially through a faulted service; return
    the engine after asserting every answer is bit-identical."""
    service = H2OService(
        config=policy_config,
        num_workers=3,
        max_pending=4 * len(scenario.queries),
        max_query_attempts=8,
        name=f"scenario-stress-{tag}",
    )
    schedule = random_schedule(
        derive_rng(scenario.seed, "scenario-stress", tag),
        horizon=len(scenario.queries),
        faults_per_point=2,
        points=(
            "codegen.compile",
            "reorg.online",
            "service.worker",
            "service.execute",
        ),
    )
    try:
        with FaultInjector(schedule):
            service.register(scenario.make_table())
            engine = service.system.engine_for(scenario.table_name)
            for index, sql in enumerate(scenario.queries):
                report = service.execute(sql, timeout=120.0)
                assert results_identical(report.result, expected[index]), (
                    f"[{tag}] query #{index} diverged under faults: {sql}"
                )
            assert engine.policy.regret_bound_satisfied()
            return engine
    finally:
        service.close()


def test_ping_pong_scenario_guarded_bounds_reorgs_under_chaos():
    """The ping-pong adversary through the full service with chaos
    faults firing: answers stay bit-identical at *both* hedging
    factors, and the hedged ledger bounds reorganization spend (an
    unhedged candidate is never built) while hedge 0 (the paper's
    greedy gate) pays for the thrash."""
    scenario = build_scenario(
        "ping-pong", seed=0, phases=4, phase_len=12, num_rows=2048
    )
    reference = RowStoreEngine(
        scenario.make_table(), EngineConfig(use_codegen=False)
    )
    expected = [
        reference.execute(parse_query(sql)).result
        for sql in scenario.queries
    ]
    knobs = dict(
        window_size=4,
        min_window=2,
        max_window=12,
    )

    greedy_engine = _run_ping_pong_service(
        scenario, expected, EngineConfig(**knobs), "greedy"
    )

    guarded_engine = _run_ping_pong_service(
        scenario,
        expected,
        EngineConfig(hedging_factor=1e9, **knobs),
        "guarded",
    )
    greedy_reorgs = len(greedy_engine.manager.creation_log)
    guarded_reorgs = len(guarded_engine.manager.creation_log)
    assert guarded_reorgs == 0, (
        f"guarded built {guarded_reorgs} layout(s) despite an unmet "
        f"hedge — the policy gate leaked through the service path"
    )
    assert greedy_reorgs >= 1
    # The guard actually considered (and refused) candidates: the
    # ledger accrued benefit toward the rotating trios.
    assert guarded_engine.policy.ledger, (
        "guarded service run never ledgered a candidate"
    )


# ---------------------------------------------------------------------------
# Concurrent appends: no torn row counts, no partial layouts
# ---------------------------------------------------------------------------


def test_appends_concurrent_with_queries_never_tear():
    table = make_table()
    base_rows = table.num_rows
    batch = 64
    num_batches = 20
    valid_counts = {base_rows + k * batch for k in range(num_batches + 1)}

    service = H2OService(
        config=EngineConfig(),
        num_workers=4,
        max_pending=2048,
    )
    service.register(table)
    errors: list = []
    stop = threading.Event()
    observed: list = []

    def writer() -> None:
        rng = np.random.default_rng(5)
        try:
            for _ in range(num_batches):
                rows = {
                    name: rng.integers(
                        -(10**9), 10**9, size=batch, dtype=np.int64
                    )
                    for name in table.schema.names
                }
                seen_before = len(observed)
                table.append_rows(rows)
                # Interleave by *condition*, not by timing: wait (bounded)
                # until some reader completed a query after this append,
                # so every batch boundary is actually observed under load.
                try:
                    wait_until(
                        lambda: len(observed) > seen_before or stop.is_set(),
                        timeout=10.0,
                        interval=0.001,
                        message="a reader observation between appends",
                    )
                except AssertionError:
                    pass  # readers crashed/slow: appends still complete
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            stop.set()

    def reader(worker_id: int) -> None:
        try:
            while not stop.is_set():
                report = service.execute(
                    "SELECT count(*), sum(a1 - a1) FROM r",
                    timeout=120.0,
                )
                count, zero = report.result.scalars()
                observed.append(int(count))
                # A torn snapshot would scan layouts of unequal length;
                # sum(a1 - a1) == 0 proves the scan was consistent.
                assert zero == 0
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    writer_thread = threading.Thread(target=writer)
    reader_threads = [
        threading.Thread(target=reader, args=(i,)) for i in range(4)
    ]
    for thread in reader_threads:
        thread.start()
    writer_thread.start()
    writer_thread.join(120.0)
    for thread in reader_threads:
        thread.join(120.0)
    try:
        assert not errors, f"concurrent append/read failed: {errors[0]!r}"
        assert observed, "readers never completed a query"
        torn = [c for c in observed if c not in valid_counts]
        assert not torn, f"torn row counts observed: {sorted(set(torn))}"
        # Epoch advanced exactly once per append (plus any online
        # stitches, which only ever add to it).
        assert table.layout_epoch >= num_batches
        assert table.num_rows == base_rows + num_batches * batch
        assert all(
            layout.num_rows == table.num_rows for layout in table.layouts
        )
    finally:
        service.close()


# ---------------------------------------------------------------------------
# In-place appends under pinned scans: the writer shares buffers with readers
# ---------------------------------------------------------------------------


def test_in_place_appends_never_disturb_pinned_scans():
    """Readers scan pinned snapshots whose layouts view the very buffer
    the writer is appending into; every answer must equal the serial
    answer at *some* published epoch."""
    table = generate_table("r", num_attrs=6, num_rows=20_000, rng=23)
    # A column group too, so both layout kinds append in place.
    group, _ = stitch_group(table.layouts, ("a1", "a2"), table.schema)
    table.add_layout(group)
    batch, num_batches = 64, 150
    rng = np.random.default_rng(11)
    batches = [
        {
            name: rng.integers(-(10**6), 10**6, size=batch, dtype=np.int64)
            for name in table.schema.names
        }
        for _ in range(num_batches)
    ]
    # Serial answers after k appends, k = 0..num_batches.
    a1 = np.concatenate([table.column("a1")] + [b["a1"] for b in batches])
    a2 = np.concatenate([table.column("a2")] + [b["a2"] for b in batches])
    a3 = np.concatenate([table.column("a3")] + [b["a3"] for b in batches])
    answers = set()
    for k in range(num_batches + 1):
        n = table.num_rows + k * batch
        keep = a3[:n] > 0
        answers.add(
            (
                float(keep.sum()),
                float((a1[:n] + a2[:n])[keep].sum()),
                float(a3[:n][keep].sum()),
            )
        )

    service = H2OService(config=EngineConfig(), num_workers=4, max_pending=2048)
    service.register(table)
    errors: list = []
    stop = threading.Event()
    observed: list = []
    buffers = set()

    def writer() -> None:
        try:
            for rows in batches:
                seen_before = len(observed)
                table.append_rows(rows)
                buffers.add(
                    table.layouts[0].data.__array_interface__["data"][0]
                )
                wait_until(
                    lambda: len(observed) > seen_before or stop.is_set(),
                    timeout=30.0,
                    interval=0.0005,
                    message="a reader observation between appends",
                )
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            stop.set()

    def reader(worker_id: int) -> None:
        try:
            while not stop.is_set():
                report = service.execute(
                    "SELECT count(*), sum(a1 + a2), sum(a3) FROM r "
                    "WHERE a3 > 0",
                    timeout=120.0,
                )
                got = tuple(float(v) for v in report.result.scalars())
                assert got in answers, f"answer of no epoch: {got}"
                observed.append(worker_id)
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer)] + [
            threading.Thread(target=reader, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(180.0)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, f"pinned scan disturbed: {errors[0]!r}"
        assert observed
        assert table.num_rows == 20_000 + num_batches * batch
        # The appends really were in place: one buffer for all of them
        # (20k rows * GROWTH_FACTOR leaves room for 150 * 64 more).
        assert len(buffers) == 1
    finally:
        sys.setswitchinterval(previous_interval)
        service.close()
