"""Unit tests for the concurrent query service's building blocks.

Covers admission control, futures/timeouts, service stats,
snapshot isolation (including the append-epoch contract), and an
append racing an inline online stitch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import H2OService, generate_table
from repro.baselines.row_engine import RowStoreEngine
from repro.config import EngineConfig
from repro.core.engine import H2OEngine
from repro.errors import (
    QueryTimeoutError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service import AdmissionController, ServiceStats, percentile
from repro.sql.parser import parse_query
from repro.storage.relation import LayoutSnapshot


@pytest.fixture()
def table():
    return generate_table("r", num_attrs=10, num_rows=2000, rng=3)


def make_service(table, **kwargs):
    kwargs.setdefault("config", EngineConfig())
    service = H2OService(**kwargs)
    service.register(table)
    return service


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ServiceError):
            AdmissionController(0)

    def test_acquire_release_cycle(self):
        ctl = AdmissionController(2)
        assert ctl.try_acquire() and ctl.try_acquire()
        assert not ctl.try_acquire()
        assert ctl.in_flight == 2
        ctl.release()
        assert ctl.in_flight == 1
        assert ctl.try_acquire()
        assert ctl.in_flight == 2

    def test_release_never_goes_negative(self):
        ctl = AdmissionController(1)
        ctl.release()
        assert ctl.in_flight == 0

    def test_overloaded_service_rejects_gracefully(self, table):
        # Zero workers: nothing drains, so capacity is hit exactly.
        service = make_service(
            table, num_workers=0, max_pending=3
        )
        try:
            for _ in range(3):
                service.submit("SELECT sum(a1) FROM r")
            with pytest.raises(ServiceOverloadedError):
                service.submit("SELECT sum(a1) FROM r")
            snap = service.stats.snapshot()
            assert snap["submitted"] == 4
            assert snap["rejected"] == 1
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Futures, timeouts, shutdown
# ---------------------------------------------------------------------------


class TestFuturesAndTimeouts:
    def test_future_resolves_to_report(self, table):
        with make_service(table, num_workers=2) as service:
            future = service.submit("SELECT sum(a1), count(*) FROM r")
            report = future.result(30.0)
            assert future.done()
            assert report.result.scalars()[1] == table.num_rows

    def test_queued_query_can_be_cancelled(self, table):
        service = make_service(table, num_workers=0, max_pending=4)
        try:
            future = service.submit("SELECT sum(a1) FROM r")
            assert future.cancel()
            assert service.admission.in_flight < 4
            with pytest.raises(QueryTimeoutError):
                future.result(0.01)
        finally:
            service.close()

    def test_timeout_raises_and_counts(self, table):
        # No workers -> the query can never finish.
        service = make_service(table, num_workers=0, max_pending=4)
        try:
            future = service.submit(
                "SELECT sum(a1) FROM r", timeout=0.05
            )
            with pytest.raises(QueryTimeoutError):
                future.result()
            assert service.stats.snapshot()["timeouts"] == 1
        finally:
            service.close()

    def test_default_timeout_applies_to_execute(self, table):
        service = make_service(
            table, num_workers=0, max_pending=4, default_timeout=0.05
        )
        try:
            with pytest.raises(QueryTimeoutError):
                service.execute("SELECT sum(a1) FROM r")
            assert service.stats.snapshot()["timeouts"] == 1
        finally:
            service.close()

    def test_closed_service_refuses_submissions(self, table):
        service = make_service(table, num_workers=1)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit("SELECT sum(a1) FROM r")

    def test_parse_errors_raise_in_the_callers_thread(self, table):
        from repro.errors import ParseError

        with make_service(table, num_workers=1) as service:
            with pytest.raises(ParseError):
                service.submit("SELEC nonsense")
            # A rejected parse never occupies an admission slot.
            assert service.admission.in_flight == 0


# ---------------------------------------------------------------------------
# Service stats
# ---------------------------------------------------------------------------


class TestServiceStats:
    def test_percentile_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 100.0
        assert percentile([], 0.5) == 0.0

    def test_snapshot_is_defensive(self):
        stats = ServiceStats()
        stats.note_submitted()
        stats.note_started()
        stats.note_completed(0.010)
        snap = stats.snapshot()
        snap["completed"] = 999  # mutating the copy...
        assert stats.snapshot()["completed"] == 1  # ...changes nothing
        assert stats.snapshot()["p50_ms"] == pytest.approx(10.0)

    def test_peak_concurrency_tracks_overlap(self):
        stats = ServiceStats()
        for _ in range(3):
            stats.note_started()
        stats.note_completed(0.001)
        stats.note_started()
        assert stats.snapshot()["peak_concurrency"] == 3


# ---------------------------------------------------------------------------
# Snapshot isolation + the append-epoch contract
# ---------------------------------------------------------------------------


class TestSnapshotIsolation:
    def test_snapshot_is_immutable_view(self, table):
        snap = table.snapshot()
        assert isinstance(snap, LayoutSnapshot)
        assert snap.epoch == table.layout_epoch
        assert snap.num_rows == table.num_rows
        assert len(snap.layouts) == len(table.layouts)

    def test_append_bumps_epoch_exactly_once(self, table):
        before = table.layout_epoch
        n_layouts = len(table.layouts)
        rows = {
            name: np.arange(10, dtype=np.int64)
            for name in table.schema.names
        }
        table.append_rows(rows)
        assert table.layout_epoch == before + 1
        assert len(table.layouts) == n_layouts
        assert all(
            layout.num_rows == table.num_rows for layout in table.layouts
        )

    def test_old_snapshot_survives_append(self, table):
        snap = table.snapshot()
        rows = {
            name: np.ones(5, dtype=np.int64)
            for name in table.schema.names
        }
        table.append_rows(rows)
        # The pinned snapshot still sees the pre-append world.
        assert snap.num_rows == table.num_rows - 5
        assert snap.column("a1").shape[0] == snap.num_rows
        assert table.snapshot().num_rows == table.num_rows

    def test_add_and_drop_layout_each_bump_once(self, table):
        from repro.storage.stitcher import stitch_group

        before = table.layout_epoch
        group, _ = stitch_group(
            table.layouts, ("a1", "a2"), table.schema
        )
        table.add_layout(group)
        assert table.layout_epoch == before + 1
        table.drop_layout(group)
        assert table.layout_epoch == before + 2

    def test_queries_report_their_snapshot_epoch(self, table):
        with make_service(table, num_workers=1) as service:
            report = service.execute(
                "SELECT sum(a1) FROM r", timeout=30.0
            )
            assert report.snapshot_epoch == table.layout_epoch


# ---------------------------------------------------------------------------
# An append racing an inline online stitch
# ---------------------------------------------------------------------------


def test_append_during_online_stitch_keeps_answer_and_drops_group(table):
    """An append that lands while a triggering query stitches its group
    online: the query keeps its answer (computed from the pinned
    pre-append rows), the group is discarded rather than torn, the
    candidate leaves the pool, and the switch is still ledgered (the
    stitch cost was paid)."""
    sql = "SELECT sum(a1 + a2), count(*) FROM r WHERE a3 > 0"
    reference = RowStoreEngine(
        generate_table("r", num_attrs=10, num_rows=2000, rng=3),
        EngineConfig(use_codegen=False),
    )
    expected = reference.execute(parse_query(sql)).result
    engine = H2OEngine(table, EngineConfig())
    online = engine.reorganizer.online
    raced = []

    def stitch_then_append(source, attrs, info):
        outcome = online(source, attrs, info)
        if not raced:
            table.append_rows(
                {
                    name: np.zeros(3, dtype=np.int64)
                    for name in table.schema.names
                }
            )
            raced.append(tuple(outcome.group.attrs))
        return outcome

    engine.reorganizer.online = stitch_then_append
    for _ in range(engine.config.max_window + 5):
        report = engine.execute(sql)
        if raced:
            break
    assert raced, "no query triggered an online stitch"
    assert np.array_equal(
        report.result.data, expected.data, equal_nan=True
    )
    assert report.layout_created is None
    assert table.find_group(raced[0]) is None
    assert all(c.attrs != raced[0] for c in engine.candidates)
    assert engine.policy.switch_count == 1
    assert engine.policy.switches[-1].attrs == raced[0]
