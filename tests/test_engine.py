"""The H2O engine end to end: adaptation, reporting, correctness."""

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core import engine as engine_module
from repro.core.engine import H2OEngine
from repro.errors import ExecutionError
from repro.sql import parse_query
from repro.storage import generate_table
from repro.workloads.microbench import aggregation_query


def hot_workload(num_attrs=12, repeats=30):
    """One hot pattern repeated — the easiest thing to adapt to."""
    attrs = [f"a{i}" for i in range(1, num_attrs + 1)]
    query = aggregation_query(
        attrs[:-2], where_attrs=attrs[-2:], selectivity=0.4, func="sum"
    )
    return [query] * repeats


class TestBasics:
    def test_executes_sql_strings(self, wide_table):
        engine = H2OEngine(wide_table)
        report = engine.execute("SELECT sum(a1) FROM r WHERE a2 < 0")
        expected = float(
            np.asarray(wide_table.column("a1"))[
                np.asarray(wide_table.column("a2")) < 0
            ].sum()
        )
        assert report.result.scalars()[0] == pytest.approx(expected)
        assert report.seconds > 0
        assert report.index == 0

    def test_rejects_wrong_table(self, wide_table):
        engine = H2OEngine(wide_table)
        with pytest.raises(ExecutionError):
            engine.execute("SELECT x FROM other_table")

    def test_reports_accumulate(self, wide_table):
        engine = H2OEngine(wide_table)
        engine.execute("SELECT a1 FROM r")
        engine.execute("SELECT a2 FROM r")
        assert [r.index for r in engine.reports] == [0, 1]
        assert engine.cumulative_seconds() > 0

    def test_describe_mentions_state(self, wide_table):
        engine = H2OEngine(wide_table)
        engine.execute("SELECT a1 FROM r")
        text = engine.describe()
        assert "window size" in text and "operator cache" in text


class TestAdaptation:
    def test_materializes_layout_for_hot_pattern(self):
        table = generate_table("r", 20, 30_000, rng=2, initial_layout="column")
        engine = H2OEngine(table, EngineConfig(window_size=10))
        for query in hot_workload():
            engine.execute(query)
        assert len(engine.manager.creation_log) >= 1
        built = engine.manager.creation_log[0]
        assert built.mode == "online"
        # After materialization the hot queries run fused on the group.
        strategies = [r.strategy for r in engine.reports[-5:]]
        assert all(s == "fused" for s in strategies)

    def test_reorg_charged_to_triggering_query(self):
        table = generate_table("r", 20, 30_000, rng=2, initial_layout="column")
        engine = H2OEngine(table, EngineConfig(window_size=10))
        for query in hot_workload():
            engine.execute(query)
        builders = [r for r in engine.reports if r.layout_created]
        assert builders
        assert builders[0].reorg_seconds > 0
        assert builders[0].phases["reorg"] == builders[0].reorg_seconds

    def test_results_identical_through_adaptation(self):
        table = generate_table("r", 20, 20_000, rng=2, initial_layout="column")
        engine = H2OEngine(table, EngineConfig(window_size=8))
        queries = hot_workload(repeats=25)
        results = [engine.execute(q).result for q in queries]
        for result in results[1:]:
            assert results[0].allclose(result)

    def test_materialization_never(self):
        table = generate_table("r", 20, 20_000, rng=2, initial_layout="column")
        engine = H2OEngine(
            table, EngineConfig(window_size=8, materialization="never")
        )
        for query in hot_workload(repeats=20):
            engine.execute(query)
        assert len(engine.manager.creation_log) == 0

    def test_materialization_eager(self):
        table = generate_table("r", 20, 20_000, rng=2, initial_layout="column")
        engine = H2OEngine(
            table, EngineConfig(window_size=8, materialization="eager")
        )
        for query in hot_workload(repeats=20):
            engine.execute(query)
        log = engine.manager.creation_log
        assert log and all(event.mode == "offline" for event in log)

    def test_materialization_validation(self):
        import pytest as _pytest
        from repro.errors import AdaptationError

        with _pytest.raises(AdaptationError):
            EngineConfig(materialization="sometimes")

    def test_adaptation_runs_periodically(self, wide_table):
        engine = H2OEngine(wide_table, EngineConfig(window_size=10))
        reports = [
            engine.execute(f"SELECT a{i % 5 + 1} FROM r") for i in range(22)
        ]
        assert any(r.adaptation_ran for r in reports)

    def test_selectivity_feedback_loop(self, wide_table):
        engine = H2OEngine(wide_table)
        engine.execute("SELECT a1 FROM r WHERE a2 < 0")
        key_count = len(engine.selectivity._observed)
        assert key_count == 1
        observed = next(iter(engine.selectivity._observed.values()))
        assert 0.3 < observed < 0.7  # ~half of uniform values are < 0

    def test_window_shrinks_on_shift(self):
        table = generate_table("r", 40, 10_000, rng=3, initial_layout="column")
        engine = H2OEngine(table, EngineConfig(window_size=20))
        for _ in range(12):
            engine.execute("SELECT sum(a1 + a2 + a3) FROM r WHERE a4 < 0")
        before = engine.window.size
        for i in range(12):
            engine.execute(
                f"SELECT sum(a3{i % 3 + 1} + a2{i % 3 + 5}) FROM r"
                if False
                else f"SELECT sum(a{30 + i % 5} + a{25 + i % 4}) FROM r"
            )
        assert engine.window.shrink_events >= 1 or engine.window.size < before

    def test_run_sequence(self, wide_table):
        engine = H2OEngine(wide_table)
        reports = engine.run_sequence(
            ["SELECT a1 FROM r", "SELECT a2 FROM r"]
        )
        assert len(reports) == 2


class TestPhasesAccounting:
    def test_phase_totals_cover_components(self, wide_table):
        engine = H2OEngine(
            wide_table,
            EngineConfig(window_size=5, min_window=5, max_window=20),
        )
        for i in range(12):
            engine.execute(f"SELECT sum(a{i % 3 + 1}) FROM r WHERE a5 < 0")
        totals = engine.phase_totals()
        assert "plan" in totals and "execute" in totals
        assert "adapt" in totals  # at least one adaptation ran
        assert engine.cumulative_seconds() >= totals["execute"]


    def test_report_history_is_bounded_and_totals_stay_exact(
        self, wide_table, monkeypatch
    ):
        # A long-lived server must not retain every report (each pins a
        # query AST and a result array); the totals still cover them all.
        monkeypatch.setattr(engine_module, "REPORT_HISTORY", 8)
        engine = H2OEngine(wide_table)
        returned = [
            engine.execute(f"SELECT sum(a{i % 3 + 1}) FROM r WHERE a5 < {i}")
            for i in range(30)
        ]
        assert isinstance(engine.reports, list)
        assert engine.reports == returned[-8:]
        seconds, phases = 0.0, {}
        for report in returned:
            seconds += report.seconds
            for phase, spent in report.phases.items():
                phases[phase] = phases.get(phase, 0.0) + spent
        assert engine.cumulative_seconds() == seconds
        assert engine.phase_totals() == phases
        assert engine.stats()["queries"] == 30


class TestSeedAdaptationRobustness:
    """seed_adaptation_state must never leave the window pinned open
    (1 << 30) — not for malformed persisted state, not for a non-H2O
    exception escaping a warmup query."""

    def test_missing_window_size_keeps_current(self, wide_table):
        engine = H2OEngine(wide_table, EngineConfig(window_size=10))
        engine.seed_adaptation_state({"warmup_sql": ["SELECT a1 FROM r"]})
        assert engine.window.size == 10

    def test_garbage_window_size_keeps_current(self, wide_table):
        engine = H2OEngine(wide_table, EngineConfig(window_size=10))
        engine.seed_adaptation_state(
            {"window_size": "garbage", "queries_seen": None}
        )
        assert engine.window.size == 10
        assert engine.monitor.queries_seen == 0

    def test_warmup_crash_restores_window(self, wide_table, monkeypatch):
        engine = H2OEngine(wide_table, EngineConfig(window_size=10))

        def boom(query):
            raise RuntimeError("not an H2OError")

        monkeypatch.setattr(engine, "execute", boom)
        with pytest.raises(RuntimeError):
            engine.seed_adaptation_state(
                {"window_size": 7, "warmup_sql": ["SELECT a1 FROM r"]}
            )
        assert engine.window.size == 7  # restored despite the crash
        monkeypatch.undo()
        # the engine still executes and observes normally afterwards
        engine.execute("SELECT a1 FROM r")
        assert engine.monitor.queries_seen == 1

    def test_unparseable_window_sql_is_skipped(self, wide_table):
        engine = H2OEngine(wide_table, EngineConfig(window_size=10))
        engine.seed_adaptation_state(
            {
                "window_size": 8,
                "window_sql": ["SELECT a1 FROM r", "NOT SQL AT ALL"],
                "queries_seen": 2,
            }
        )
        assert engine.window.size == 8
        assert engine.monitor.queries_seen == 2


def float_table(num_rows=70_000, width=8, seed=11):
    """A column-major table of inexact float64 values."""
    from repro.sql.types import DataType
    from repro.storage import Schema, Table
    from repro.storage.schema import Attribute

    rng = np.random.default_rng(seed)
    names = [f"f{i}" for i in range(1, width + 1)]
    schema = Schema([Attribute(n, DataType.FLOAT64) for n in names])
    columns = {n: rng.standard_normal(num_rows) * 1e3 for n in names}
    return Table.from_columns("r", schema, columns, "column")


FLOAT_SQL = "SELECT sum(f1 + f2), sum(f3), avg(f4) FROM r WHERE f5 > 0"


class TestOnlineReorganization:
    def test_stitching_repeat_returns_the_same_bits(self):
        """The repeat that stitches a group answers with the bits every
        other repeat returns, before and after the group exists."""
        engine = H2OEngine(float_table())
        reports = [engine.execute(FLOAT_SQL) for _ in range(40)]
        stitched = [r for r in reports if r.layout_created]
        assert len(stitched) == 1
        assert {r.result.data.tobytes() for r in reports} == {
            reports[0].result.data.tobytes()
        }
        assert stitched[0].plan.startswith("online-reorg(group[")
        assert stitched[0].morsels_total == 2

    def test_compile_fault_during_stitch_falls_back_and_keeps_group(self):
        """A compile failure inside an online stitch is answered by the
        interpreter, counted as a fallback, and the group still lands."""
        from repro.testkit.faults import FaultInjector

        engine = H2OEngine(float_table())
        online = engine.reorganizer.online
        fired = []

        def faulted(source, attrs, info):
            schedule = {"codegen.compile": frozenset(range(4))}
            with FaultInjector(schedule) as injector:
                outcome = online(source, attrs, info)
            fired.append(injector.fired_count("codegen.compile"))
            return outcome

        engine.reorganizer.online = faulted
        reports = [engine.execute(FLOAT_SQL) for _ in range(40)]
        (stitched,) = [r for r in reports if r.layout_created]
        assert fired == [1]
        assert stitched.codegen_fallback and not stitched.used_codegen
        assert engine.executor.codegen_fallbacks == 1
        assert engine.table.find_group(stitched.layout_created) is not None
        assert {r.result.data.tobytes() for r in reports} == {
            reports[0].result.data.tobytes()
        }
