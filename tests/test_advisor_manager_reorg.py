"""The advisor (Eq. 1 search), layout manager, and reorganizer."""

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.advisor import CandidateLayout, LayoutAdvisor
from repro.core.cost_model import CostModel
from repro.core.layout_manager import LayoutManager
from repro.core.monitor import Monitor
from repro.core.reorganizer import Reorganizer
from repro.errors import ExecutionError
from repro.execution.executor import Executor
from repro.execution.strategies import AccessPlan, ExecutionStrategy
from repro.sql import analyze_query, parse_query
from repro.sql.types import DataType
from repro.storage import Schema, Table, generate_table
from repro.storage.schema import Attribute
from repro.storage.stitcher import stitch_group
from repro.workloads.microbench import aggregation_query


def repeated_pattern_monitor(table, attrs, count=8, capacity=20):
    monitor = Monitor(table.schema, capacity)
    query = aggregation_query(
        attrs[:-2], where_attrs=attrs[-2:], selectivity=0.4, func="sum"
    )
    for _ in range(count):
        monitor.observe(query)
    return monitor, query


class TestAdvisor:
    @pytest.fixture()
    def table(self):
        return generate_table(
            "r", 30, 30_000, rng=3, initial_layout="column"
        )

    def test_proposes_group_for_hot_pattern(self, table):
        attrs = [f"a{i}" for i in range(1, 13)]
        monitor, _query = repeated_pattern_monitor(table, attrs)
        advisor = LayoutAdvisor(table, CostModel())
        candidates = advisor.propose(monitor)
        assert candidates, "hot repeated pattern should yield a proposal"
        best = candidates[0]
        assert frozenset(attrs) <= best.attr_set or best.attr_set <= frozenset(attrs) or best.covers(frozenset(attrs))
        assert best.frequency >= 2
        assert best.expected_gain > 0

    def test_empty_window_no_proposals(self, table):
        advisor = LayoutAdvisor(table, CostModel())
        assert advisor.propose(Monitor(table.schema, 10)) == []

    def test_adding_group_never_hurts_query_cost(self, table):
        advisor = LayoutAdvisor(table, CostModel())
        info = analyze_query(
            parse_query("SELECT sum(a1 + a2) FROM r WHERE a3 < 0"),
            table.schema,
        )
        base = advisor.query_cost(info, ())
        for group in [
            frozenset({"a1", "a2", "a3"}),
            frozenset({"a9", "a10"}),
            frozenset(table.schema.names),
        ]:
            assert advisor.query_cost(info, [group]) <= base + 1e-12

    def test_existing_exact_group_not_reproposed(self, table):
        attrs = [f"a{i}" for i in range(1, 13)]
        monitor, _ = repeated_pattern_monitor(table, attrs)
        advisor = LayoutAdvisor(table, CostModel())
        first = advisor.propose(monitor)
        assert first
        # Materialize the top proposal, then re-propose.
        manager = LayoutManager(table)
        manager.build_group(first[0].attrs)
        second = advisor.propose(monitor)
        assert all(
            c.attr_set != frozenset(first[0].attrs) for c in second
        )

    def test_candidate_covers(self):
        candidate = CandidateLayout(
            attrs=("a1", "a2", "a3"),
            frequency=3,
            benefit_per_use=1.0,
            build_cost=0.5,
            origin="select",
        )
        assert candidate.covers(frozenset({"a1", "a3"}))
        assert not candidate.covers(frozenset({"a1", "a9"}))
        assert not candidate.covers(frozenset())
        assert candidate.expected_gain == pytest.approx(2.5)


class TestLayoutManager:
    @pytest.fixture()
    def table(self):
        return generate_table("r", 10, 5000, rng=4, initial_layout="column")

    def test_build_group_registers_and_logs(self, table):
        manager = LayoutManager(table)
        group, seconds = manager.build_group(["a1", "a3"], query_index=5)
        assert group in table.layouts
        assert seconds >= 0
        event = manager.creation_log[0]
        assert event.attrs == ("a1", "a3")
        assert event.query_index == 5
        assert event.mode == "offline"
        assert manager.creation_seconds() >= 0

    def test_build_group_idempotent(self, table):
        manager = LayoutManager(table)
        first, _ = manager.build_group(["a1", "a2"])
        second, seconds = manager.build_group(["a2", "a1"])
        assert second is first
        assert seconds == 0.0
        assert len(manager.creation_log) == 1

    def test_register_group_mode_online(self, table):
        manager = LayoutManager(table)
        group, _stats = stitch_group(table.layouts, ["a5", "a6"], table.schema)
        manager.register_group(group, 0.01)
        assert manager.creation_log[0].mode == "online"


class TestReorganizer:
    @pytest.fixture()
    def table(self):
        return generate_table("r", 12, 20_000, rng=6, initial_layout="row")

    def test_offline_builds_correct_group(self, table):
        group, _seconds = LayoutManager(table).build_group(["a7", "a2"])
        assert group.attrs == ("a2", "a7")
        assert table.find_group(["a2", "a7"]) is group
        for attr in ("a2", "a7"):
            assert (group.column(attr) == table.column(attr)).all()

    def test_online_result_matches_separate_execution(self, table):
        reorg = Reorganizer()
        attrs = ["a1", "a2", "a3", "a4"]
        query = parse_query(
            "SELECT sum(a1 + a2), max(a3) FROM r WHERE a4 < 0"
        )
        info = analyze_query(query, table.schema)
        outcome = reorg.online(table, attrs, info)
        # Group correctness.
        for attr in attrs:
            assert (
                outcome.group.column(attr) == table.column(attr)
            ).all()
        # Query correctness vs numpy ground truth.
        a1 = np.asarray(table.column("a1"))
        a2 = np.asarray(table.column("a2"))
        a3 = np.asarray(table.column("a3"))
        mask = np.asarray(table.column("a4")) < 0
        assert outcome.result.scalars()[0] == pytest.approx(
            float((a1[mask] + a2[mask]).sum())
        )
        assert outcome.result.scalars()[1] == float(a3[mask].max())

    def test_online_projection(self, table):
        reorg = Reorganizer()
        info = analyze_query(
            parse_query("SELECT a1, a2 FROM r WHERE a3 < 0"), table.schema
        )
        outcome = reorg.online(table, ["a1", "a2", "a3"], info)
        mask = np.asarray(table.column("a3")) < 0
        assert (
            outcome.result.column(0) == np.asarray(table.column("a1"))[mask]
        ).all()

    def test_online_with_attrs_outside_group(self, table):
        """A select-clause group can be built while the predicate reads
        attributes that stay in the existing layouts."""
        reorg = Reorganizer()
        info = analyze_query(
            parse_query("SELECT sum(a1 + a2) FROM r WHERE a9 < 0"),
            table.schema,
        )
        outcome = reorg.online(table, ["a1", "a2"], info)
        assert outcome.group.attrs == ("a1", "a2")
        a1 = np.asarray(table.column("a1"))
        a2 = np.asarray(table.column("a2"))
        mask = np.asarray(table.column("a9")) < 0
        assert outcome.result.scalars()[0] == pytest.approx(
            float((a1[mask] + a2[mask]).sum())
        )

    def test_online_compaction_keeps_values_and_order(self):
        """The online answer is, bit for bit, a fused scan over the group
        it built — compiled or interpreted — on inexact floats over
        several morsels of several interpreter vectors each, from row
        and column bases, with a predicate attribute outside the group,
        for aggregation and projection."""
        morsel_rows = 10_000  # 30 000 rows: three morsels, ragged vectors
        rng = np.random.default_rng(17)
        names = [f"f{i}" for i in range(1, 9)]
        schema = Schema([Attribute(n, DataType.FLOAT64) for n in names])
        columns = {n: rng.standard_normal(30_000) * 1e3 for n in names}
        queries = (
            "SELECT sum(f1 + f7), avg(f2), min(f7), count(*) FROM r "
            "WHERE f7 > 0",
            "SELECT sum(f1 * f2), max(f3) FROM r",
            "SELECT f7, f1 + f2, f3 FROM r WHERE f7 < 0.5",
        )
        for base in ("row", "column"):
            table = Table.from_columns("r", schema, columns, base)
            for use_codegen in (True, False):
                config = EngineConfig(
                    morsel_rows=morsel_rows, use_codegen=use_codegen
                )
                executor = Executor(config)
                reorg = Reorganizer(
                    lambda info, plan, stitch: executor.run_plan(
                        info, plan, stitch=stitch
                    )
                )
                for sql in queries:
                    info = analyze_query(parse_query(sql), schema)
                    outcome = reorg.online(table, ["f1", "f2", "f3"], info)
                    group = outcome.group
                    assert np.array_equal(
                        group.data,
                        np.column_stack([columns[a] for a in group.attrs]),
                    )
                    assert outcome.stats.morsels_total == 3
                    assert outcome.stats.used_codegen is use_codegen
                    others = ("f7",) if "f7" in info.all_attrs else ()
                    plan = AccessPlan(
                        ExecutionStrategy.FUSED,
                        (group,) + table.narrowest_cover(others),
                    )
                    for twin in (True, False):
                        want, _ = Executor(
                            EngineConfig(
                                morsel_rows=morsel_rows, use_codegen=twin
                            )
                        ).run_plan(info, plan)
                        where = (base, use_codegen, twin, sql)
                        if info.is_aggregation:
                            assert [
                                v.hex() for v in outcome.result.scalars()
                            ] == [v.hex() for v in want.scalars()], where
                        else:
                            got = outcome.result.data
                            assert got.dtype == want.data.dtype, where
                            assert got.tobytes() == want.data.tobytes(), (
                                where
                            )

    def test_online_no_predicate(self, table):
        reorg = Reorganizer()
        info = analyze_query(
            parse_query("SELECT sum(a1) FROM r"), table.schema
        )
        outcome = reorg.online(table, ["a1", "a2"], info)
        assert outcome.result.scalars()[0] == pytest.approx(
            float(np.asarray(table.column("a1")).sum())
        )

    def test_full_width_online_group_is_row_kind(self, table):
        from repro.storage.layout import LayoutKind

        reorg = Reorganizer()
        info = analyze_query(parse_query("SELECT sum(a1) FROM r"), table.schema)
        outcome = reorg.online(table, list(table.schema.names), info)
        assert outcome.group.kind is LayoutKind.ROW
