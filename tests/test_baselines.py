"""The baseline engines: static row/column, optimal oracle, AutoPart."""

import numpy as np
import pytest

from repro.baselines import (
    AutoPartEngine,
    AutoPartPartitioner,
    ColumnStoreEngine,
    OptimalEngine,
    RowStoreEngine,
)
from repro.config import EngineConfig
from repro.core.engine import H2OEngine
from repro.errors import ExecutionError, WorkloadError
from repro.execution.strategies import ExecutionStrategy
from repro.sql import analyze_query, parse_query
from repro.storage import generate_table
from repro.storage.layout import LayoutKind
from repro.testkit import PAPER_SUBSTRATE
from repro.workloads.sequences import fig7_sequence


@pytest.fixture()
def table():
    return generate_table("r", 10, 8000, rng=8, initial_layout="column")


QUERIES = [
    "SELECT sum(a1 + a2) FROM r WHERE a3 < 0",
    "SELECT a1, a2 FROM r WHERE a4 > 0",
    "SELECT max(a5), min(a6), count(*) FROM r",
]


class TestStaticEngines:
    def test_row_engine_converts_layout(self, table):
        engine = RowStoreEngine(table)
        assert len(engine.table.layouts) == 1
        assert engine.table.layouts[0].kind is LayoutKind.ROW

    def test_row_engine_keeps_row_table(self):
        row = generate_table("r", 6, 1000, rng=1, initial_layout="row")
        engine = RowStoreEngine(row)
        assert engine.table is row

    def test_column_engine_keeps_column_table(self, table):
        engine = ColumnStoreEngine(table)
        assert engine.table is table

    def test_column_engine_decomposes_row_table(self):
        row = generate_table("r", 6, 1000, rng=1, initial_layout="row")
        engine = ColumnStoreEngine(row)
        assert all(l.kind is LayoutKind.COLUMN for l in engine.table.layouts)

    def test_all_engines_agree(self, table):
        engines = [
            RowStoreEngine(generate_table("r", 10, 8000, rng=8)),
            ColumnStoreEngine(generate_table("r", 10, 8000, rng=8)),
            OptimalEngine(generate_table("r", 10, 8000, rng=8)),
        ]
        for sql in QUERIES:
            results = [engine.execute(sql).result for engine in engines]
            for other in results[1:]:
                assert results[0].allclose(other), sql

    def test_h2o_matches_column_store_on_table1_sequence(self):
        # The Table 1 workload (the Fig. 7 sequence) at tier-1 scale:
        # adapting must not change a single answer.
        workload = fig7_sequence(
            num_attrs=60, num_rows=8_000, num_queries=30, rng=17
        )
        h2o = H2OEngine(
            workload.make_table(rng=1), EngineConfig(machine=PAPER_SUBSTRATE)
        )
        column = ColumnStoreEngine(workload.make_table(rng=1))
        for query in workload.queries:
            mine = h2o.execute(query).result
            assert np.array_equal(
                mine.data, column.execute(query).result.data
            ), query.to_sql()
        assert h2o.manager.creation_log, "the sequence never adapted"

    def test_strategies_match_design(self, table):
        col = ColumnStoreEngine(generate_table("r", 10, 1000, rng=8))
        row = RowStoreEngine(generate_table("r", 10, 1000, rng=8))
        assert col.execute(QUERIES[0]).strategy == "late"
        assert row.execute(QUERIES[0]).strategy == "fused"

    def test_wrong_table_rejected(self, table):
        engine = ColumnStoreEngine(table)
        with pytest.raises(ExecutionError):
            engine.execute("SELECT x FROM other")

    def test_cumulative_seconds(self, table):
        engine = ColumnStoreEngine(table)
        for sql in QUERIES:
            engine.execute(sql)
        assert engine.cumulative_seconds() == pytest.approx(
            sum(r.seconds for r in engine.reports)
        )


class TestOptimal:
    def test_reuses_perfect_groups(self, table):
        engine = OptimalEngine(table)
        engine.execute(QUERIES[0])
        engine.execute(QUERIES[0])
        assert len(engine._groups) == 1

    def test_distinct_patterns_distinct_groups(self, table):
        engine = OptimalEngine(table)
        engine.execute("SELECT a1 FROM r")
        engine.execute("SELECT a2 FROM r")
        assert len(engine._groups) == 2

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT sum(a1), sum(a2) FROM r WHERE a3 < 0 AND a4 > 0",
            "SELECT a1, a2, a3 FROM r",
            "SELECT a1 + a2, a5 FROM r WHERE a6 < 100",
        ],
    )
    @pytest.mark.parametrize("initial", ["column", "row"])
    def test_times_group_and_columns_and_names_the_winner(self, sql, initial):
        table = generate_table("r", 10, 8000, rng=8, initial_layout=initial)
        engine = OptimalEngine(table)
        report = engine.execute(sql)
        info = analyze_query(parse_query(sql), table.schema)
        plans = engine._plans(info)
        assert [p.strategy for p in plans] == [
            ExecutionStrategy.FUSED,
            ExecutionStrategy.LATE,
        ]
        group, columns = (
            engine.executor.run_plan(info, plan)[0] for plan in plans
        )
        assert np.array_equal(group.data, columns.data)
        assert np.array_equal(report.result.data, group.data)
        assert report.plan in {plan.describe() for plan in plans}
        assert report.strategy in {"fused", "late"}


class TestAutoPart:
    def workload(self):
        return [
            parse_query("SELECT a1, a2 FROM r WHERE a3 < 0"),
            parse_query("SELECT a1, a2 FROM r WHERE a3 < 5"),
            parse_query("SELECT sum(a4 + a5) FROM r"),
            parse_query("SELECT sum(a4 + a5) FROM r WHERE a3 < 0"),
        ]

    def test_atomic_fragments_group_by_signature(self, table):
        partitioner = AutoPartPartitioner(table.schema)
        fragments = partitioner.atomic_fragments(self.workload())
        # a1, a2 always travel together; a4, a5 likewise.
        assert frozenset({"a1", "a2"}) in fragments
        assert frozenset({"a4", "a5"}) in fragments
        # untouched attributes share the "never accessed" signature
        assert frozenset({"a6", "a7", "a8", "a9", "a10"}) in fragments

    def test_fit_covers_schema(self, table):
        partitioner = AutoPartPartitioner(table.schema)
        partitioning = partitioner.fit(self.workload(), table.num_rows)
        covered = set()
        for group in partitioning.groups:
            covered |= group
        assert covered == set(table.schema.names)

    def test_fit_rejects_empty_workload(self, table):
        with pytest.raises(WorkloadError):
            AutoPartPartitioner(table.schema).fit([], table.num_rows)

    def test_engine_prepare_and_run(self, table):
        workload = self.workload()
        engine = AutoPartEngine(table, workload)
        partitioning = engine.prepare()
        assert engine.layout_creation_seconds > 0
        assert partitioning is engine.partitioning
        # Old single-column layouts were replaced by the fragments.
        assert all(
            layout.width >= 1 for layout in engine.table.layouts
        )
        reference = ColumnStoreEngine(
            generate_table("r", 10, 8000, rng=8)
        )
        for query in workload:
            mine = engine.execute(query).result
            theirs = reference.execute(query).result
            assert mine.allclose(theirs)

    def test_engine_accepts_sql_strings(self, table):
        engine = AutoPartEngine(table, ["SELECT a1 FROM r"])
        assert engine.workload[0].table == "r"
