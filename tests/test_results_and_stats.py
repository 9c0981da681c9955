"""QueryResult semantics and executor statistics/accounting."""

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.errors import ExecutionError
from repro.execution import Executor, QueryResult, enumerate_plans
from repro.execution.strategies import AccessPlan, ExecutionStrategy
from repro.sql import analyze_query, parse_query
from repro.storage import generate_table


class TestQueryResult:
    def test_scalar_row(self):
        result = QueryResult.scalar_row(["x", "y"], [1.0, 2.0])
        assert result.num_rows == 1
        assert result.scalars() == (1.0, 2.0)

    def test_scalars_requires_single_row(self):
        result = QueryResult(["x"], np.zeros((3, 1)))
        with pytest.raises(ExecutionError):
            result.scalars()

    def test_from_blocks_empty(self):
        result = QueryResult.from_blocks(["a", "b"], [])
        assert result.num_rows == 0
        assert result.num_columns == 2

    def test_from_blocks_concatenates(self):
        blocks = [np.ones((2, 1)), np.zeros((3, 1))]
        result = QueryResult.from_blocks(["v"], blocks)
        assert result.num_rows == 5
        assert list(result.column("v")) == [1, 1, 0, 0, 0]

    def test_from_blocks_adopts_a_lone_block(self):
        # One surviving morsel (any table up to morsel_rows rows, any
        # well-pruned projection) must not duplicate the whole result.
        block = np.arange(6.0).reshape(3, 2)
        result = QueryResult.from_blocks(["a", "b"], [block])
        assert np.shares_memory(result.data, block)
        assert result.rows() == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]

    def test_column_by_name_and_index(self):
        result = QueryResult(["p", "q"], np.arange(6).reshape(3, 2))
        assert (result.column("q") == result.column(1)).all()
        with pytest.raises(ExecutionError):
            result.column("nope")

    def test_shape_validation(self):
        with pytest.raises(ExecutionError):
            QueryResult(["a"], np.zeros(3))
        with pytest.raises(ExecutionError):
            QueryResult(["a", "b"], np.zeros((3, 1)))

    def test_allclose_semantics(self):
        a = QueryResult(["v"], np.array([[1.0], [2.0]]))
        b = QueryResult(["v"], np.array([[1.0], [2.0 + 1e-12]]))
        c = QueryResult(["v"], np.array([[1.0]]))
        d = QueryResult(["v", "w"], np.ones((2, 2)))
        assert a.allclose(b)
        assert not a.allclose(c)  # row-count mismatch
        assert not a.allclose(d)  # column-count mismatch

    def test_allclose_nan_equal(self):
        a = QueryResult.scalar_row(["v"], [float("nan")])
        b = QueryResult.scalar_row(["v"], [float("nan")])
        assert a.allclose(b)

    def test_empty_results_allclose(self):
        a = QueryResult.empty(["v"])
        b = QueryResult.empty(["v"])
        assert a.allclose(b)

    def test_rows(self):
        result = QueryResult(["a", "b"], np.arange(4).reshape(2, 2))
        assert result.rows() == [(0, 1), (2, 3)]


@pytest.fixture(scope="module")
def table():
    return generate_table("r", 8, 4000, rng=13, initial_layout="column")


class TestExecutorAccounting:
    def test_late_plan_runs_interpreted(self, table):
        executor = Executor(EngineConfig(use_codegen=False))
        info = analyze_query(
            parse_query("SELECT a1 + a2 FROM r WHERE a3 < 0"), table.schema
        )
        plan = AccessPlan(
            ExecutionStrategy.LATE, table.narrowest_cover(info.all_attrs)
        )
        _result, stats = executor.run_plan(info, plan)
        assert stats.strategy is ExecutionStrategy.LATE
        assert not stats.used_codegen

    def test_generated_path_reports_codegen_time(self, table):
        executor = Executor(EngineConfig(operator_cache=False))
        info = analyze_query(
            parse_query("SELECT sum(a1) FROM r"), table.schema
        )
        plan = enumerate_plans(table, info)[0]
        _result, stats = executor.run_plan(info, plan)
        assert stats.used_codegen
        assert stats.codegen_seconds > 0
        assert not stats.codegen_cache_hit

    def test_cache_hit_reported(self, table):
        executor = Executor(EngineConfig())
        info = analyze_query(
            parse_query("SELECT sum(a2) FROM r"), table.schema
        )
        plan = enumerate_plans(table, info)[0]
        executor.run_plan(info, plan)
        _result, stats = executor.run_plan(info, plan)
        assert stats.codegen_cache_hit

    def test_rows_out(self, table):
        executor = Executor(EngineConfig())
        info = analyze_query(
            parse_query("SELECT a1 FROM r WHERE a2 < 0"), table.schema
        )
        plan = enumerate_plans(table, info)[0]
        result, stats = executor.run_plan(info, plan)
        assert stats.rows_out == result.num_rows

    def test_attribute_free_plan_description(self, table):
        executor = Executor(EngineConfig())
        info = analyze_query(parse_query("SELECT count(*) FROM r"), table.schema)
        plan = enumerate_plans(table, info)[0]
        result, stats = executor.run_plan(info, plan)
        assert stats.plan == "attribute-free"
        assert result.scalars() == (4000.0,)

    def test_constant_sum_matches_with_and_without_attributes(self, table):
        """``sum(0.1)`` is ``0.1 * count`` whether or not the query
        reads a column, as in the kernels and the interpreters."""
        executor = Executor(EngineConfig())
        sums = []
        for sql in ("SELECT sum(0.1) FROM r", "SELECT sum(0.1), sum(a1) FROM r"):
            info = analyze_query(parse_query(sql), table.schema)
            result, _ = executor.run_plan(info, enumerate_plans(table, info)[0])
            sums.append(result.scalars()[0])
        assert sums[0].hex() == sums[1].hex() == (0.1 * table.num_rows).hex()


class TestServedFraction:
    def test_no_groups_is_zero(self, table):
        from repro.core.engine import H2OEngine

        engine = H2OEngine(
            generate_table("r", 8, 1000, rng=1, initial_layout="column")
        )
        engine.execute("SELECT a1, a2 FROM r")
        assert engine.adaptation.served_fraction() == 0.0

    def test_row_layout_does_not_count(self):
        from repro.core.engine import H2OEngine

        engine = H2OEngine(
            generate_table("r", 8, 1000, rng=1, initial_layout="row")
        )
        engine.execute("SELECT a1, a2 FROM r")
        assert engine.adaptation.served_fraction() == 0.0

    def test_group_serves_contained_queries(self):
        from repro.core.engine import H2OEngine
        from repro.core.layout_manager import LayoutManager

        engine = H2OEngine(
            generate_table("r", 8, 1000, rng=1, initial_layout="column")
        )
        LayoutManager(engine.table).build_group(["a1", "a2", "a3"])
        engine.execute("SELECT a1, a2 FROM r")
        engine.execute("SELECT a7 FROM r")
        assert engine.adaptation.served_fraction() == pytest.approx(0.5)
