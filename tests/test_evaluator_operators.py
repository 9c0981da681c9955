"""The interpreted evaluator and the volcano operators."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.execution.morsel import combine_partial_aggregates
from repro.execution.evaluator import (
    AggregateAccumulator,
    collect_aggregates,
    evaluate_predicate,
    evaluate_value,
    finalize_output,
)
from repro.execution.operators import (
    AggregateOperator,
    Chunk,
    Filter,
    LayoutScan,
    Project,
)
from repro.sql import parse_query
from repro.sql.expressions import Aggregate, AggregateFunc, col, lit


def resolver(**columns):
    arrays = {k: np.asarray(v) for k, v in columns.items()}
    return arrays.__getitem__


class TestEvaluateValue:
    def test_column_and_literal(self):
        resolve = resolver(a=[1, 2, 3])
        assert (evaluate_value(col("a"), resolve) == [1, 2, 3]).all()
        assert evaluate_value(lit(7), resolve) == 7

    def test_arithmetic(self):
        resolve = resolver(a=[1, 2], b=[10, 20])
        out = evaluate_value(col("a") + col("b") * 2, resolve)
        assert list(out) == [21, 42]

    def test_aggregate_rejected(self):
        agg = Aggregate(AggregateFunc.SUM, col("a"))
        with pytest.raises(ExecutionError):
            evaluate_value(agg, resolver(a=[1]))


class TestEvaluatePredicate:
    def test_comparison(self):
        resolve = resolver(a=[1, 5, 3])
        mask = evaluate_predicate(col("a") < 4, resolve)
        assert list(mask) == [True, False, True]

    def test_boolean_combinations(self):
        resolve = resolver(a=[1, 5, 3], b=[9, 0, 9])
        both = (col("a") < 4).__and__ if False else None
        from repro.sql.expressions import BoolConnective, BooleanOp, Not

        conj = BooleanOp(BoolConnective.AND, col("a") < 4, col("b") > 5)
        assert list(evaluate_predicate(conj, resolve)) == [True, False, True]
        disj = BooleanOp(BoolConnective.OR, col("a") > 4, col("b") > 5)
        assert list(evaluate_predicate(disj, resolve)) == [True, True, True]
        neg = Not(col("a") < 4)
        assert list(evaluate_predicate(neg, resolve)) == [False, True, False]

    def test_value_expr_rejected_as_predicate(self):
        with pytest.raises(ExecutionError):
            evaluate_predicate(col("a") + 1, resolver(a=[1]))


class TestAccumulator:
    @pytest.mark.parametrize(
        "func,values,expected",
        [
            (AggregateFunc.SUM, [1, 2, 3], 6.0),
            (AggregateFunc.MIN, [5, -2, 3], -2.0),
            (AggregateFunc.MAX, [5, -2, 3], 5.0),
            (AggregateFunc.AVG, [2, 4], 3.0),
            (AggregateFunc.COUNT, [9, 9, 9], 3.0),
        ],
    )
    def test_single_block(self, func, values, expected):
        state = AggregateAccumulator(func)
        arr = np.asarray(values)
        state.update(arr if func is not AggregateFunc.COUNT else None, len(values))
        assert state.finalize() == expected

    def test_streaming_equals_single_shot(self):
        rng = np.random.default_rng(0)
        values = rng.integers(-100, 100, 97)
        for func in (AggregateFunc.SUM, AggregateFunc.MIN, AggregateFunc.MAX):
            whole = AggregateAccumulator(func)
            whole.update(values, len(values))
            chunked = AggregateAccumulator(func)
            for start in range(0, len(values), 10):
                block = values[start : start + 10]
                chunked.update(block, len(block))
            assert whole.finalize() == chunked.finalize()

    def test_empty_semantics(self):
        assert AggregateAccumulator(AggregateFunc.SUM).finalize() == 0.0
        assert AggregateAccumulator(AggregateFunc.COUNT).finalize() == 0.0
        assert np.isnan(AggregateAccumulator(AggregateFunc.MIN).finalize())
        assert np.isnan(AggregateAccumulator(AggregateFunc.AVG).finalize())

    @pytest.mark.parametrize("func", list(AggregateFunc))
    def test_states_combine_to_the_whole(self, func):
        """Per-morsel ``state()`` slots folded by the shared combine
        contract equal one accumulator over all the values — including
        an empty partial, which must contribute nothing."""
        values = np.array([3.5, -4.0, 1.25, 9.0, 2.0])
        arg = None if func is AggregateFunc.COUNT else col("a")
        agg = Aggregate(func, arg)
        whole = AggregateAccumulator(func)
        whole.update(values, len(values))
        payloads = []
        for part in (values[:2], values[:0], values[2:]):
            state = AggregateAccumulator(func)
            state.update(part, len(part))
            payloads.append((len(part), (state.state(),)))
        agg_values, count = combine_partial_aggregates([agg], payloads)
        assert count == len(values)
        assert agg_values[agg] == whole.finalize()


class TestFinalizeOutput:
    def test_arithmetic_over_aggregates(self):
        s = Aggregate(AggregateFunc.SUM, col("a"))
        m = Aggregate(AggregateFunc.MIN, col("b"))
        value = finalize_output(s - m, {s: 10.0, m: 4.0})
        assert value == 6.0

    def test_collect_deduplicates(self):
        query = parse_query("SELECT sum(a) + sum(a), min(b) FROM r")
        aggs = collect_aggregates(query.select)
        assert len(aggs) == 2


class TestOperators:
    def test_scan_produces_requested_columns(self, column_table):
        scan = LayoutScan(column_table.layouts, ("a1", "a3"), 512)
        chunks = list(scan)
        assert sum(c.num_rows for c in chunks) == column_table.num_rows
        for chunk in chunks:
            chunk.validate()
            assert set(chunk.columns) == {"a1", "a3"}

    def test_filter_compacts(self, column_table):
        scan = LayoutScan(column_table.layouts, ("a1",), 512)
        filtered = Filter(scan, col("a1") < 0)
        total = sum(chunk.num_rows for chunk in filtered)
        expected = int((column_table.column("a1") < 0).sum())
        assert total == expected

    def test_project_row_major_output(self, column_table):
        scan = LayoutScan(column_table.layouts, ("a1", "a2"), 512)
        project = Project(scan, parse_query("SELECT a1 + a2 FROM r").select)
        blocks = [c.col(Project.OUTPUT_KEY) for c in project]
        stacked = np.concatenate(blocks)
        expected = column_table.column("a1") + column_table.column("a2")
        assert (stacked[:, 0] == expected).all()

    def test_aggregate_operator(self, column_table):
        query = parse_query("SELECT sum(a1), count(*) FROM r")
        scan = LayoutScan(column_table.layouts, ("a1",), 512)
        agg = AggregateOperator(scan, query.select)
        for _ in agg:
            pass
        result = agg.result()
        assert result.scalars()[0] == pytest.approx(
            float(column_table.column("a1").sum())
        )
        assert result.scalars()[1] == column_table.num_rows

    def test_chunk_missing_column(self):
        chunk = Chunk(num_rows=1, columns={"a": np.array([1])})
        with pytest.raises(ExecutionError):
            chunk.col("b")

    def test_chunk_validate_catches_mismatch(self):
        chunk = Chunk(num_rows=2, columns={"a": np.array([1])})
        with pytest.raises(ExecutionError):
            chunk.validate()
