"""The interpreted evaluator and the aggregate states it feeds."""

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
from repro.sql import parse_query
from repro.sql.expressions import Aggregate, AggregateFunc, col, lit


def resolver(**columns):
    arrays = {k: np.asarray(v) for k, v in columns.items()}
    return arrays.__getitem__


def finalized(state, count):
    """``state``'s aggregate over ``count`` rows, finished by the one
    combine rule every partial goes through."""
    arg = None if state.func is AggregateFunc.COUNT else col("a")
    agg = Aggregate(state.func, arg)
    agg_values, _ = combine_partial_aggregates(
        [agg], [(count, (state.state(),))]
    )
    return agg_values[agg]


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
        assert finalized(state, len(values)) == expected

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
            assert whole.state() == chunked.state()

    def test_empty_semantics(self):
        def empty(func):
            return finalized(AggregateAccumulator(func), 0)

        assert empty(AggregateFunc.SUM) == 0.0
        assert empty(AggregateFunc.COUNT) == 0.0
        assert np.isnan(empty(AggregateFunc.MIN))
        assert np.isnan(empty(AggregateFunc.AVG))

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
        assert agg_values[agg] == finalized(whole, len(values))


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
