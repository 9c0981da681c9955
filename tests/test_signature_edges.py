"""Edge cases for the literal extractor and shape signatures.

The fast lane's correctness rests on one invariant: two queries map to
the same :class:`~repro.sql.signature.QueryShapeSignature` **iff** a
kernel compiled for one can be re-bound with the other's literal vector.
These tests pin the tricky corners of that invariant — IN lists of
different lengths, literals duplicated across clauses, and int-vs-float
drift, literals inside COUNT's argument — end to end through the
engine's plan cache.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import H2OEngine, generate_table, parse_query
from repro.config import EngineConfig
from repro.execution.executor import Executor
from repro.execution.strategies import AccessPlan, ExecutionStrategy
from repro.sql import analyze_query
from repro.sql.signature import (
    masked_sql,
    query_literals,
    shape_signature,
)
from repro.storage.stitcher import stitch_group


@pytest.fixture(scope="module")
def table():
    return generate_table("r", num_attrs=8, num_rows=2000, rng=11)


# ---------------------------------------------------------------------------
# IN lists of varying length
# ---------------------------------------------------------------------------


class TestInLists:
    def test_in_desugars_to_or_chain_of_masked_equalities(self):
        query = parse_query("SELECT a1 FROM r WHERE a2 IN (1, 2, 3)")
        masked = masked_sql(query.where)
        assert masked.count("?") == 3
        assert masked.count("OR") == 2

    def test_different_in_lengths_are_different_shapes(self):
        two = parse_query("SELECT sum(a1) FROM r WHERE a2 IN (1, 2)")
        three = parse_query("SELECT sum(a1) FROM r WHERE a2 IN (1, 2, 3)")
        assert shape_signature(two) != shape_signature(three)
        # The structural part alone must already differ: a 2-element IN
        # has one fewer comparison than a 3-element IN.
        assert shape_signature(two).masked_where != (
            shape_signature(three).masked_where
        )

    def test_same_length_in_rebinds_literals_in_order(self):
        first = parse_query("SELECT sum(a1) FROM r WHERE a2 IN (10, 20, 30)")
        second = parse_query("SELECT sum(a1) FROM r WHERE a2 IN (7, 5, 9)")
        assert shape_signature(first) == shape_signature(second)
        assert first.literals == (10, 20, 30)
        assert second.literals == (7, 5, 9)

    def test_in_fast_lane_result_matches_cold_execution(self, table):
        """A kernel cached for one IN query answers another correctly."""
        engine = H2OEngine(table, config=EngineConfig())
        engine.execute("SELECT count(*) FROM r WHERE a1 IN (1, 2, 3)")
        repeat_sql = "SELECT count(*) FROM r WHERE a1 IN (4, 5, 6)"
        repeat = engine.execute(repeat_sql)
        fresh = H2OEngine(table, config=EngineConfig()).execute(repeat_sql)
        assert repeat.result.scalars() == fresh.result.scalars()


# ---------------------------------------------------------------------------
# Duplicate literals across clauses
# ---------------------------------------------------------------------------


class TestDuplicateLiterals:
    def test_duplicates_keep_positional_identity(self):
        query = parse_query(
            "SELECT sum(a1 + 5) FROM r WHERE a2 > 5 AND a3 < 5"
        )
        # All three 5s appear, in canonical order: predicate conjuncts
        # first (pre-order), then the aggregate arguments.
        assert query_literals(query) == [5, 5, 5]

    def test_duplicates_rebind_independently(self):
        base = parse_query(
            "SELECT sum(a1 + 5) FROM r WHERE a2 > 5 AND a3 < 5"
        )
        repeat = parse_query(
            "SELECT sum(a1 + 7) FROM r WHERE a2 > 1 AND a3 < 3"
        )
        assert shape_signature(base) == shape_signature(repeat)
        # Position, not value, decides the binding: the predicate
        # literals come first, the select literal last.
        assert repeat.literals == (1, 3, 7)

    def test_duplicate_aggregates_fold_in_literal_order(self):
        """``sum(x+1), sum(x+1)`` dedups to one accumulator's literals."""
        folded = parse_query("SELECT sum(a1 + 1), sum(a1 + 1) FROM r")
        distinct = parse_query("SELECT sum(a1 + 1), sum(a1 + 2) FROM r")
        assert query_literals(folded) == [1]
        assert query_literals(distinct) == [1, 2]
        # Masked text collides; param_types keeps the shapes apart.
        assert shape_signature(folded) != shape_signature(distinct)

    def test_duplicate_fast_lane_correctness(self, table):
        engine = H2OEngine(table, config=EngineConfig())
        engine.execute(
            "SELECT sum(a1 + 5) FROM r WHERE a2 > 5 AND a3 < 5"
        )
        repeat_sql = "SELECT sum(a1 + 100) FROM r WHERE a2 > -50 AND a3 < 50"
        warm = engine.execute(repeat_sql)
        cold = H2OEngine(table, config=EngineConfig()).execute(repeat_sql)
        np.testing.assert_allclose(
            warm.result.scalars(), cold.result.scalars()
        )


# ---------------------------------------------------------------------------
# Int vs. float drift
# ---------------------------------------------------------------------------


class TestNumericTypeDrift:
    def test_int_and_float_literals_are_different_shapes(self):
        as_int = parse_query("SELECT sum(a1) FROM r WHERE a2 > 5")
        as_float = parse_query("SELECT sum(a1) FROM r WHERE a2 > 5.0")
        assert shape_signature(as_int).masked_where == (
            shape_signature(as_float).masked_where
        )
        assert shape_signature(as_int).param_types == ("int",)
        assert shape_signature(as_float).param_types == ("float",)
        assert shape_signature(as_int) != shape_signature(as_float)

    def test_mixed_drift_in_one_clause(self):
        a = parse_query("SELECT a1 FROM r WHERE a2 > 1 AND a3 < 2.0")
        b = parse_query("SELECT a1 FROM r WHERE a2 > 1.0 AND a3 < 2")
        assert shape_signature(a).param_types == ("int", "float")
        assert shape_signature(b).param_types == ("float", "int")
        assert shape_signature(a) != shape_signature(b)

    def test_drift_does_not_poison_the_plan_cache(self, table):
        """Int-shape cache entries never serve float-literal repeats."""
        engine = H2OEngine(table, config=EngineConfig())
        int_report = engine.execute("SELECT sum(a1 + 1) FROM r")
        float_report = engine.execute("SELECT sum(a1 + 1.5) FROM r")
        cold = H2OEngine(table, config=EngineConfig())
        np.testing.assert_allclose(
            float_report.result.scalars(),
            cold.execute("SELECT sum(a1 + 1.5) FROM r").result.scalars(),
        )
        np.testing.assert_allclose(
            int_report.result.scalars(),
            cold.execute("SELECT sum(a1 + 1) FROM r").result.scalars(),
        )


# ---------------------------------------------------------------------------
# Literals inside COUNT's argument
# ---------------------------------------------------------------------------


def _interpreted(table, sql):
    engine = H2OEngine(table, config=EngineConfig(use_codegen=False))
    return engine.execute(sql).result


class TestCountArguments:
    """COUNT never evaluates its argument (the engine has no NULLs), but
    the argument's literals hold places in the canonical parameter
    vector, so every kernel template must register them too."""

    @pytest.mark.parametrize(
        "strategy", list(ExecutionStrategy), ids=lambda s: s.value
    )
    @pytest.mark.parametrize(
        "where", ["", " WHERE a2 > 10"], ids=["scan", "filter"]
    )
    def test_every_template_compiles_count_of_expression(
        self, table, strategy, where
    ):
        group, _ = stitch_group(
            table.layouts, ("a1", "a2", "a3"), table.schema
        )
        sql = f"SELECT count(a1 * 2), sum(a3 + 5) FROM r{where}"
        info = analyze_query(parse_query(sql), table.schema)
        plan = AccessPlan(strategy, (group,))
        got, stats = Executor(EngineConfig()).run_plan(info, plan)
        want, _ = Executor(EngineConfig(use_codegen=False)).run_plan(
            info, plan
        )
        assert stats.used_codegen and not stats.codegen_fallback
        assert got.column_names == want.column_names
        assert np.array_equal(got.data, want.data)

    def test_generated_answer_is_bit_identical_to_the_interpreter(
        self, table
    ):
        sql = "SELECT count(a1 * 2) FROM r WHERE a2 > 10"
        report = H2OEngine(table, config=EngineConfig()).execute(sql)
        assert report.used_codegen and not report.codegen_fallback
        want = _interpreted(table, sql)
        assert report.result.column_names == want.column_names
        assert np.array_equal(report.result.data, want.data)

    def test_fast_lane_repeat_rebinds_fresh_literals(self, table):
        engine = H2OEngine(table, config=EngineConfig())
        engine.execute("SELECT count(a1 * 2), sum(a3 + 5) FROM r WHERE a2 > 10")
        sql = "SELECT count(a1 * 3), sum(a3 + 7) FROM r WHERE a2 > -20"
        repeat = engine.execute(sql)
        assert repeat.plan_cache_hit and repeat.used_codegen
        want = _interpreted(table, sql)
        assert np.array_equal(repeat.result.data, want.data)
        # Output names render the hit's own literals, not the cached
        # query's: the signature masks SELECT literals.
        assert repeat.result.column_names == want.column_names
        assert repeat.result.column_names[0] == "count((a1 * 3))"

    def test_dedup_never_shares_a_kernel_across_slot_counts(self, table):
        distinct = "SELECT count(a1 + 1), count(a1 + 2) FROM r WHERE a2 > 0"
        folded = "SELECT count(a1 + 1), count(a1 + 1) FROM r WHERE a2 > 0"
        assert query_literals(parse_query(distinct)) == [0, 1, 2]
        assert query_literals(parse_query(folded)) == [0, 1]
        engine = H2OEngine(table, config=EngineConfig())
        for sql in (distinct, folded, distinct):
            report = engine.execute(sql)
            assert report.used_codegen and not report.codegen_fallback
            assert np.array_equal(
                report.result.data, _interpreted(table, sql).data
            )
        assert report.plan_cache_hit
