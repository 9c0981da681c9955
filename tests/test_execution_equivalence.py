"""Cross-path equivalence: every (strategy × layout × codegen) combination
must return identical results — the core correctness contract."""

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.errors import ExecutionError
from repro.execution import Executor, enumerate_plans
from repro.execution.strategies import ExecutionStrategy, fused_allowed
from repro.sql import analyze_query, parse_query
from repro.storage import generate_table
from repro.storage.stitcher import stitch_group

QUERIES = [
    "SELECT a1 FROM r",
    "SELECT a1, a2, a3 FROM r",
    "SELECT a1 FROM r WHERE a2 < 0",
    "SELECT a1, a2 FROM r WHERE a3 < 0 AND a4 > 0",
    "SELECT a1 + a2 FROM r",
    "SELECT a1 + a2 * a3 FROM r WHERE a4 < 100",
    "SELECT sum(a1) FROM r",
    "SELECT sum(a1), min(a2), max(a3), avg(a4), count(*) FROM r",
    "SELECT sum(a1 + a2 + a3) FROM r",
    "SELECT sum(a1 + a2 + a3 + a4) FROM r WHERE a5 < 0",
    "SELECT max(a1) FROM r WHERE a2 < 0 OR a3 > 0",
    "SELECT sum(a1) - min(a2) FROM r WHERE a3 < 0",
    "SELECT count(*) FROM r WHERE a1 < 0 AND a2 < 0 AND a3 < 0",
    "SELECT a1 FROM r WHERE a1 > 2000000000",  # empty result
    "SELECT sum(a1) FROM r WHERE a1 > 2000000000",  # empty aggregation
    "SELECT avg(a1 + a2) FROM r WHERE a3 != 0",
    "SELECT a1 - a2, a3 * 2 FROM r WHERE NOT a4 < 0",
]


def all_results(query_sql, tables, executors):
    results = []
    for table in tables:
        info = analyze_query(parse_query(query_sql), table.schema)
        for plan in enumerate_plans(table, info):
            for executor in executors:
                result, stats = executor.run_plan(info, plan)
                results.append((result, stats.plan, stats.used_codegen))
    return results


@pytest.fixture(scope="module")
def tables():
    column = generate_table("r", 8, 3000, rng=5, initial_layout="column")
    row = generate_table("r", 8, 3000, rng=5, initial_layout="row")
    # A third table with a partial group + singles (mixed layouts).
    mixed = generate_table("r", 8, 3000, rng=5, initial_layout="column")
    group, _ = stitch_group(
        mixed.layouts, ("a1", "a2", "a3"), mixed.schema
    )
    mixed.add_layout(group)
    return [column, row, mixed]


@pytest.fixture(scope="module")
def executors():
    return [
        Executor(EngineConfig(use_codegen=True)),
        Executor(EngineConfig(use_codegen=False)),
        # Interpreted over small odd morsels: vectors cut at morsel ends.
        Executor(EngineConfig(use_codegen=False, morsel_rows=257)),
    ]


@pytest.mark.parametrize("sql", QUERIES)
def test_all_paths_agree(sql, tables, executors):
    results = all_results(sql, tables, executors)
    assert len(results) >= 6
    baseline, base_plan, _ = results[0]
    for result, plan, used_codegen in results[1:]:
        assert baseline.allclose(result), (
            f"{sql}: plan {plan} (codegen={used_codegen}) diverged from "
            f"{base_plan}"
        )


def test_results_match_numpy_reference(tables, executors):
    """Independent ground truth, not just self-consistency."""
    table = tables[0]
    a1 = np.asarray(table.column("a1"))
    a2 = np.asarray(table.column("a2"))
    a3 = np.asarray(table.column("a3"))
    mask = (a3 < 0) & (a2 > 0)

    info = analyze_query(
        parse_query("SELECT sum(a1 + a2) FROM r WHERE a3 < 0 AND a2 > 0"),
        table.schema,
    )
    plan = enumerate_plans(table, info)[0]
    result, _ = executors[0].run_plan(info, plan)
    expected = float((a1[mask] + a2[mask]).sum())
    assert result.scalars()[0] == pytest.approx(expected)

    info = analyze_query(
        parse_query("SELECT a1, a1 + a2 FROM r WHERE a3 < 0"),
        table.schema,
    )
    plan = enumerate_plans(table, info)[0]
    result, _ = executors[0].run_plan(info, plan)
    keep = a3 < 0
    assert (result.column(0) == a1[keep]).all()
    assert (result.column(1) == (a1 + a2)[keep]).all()


def test_fused_allowed_rules(tables):
    column, row, mixed = tables
    assert not fused_allowed(column.layouts)  # all singles
    assert fused_allowed(row.layouts)
    group = mixed.find_group({"a1", "a2", "a3"})
    assert fused_allowed((group,))
    # A couple of stray singles alongside a group are tolerated...
    assert fused_allowed((group, column.layouts[0]))
    assert fused_allowed((group,) + tuple(column.layouts[:2]))
    # ...but not three or more, and never a singles-only cover.
    assert not fused_allowed((group,) + tuple(column.layouts[:3]))
    assert not fused_allowed(tuple(column.layouts[:2]))


def test_enumerate_plans_strategies(tables):
    column, row, mixed = tables
    info = analyze_query(
        parse_query("SELECT a1, a2 FROM r WHERE a3 < 0"), column.schema
    )
    plans_column = enumerate_plans(column, info)
    assert all(
        p.strategy is ExecutionStrategy.LATE for p in plans_column
    )
    plans_row = enumerate_plans(row, info)
    assert any(p.strategy is ExecutionStrategy.FUSED for p in plans_row)
    plans_mixed = enumerate_plans(mixed, info)
    # the a1-a3 group enables a fused plan on the mixed table
    assert any(
        p.strategy is ExecutionStrategy.FUSED for p in plans_mixed
    )


def test_operator_cache_reuses_across_constants(tables):
    """Same masked structure, different literals → one kernel."""
    executor = Executor(EngineConfig())
    table = tables[1]  # row layout
    first = analyze_query(
        parse_query("SELECT sum(a1) FROM r WHERE a2 < 100"), table.schema
    )
    second = analyze_query(
        parse_query("SELECT sum(a1) FROM r WHERE a2 < -5000"), table.schema
    )
    plan1 = enumerate_plans(table, first)[0]
    plan2 = enumerate_plans(table, second)[0]
    executor.run_plan(first, plan1)
    hits_before = executor.operator_cache.hits
    result, stats = executor.run_plan(second, plan2)
    assert executor.operator_cache.hits == hits_before + 1
    assert stats.codegen_cache_hit
    a1 = np.asarray(table.column("a1"))
    a2 = np.asarray(table.column("a2"))
    assert result.scalars()[0] == pytest.approx(float(a1[a2 < -5000].sum()))


#: A predicate that reads no column (left) against one that qualifies
#: the same rows by reading a column (right): no row for a false
#: constant, every row (or the other conjuncts' rows) for a true one.
CONSTANT_PREDICATES = [
    ("SELECT count(*) FROM r WHERE 1 > 2", "SELECT count(*) FROM r WHERE a1 > 2000000000"),
    ("SELECT count(*) FROM r WHERE 2 > 1", "SELECT count(*) FROM r"),
    ("SELECT sum(7) FROM r WHERE 1 > 2", "SELECT sum(7) FROM r WHERE a1 > 2000000000"),
    ("SELECT sum(7), count(*) FROM r WHERE NOT (1 > 2)", "SELECT sum(7), count(*) FROM r"),
    ("SELECT 7 FROM r WHERE 1 > 2", "SELECT 7 FROM r WHERE a1 > 2000000000"),
    ("SELECT 7 FROM r WHERE 2 > 1", "SELECT 7 FROM r WHERE a1 = a1"),
    ("SELECT 7, 2.5 FROM r", "SELECT 7, 2.5 FROM r WHERE a1 = a1"),
    ("SELECT sum(a1) FROM r WHERE 1 > 2", "SELECT sum(a1) FROM r WHERE a1 > 2000000000"),
    ("SELECT sum(a1) FROM r WHERE 2 > 1", "SELECT sum(a1) FROM r"),
    ("SELECT sum(a1), count(*) FROM r WHERE a2 > 0 AND 1 > 2", "SELECT sum(a1), count(*) FROM r WHERE a2 > 2000000000"),
    ("SELECT sum(a1), count(*) FROM r WHERE a2 > 0 AND 2 >= 1", "SELECT sum(a1), count(*) FROM r WHERE a2 > 0"),
    ("SELECT a1, a2 FROM r WHERE 1 > 2", "SELECT a1, a2 FROM r WHERE a1 > 2000000000"),
    ("SELECT a1, a2 FROM r WHERE 1 = 1", "SELECT a1, a2 FROM r"),
    ("SELECT a1, 3 FROM r WHERE a2 > 0 AND 1 > 2", "SELECT a1, 3 FROM r WHERE a2 > 2000000000"),
    ("SELECT a1, 3 FROM r WHERE a2 > 0 AND NOT (1 > 2)", "SELECT a1, 3 FROM r WHERE a2 > 0"),
    ("SELECT count(*) FROM r WHERE 1 > 2 OR a2 > 0", "SELECT count(*) FROM r WHERE a2 > 0"),
    ("SELECT count(*) FROM r WHERE a2 > 0 OR 2 > 1", "SELECT count(*) FROM r"),
    ("SELECT max(a1) FROM r WHERE a2 > 0 AND (1 > 2 OR 3 > 2)", "SELECT max(a1) FROM r WHERE a2 > 0"),
]


@pytest.mark.parametrize("sql, reference", CONSTANT_PREDICATES)
def test_constant_predicates_fold_on_every_path(sql, reference, tables, executors):
    expected = all_results(reference, tables[:1], executors[:1])[0][0]
    results = all_results(sql, tables, executors)
    if analyze_query(parse_query(sql), tables[0].schema).all_attrs:
        # Both the kernels and the interpreters answered.
        assert {used for _, _, used in results} == {True, False}
    for result, plan, used_codegen in results:
        assert result.data.dtype == expected.data.dtype, (plan, used_codegen)
        assert np.array_equal(
            result.data, expected.data, equal_nan=True
        ), (sql, plan, used_codegen)


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("strategy", list(ExecutionStrategy))
@pytest.mark.parametrize("use_codegen", [True, False])
def test_equal_width_providers_read_the_first_layout(
    first, strategy, use_codegen
):
    """Two equally narrow layouts store ``a1`` (with different values, so
    the answer shows which one was read): generated kernels, both
    interpreters and the zone-map binding all read the first of them.
    A plan with no provider of an attribute raises naming it."""
    from repro.execution.strategies import AccessPlan
    from repro.storage.column_group import ColumnGroup

    rng = np.random.default_rng(9)
    rows = 3000
    data = [rng.integers(-1000, 1000, size=(rows, 2)) for _ in range(2)]
    layouts = [
        ColumnGroup(("a1", "a2"), data[0]),
        ColumnGroup(("a1", "a3"), data[1]),
    ]
    if first:
        layouts.reverse()
    a1 = layouts[0].column("a1")
    schema = generate_table("r", 3, 1, rng=0).schema
    executor = Executor(EngineConfig(use_codegen=use_codegen, morsel_rows=512))
    plan = AccessPlan(strategy, tuple(layouts))
    for sql, expected in (
        ("SELECT sum(a1), count(*) FROM r WHERE a1 > 500",
         [[float(a1[a1 > 500].sum()), float((a1 > 500).sum())]]),
        ("SELECT a1 FROM r WHERE a1 < -900", a1[a1 < -900][:, None]),
    ):
        info = analyze_query(parse_query(sql), schema)
        result, stats = executor.run_plan(info, plan)
        assert stats.used_codegen == use_codegen
        assert np.array_equal(result.data, np.asarray(expected)), sql
    info = analyze_query(
        parse_query("SELECT sum(a3) FROM r WHERE a1 > 0"), schema
    )
    without_a3 = next(layout for layout in layouts if "a3" not in layout.attrs)
    with pytest.raises(ExecutionError, match="'a3'"):
        executor.run_plan(info, AccessPlan(strategy, (without_a3,)))
