"""Property test: generated kernels == interpreted operators, for random
queries over random layout combinations (the core codegen contract)."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.config import EngineConfig
from repro.execution import Executor, enumerate_plans
from repro.execution.strategies import AccessPlan, ExecutionStrategy, fused_allowed
from repro.sql import analyze_query
from repro.sql.builder import QueryBuilder
from repro.sql.expressions import ColumnRef, col
from repro.storage import Schema, Table
from repro.storage.stitcher import stitch_group

ATTRS = ("a", "b", "c", "d", "e", "f")


@st.composite
def cases(draw):
    seed = draw(st.integers(0, 2**16))
    num_rows = draw(st.integers(1, 400))
    rng = np.random.default_rng(seed)
    columns = {
        name: rng.integers(-10**6, 10**6, size=num_rows, dtype=np.int64)
        for name in ATTRS
    }
    schema = Schema.from_names(ATTRS)
    table = Table.from_columns("r", schema, columns, "column")

    # A random (possibly overlapping) set of groups over the attributes.
    num_groups = draw(st.integers(0, 2))
    for _ in range(num_groups):
        width = draw(st.integers(2, 4))
        start = draw(st.integers(0, len(ATTRS) - width))
        group, _ = stitch_group(
            table.layouts, ATTRS[start : start + width], schema
        )
        table.add_layout(group)

    # A random query: aggregation or projection, expression or plain.
    builder = QueryBuilder("r")
    shape = draw(st.sampled_from(["agg_cols", "agg_expr", "project"]))
    chosen = draw(
        st.lists(st.sampled_from(ATTRS), min_size=1, max_size=4, unique=True)
    )
    if shape == "agg_cols":
        for name in chosen:
            builder.select_sum(name)
        builder.select_min(chosen[0])
        builder.select_count()
    elif shape == "agg_expr":
        expr = ColumnRef(chosen[0])
        for name in chosen[1:]:
            expr = expr + col(name)
        builder.select_sum(expr)
        builder.select_max(expr)
    else:
        builder.select_columns(chosen)
    num_predicates = draw(st.integers(0, 2))
    for _ in range(num_predicates):
        attr = draw(st.sampled_from(ATTRS))
        threshold = draw(st.integers(-(10**6), 10**6))
        if draw(st.booleans()):
            builder.where(col(attr) < threshold)
        else:
            builder.where(col(attr) >= threshold)
    return table, builder.build()


@given(cases())
@settings(max_examples=80, deadline=None)
def test_generated_equals_interpreted_on_every_plan(case):
    table, query = case
    info = analyze_query(query, table.schema)
    generated = Executor(EngineConfig())
    interpreted = Executor(EngineConfig(use_codegen=False))
    reference = None
    for plan in enumerate_plans(table, info):
        for executor in (generated, interpreted):
            result, _stats = executor.run_plan(info, plan)
            if reference is None:
                reference = result
            else:
                assert reference.allclose(result), plan.describe()


@given(cases())
@settings(max_examples=30, deadline=None)
def test_forced_strategies_agree(case):
    """Even plans the cost model would never pick must be correct."""
    table, query = case
    info = analyze_query(query, table.schema)
    executor = Executor(EngineConfig())
    cover = table.covering_layouts(info.all_attrs)
    late = AccessPlan(ExecutionStrategy.LATE, cover)
    result_late, _ = executor.run_plan(info, late)
    if fused_allowed(cover):
        fused = AccessPlan(ExecutionStrategy.FUSED, cover)
        result_fused, _ = executor.run_plan(info, fused)
        assert result_late.allclose(result_fused)


#: One operator cache shared by every example below, so a key reused by
#: a later case (another table, other attributes) must still name that
#: case's exact source.
_SHARED_CACHE = None


@st.composite
def slot_tables(draw, names):
    """A table over ``names`` with drawn dtypes, base layout and groups."""
    from repro.sql.types import DataType
    from repro.storage.schema import Attribute

    dtypes = [
        draw(st.sampled_from([DataType.INT64, DataType.FLOAT64]))
        for _ in names
    ]
    schema = Schema(Attribute(n, t) for n, t in zip(names, dtypes))
    columns = {
        n: np.arange(8).astype(t.value) for n, t in zip(names, dtypes)
    }
    layout = draw(st.sampled_from(["column", "row"]))
    table = Table.from_columns("t", schema, columns, layout)
    for _ in range(draw(st.integers(0, 2))):
        # Slices of the schema: groups of different widths then share
        # the positions of their common prefix.
        start = draw(st.integers(0, len(names) - 2))
        stop = draw(st.integers(start + 2, len(names)))
        group = names[start:stop]
        if table.find_group(group) is None:
            built, _ = stitch_group(table.layouts, group, schema)
            table.add_layout(built)
    return table


@st.composite
def slot_queries(draw, names):
    """Queries whose kernels depend on column dtypes and widths: chains
    of arithmetic (in-place reuse), many plain SUMs (the dense einsum),
    plain projections (the group copy), ints and floats mixed."""
    from repro.sql.expressions import Arithmetic, ArithmeticOp, Literal

    column = st.sampled_from(names).map(ColumnRef)
    literal = st.one_of(st.integers(-5, 5), st.floats(-5, 5, width=32)).map(
        Literal
    )

    @st.composite
    def chain(draw):
        expr = draw(column)
        for _ in range(draw(st.integers(0, 3))):
            op = draw(st.sampled_from(list(ArithmeticOp)))
            expr = Arithmetic(op, expr, draw(st.one_of(column, literal)))
        return expr

    builder = QueryBuilder("t")
    shape = draw(st.sampled_from(["sums", "exprs", "project"]))
    if shape == "sums":
        for name in draw(st.lists(st.sampled_from(names), min_size=1, unique=True)):
            builder.select_sum(name)
    elif shape == "exprs":
        for _ in range(draw(st.integers(1, 3))):
            builder.select_sum(draw(chain()))
        builder.select_count()
    else:
        for _ in range(draw(st.integers(1, 4))):
            builder.select(draw(st.one_of(column, chain())))
    for _ in range(draw(st.integers(0, 2))):
        builder.where(draw(column) < draw(literal).value)
    return builder.build()


_SLOT_NAMES = ("a1", "a2", "a3", "a4", "a5")


@given(
    slot_queries(_SLOT_NAMES),
    st.lists(slot_tables(_SLOT_NAMES), min_size=3, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_slot_keyed_source_is_the_fresh_build(query, tables):
    """Whatever key a (query, plan) pair hits in a shared cache, the
    source it gets is exactly what ``build_source`` builds for it.  Each
    example runs one query over tables that differ in dtypes, base
    layout and groups, so keys collide often."""
    global _SHARED_CACHE
    from repro.codegen.cache import OperatorCache
    from repro.codegen.generator import generate_operator
    from repro.codegen.templates import build_source
    from repro.execution.result import projection_dtype

    if _SHARED_CACHE is None:
        _SHARED_CACHE = OperatorCache(capacity=1 << 20)
    for table in tables:
        info = analyze_query(query, table.schema)
        out_dtype = (
            np.dtype(np.float64)
            if info.is_aggregation
            else projection_dtype(info)
        )
        for plan in enumerate_plans(table, info):
            operator, _, _ = generate_operator(info, plan, _SHARED_CACHE)
            assert operator.source == build_source(info, plan, out_dtype)[0]
            assert operator.params == query.literals
