"""Property-based execution tests: random queries over random data must
agree across every execution path and match a naive numpy reference."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import EngineConfig
from repro.execution import Executor, enumerate_plans
from repro.sql import analyze_query
from repro.sql.builder import QueryBuilder
from repro.sql.expressions import col
from repro.storage import Schema, Table
from repro.storage.stitcher import stitch_group

ATTRS = ("a", "b", "c", "d")


@st.composite
def tables_and_queries(draw):
    num_rows = draw(st.integers(min_value=0, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    columns = {
        name: rng.integers(-1000, 1000, size=num_rows, dtype=np.int64)
        for name in ATTRS
    }
    schema = Schema.from_names(ATTRS)

    select_attrs = draw(
        st.lists(st.sampled_from(ATTRS), min_size=1, max_size=3, unique=True)
    )
    aggregate = draw(st.booleans())
    builder = QueryBuilder("r")
    if aggregate:
        for name in select_attrs:
            builder.select_sum(name)
        builder.select_count()
    else:
        builder.select_columns(select_attrs)
    has_where = draw(st.booleans())
    threshold = draw(st.integers(-1200, 1200))
    where_attr = draw(st.sampled_from(ATTRS))
    if has_where:
        builder.where(col(where_attr) < threshold)
    query = builder.build()
    return schema, columns, num_rows, query, (
        where_attr if has_where else None
    ), threshold


@given(tables_and_queries())
@settings(max_examples=60, deadline=None)
def test_every_path_matches_numpy(case):
    schema, columns, num_rows, query, where_attr, threshold = case
    if num_rows == 0:
        return  # Table requires at least one row via layouts; covered elsewhere

    column_table = Table.from_columns("r", schema, columns, "column")
    row_table = Table.from_columns("r", schema, columns, "row")
    mixed = Table.from_columns("r", schema, columns, "column")
    group, _ = stitch_group(mixed.layouts, ("a", "b"), schema)
    mixed.add_layout(group)

    mask = (
        columns[where_attr] < threshold
        if where_attr is not None
        else np.ones(num_rows, dtype=bool)
    )
    executors = [
        Executor(EngineConfig()),
        Executor(EngineConfig(use_codegen=False)),
        Executor(EngineConfig(use_codegen=False, morsel_rows=37)),
    ]

    results = []
    for table in (column_table, row_table, mixed):
        info = analyze_query(query, table.schema)
        for plan in enumerate_plans(table, info):
            for executor in executors:
                result, _stats = executor.run_plan(info, plan)
                results.append(result)

    # Numpy ground truth.
    reference = results[0]
    if query.is_aggregation:
        expected = []
        for out in query.select[:-1]:
            name = next(iter(out.expr.columns()))
            expected.append(float(columns[name][mask].sum()))
        expected.append(float(mask.sum()))
        assert reference.scalars() == pytest.approx(tuple(expected))
    else:
        kept = [name for name in ATTRS if name in query.select_attributes]
        for position, out in enumerate(query.select):
            name = next(iter(out.expr.columns()))
            assert (
                reference.column(position) == columns[name][mask]
            ).all()

    for other in results[1:]:
        assert reference.allclose(other)
