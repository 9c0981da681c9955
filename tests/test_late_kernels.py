"""Generated kernels against the interpreters, bit for bit.

Both strategies' kernels AND every conjunct into one bitmap over the
morsel.  The late kernels then gather each SELECT attribute where it is
used; ``run_late_interpreted`` refines a position array conjunct by
conjunct and gathers up front.  The fused kernels fetch the qualifying
tuples once; ``run_fused_interpreted`` filters and compacts vector by
vector.  Each kernel must agree with its interpreter bit for bit on one
morsel: the qualifying count, every partial-aggregate state (compared
by ``float.hex``) and every projected value (compared by bit pattern),
filtered and unfiltered, over plain and grouped providers, NaN,
signed-zero and infinite floats, and empty and one-row morsels.
"""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

from repro.codegen.cache import OperatorCache
from repro.core.engine import H2OEngine
from repro.codegen.generator import generate_operator
from repro.execution.strategies import (
    AccessPlan,
    ExecutionStrategy,
    fused_allowed,
    narrowest_providers,
)
from repro.execution.interpreted import (
    VECTOR_ROWS,
    run_fused_interpreted,
    run_late_interpreted,
)
from repro.sql import analyze_query, parse_query
from repro.sql.types import DataType
from repro.storage import Schema, Table
from repro.storage.schema import Attribute
from repro.storage.stitcher import stitch_group

INTS = ("i0", "i1", "i2", "i3")
FLOATS = ("f0", "f1")
ATTRS = INTS + FLOATS
SCHEMA = Schema(
    [Attribute(name) for name in INTS]
    + [Attribute(name, DataType.FLOAT64) for name in FLOATS]
)
SPECIAL = np.array(
    [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1.5, -1.5, 3.0]
)
OPS = ("<", "<=", ">", ">=", "=", "!=")
INT_LITERALS = st.one_of(
    st.integers(-12, 12), st.sampled_from([-99, 99, 2.5, -0.5])
)
FLOAT_LITERALS = st.sampled_from([0.0, -0.0, 1.5, -1.5, 3.0, 7.25, -100.0])


def make_table(rng: np.random.Generator, num_rows: int) -> Table:
    columns = {
        name: rng.integers(-10, 11, size=num_rows, dtype=np.int64)
        for name in INTS
    }
    for name in FLOATS:
        special = SPECIAL[rng.integers(0, SPECIAL.size, size=num_rows)]
        ordinary = rng.integers(-5, 6, size=num_rows).astype(np.float64)
        columns[name] = np.where(
            rng.random(num_rows) < 0.5, special, ordinary
        )
    return Table.from_columns("r", SCHEMA, columns, "column")


@st.composite
def comparisons(draw):
    attr = draw(st.sampled_from(ATTRS))
    op = draw(st.sampled_from(OPS))
    literal = draw(FLOAT_LITERALS if attr in FLOATS else INT_LITERALS)
    form = draw(st.sampled_from(["col_lit", "lit_col", "sum_lit", "col_col"]))
    if form == "lit_col":
        return f"{literal} {op} {attr}"
    if form == "sum_lit":
        other = draw(st.sampled_from(ATTRS))
        return f"{attr} + {other} {op} {literal}"
    if form == "col_col":
        return f"{attr} {op} {draw(st.sampled_from(ATTRS))}"
    return f"{attr} {op} {literal}"


@st.composite
def conjuncts(draw):
    kind = draw(st.sampled_from(["cmp", "cmp", "or", "not"]))
    if kind == "or":
        return f"({draw(comparisons())} OR {draw(comparisons())})"
    if kind == "not":
        return f"NOT ({draw(comparisons())})"
    return draw(comparisons())


@st.composite
def select_lists(draw):
    shape = draw(st.sampled_from(["agg", "count", "project"]))
    if shape == "count":
        return "count(*)"
    values = st.one_of(
        st.sampled_from(ATTRS),
        st.tuples(st.sampled_from(ATTRS), st.sampled_from(ATTRS)).map(
            lambda pair: f"{pair[0]} + {pair[1]}"
        ),
        st.sampled_from(ATTRS).map(lambda attr: f"{attr} * 2"),
    )
    items = draw(st.lists(values, min_size=1, max_size=3))
    if shape == "project":
        return ", ".join(items)
    funcs = st.sampled_from(["sum", "min", "max", "avg", "count"])
    calls = []
    for item in items:
        func = draw(funcs)
        calls.append("count(*)" if func == "count" else f"{func}({item})")
    return ", ".join(calls)


@st.composite
def cases(draw, strategy=ExecutionStrategy.LATE):
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    num_rows = draw(st.integers(1, 200))
    table = make_table(rng, num_rows)
    where = " AND ".join(draw(st.lists(conjuncts(), min_size=0, max_size=6)))
    sql = f"SELECT {draw(select_lists())} FROM r"
    info = analyze_query(
        parse_query(f"{sql} WHERE {where}" if where else sql), SCHEMA
    )
    assume(info.all_attrs)  # an unfiltered count(*) reads no column

    # One provider per attribute: its plain column or an integer group.
    # A fused plan needs a group; it reads the query's narrowest cover.
    layouts = []
    fused = strategy is ExecutionStrategy.FUSED
    grouped = fused or draw(st.booleans())
    group_attrs = draw(
        st.sampled_from(
            [("i0", "i1"), ("i1", "i2"), ("i0", "i1", "i2"), INTS]
        )
    )
    if grouped:
        group, _ = stitch_group(table.layouts, group_attrs, SCHEMA)
        layouts.append(group)
    for name in ATTRS:
        if grouped and name in group_attrs:
            continue
        layouts.append(table.layouts_containing(name)[0])
    draw(st.randoms()).shuffle(layouts)
    if fused:
        providers = narrowest_providers(layouts)
        picked = {providers[a] for a in info.all_attrs}
        layouts = [layouts[i] for i in sorted(picked)]
        assume(fused_allowed(layouts))

    size = draw(st.sampled_from(["empty", "one", "any"]))
    lo = draw(st.integers(0, num_rows - 1))
    if size == "empty":
        hi = lo
    elif size == "one":
        hi = lo + 1
    else:
        hi = draw(st.integers(lo, num_rows))
    return info, AccessPlan(strategy, tuple(layouts)), lo, hi


def _hex(value):
    return None if value is None else float(value).hex()


def _bits(block: np.ndarray) -> bytes:
    return np.ascontiguousarray(block).view(np.uint8).tobytes()


def run_both(case, interpret):
    """Run the generated kernel and ``interpret`` on one morsel and
    assert they agree bit for bit."""
    info, plan, lo, hi = case
    operator, _, _ = generate_operator(
        info, plan, OperatorCache(enabled=False)
    )
    with np.errstate(invalid="ignore"):  # inf + -inf in both paths
        got = operator.kernel(
            tuple(layout.data for layout in plan.layouts),
            operator.params,
            lo,
            hi,
        )
        want = interpret(info, plan.layouts, lo, hi)
    if info.is_aggregation:
        assert _hex(got[0]) == _hex(want[0]), operator.source
        assert [_hex(s) for s in got[1]] == [_hex(s) for s in want[1]], (
            operator.source
        )
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert _bits(got) == _bits(want), operator.source


@given(cases())
@settings(max_examples=300, deadline=None)
def test_late_kernel_matches_interpreter_bit_for_bit(case):
    run_both(case, run_late_interpreted)


@given(cases(ExecutionStrategy.FUSED))
@settings(max_examples=300, deadline=None)
def test_fused_kernel_matches_interpreter_bit_for_bit(case):
    run_both(case, run_fused_interpreted)


@pytest.mark.parametrize("where", ["", " WHERE i0 > 0 AND f0 < 3.0"])
@pytest.mark.parametrize("num_rows", [1, 2, 200])
def test_dense_sums_match_interpreter_bit_for_bit(where, num_rows):
    """The fused kernel's one ``einsum`` pass: plain SUM/AVG over every
    column of an integer group, next to MIN/MAX and COUNT."""
    table = make_table(np.random.default_rng(num_rows), num_rows)
    group, _ = stitch_group(table.layouts, INTS, SCHEMA)
    sql = (
        "SELECT sum(i0), avg(i1), sum(i2), sum(i3), avg(i0), max(i1), "
        f"min(f0), count(*) FROM r{where}"
    )
    info = analyze_query(parse_query(sql), SCHEMA)
    plan = AccessPlan(
        ExecutionStrategy.FUSED, (group, table.layouts_containing("f0")[0])
    )
    operator, _, _ = generate_operator(
        info, plan, OperatorCache(enabled=False)
    )
    assert "np.einsum('ij->j'" in operator.source
    for lo, hi in ((0, num_rows), (0, 0), (num_rows - 1, num_rows)):
        run_both((info, plan, lo, hi), run_fused_interpreted)


def test_dense_sums_do_not_wrap_near_the_int64_limit():
    """Values near 2^62 sum past int64 within a few rows.  The dense
    ``einsum`` pass accumulates in float64 like every other SUM, so the
    fused plan over a group answers what the late plans answer, not a
    wrapped int64."""
    rng = np.random.default_rng(3)
    columns = {
        name: rng.integers(2**62 - 2**40, 2**62, size=1000, dtype=np.int64)
        for name in INTS
    }
    for name in FLOATS:
        columns[name] = rng.standard_normal(1000)
    table = Table.from_columns("r", SCHEMA, columns, "column")
    group, _ = stitch_group(table.layouts, INTS, SCHEMA)
    info = analyze_query(
        parse_query("SELECT sum(i0), sum(i1), sum(i2), sum(i3) FROM r"),
        SCHEMA,
    )
    singles = tuple(table.layouts_containing(name)[0] for name in INTS)
    executor = H2OEngine(table).executor
    answers = []
    for plan in (
        AccessPlan(ExecutionStrategy.FUSED, (group,)),
        AccessPlan(ExecutionStrategy.LATE, (group,)),
        AccessPlan(ExecutionStrategy.LATE, singles),
    ):
        result, stats = executor.run_plan(info, plan)
        assert stats.used_codegen
        answers.append(result.scalars())
    # Partial sums pass 2^53, so the summation orders may differ in the
    # last bits (DESIGN §4b); a wrapped sum is off by ~1e21.
    want = [float(columns[name].sum(dtype=np.float64)) for name in INTS]
    assert min(want) > 4e21
    for answer in answers:
        assert list(answer) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize(
    "where", ["", " WHERE f0 > 0 AND i0 < 6", " WHERE i3 = 1"]
)
@pytest.mark.parametrize(
    "strategy", [ExecutionStrategy.LATE, ExecutionStrategy.FUSED]
)
def test_multi_vector_float_sums_match_interpreter_bit_for_bit(
    strategy, where
):
    """Inexact float sums over a morsel of several interpreter vectors:
    both interpreters sum a morsel's values once, in the kernels' order,
    and a constant argument counts once per qualifying row.  ``i3``
    alternates by vector, so ``i3 = 1`` qualifies no row of one vector
    and every row of the next."""
    rng = np.random.default_rng(7)
    num_rows = 3 * VECTOR_ROWS + 123
    columns = {
        name: rng.integers(-10, 11, size=num_rows, dtype=np.int64)
        for name in INTS
    }
    for name in FLOATS:
        columns[name] = rng.standard_normal(num_rows) * 1e3
    columns["i3"] = np.arange(num_rows) // VECTOR_ROWS % 2
    table = Table.from_columns("r", SCHEMA, columns, "column")
    sql = (
        "SELECT sum(f0 + f1), avg(f1), sum(f0 * 3), sum(0.1), min(f0), "
        f"sum(i0), count(*) FROM r{where}"
    )
    info = analyze_query(parse_query(sql), SCHEMA)
    if strategy is ExecutionStrategy.FUSED:
        group, _ = stitch_group(table.layouts, FLOATS, SCHEMA)
        layouts = (group,) + tuple(
            table.layouts_containing(a)[0]
            for a in info.all_attrs
            if a not in FLOATS
        )
        interpret = run_fused_interpreted
    else:
        layouts = tuple(table.layouts_containing(a)[0] for a in info.all_attrs)
        interpret = run_late_interpreted
    for lo, hi in ((0, num_rows), (VECTOR_ROWS - 5, num_rows - 7)):
        run_both((info, AccessPlan(strategy, layouts), lo, hi), interpret)


@pytest.mark.parametrize("where", ["", " WHERE i0 < 6"])
def test_fused_min_max_see_a_nan_past_the_first_vector(where):
    """The fused interpreter folds MIN/MAX vector by vector; a NaN
    after the first vector survives the fold, as it does the kernels'
    one reduction over the morsel."""
    num_rows = 2 * VECTOR_ROWS + 9
    made = make_table(np.random.default_rng(3), num_rows)
    columns = {name: made.column(name).copy() for name in ATTRS}
    columns["f0"][np.isnan(columns["f0"])] = 1.5
    columns["f0"][VECTOR_ROWS + 7] = np.nan
    table = Table.from_columns("r", SCHEMA, columns, "column")
    group, _ = stitch_group(table.layouts, FLOATS, SCHEMA)
    info = analyze_query(
        parse_query(f"SELECT min(f0), max(f0), count(*) FROM r{where}"),
        SCHEMA,
    )
    layouts = (group, table.layouts_containing("i0")[0])
    plan = AccessPlan(ExecutionStrategy.FUSED, layouts)
    run_both((info, plan, 0, num_rows), run_fused_interpreted)
