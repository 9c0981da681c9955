"""Generated late-materialization kernels against the interpreter.

The late kernels AND every conjunct into one bitmap and gather each
SELECT attribute where it is used; ``run_late_interpreted`` refines a
selection vector conjunct by conjunct and gathers up front.  The two
must agree bit for bit on one morsel: the qualifying count, every
partial-aggregate state (compared by ``float.hex``) and every projected
value (compared by bit pattern), over plain and grouped providers, NaN
and signed-zero floats, and empty and one-row morsels.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.codegen.cache import OperatorCache
from repro.codegen.generator import generate_operator
from repro.config import EngineConfig
from repro.execution.strategies import AccessPlan, ExecutionStrategy
from repro.execution.vectorized import run_late_interpreted
from repro.sql import analyze_query, parse_query
from repro.sql.types import DataType
from repro.storage import Schema, Table
from repro.storage.schema import Attribute
from repro.storage.stitcher import stitch_group

INTS = ("i0", "i1", "i2")
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
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    num_rows = draw(st.integers(1, 200))
    table = make_table(rng, num_rows)
    where = " AND ".join(draw(st.lists(conjuncts(), min_size=1, max_size=6)))
    sql = f"SELECT {draw(select_lists())} FROM r WHERE {where}"
    info = analyze_query(parse_query(sql), SCHEMA)

    # One provider per attribute: its plain column or (for i0/i1) a
    # two-column group.
    layouts = []
    grouped = draw(st.booleans())
    if grouped:
        group, _ = stitch_group(table.layouts, ("i0", "i1"), SCHEMA)
        layouts.append(group)
    for name in ATTRS:
        if grouped and name in ("i0", "i1"):
            continue
        layouts.append(table.layouts_containing(name)[0])
    draw(st.randoms()).shuffle(layouts)

    size = draw(st.sampled_from(["empty", "one", "any"]))
    lo = draw(st.integers(0, num_rows - 1))
    if size == "empty":
        hi = lo
    elif size == "one":
        hi = lo + 1
    else:
        hi = draw(st.integers(lo, num_rows))
    return info, AccessPlan(ExecutionStrategy.LATE, tuple(layouts)), lo, hi


def _hex(value):
    return None if value is None else float(value).hex()


def _bits(block: np.ndarray) -> bytes:
    return np.ascontiguousarray(block).view(np.uint8).tobytes()


@given(cases())
@settings(max_examples=300, deadline=None)
def test_late_kernel_matches_interpreter_bit_for_bit(case):
    info, plan, lo, hi = case
    operator, _, _ = generate_operator(
        info, plan, EngineConfig(), OperatorCache(enabled=False)
    )
    with np.errstate(invalid="ignore"):  # inf + -inf in both paths
        got = operator.kernel(
            tuple(layout.data for layout in plan.layouts),
            operator.params,
            lo,
            hi,
        )
        want, _ = run_late_interpreted(info, plan.layouts, lo, hi)
    if info.is_aggregation:
        assert _hex(got[0]) == _hex(want[0]), operator.source
        assert [_hex(s) for s in got[1]] == [_hex(s) for s in want[1]], (
            operator.source
        )
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert _bits(got) == _bits(want), operator.source
