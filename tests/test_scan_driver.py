"""The one scan driver: every scan is a morsel loop.

The contract these tests pin (each fails or is vacuous with a
monolithic scan path beside the morsel loop):

- **bit determinism** — answer bits are a function of the data and
  ``morsel_rows`` only: never of the pool size, of zone-map pruning, or
  of whether the plan cache answered (cold vs fast lane);
- **strategy fidelity** — interpreted execution runs the interpreter of
  the plan's strategy at every table size and under pruning, and
  reports the intermediates it materialized summed over morsels;
- **deadlines reach serial scans** — a one-thread scan observes its
  deadline at every morsel boundary;
- **the literal contract** — literals in arithmetic *over* aggregates
  are not kernel parameters, yet fast-lane repeats with every literal
  changed stay correct;
- **the combine contract** — folding ``(count, states)`` partials is
  independent of how the rows were split into morsels, including empty
  input and partials with no qualifying rows.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.engine import H2OEngine
from repro.errors import QueryTimeoutError
from repro.execution import executor as executor_module
from repro.execution.executor import Executor
from repro.execution.morsel import combine_partial_aggregates
from repro.execution.parallel import ScanPool
from repro.execution.strategies import AccessPlan, ExecutionStrategy
from repro.sql import analyze_query, parse_query
from repro.sql.expressions import Aggregate, AggregateFunc, ColumnRef
from repro.sql.types import DataType
from repro.storage import Schema, Table
from repro.storage.zonemap import morsel_ranges

MORSEL_ROWS = 256
ATTRS = ("a1", "a2", "a3", "a4")


def float_table(num_rows: int) -> Table:
    """Non-exact float64 columns (sums depend on association order);
    ``a4`` ascends so a range predicate on it prunes whole morsels."""
    rng = np.random.default_rng(17)
    columns = {
        name: rng.normal(0.0, 1e6, num_rows) + rng.random(num_rows)
        for name in ATTRS[:3]
    }
    columns["a4"] = np.arange(num_rows, dtype=np.float64) + 0.25
    schema = Schema.from_names(ATTRS, DataType.FLOAT64)
    return Table.from_columns("r", schema, columns, "row")


def pinned_engine(
    table: Table, strategy: ExecutionStrategy, threads: int, **knobs
) -> H2OEngine:
    """An engine whose planner always picks ``strategy`` over the row
    layout and whose scans run on a dedicated ``threads``-wide pool."""
    engine = H2OEngine(
        table,
        EngineConfig(vector_size=64, morsel_rows=MORSEL_ROWS, **knobs),
    )
    engine.executor.scan_pool = ScanPool(max_threads=threads)

    def choose(snapshot, info, phases):
        return AccessPlan(strategy, tuple(snapshot.layouts)), 0.0

    engine._choose_plan = choose
    return engine


def bits(report) -> list:
    return [float(v).hex() for v in report.result.data.ravel()]


# ---------------------------------------------------------------------------
# (a) bit determinism
# ---------------------------------------------------------------------------

SIZES = (
    0,
    1,
    MORSEL_ROWS - 1,
    MORSEL_ROWS,
    MORSEL_ROWS + 1,
    MORSEL_ROWS * 5 // 2,
)

FLAVOURS = [
    (use_codegen, strategy)
    for use_codegen in (True, False)
    for strategy in (ExecutionStrategy.FUSED, ExecutionStrategy.LATE)
]


@pytest.mark.parametrize("num_rows", SIZES)
@pytest.mark.parametrize(
    "use_codegen,strategy",
    FLAVOURS,
    ids=[
        f"{'generated' if cg else 'interpreted'}-{s.value}"
        for cg, s in FLAVOURS
    ],
)
def test_answer_bits_depend_on_data_and_morsel_rows_only(
    num_rows, use_codegen, strategy
):
    # The threshold lands mid-table: on the 2.5-morsel table the first
    # morsel prunes (when zone maps are on), the second qualifies in
    # part and the last in full.
    threshold = num_rows * 0.5
    queries = [
        "SELECT sum(a1 + a2) * 3, avg(a3), min(a1), max(a2) - 1, count(*) "
        f"FROM r WHERE a4 > {threshold}",
        "SELECT sum(a1 * a2), avg(a1 + a3) FROM r",
        f"SELECT a1, a2 + a3 FROM r WHERE a4 > {threshold}",
    ]
    seen = {}
    for threads in (1, 2, 4):
        for zone_maps in (True, False):
            engine = pinned_engine(
                float_table(num_rows),
                strategy,
                threads,
                use_codegen=use_codegen,
                zone_maps=zone_maps,
            )
            for sql in queries:
                cold = engine.execute(sql)
                hit = engine.execute(sql)
                assert not cold.plan_cache_hit and hit.plan_cache_hit
                assert cold.used_codegen == hit.used_codegen == use_codegen
                for report in (cold, hit):
                    expected = seen.setdefault(sql, bits(report))
                    assert bits(report) == expected, (
                        f"{sql!r} changed bits at threads={threads} "
                        f"zone_maps={zone_maps} "
                        f"hit={report.plan_cache_hit}"
                    )
                    assert report.morsels_total == -(-num_rows // MORSEL_ROWS)
            if zone_maps and num_rows > 2 * MORSEL_ROWS:
                assert engine.morsels_pruned > 0, "nothing ever pruned"
            if threads > 1 and num_rows > MORSEL_ROWS:
                assert any(r.parallel_scan for r in engine.reports)


# ---------------------------------------------------------------------------
# (b) strategy fidelity under pruning
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "strategy", [ExecutionStrategy.FUSED, ExecutionStrategy.LATE]
)
def test_interpreted_scan_runs_the_plans_own_interpreter(
    strategy, monkeypatch
):
    table = float_table(3 * MORSEL_ROWS)
    calls = {"fused": [], "late": []}

    def spy(name):
        real = getattr(executor_module, f"run_{name}_interpreted")

        def wrapper(info, layouts, lo, hi, *rest):
            partial, nbytes = real(info, layouts, lo, hi, *rest)
            calls[name].append(((lo, hi), nbytes))
            return partial, nbytes

        monkeypatch.setattr(
            executor_module, f"run_{name}_interpreted", wrapper
        )

    spy("fused")
    spy("late")
    executor = Executor(
        EngineConfig(
            use_codegen=False, vector_size=64, morsel_rows=MORSEL_ROWS
        )
    )
    executor.scan_pool = ScanPool(max_threads=1)
    info = analyze_query(
        parse_query(f"SELECT a1 + a2 FROM r WHERE a4 > {MORSEL_ROWS + 10}"),
        table.schema,
    )
    result, stats = executor.run_plan(
        info, AccessPlan(strategy, tuple(table.layouts))
    )
    mine, other = (
        ("fused", "late")
        if strategy is ExecutionStrategy.FUSED
        else ("late", "fused")
    )
    assert stats.morsels_total == 3 and stats.morsels_pruned == 1
    assert [rng for rng, _ in calls[mine]] == [
        (MORSEL_ROWS, 2 * MORSEL_ROWS),
        (2 * MORSEL_ROWS, 3 * MORSEL_ROWS),
    ]
    assert calls[other] == []
    assert stats.strategy is strategy and not stats.used_codegen
    # Intermediates are reported per morsel and summed by the driver.
    assert stats.intermediate_bytes > 0
    assert stats.intermediate_bytes == sum(n for _, n in calls[mine])
    assert result.num_rows == 2 * MORSEL_ROWS - 10 == stats.qualifying_rows


# ---------------------------------------------------------------------------
# (c) the deadline reaches a one-thread scan
# ---------------------------------------------------------------------------


def test_serial_scan_aborts_at_the_next_morsel_boundary(monkeypatch):
    engine = pinned_engine(
        float_table(4 * MORSEL_ROWS), ExecutionStrategy.LATE, threads=1
    )
    now = [0.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    kernel_calls = []
    real_scan = engine.executor.run_scan

    def slow_kernel_scan(info, plan, desc, check, kernel=None, **rest):
        def slow(bufs, params, lo, hi):
            kernel_calls.append((lo, hi))
            now[0] = 2.0  # the first morsel outlives the budget
            return kernel(bufs, params, lo, hi)

        return real_scan(info, plan, desc, check, kernel=slow, **rest)

    engine.executor.run_scan = slow_kernel_scan
    with pytest.raises(QueryTimeoutError, match="morsel boundary"):
        engine.execute("SELECT sum(a1) FROM r", deadline=1.0)
    assert engine.deadline_aborts == 1
    assert kernel_calls == [(0, MORSEL_ROWS)]  # 1 of 4 morsels ran


# ---------------------------------------------------------------------------
# (d) the literal contract
# ---------------------------------------------------------------------------


def test_literals_over_aggregates_rebind_on_the_fast_lane():
    rng = np.random.default_rng(3)
    columns = {
        name: rng.integers(-1000, 1000, 3 * MORSEL_ROWS, dtype=np.int64)
        for name in ATTRS[:3]
    }
    table = Table.from_columns(
        "r", Schema.from_names(ATTRS[:3]), columns, "column"
    )
    engine = H2OEngine(
        table, EngineConfig(vector_size=64, morsel_rows=MORSEL_ROWS)
    )
    a1, a2, a3 = (columns[name] for name in ATTRS[:3])
    # Bounds of similar selectivity, so no repeat trips drift eviction.
    for i, (add, mul, sub, bound) in enumerate(
        [(5, 2, 1, 7), (-3, 11, 40, -25), (0, -1, -9, 31)]
    ):
        report = engine.execute(
            f"SELECT sum(a1 + {add}) * {mul}, min(a2) - {sub} "
            f"FROM r WHERE a3 > {bound}"
        )
        assert report.plan_cache_hit == (i > 0)
        mask = a3 > bound
        assert report.result.scalars() == (
            float((a1[mask] + add).sum()) * mul,
            float(a2[mask].min()) - sub,
        )


# ---------------------------------------------------------------------------
# (e) the combine contract: split independence, pure form
# ---------------------------------------------------------------------------


def _partial(aggregates, values_by_slot, lo, hi):
    """The ``(count, states)`` partial a kernel returns for rows [lo, hi)."""
    states = []
    for i, agg in enumerate(aggregates):
        vals = values_by_slot[i][lo:hi]
        if agg.func is AggregateFunc.COUNT:
            states.append(None)
        elif agg.func in (AggregateFunc.SUM, AggregateFunc.AVG):
            states.append(float(sum(vals)))
        elif agg.func is AggregateFunc.MIN:
            states.append(float(min(vals)) if len(vals) else None)
        else:
            states.append(float(max(vals)) if len(vals) else None)
    return float(hi - lo), tuple(states)


def _serial_payload(aggregates, values_by_slot):
    """One payload representing ALL rows (the serial reference)."""
    num_rows = len(values_by_slot[0]) if values_by_slot else 0
    return _partial(aggregates, values_by_slot, 0, num_rows)


def _split_payloads(aggregates, values_by_slot, splits):
    return [_partial(aggregates, values_by_slot, lo, hi) for lo, hi in splits]


def _all_aggregates():
    return (
        Aggregate(AggregateFunc.COUNT, None),
        Aggregate(AggregateFunc.SUM, ColumnRef("a")),
        Aggregate(AggregateFunc.AVG, ColumnRef("b")),
        Aggregate(AggregateFunc.MIN, ColumnRef("c")),
        Aggregate(AggregateFunc.MAX, ColumnRef("d")),
    )


def _same(a, b):
    return (a == b) or (math.isnan(a) and math.isnan(b))


class TestCombineContract:
    def test_empty_input_matches_serial_semantics(self):
        aggregates = _all_aggregates()
        values = [[] for _ in aggregates]
        serial, _ = combine_partial_aggregates(
            aggregates, [_serial_payload(aggregates, values)]
        )
        # Two empty partials, and no partial at all (zero morsels).
        for splits in ([(0, 0), (0, 0)], morsel_ranges(0, 16)):
            split, _ = combine_partial_aggregates(
                aggregates, _split_payloads(aggregates, values, splits)
            )
            for agg in aggregates:
                assert _same(serial[agg], split[agg])
        # MIN/MAX/AVG of zero rows are NaN; COUNT and SUM are 0.0.
        for agg in aggregates:
            if agg.func in (AggregateFunc.COUNT, AggregateFunc.SUM):
                assert serial[agg] == 0.0
            else:
                assert math.isnan(serial[agg])

    # 61 rows split into 1, 2, 3 and 5 morsels, the last one short.
    @pytest.mark.parametrize("morsel_rows", [61, 31, 21, 13])
    def test_split_independence(self, morsel_rows):
        rng = np.random.default_rng(17)
        aggregates = _all_aggregates()
        n = 61
        values = [
            [int(v) for v in rng.integers(-1000, 1000, n)]
            for _ in aggregates
        ]
        serial, _ = combine_partial_aggregates(
            aggregates, [_serial_payload(aggregates, values)]
        )
        split, _ = combine_partial_aggregates(
            aggregates,
            _split_payloads(aggregates, values, morsel_ranges(n, morsel_rows)),
        )
        for agg in aggregates:
            # VALUE_BOUND-style int inputs: float64 arithmetic is exact,
            # so regrouping must be bit-identical.
            assert serial[agg] == split[agg]


def test_hypothesis_split_independence():
    """Property: the combine fold is independent of how rows are split.

    Finite ints bounded like the testkit's VALUE_BOUND (exact float64
    arithmetic) plus the empty-input edge (MIN/MAX/AVG of zero rows is
    NaN, SUM is 0.0, COUNT is 0.0) — for every morsel size, with an
    empty partial (a morsel in which no row qualified) spliced in.
    """
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    aggregates = _all_aggregates()

    @settings(deadline=None, max_examples=60)
    @given(
        rows=st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=0,
            max_size=40,
        ),
        morsel_rows=st.integers(min_value=1, max_value=45),
        empty_at=st.integers(min_value=0, max_value=45),
    )
    def property_check(rows, morsel_rows, empty_at):
        values = [list(rows) for _ in aggregates]
        serial, serial_cnt = combine_partial_aggregates(
            aggregates, [_serial_payload(aggregates, values)]
        )
        splits = morsel_ranges(len(rows), morsel_rows)
        cut = min(empty_at, len(splits))
        at = splits[cut - 1][1] if cut else 0
        splits.insert(cut, (at, at))
        split, split_cnt = combine_partial_aggregates(
            aggregates, _split_payloads(aggregates, values, splits)
        )
        assert serial_cnt == split_cnt
        for agg in aggregates:
            assert _same(serial[agg], split[agg])

    property_check()
