"""Morsel-driven parallel scans and zone-map pruning.

Covers the PR 5 subsystem bottom-up:

- **ScanPool units** — grant budget arithmetic (external load deducts
  from the helper budget), dynamic work stealing covering every index
  exactly once, and error propagation out of helper threads;
- **plan_morsels decisions** — every scan gets a morsel plan (one range
  for a one-morsel table, zero when everything is pruned); it fans out
  as soon as two morsels survive and two threads are allowed;
- **zone-bound rules** — every comparison operator's keep rule,
  literal-on-the-left normalization, conservative fallbacks, NaN —
  and the vectorised keep mask against the per-conjunct reference;
- **zone-map exactness properties** (hypothesis) — built, extended
  (append), and stitched zone maps always equal brute-force per-morsel
  min/max, and a pruned morsel provably holds zero qualifying rows;
- **engine-level bit-identity** — parallel answers equal serial answers
  bit for bit, through the fast lane and with fresh literals;
- **per-morsel deadline** — the once-latch increments
  ``deadline_aborts`` exactly once under concurrent expiry;
- **parallel_stress** — scan-pool helpers racing service workers,
  online stitches, and concurrent appends (dedicated CI job).

The generated tables hold integers with |v| < 2**31, so float64 sums
over a few thousand rows are exact and order-independent: parallel and
serial runs must agree bit-for-bit, not approximately.
"""

from __future__ import annotations

import threading
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from tests.conftest import wait_until
import repro.core.planner as planner_module
from repro.config import EngineConfig
from repro.core.engine import H2OEngine
from repro.errors import QueryTimeoutError
from repro.execution import morsel
from repro.execution.morsel import plan_morsels, zone_bounds_for
from repro.execution.parallel import ScanPool
from repro.execution.strategies import enumerate_plans
from repro.sql import parse_query
from repro.sql.analyzer import analyze_query
from repro.sql.expressions import (
    Arithmetic,
    ArithmeticOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
)
from repro.sql.types import DataType
from repro.storage import Schema, Table, generate_table
from repro.storage.schema import Attribute
from repro.storage.stitcher import stitch_group, stitch_single_columns
from repro.storage.zonemap import (
    bind_zone_bounds,
    cached_zone_maps,
    ensure_attr_stats,
    morsel_ranges,
    num_morsels_for,
)


def make_info(table: Table, sql: str):
    return analyze_query(parse_query(sql), table.schema)


def keep_mask_for(info, layouts, num_rows, morsel_rows):
    """The zone-map keep mask of ``info``'s own literals over
    ``layouts`` (None when nothing prunes)."""
    return zone_bounds_for(info, layouts, num_rows, morsel_rows).keep(
        info.query.literals
    )


def prune_mask(num_morsels, conjuncts, stats_for):
    """Bind ``conjuncts`` and test their own literals (which is what a
    query of those conjuncts passes as its literal vector)."""
    literals = []
    for conjunct in conjuncts:
        literals.extend(
            node.value for node in _preorder(conjunct)
            if isinstance(node, Literal)
        )
    keep = bind_zone_bounds(num_morsels, conjuncts, stats_for).keep(literals)
    return np.ones(num_morsels, dtype=bool) if keep is None else keep


def _preorder(expr):
    yield expr
    for child in ("left", "right", "child"):
        node = getattr(expr, child, None)
        if node is not None:
            yield from _preorder(node)


# ---------------------------------------------------------------------------
# ScanPool: grant arithmetic, work stealing, error propagation
# ---------------------------------------------------------------------------


class TestScanPool:
    def test_grant_budget_and_release(self):
        pool = ScanPool(max_threads=4)
        grant = pool.acquire(4)
        assert grant.threads == 4  # caller + 3 helpers
        # Helpers already reserved: a second caller gets what is left.
        second = pool.acquire(4)
        assert second.threads == 1  # 1 (caller) + 3 reserved = 4 occupied
        second.release()
        grant.release()
        # Budget fully restored.
        with pool.acquire(4) as fresh:
            assert fresh.threads == 4
        assert pool.snapshot()["reserved"] == 0

    def test_external_load_degrades_toward_serial(self):
        pool = ScanPool(max_threads=4)
        busy = {"count": 0}
        pool.register_load("svc", lambda: busy["count"])
        try:
            # The caller is assumed to be one of the busy workers, so
            # only the *other* two occupy slots: 4 - (1 + 2) = 1 helper.
            busy["count"] = 3
            assert pool.acquire(4).threads == 2
            # Saturated service: zero helpers, scan runs serially.
            busy["count"] = 4
            assert pool.acquire(4).threads == 1
            # A broken provider is advisory only — never blocks grants.
            pool.register_load("broken", lambda: 1 // 0)
            busy["count"] = 0
            assert pool.acquire(2).threads == 2
        finally:
            pool.unregister_load("svc")
            pool.unregister_load("broken")

    def test_acquire_always_succeeds(self):
        pool = ScanPool(max_threads=1)
        with pool.acquire(8) as grant:
            assert grant.threads == 1  # serial, but never refused

    def test_map_indexed_covers_every_index_exactly_once(self):
        pool = ScanPool(max_threads=4)
        total = 257
        hits = np.zeros(total, dtype=np.int64)
        lock = threading.Lock()

        def fn(index: int) -> None:
            with lock:
                hits[index] += 1

        with pool.acquire(4) as grant:
            used = grant.map_indexed(total, fn)
        assert used >= 1
        assert (hits == 1).all(), "an index was skipped or run twice"

    def test_closed_pool_leaves_no_threads(self):
        before = threading.active_count()
        pool = ScanPool(max_threads=2)
        with pool.acquire(2) as grant:
            assert grant.map_indexed(8, lambda i: time.sleep(0.001)) == 2
        assert threading.active_count() == before + 1
        pool.close()
        assert threading.active_count() == before
        with pool.acquire(2) as grant:
            assert grant.threads == 1  # closed: the caller scans alone

    def test_map_indexed_caps_helpers_at_work_items(self):
        pool = ScanPool(max_threads=8)
        with pool.acquire(8) as grant:
            used = grant.map_indexed(1, lambda i: None)
        assert used == 1  # one work item never fans out

    def test_map_indexed_propagates_helper_errors(self):
        pool = ScanPool(max_threads=4)

        def fn(index: int) -> None:
            if index == 37:
                raise ValueError("boom at 37")

        with pool.acquire(4) as grant:
            with pytest.raises(ValueError, match="boom at 37"):
                grant.map_indexed(100, fn)
        # The pool survives a failed scan and serves the next one.
        with pool.acquire(4) as grant:
            assert grant.map_indexed(16, lambda i: None) >= 1
        assert pool.snapshot()["reserved"] == 0


# ---------------------------------------------------------------------------
# plan_morsels: every scan gets a plan
# ---------------------------------------------------------------------------


class TestPlanMorsels:
    def setup_method(self):
        self.table = generate_table("r", 6, 4096, rng=3)
        self.pool = ScanPool(max_threads=4)

    def plan(self, sql: str, pool=None, **overrides):
        knobs = dict(morsel_rows=256)
        knobs.update(overrides)
        info = make_info(self.table, sql)
        return plan_morsels(
            info,
            self.table.layouts,
            self.table.num_rows,
            EngineConfig(**knobs),
            pool or self.pool,
        )

    def test_one_morsel_table_is_one_range_on_one_thread(self):
        mp = self.plan(
            "SELECT sum(a1) FROM r WHERE a2 > 0", morsel_rows=65536
        )
        assert mp.ranges == [(0, 4096)]
        assert mp.morsels_total == 1 and mp.morsels_pruned == 0
        assert mp.want_threads == 1
        engine = H2OEngine(self.table, EngineConfig())
        report = engine.execute("SELECT sum(a1) FROM r WHERE a2 > 0")
        assert report.morsels_total == 1
        assert report.scan_threads_used == 1 and not report.parallel_scan

    def test_empty_table_has_zero_ranges(self):
        empty = Table.from_columns(
            "r",
            Schema.from_names(("a1",)),
            {"a1": np.empty(0, dtype=np.int64)},
            "column",
        )
        mp = plan_morsels(
            make_info(empty, "SELECT sum(a1) FROM r"),
            empty.layouts,
            0,
            EngineConfig(),
            self.pool,
        )
        assert mp.ranges == [] and mp.morsels_total == 0
        assert mp.want_threads == 1

    def test_without_zone_maps_every_morsel_survives(self):
        mp = self.plan(
            "SELECT sum(a1) FROM r WHERE a2 > 4000000000", zone_maps=False
        )
        assert mp.morsels_pruned == 0
        assert mp.ranges == morsel_ranges(4096, 256)

    def test_everything_pruned_is_zero_ranges(self):
        # Literal beyond the data range: every morsel is prunable.
        mp = self.plan("SELECT sum(a1) FROM r WHERE a2 > 4000000000")
        assert mp.morsels_total == num_morsels_for(4096, 256)
        assert mp.morsels_pruned == mp.morsels_total
        assert mp.ranges == []
        assert mp.want_threads == 1

    def test_thread_cap_bounds_the_fan_out(self):
        mp = self.plan(
            "SELECT sum(a1) FROM r WHERE a2 > 0", max_scan_threads=2
        )
        assert mp.want_threads == 2
        assert mp.morsels_pruned == 0
        assert mp.ranges == morsel_ranges(4096, 256)

    def test_zero_cap_means_pool_maximum(self):
        mp = self.plan(
            "SELECT sum(a1) FROM r WHERE a2 > 0", max_scan_threads=0
        )
        assert mp.want_threads == self.pool.max_threads

    def test_one_thread_is_serial_however_it_is_spelled(self):
        sql = "SELECT count(*) FROM r WHERE a1 > 0"
        assert self.plan(sql, max_scan_threads=1).want_threads == 1
        mp = self.plan(sql, pool=ScanPool(max_threads=1))
        assert mp.want_threads == 1
        assert len(mp.ranges) == num_morsels_for(4096, 256)


# ---------------------------------------------------------------------------
# prune_mask: per-operator keep rules
# ---------------------------------------------------------------------------


def cmp(attr: str, op: ComparisonOp, value: float) -> Comparison:
    return Comparison(op, ColumnRef(attr), Literal(value))


class TestPruneRules:
    # Three morsels with bounds [0,10], [10,20], [20,30].
    MINS = np.array([0.0, 10.0, 20.0])
    MAXS = np.array([10.0, 20.0, 30.0])

    def mask(self, *conjuncts):
        stats = {"a1": (self.MINS, self.MAXS)}
        return prune_mask(3, conjuncts, lambda attr: stats.get(attr))

    def test_lt_keeps_morsels_whose_min_may_match(self):
        assert self.mask(cmp("a1", ComparisonOp.LT, 10.0)).tolist() == [
            True, False, False,
        ]

    def test_le_uses_inclusive_bound(self):
        assert self.mask(cmp("a1", ComparisonOp.LE, 10.0)).tolist() == [
            True, True, False,
        ]

    def test_gt_keeps_morsels_whose_max_may_match(self):
        assert self.mask(cmp("a1", ComparisonOp.GT, 20.0)).tolist() == [
            False, False, True,
        ]

    def test_ge_uses_inclusive_bound(self):
        assert self.mask(cmp("a1", ComparisonOp.GE, 20.0)).tolist() == [
            False, True, True,
        ]

    def test_eq_keeps_the_covering_morsels(self):
        assert self.mask(cmp("a1", ComparisonOp.EQ, 15.0)).tolist() == [
            False, True, False,
        ]

    def test_ne_prunes_only_constant_morsels(self):
        mins = np.array([5.0, 0.0])
        maxs = np.array([5.0, 10.0])
        mask = prune_mask(
            2,
            [cmp("a1", ComparisonOp.NE, 5.0)],
            lambda attr: (mins, maxs),
        )
        assert mask.tolist() == [False, True]

    def test_literal_on_the_left_is_normalized(self):
        # 20 < a1 prunes like a1 > 20.
        flipped = Comparison(ComparisonOp.LT, Literal(20.0), ColumnRef("a1"))
        assert self.mask(flipped).tolist() == [False, False, True]

    def test_conjuncts_intersect(self):
        mask = self.mask(
            cmp("a1", ComparisonOp.GT, 5.0), cmp("a1", ComparisonOp.LT, 15.0)
        )
        assert mask.tolist() == [True, True, False]

    def test_unknown_attr_and_complex_conjuncts_keep_everything(self):
        complex_conjunct = Comparison(
            ComparisonOp.LT, ColumnRef("a1"), ColumnRef("a2")
        )
        assert self.mask(cmp("zzz", ComparisonOp.LT, -1.0)).all()
        assert self.mask(complex_conjunct).all()

    def test_mismatched_stats_length_prunes_nothing(self):
        stats = (np.zeros(7), np.ones(7))  # wrong granularity
        mask = prune_mask(
            3, [cmp("a1", ComparisonOp.LT, -1.0)], lambda attr: stats
        )
        assert mask.all()

    def test_all_nan_morsel_is_pruned(self):
        mins = np.array([np.nan, 0.0])
        maxs = np.array([np.nan, 10.0])
        mask = prune_mask(
            2,
            [cmp("a1", ComparisonOp.GT, -np.inf)],
            lambda attr: (mins, maxs),
        )
        assert mask.tolist() == [False, True]


def reference_prune_mask(num_morsels, conjuncts, stats_for):
    """The per-conjunct keep mask the vectorised ``ZoneBounds`` replaced:
    normalize each conjunct, look its stats up, apply its rule."""
    from repro.storage.zonemap import conjunct_bounds

    keep = np.ones(num_morsels, dtype=bool)
    for conjunct in conjuncts:
        normalized = conjunct_bounds(conjunct)
        if normalized is None:
            continue
        attr, op, value = normalized
        stats = stats_for(attr)
        if stats is None:
            continue
        mins, maxs = stats
        if mins.shape[0] != num_morsels:
            continue
        if op is ComparisonOp.LT:
            keep &= mins < value
        elif op is ComparisonOp.LE:
            keep &= mins <= value
        elif op is ComparisonOp.GT:
            keep &= maxs > value
        elif op is ComparisonOp.GE:
            keep &= maxs >= value
        elif op is ComparisonOp.EQ:
            keep &= (mins <= value) & (maxs >= value)
        else:
            keep &= ~((mins == value) & (maxs == value))
    return keep


_ZONE_ATTRS = ("a1", "a2", "a3")
_BIG = 2**53


@st.composite
def zone_cases(draw):
    num = draw(st.integers(1, 6))
    values = st.one_of(
        st.integers(-5, 5),
        st.integers(_BIG - 3, _BIG + 3),
        st.floats(-5, 5, width=32),
        st.sampled_from([float("nan"), float("inf"), -0.0]),
    )
    stats = {}
    for attr in _ZONE_ATTRS:
        kind = draw(st.sampled_from(["int", "float", "stale", "none"]))
        if kind == "none":
            continue
        length = num + 1 if kind == "stale" else num
        raw = sorted(
            draw(st.lists(values, min_size=2 * length, max_size=2 * length)),
            key=lambda v: (v != v, v),
        )
        dtype = np.int64 if kind == "int" else np.float64
        if dtype is np.int64:
            raw = [int(v) if v == v and abs(v) != float("inf") else 0 for v in raw]
        pairs = np.array(raw, dtype=dtype).reshape(length, 2)
        stats[attr] = (pairs[:, 0].copy(), pairs[:, 1].copy())
    conjuncts = []
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(list(ComparisonOp)))
        column = ColumnRef(draw(st.sampled_from(_ZONE_ATTRS + ("zz",))))
        literal = Literal(draw(values))
        shape = draw(st.sampled_from(["left", "right", "columns", "nested"]))
        if shape == "right":
            conjuncts.append(Comparison(op, column, literal))
        elif shape == "left":
            conjuncts.append(Comparison(op, literal, column))
        elif shape == "columns":
            conjuncts.append(Comparison(op, column, ColumnRef("a1")))
        else:
            # A non-normalizable conjunct with literals of its own: the
            # later conjuncts' literal slots must skip them.
            inner = Arithmetic(ArithmeticOp.ADD, column, literal)
            conjuncts.append(Comparison(op, inner, Literal(draw(values))))
    return num, stats, conjuncts


@given(zone_cases())
@settings(max_examples=300, deadline=None)
def test_vectorised_keep_mask_equals_per_conjunct_reference(case):
    """All six operators, the literal on either side, int and float
    stats (NaN, infinities, values past 2**53), stale stats, missing
    stats and non-normalizable conjuncts: one vectorised comparison
    keeps exactly the morsels the per-conjunct rules keep."""
    num, stats, conjuncts = case
    stats_for = stats.get
    want = reference_prune_mask(num, conjuncts, stats_for)
    got = prune_mask(num, conjuncts, stats_for)
    assert got.tolist() == want.tolist()


# ---------------------------------------------------------------------------
# Zone-map exactness properties (hypothesis)
# ---------------------------------------------------------------------------

ATTRS = tuple(f"c{i}" for i in range(4))


@st.composite
def zoned_tables(draw):
    num_rows = draw(st.integers(min_value=1, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    layout = draw(st.sampled_from(["column", "row"]))
    morsel_rows = draw(st.sampled_from([16, 32, 64, 128]))
    rng = np.random.default_rng(seed)
    columns = {
        name: rng.integers(-100, 100, size=num_rows, dtype=np.int64)
        for name in ATTRS
    }
    schema = Schema.from_names(ATTRS)
    table = Table.from_columns("r", schema, columns, layout)
    return table, columns, morsel_rows


def assert_maps_exact(layout, morsel_rows: int) -> None:
    """Every attribute's zone maps — built on first consultation, then
    read from the layout's cache — equal brute-force per-morsel
    min/max."""
    ranges = morsel_ranges(layout.num_rows, morsel_rows)
    for attr in layout.attrs:
        column = np.asarray(layout.column(attr), dtype=np.float64)
        mins, maxs = ensure_attr_stats(layout, attr, morsel_rows)
        assert mins.shape == maxs.shape == (len(ranges),)
        for i, (lo, hi) in enumerate(ranges):
            assert mins[i] == column[lo:hi].min()
            assert maxs[i] == column[lo:hi].max()


@given(zoned_tables())
@settings(max_examples=40, deadline=None)
def test_zone_maps_exact_after_build_and_append(case):
    table, columns, morsel_rows = case
    for layout in table.layouts:
        assert_maps_exact(layout, morsel_rows)
    # Append a batch that grows the tail morsel and adds new ones: the
    # incremental extension must stay brute-force exact.
    rng = np.random.default_rng(99)
    batch = int(morsel_rows * 1.5)
    table.append_rows(
        {
            name: rng.integers(-100, 100, size=batch, dtype=np.int64)
            for name in ATTRS
        }
    )
    for layout in table.layouts:
        assert cached_zone_maps(layout).attrs == layout.attrs
        assert_maps_exact(layout, morsel_rows)


def test_append_extends_only_the_maps_a_predicate_built():
    """Stats exist only for attributes some predicate consulted: an
    append carries those forward and builds none for the others."""
    table = generate_table("r", 6, 1_000, rng=5, initial_layout="row")
    (row,) = table.layouts
    ensure_attr_stats(row, "a2", 256)
    table.append_rows(
        {name: np.arange(300, dtype=np.int64) for name in table.schema.names}
    )
    (grown,) = table.layouts
    assert cached_zone_maps(grown).attrs == ("a2",)
    assert_maps_exact(grown, 256)


@given(
    zoned_tables(),
    st.lists(st.sampled_from(ATTRS), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=30, deadline=None)
def test_zone_maps_exact_after_stitch(case, attrs):
    table, _columns, morsel_rows = case
    group, _stats = stitch_group(table.layouts, attrs, table.schema)
    assert_maps_exact(group, morsel_rows)
    singles, _stats = stitch_single_columns(table.layouts, attrs)
    for single in singles:
        assert_maps_exact(single, morsel_rows)


@given(zoned_tables(), st.data())
@settings(max_examples=40, deadline=None)
def test_pruned_morsels_hold_zero_qualifying_rows(case, data):
    """The exactness invariant behind selectivity feedback: a pruned
    morsel contains no row satisfying the predicate, ever."""
    table, columns, morsel_rows = case
    attr = data.draw(st.sampled_from(ATTRS))
    op = data.draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
    value = data.draw(st.integers(min_value=-120, max_value=120))
    sql = f"SELECT count(*) FROM r WHERE {attr} {op} {value}"
    info = make_info(table, sql)
    keep = keep_mask_for(
        info, table.layouts, table.num_rows, morsel_rows
    )
    assert keep is not None
    column = columns[attr]
    mask = {
        "<": column < value,
        "<=": column <= value,
        ">": column > value,
        ">=": column >= value,
        "=": column == value,
        "!=": column != value,
    }[op]
    for i, (lo, hi) in enumerate(morsel_ranges(table.num_rows, morsel_rows)):
        if not keep[i]:
            assert not mask[lo:hi].any(), (
                f"pruned morsel {i} holds qualifying rows for {sql!r}"
            )
    # And the per-morsel sums are exact: survivors account for every
    # qualifying row.
    surviving = sum(
        int(mask[lo:hi].sum())
        for i, (lo, hi) in enumerate(
            morsel_ranges(table.num_rows, morsel_rows)
        )
        if keep[i]
    )
    assert surviving == int(mask.sum())


def test_keep_mask_reads_the_first_of_the_narrowest_providers():
    table = generate_table("r", 6, 4_000, rng=3, initial_layout="column")
    group, _ = stitch_group(table.layouts, ("a1", "a2"), table.schema)
    (twin,) = stitch_single_columns(table.layouts, ("a1",))[0]
    column = table.layouts_containing("a1")[0]
    info = make_info(table, "SELECT count(*) FROM r WHERE a1 < 0")
    keep = keep_mask_for(info, (group, column, twin), 4_000, 1_024)
    assert keep is not None and keep.shape == (4,)
    assert cached_zone_maps(column).stats_for("a1") is not None
    assert cached_zone_maps(twin) is None
    assert cached_zone_maps(group) is None


#: Integer values around 2**53, where float64 rounds: a mixed int/float
#: group stores them rounded, the int column exactly.
BIG = 2**53


@st.composite
def mixed_binding_cases(draw):
    """A column-major table of int and float attributes (ints near and
    past 2**53 included), one or two stitched groups over it — mixed
    int/float groups are stored as float64 — and a conjunctive query."""
    names = ("a0", "a1", "a2", "a3", "a4")
    dtypes = draw(
        st.lists(
            st.sampled_from([DataType.INT64, DataType.FLOAT64]),
            min_size=len(names),
            max_size=len(names),
        )
    )
    schema = Schema(Attribute(n, t) for n, t in zip(names, dtypes))
    num_rows = draw(st.integers(min_value=1, max_value=200))
    morsel_rows = draw(st.sampled_from([8, 16, 32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    columns = {}
    for name, dtype in zip(names, dtypes):
        if dtype is DataType.INT64:
            base = draw(st.sampled_from([0, BIG, -BIG, 2**62]))
            columns[name] = base + rng.integers(
                -40, 40, size=num_rows, dtype=np.int64
            )
        else:
            columns[name] = rng.integers(-160, 160, size=num_rows) / 4.0
    table = Table.from_columns("r", schema, columns, "column")
    for _ in range(draw(st.integers(1, 2))):
        attrs = draw(
            st.lists(st.sampled_from(names), min_size=2, max_size=4,
                     unique=True)
        )
        ordered = [n for n in names if n in attrs]
        if table.find_group(ordered) is None:
            group, _ = stitch_group(table.layouts, ordered, schema)
            table.add_layout(group)
    conjuncts = []
    for _ in range(draw(st.integers(1, 4))):
        name = draw(st.sampled_from(names))
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]))
        column = columns[name]
        if column.dtype.kind == "i":
            value = int(column[draw(st.integers(0, num_rows - 1))])
            literal = str(value + draw(st.integers(-2, 2)))
        else:
            literal = repr(draw(st.integers(-170, 170)) / 4.0)
        if draw(st.booleans()):
            conjuncts.append(f"{name} {op} {literal}")
        else:
            conjuncts.append(f"{literal} {op} {name}")
    select = draw(st.sampled_from(names))
    sql = (
        f"SELECT count(*), max({select}) FROM r WHERE "
        + " AND ".join(conjuncts)
    )
    return table, morsel_rows, sql


@given(mixed_binding_cases())
@settings(max_examples=200, deadline=None)
def test_snapshot_binding_keeps_what_every_covering_plan_keeps(case):
    """Binding once is safe: zone-map stats are row-aligned and float64
    rounding is monotone, so the predicate bound over the whole
    snapshot — what the engine binds, prices with and caches — keeps
    exactly the morsels a binding over any covering plan's layouts
    keeps, for all six operators, mixed int/float groups and ints past
    2**53."""
    table, morsel_rows, sql = case
    snapshot = table.snapshot()
    info = make_info(table, sql)
    num_rows = snapshot.num_rows
    whole = keep_mask_for(info, snapshot.layouts, num_rows, morsel_rows)
    assert whole is not None
    for plan in enumerate_plans(snapshot, info):
        got = keep_mask_for(info, plan.layouts, num_rows, morsel_rows)
        assert got is not None, plan.describe()
        assert got.tolist() == whole.tolist(), (sql, plan.describe())


def test_a_query_binds_its_zone_maps_once(monkeypatch):
    """A cold query binds its predicate once (planning, scan and cache
    entry share the binding); a hit binds nothing."""
    calls = []
    real = morsel.zone_bounds_for

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(morsel, "zone_bounds_for", counting)
    monkeypatch.setattr(
        planner_module, "zone_bounds_for", counting, raising=False
    )
    engine = H2OEngine(
        generate_table("r", 6, 4_000, rng=5), EngineConfig(morsel_rows=512)
    )
    cold = engine.execute("SELECT sum(a1) FROM r WHERE a2 > 10")
    assert not cold.plan_cache_hit
    assert len(calls) == 1
    hit = engine.execute("SELECT sum(a1) FROM r WHERE a2 > 20")
    assert hit.plan_cache_hit
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Engine-level: bit-identity, pruning telemetry, fast lane, deadline
# ---------------------------------------------------------------------------


def parallel_config(**overrides) -> EngineConfig:
    defaults = dict(morsel_rows=128, max_scan_threads=4)
    defaults.update(overrides)
    return EngineConfig(**defaults)


#: Pools the helpers below made; each test closes its own.
_OPEN_POOLS = []


@pytest.fixture(autouse=True)
def _close_scan_pools():
    yield
    while _OPEN_POOLS:
        _OPEN_POOLS.pop().close()


def make_parallel_engine(table: Table, **overrides) -> H2OEngine:
    engine = H2OEngine(table, parallel_config(**overrides))
    # The container may expose a single core; inject a wider pool so
    # real helper threads run regardless of the host.
    engine.executor.scan_pool = ScanPool(max_threads=4)
    _OPEN_POOLS.append(engine.executor.scan_pool)
    return engine


MIXED_SQL = [
    "SELECT sum(a1 + a2) FROM r WHERE a3 > {t}",
    "SELECT count(*) FROM r WHERE a4 < {t}",
    "SELECT min(a5), max(a6) FROM r WHERE a7 > {t} AND a5 < 900000000",
    "SELECT avg(a2 - a8) FROM r WHERE a1 > {t}",
    "SELECT a1, a2 FROM r WHERE a3 > 900000000",
    "SELECT sum(a3) FROM r",
]


class TestEngineParallel:
    def test_parallel_answers_bit_identical_to_serial(self):
        parallel = make_parallel_engine(generate_table("r", 8, 4096, rng=21))
        serial = H2OEngine(
            generate_table("r", 8, 4096, rng=21),
            EngineConfig(max_scan_threads=1, zone_maps=False),
        )
        saw_parallel = False
        for repeat in range(2):  # second pass rides the fast lane
            for i, template in enumerate(MIXED_SQL):
                sql = template.format(t=(i - 3) * 100_000_000)
                got = parallel.execute(sql)
                want = serial.execute(sql)
                assert np.array_equal(
                    got.result.data, want.result.data, equal_nan=True
                ), f"parallel diverged on {sql!r}"
                saw_parallel = saw_parallel or got.parallel_scan
                if repeat:
                    assert got.plan_cache_hit or got.adaptation_ran is not None
        assert saw_parallel, "no query ever ran morsel-parallel"

    def test_selective_query_prunes_most_morsels(self):
        # Clustered data: a1 is sorted, so a narrow range lives in few
        # morsels — the zone-map sweet spot the acceptance bar targets.
        num_rows = 8192
        rng = np.random.default_rng(5)
        columns = {
            "a1": np.arange(num_rows, dtype=np.int64),
            "a2": rng.integers(-(10**9), 10**9, num_rows, dtype=np.int64),
        }
        table = Table.from_columns(
            "r", Schema.from_names(("a1", "a2")), columns, "column"
        )
        engine = make_parallel_engine(table)
        # < 5% qualifying: rows [0, 256) of 8192.
        report = engine.execute("SELECT sum(a2) FROM r WHERE a1 < 256")
        assert report.result.scalars() == (
            float(columns["a2"][:256].sum()),
        )
        assert report.morsels_total == num_morsels_for(num_rows, 128)
        assert report.morsels_pruned / report.morsels_total >= 0.8, (
            f"only pruned {report.morsels_pruned}/{report.morsels_total}"
        )

    def test_fast_lane_reprunes_with_fresh_literals(self):
        num_rows = 4096
        columns = {
            "a1": np.arange(num_rows, dtype=np.int64),
            "a2": np.arange(num_rows, dtype=np.int64) * 3,
        }
        table = Table.from_columns(
            "r", Schema.from_names(("a1", "a2")), columns, "column"
        )
        engine = make_parallel_engine(table)
        first = engine.execute("SELECT sum(a2) FROM r WHERE a1 < 128")
        assert first.morsels_pruned > 0
        # Same shape, new literal: the cached kernel must re-consult the
        # zone maps for *this* literal, not replay the old keep mask.
        wide = engine.execute("SELECT sum(a2) FROM r WHERE a1 < 4096")
        assert wide.plan_cache_hit
        assert wide.morsels_pruned == 0
        assert wide.result.scalars() == (float(columns["a2"].sum()),)
        # (The wide query's selectivity drifts past the fast-lane band,
        # so this repeat may legitimately re-plan; what matters is that
        # pruning again reflects the narrow literal.)
        narrow = engine.execute("SELECT sum(a2) FROM r WHERE a1 < 128")
        assert narrow.morsels_pruned == first.morsels_pruned
        assert narrow.result.scalars() == (
            float(columns["a2"][:128].sum()),
        )

    def test_projection_results_identical_and_in_row_order(self):
        parallel = make_parallel_engine(generate_table("r", 6, 3000, rng=9))
        serial = H2OEngine(
            generate_table("r", 6, 3000, rng=9),
            EngineConfig(max_scan_threads=1, zone_maps=False),
        )
        sql = "SELECT a1, a2 FROM r WHERE a3 > 0"
        got = parallel.execute(sql)
        want = serial.execute(sql)
        assert np.array_equal(got.result.data, want.result.data), (
            "parallel projection lost row order or rows"
        )

    def test_morsel_deadline_aborts_once_across_threads(self):
        engine = make_parallel_engine(generate_table("r", 4, 512, rng=1))
        check = engine._morsel_deadline(time.monotonic() - 1.0)
        assert check is not None
        failures = []

        def worker() -> None:
            try:
                check()
            except QueryTimeoutError:
                failures.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert len(failures) == 8, "expiry must raise in every thread"
        assert engine.deadline_aborts == 1, (
            "the once-latch must count one abort per query, not per thread"
        )
        assert engine._morsel_deadline(None) is None


# ---------------------------------------------------------------------------
# Stress: scan pool vs service workers vs inline adaptation
# ---------------------------------------------------------------------------


@pytest.mark.parallel_stress
def test_parallel_scans_race_service_and_appends():
    """Morsel helpers, service workers, online stitches, and
    appends all race; every answer must stay consistent and the pool
    budget must return to zero."""
    from repro import H2OService

    table = generate_table("r", 8, 4096, rng=31)
    base_rows = table.num_rows
    batch, num_batches = 128, 12
    valid_counts = {base_rows + k * batch for k in range(num_batches + 1)}

    service = H2OService(
        config=parallel_config(),
        num_workers=4,
        max_pending=4096,
    )
    service.register(table)
    engine = service.system.engine_for("r")
    pool = ScanPool(max_threads=4)
    engine.executor.scan_pool = pool
    errors: list = []
    stop = threading.Event()
    observed: list = []

    def writer() -> None:
        rng = np.random.default_rng(7)
        try:
            for _ in range(num_batches):
                table.append_rows(
                    {
                        name: rng.integers(
                            -(10**9), 10**9, size=batch, dtype=np.int64
                        )
                        for name in table.schema.names
                    }
                )
                seen = len(observed)
                try:
                    wait_until(
                        lambda: len(observed) > seen or stop.is_set(),
                        timeout=10.0,
                        interval=0.001,
                        message="a reader observation between appends",
                    )
                except AssertionError:
                    pass
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)
        finally:
            stop.set()

    def reader(worker_id: int) -> None:
        try:
            i = 0
            while not stop.is_set():
                i += 1
                # Hot shape drives online stitches; the count
                # probe checks snapshot consistency under appends.
                report = service.execute(
                    "SELECT count(*), sum(a1 - a1) FROM r",
                    timeout=120.0,
                )
                count, zero = report.result.scalars()
                assert zero == 0.0
                observed.append(int(count))
                service.execute(
                    f"SELECT sum(a1 + a2 + a3) FROM r "
                    f"WHERE a4 > {(i % 16 - 8) * 10**8}",
                    timeout=120.0,
                )
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    readers = [
        threading.Thread(target=reader, args=(i,)) for i in range(4)
    ]
    writer_thread = threading.Thread(target=writer)
    for thread in readers:
        thread.start()
    writer_thread.start()
    writer_thread.join(300.0)
    for thread in readers:
        thread.join(300.0)
    try:
        assert not errors, f"race failed: {errors[0]!r}"
        assert observed, "readers never completed a query"
        torn = [c for c in observed if c not in valid_counts]
        assert not torn, f"torn counts under parallel scans: {sorted(set(torn))}"
        assert service.stats.snapshot()["failed"] == 0
        assert engine.stats()["morsels_total"] > 0, (
            "morsel path never engaged"
        )
        wait_until(
            lambda: pool.snapshot()["reserved"] == 0,
            timeout=30.0,
            message="scan-pool budget draining to zero",
        )
    finally:
        service.close()
