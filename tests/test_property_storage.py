"""Property-based storage invariants: stitching preserves data and
order; partitionings cover; covers actually cover; appends keep zone
maps exact."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.sql.types import DataType
from repro.storage import Partitioning, Schema, Table
from repro.storage.schema import Attribute
from repro.storage.stitcher import stitch_group, stitch_single_columns
from repro.storage.zonemap import (
    _minmax_per_morsel,
    cached_zone_maps,
    ensure_attr_stats,
)

ATTRS = tuple(f"c{i}" for i in range(6))


@st.composite
def random_tables(draw):
    num_rows = draw(st.integers(min_value=1, max_value=200))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    layout = draw(st.sampled_from(["column", "row"]))
    rng = np.random.default_rng(seed)
    columns = {
        name: rng.integers(-50, 50, size=num_rows, dtype=np.int64)
        for name in ATTRS
    }
    schema = Schema.from_names(ATTRS)
    return Table.from_columns("r", schema, columns, layout), columns


@given(
    random_tables(),
    st.lists(st.sampled_from(ATTRS), min_size=1, max_size=6, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_stitch_group_preserves_content_and_order(case, attrs):
    table, columns = case
    group, stats = stitch_group(table.layouts, attrs, table.schema)
    assert group.attrs == tuple(attrs)
    for attr in attrs:
        assert (group.column(attr) == columns[attr]).all()
    assert stats.bytes_written == group.nbytes
    assert stats.bytes_read > 0


@given(
    random_tables(),
    st.lists(st.sampled_from(ATTRS), min_size=1, max_size=4, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_stitch_singles_roundtrip(case, attrs):
    table, columns = case
    singles, _stats = stitch_single_columns(table.layouts, attrs)
    for single in singles:
        assert (single.data == columns[single.name]).all()


@given(random_tables(), st.data())
@settings(max_examples=40, deadline=None)
def test_covering_layouts_cover(case, data):
    table, _columns = case
    needed = data.draw(
        st.lists(st.sampled_from(ATTRS), min_size=1, max_size=6, unique=True)
    )
    for cover in (
        table.covering_layouts(needed),
        table.narrowest_cover(needed),
    ):
        covered = set()
        for layout in cover:
            covered |= layout.attr_set
        assert set(needed) <= covered


@given(random_tables(), st.data())
@settings(max_examples=40, deadline=None)
def test_stitch_partition_roundtrips_to_row_scan(case, data):
    """Stitching any column-group partition preserves the full scan.

    Draw a random non-overlapping covering partition of the schema,
    stitch each group from the table's layouts, then stitch the groups
    back into one full-width (row) layout: the result must equal the
    row-major matrix of the original columns, bit for bit and in tuple
    order — the row-alignment invariant the reorganizer depends on.
    """
    table, columns = case
    order = data.draw(st.permutations(list(ATTRS)))
    remaining = list(order)
    groups = []
    while remaining:
        size = data.draw(st.integers(min_value=1, max_value=len(remaining)))
        groups.append(tuple(remaining[:size]))
        remaining = remaining[size:]
    stitched = [
        stitch_group(table.layouts, group, table.schema)[0]
        for group in groups
    ]
    # Each group individually carries its source columns unchanged.
    for group, layout in zip(groups, stitched):
        assert layout.attrs == group
        for attr in group:
            assert (layout.column(attr) == columns[attr]).all()
    # The partition as a whole round-trips back to the row scan.
    full, stats = stitch_group(
        stitched, ATTRS, table.schema, full_width=True
    )
    row_matrix = np.column_stack([columns[attr] for attr in ATTRS])
    assert (np.asarray(full.data) == row_matrix).all()
    assert stats.bytes_written == full.nbytes


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_partitioning_cover_invariant(data):
    schema = Schema.from_names(ATTRS)
    # Draw a random non-overlapping covering partition of the attrs.
    remaining = list(ATTRS)
    groups = []
    rng_order = data.draw(st.permutations(remaining))
    remaining = list(rng_order)
    while remaining:
        size = data.draw(
            st.integers(min_value=1, max_value=len(remaining))
        )
        groups.append(remaining[:size])
        remaining = remaining[size:]
    part = Partitioning(schema, groups)
    covered = set()
    for group in part:
        covered |= group
    assert covered == set(ATTRS)
    # groups_covering always covers what it is asked for
    needed = data.draw(
        st.lists(st.sampled_from(ATTRS), min_size=1, max_size=6, unique=True)
    )
    cover = part.groups_covering(needed)
    got = set()
    for group in cover:
        got |= group
    assert set(needed) <= got


def frozenset_cover(snapshot, attrs):
    """``LayoutSnapshot.covering_layouts`` as a greedy over frozensets
    (the implementation the bitmask cover replaced)."""
    needed = set(attrs)
    relevant, seen = [], set()
    for attr in snapshot.schema.ordered(needed):
        for layout in snapshot.layouts_containing(attr):
            if id(layout) not in seen:
                seen.add(id(layout))
                relevant.append(layout)
    chosen = []
    while needed:
        best, best_key = None, (-1.0, 0.0)
        for layout in relevant:
            covered = len(needed & layout.attr_set)
            if covered == 0:
                continue
            key = (float(covered), -float(layout.width))
            if key > best_key:
                best_key, best = key, layout
        chosen.append(best)
        needed -= best.attr_set
    return tuple(chosen)


@given(random_tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_bitmask_cover_equals_frozenset_greedy(case, data):
    """Same layouts in the same order, ties included: equal-width groups
    covering equally much of the query are common here, and the first
    in schema order of its first needed attribute must win."""
    table, _columns = case
    group = st.lists(st.sampled_from(ATTRS), min_size=2, max_size=4, unique=True)
    for attrs in data.draw(st.lists(group, max_size=5)):
        if table.find_group(attrs) is None:
            built, _ = stitch_group(table.layouts, attrs, table.schema)
            table.add_layout(built)
    snapshot = table.snapshot()
    for _ in range(4):
        needed = data.draw(
            st.lists(st.sampled_from(ATTRS), min_size=1, max_size=6, unique=True)
        )
        got = snapshot.covering_layouts(needed)
        want = frozenset_cover(snapshot, needed)
        assert [id(layout) for layout in got] == [id(l) for l in want]


# Zone maps extended by appends ------------------------------------------

ZONE_MORSEL = 8
INT64 = np.iinfo(np.int64)
ZONE_INTS = st.one_of(
    st.integers(-5, 5), st.sampled_from([INT64.min, INT64.max])
)
ZONE_FLOATS = st.one_of(
    st.sampled_from([np.nan, -0.0, 0.0, np.inf, -np.inf]),
    st.floats(-1e3, 1e3),
)


@st.composite
def zone_batches(draw, min_size=1):
    """One batch: two int64 columns (extremes included) and two float64
    columns (NaN, signed zeros, infinities included)."""
    size = draw(st.integers(min_size, 3 * ZONE_MORSEL))
    ints = st.lists(ZONE_INTS, min_size=size, max_size=size)
    floats = st.lists(ZONE_FLOATS, min_size=size, max_size=size)
    return {
        "i0": np.array(draw(ints), dtype=np.int64),
        "i1": np.array(draw(ints), dtype=np.int64),
        "f0": np.array(draw(floats), dtype=np.float64),
        "f1": np.array(draw(floats), dtype=np.float64),
    }


@given(
    zone_batches(min_size=0),
    st.lists(zone_batches(), min_size=1, max_size=6),
)
@settings(max_examples=80, deadline=None)
def test_appended_zone_maps_equal_a_fresh_build(base, batches):
    """Appends of any size, across morsel boundaries, extend every
    tracked attribute's maps to exactly what a fresh per-morsel min/max
    over the whole column gives, on single columns and on groups."""
    schema = Schema(
        [Attribute("i0"), Attribute("i1")]
        + [Attribute(name, DataType.FLOAT64) for name in ("f0", "f1")]
    )
    table = Table.from_columns("r", schema, base, "column")
    for attrs in (("i0", "i1"), ("f0", "f1")):
        group, _ = stitch_group(table.layouts, attrs, schema)
        table.add_layout(group)
    for layout in table.layouts:
        for attr in layout.attrs:
            ensure_attr_stats(layout, attr, ZONE_MORSEL)
    for batch in batches:
        table.append_rows(batch)
        for layout in table.layouts:
            maps = cached_zone_maps(layout)
            assert maps.num_rows == layout.num_rows == table.num_rows
            for attr in layout.attrs:
                want = _minmax_per_morsel(layout.column(attr), ZONE_MORSEL)
                got = maps.stats_for(attr)
                for have, expect in zip(got, want):
                    assert have.dtype == expect.dtype
                    assert np.array_equal(have, expect, equal_nan=True)
