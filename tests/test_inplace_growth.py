"""In-place amortised layout growth: the contract appends now rest on.

``SingleColumn.extended()`` / ``ColumnGroup.extended()`` write appended
rows into spare capacity past the end of every published view of a
shared backing buffer.  That is only sound if

- no pinned :class:`LayoutSnapshot` can ever observe a changed row, no
  matter how stale layouts are extended again or extensions abandoned;
- published views are read-only, so the tip append is the only writer;
- the backing buffer changes O(log n) times over n appends.
"""

import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import EngineConfig
from repro.core.engine import H2OEngine
from repro.storage import Schema, Table, generate_table
from repro.storage.column_group import ColumnGroup
from repro.storage.column_layout import SingleColumn
from repro.storage.layout import GROWTH_FACTOR
from repro.storage.stitcher import stitch_group

ATTRS = ("c0", "c1", "c2", "c3")


def _rows(rng, count):
    return {
        name: rng.integers(-(2**40), 2**40, size=count, dtype=np.int64)
        for name in ATTRS
    }


def _pin(table):
    """A pinned snapshot plus the bytes of every layout at pin time."""
    snapshot = table.snapshot()
    return snapshot, [layout.data.tobytes() for layout in snapshot.layouts]


# Small batches against GROWTH_FACTOR slack, so sequences mix in-place
# tip appends with capacity regrowth.  Every published state is pinned;
# "detached" calls extended() on the layouts of any pinned snapshot and
# drops the result — a *stale* extension when a later generation already
# appended after it, an *abandoned* one (what Table.append_rows leaves
# behind when a later layout raises LayoutError before the publish) when
# the snapshot is still the current one.
_OPS = st.one_of(
    st.tuples(st.just("append"), st.integers(1, 8)),
    st.tuples(st.just("detached"), st.integers(0, 10**6)),
    st.tuples(st.just("add_layout"), st.integers(0, 2)),
    st.tuples(st.just("reorder"), st.just(0)),
)


@given(
    initial_rows=st.integers(0, 40),
    initial_layout=st.sampled_from(["column", "row"]),
    seed=st.integers(0, 2**16),
    ops=st.lists(_OPS, min_size=1, max_size=30),
)
@settings(max_examples=120, deadline=None)
def test_pinned_snapshots_never_change_and_live_table_matches_reference(
    initial_rows, initial_layout, seed, ops
):
    rng = np.random.default_rng(seed)
    reference = _rows(rng, initial_rows)
    table = Table.from_columns(
        "r", Schema.from_names(ATTRS), reference, initial_layout
    )
    pinned = [_pin(table)]

    for op, arg in ops:
        if op == "append":
            rows = _rows(rng, arg)
            table.append_rows(rows)
            reference = {
                a: np.concatenate([reference[a], rows[a]]) for a in ATTRS
            }
        elif op == "detached":
            snapshot, _ = pinned[arg % len(pinned)]
            rows = _rows(rng, 1 + arg % 5)
            for layout in snapshot.layouts:
                grown = layout.extended(rows)
                for a in layout.attrs:
                    want = np.concatenate([layout.column(a), rows[a]])
                    assert np.array_equal(grown.column(a), want)
        elif op == "add_layout":
            attrs = ATTRS[arg : arg + 2]
            if table.find_group(attrs) is None:
                group, _ = stitch_group(table.layouts, attrs, table.schema)
                table.add_layout(group)
        elif op == "reorder":
            perm = rng.permutation(table.num_rows)
            table.reorder_rows(perm, "c0", 0)
            reference = {a: reference[a][perm] for a in ATTRS}
        pinned.append(_pin(table))

        for snapshot, frozen in pinned:
            for layout, want in zip(snapshot.layouts, frozen):
                assert layout.data.tobytes() == want
        for layout in table.layouts:
            assert layout.num_rows == len(reference["c0"])
            for a in layout.attrs:
                assert np.array_equal(layout.column(a), reference[a])


def test_buffer_changes_logarithmically_not_per_append():
    """300 appends to a 100k-row table: a count, not a timing."""
    table = generate_table("r", 4, 100_000, rng=3, initial_layout="column")
    group, _ = stitch_group(table.layouts, ("a1", "a2"), table.schema)
    table.add_layout(group)
    rng = np.random.default_rng(0)
    appends, batch = 300, 64
    changes = [0] * len(table.layouts)
    previous = table.snapshot()
    for _ in range(appends):
        table.append_rows(
            {
                name: rng.integers(-100, 100, size=batch, dtype=np.int64)
                for name in table.schema.names
            }
        )
        current = table.snapshot()
        for i, (old, new) in enumerate(zip(previous.layouts, current.layouts)):
            if not np.shares_memory(old.data, new.data):
                changes[i] += 1
        previous = current
    # One copy out of the caller's arrays, then geometric regrowth.
    growth = table.num_rows / (table.num_rows - appends * batch)
    bound = 1 + math.ceil(math.log(growth) / math.log(GROWTH_FACTOR))
    assert max(changes) <= bound < appends
    assert min(changes) >= 1  # the first append must leave caller memory
    assert table.nbytes == sum(l.data.nbytes for l in table.layouts)
    assert table.snapshot().reserved_bytes > table.nbytes


def test_no_slack_before_the_first_append():
    table = generate_table("r", 3, 1000, rng=1)
    assert table.snapshot().reserved_bytes == table.nbytes
    assert all(layout._buffer is None for layout in table.layouts)


def test_appended_values_are_copied_not_retained():
    table = generate_table("r", 2, 100, rng=1)
    rows = {n: np.arange(10, dtype=np.int64) for n in table.schema.names}
    table.append_rows(rows)
    for values in rows.values():
        values[:] = -1  # the caller reuses its batch buffers
    assert np.array_equal(table.column("a1")[-10:], np.arange(10))


@pytest.mark.parametrize("initial_layout", ["column", "row"])
def test_published_views_are_read_only(initial_layout):
    source = {n: np.arange(50, dtype=np.int64) for n in ("a", "b")}
    table = Table.from_columns(
        "r", Schema.from_names(("a", "b")), source, initial_layout
    )
    table.append_rows({n: np.arange(5, dtype=np.int64) for n in ("a", "b")})
    for layout in table.layouts:
        with pytest.raises(ValueError):
            layout.data[0] = 7
        with pytest.raises(ValueError):
            layout.column(layout.attrs[0])[0] = 7
    # The flag is set on the layout's view, never on the caller's array.
    assert all(values.flags.writeable for values in source.values())
    own = np.zeros((4, 2), dtype=np.int64)
    assert not ColumnGroup(("a", "b"), own).data.flags.writeable
    assert not SingleColumn("a", own[:, 0].copy()).data.flags.writeable
    assert own.flags.writeable


@pytest.mark.parametrize("use_codegen", [True, False])
def test_scans_and_reorders_run_over_read_only_layouts(use_codegen):
    table = generate_table("r", 6, 5000, rng=4)
    group, _ = stitch_group(table.layouts, ("a1", "a2"), table.schema)
    table.add_layout(group)
    rows = {
        n: np.arange(200, dtype=np.int64) for n in table.schema.names
    }
    table.append_rows(rows)
    engine = H2OEngine(table, EngineConfig(use_codegen=use_codegen))
    sql = "SELECT sum(a1 + a2), count(*) FROM r WHERE a3 > 0"
    before = engine.execute(sql).result.scalars()
    a1, a2, a3 = (table.column(n) for n in ("a1", "a2", "a3"))
    assert before == (float((a1 + a2)[a3 > 0].sum()), float((a3 > 0).sum()))
    table.reorder_rows(np.argsort(a3, kind="stable"), "a3", table.num_rows)
    assert engine.execute(sql).result.scalars() == before
    projected = engine.execute("SELECT a1, a2 FROM r WHERE a3 > 0").result
    assert projected.num_rows == int((a3 > 0).sum())


def test_engine_stats_report_used_and_reserved_bytes():
    table = generate_table("r", 3, 1000, rng=2)
    engine = H2OEngine(table, EngineConfig())
    stats = engine.stats()
    assert stats["layout_bytes"] == stats["reserved_bytes"] == table.nbytes
    table.append_rows(
        {n: np.arange(8, dtype=np.int64) for n in table.schema.names}
    )
    stats = engine.stats()
    assert stats["layout_bytes"] == table.nbytes == 1008 * 3 * 8
    assert stats["reserved_bytes"] == table.snapshot().reserved_bytes > table.nbytes
