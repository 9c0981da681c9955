"""The stitcher (layout transformation), data generation, persistence."""

import numpy as np
import pytest

from repro.core.reorganizer import Reorganizer
from repro.errors import LayoutError, StorageError, WorkloadError
from repro.sql import DataType, analyze_query, parse_query
from repro.storage import generate_table, wide_schema
from repro.storage.io import load_table, save_table
from repro.storage.layout import LayoutKind
from repro.storage.relation import Table
from repro.storage.schema import Attribute, Schema
from repro.storage.stitcher import (
    STITCH_ROWS,
    stitch_group,
    stitch_single_columns,
)


class TestStitchGroup:
    def test_preserves_values_and_order(self, column_table):
        attrs = ("a2", "a5", "a7")
        group, stats = stitch_group(
            column_table.layouts, attrs, column_table.schema
        )
        for attr in attrs:
            assert (group.column(attr) == column_table.column(attr)).all()
        assert stats.bytes_written == group.nbytes
        assert stats.source_layouts == 3

    def test_from_row_layout(self, row_table):
        group, stats = stitch_group(
            row_table.layouts, ("a1", "a8"), row_table.schema
        )
        assert (group.column("a8") == row_table.column("a8")).all()
        # reading from the row layout fetches whole tuples
        assert stats.bytes_read == row_table.layouts[0].nbytes

    def test_prefers_narrow_sources(self, column_table):
        wide, _ = stitch_group(
            column_table.layouts,
            column_table.schema.names,
            column_table.schema,
            full_width=True,
        )
        column_table.add_layout(wide)
        _group, stats = stitch_group(
            column_table.layouts, ("a1", "a2"), column_table.schema
        )
        # singles (8 bytes/row each) beat the full-width layout
        assert stats.bytes_read < wide.nbytes

    def test_full_width_flag(self, column_table):
        group, _ = stitch_group(
            column_table.layouts,
            column_table.schema.names,
            column_table.schema,
            full_width=True,
        )
        assert group.kind is LayoutKind.ROW

    def test_empty_attrs_rejected(self, column_table):
        with pytest.raises(LayoutError):
            stitch_group(column_table.layouts, (), column_table.schema)

    def test_missing_source(self, column_table):
        with pytest.raises(LayoutError):
            stitch_group(
                column_table.layouts[:2], ("a5",), column_table.schema
            )


def _sources(kind: str) -> Table:
    """8 attributes (a3 and a6 float64) over 2.5 sub-blocks of rows,
    stored row-major, column-major, or mixed: a group over a5..a8
    (written a7, a5, a6, a8) beside a group over a1..a3 and one column."""
    schema = Schema(
        Attribute(f"a{i}", DataType.FLOAT64 if i in (3, 6) else DataType.INT64)
        for i in range(1, 9)
    )
    rows = STITCH_ROWS * 5 // 2 + 7
    if kind != "mixed":
        return generate_table("r", 8, rows, rng=3, initial_layout=kind, schema=schema)
    base = generate_table("r", 8, rows, rng=3, schema=schema)
    groups = [
        stitch_group(base.layouts, attrs, schema)[0]
        for attrs in (("a1", "a2", "a3"), ("a7", "a5", "a6", "a8"))
    ]
    return Table("r", schema, groups + [base.layouts[3]])


def _per_column(table: Table, attrs) -> np.ndarray:
    dtype = table.schema.common_dtype(attrs).numpy_dtype
    data = np.empty((table.num_rows, len(attrs)), dtype=dtype)
    for position, attr in enumerate(attrs):
        data[:, position] = table.column(attr)
    return data


#: Target orders: whole runs, runs cut by a gap, reversed, promoted.
STITCH_TARGETS = [
    ("a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8"),
    ("a5", "a6", "a8"),
    ("a1", "a2", "a4", "a5", "a6"),
    ("a8", "a7", "a2", "a1"),
    ("a7", "a5", "a6"),
    ("a3",),
]


@pytest.mark.parametrize("kind", ["row", "column", "mixed"])
@pytest.mark.parametrize("attrs", STITCH_TARGETS)
def test_stitched_groups_are_bytes_of_per_column_copies(kind, attrs):
    """The 2-D run copies of the offline and the online stitch build
    exactly what one copy per column builds."""
    table = _sources(kind)
    expected = _per_column(table, attrs)
    group, _ = stitch_group(table.layouts, attrs, table.schema)
    assert group.data.dtype == expected.dtype
    assert group.data.tobytes() == expected.tobytes()

    ordered = table.schema.ordered(attrs)
    info = analyze_query(
        parse_query(f"SELECT sum({ordered[0]}) FROM r WHERE a4 > 0"),
        table.schema,
    )
    online = Reorganizer().online(table, attrs, info).group
    assert online.attrs == ordered
    assert online.data.tobytes() == _per_column(table, ordered).tobytes()


class TestStitchSingles:
    def test_decompose_row_layout(self, row_table):
        columns, stats = stitch_single_columns(
            row_table.layouts, ("a3", "a4")
        )
        assert [c.name for c in columns] == ["a3", "a4"]
        for column in columns:
            assert (
                column.data == row_table.column(column.name)
            ).all()
            assert column.data.flags["C_CONTIGUOUS"]
        assert stats.bytes_written == sum(c.nbytes for c in columns)


class TestGenerator:
    def test_deterministic(self):
        first = generate_table("r", 4, 100, rng=3)
        second = generate_table("r", 4, 100, rng=3)
        for name in first.schema.names:
            assert (first.column(name) == second.column(name)).all()

    def test_value_range(self):
        table = generate_table("r", 2, 5000, rng=0)
        values = table.column("a1")
        assert values.min() >= -(10**9)
        assert values.max() < 10**9

    def test_float_schema(self):
        schema = wide_schema(2, dtype=DataType.FLOAT64)
        table = generate_table("r", 2, 50, rng=0, schema=schema)
        assert table.column("a1").dtype == np.float64

    def test_rejects_bad_params(self):
        with pytest.raises(WorkloadError):
            generate_table("r", 0, 10)
        with pytest.raises(WorkloadError):
            generate_table("r", 3, 0)
        with pytest.raises(WorkloadError):
            generate_table("r", 3, 10, schema=wide_schema(4))


class TestIO:
    def test_roundtrip(self, tmp_path, column_table):
        save_table(column_table, tmp_path / "t")
        loaded = load_table(tmp_path / "t")
        assert loaded.schema == column_table.schema
        assert loaded.num_rows == column_table.num_rows
        for name in loaded.schema.names:
            assert (loaded.column(name) == column_table.column(name)).all()

    def test_roundtrip_row_layout_choice(self, tmp_path, column_table):
        save_table(column_table, tmp_path / "t")
        loaded = load_table(tmp_path / "t", initial_layout="row")
        assert loaded.layouts[0].kind is LayoutKind.ROW

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            load_table(tmp_path / "ghost")
