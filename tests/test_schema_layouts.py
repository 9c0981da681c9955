"""Schemas and the three physical layout classes."""

import numpy as np
import pytest

from repro.errors import LayoutError, SchemaError
from repro.sql import DataType
from repro.storage import ColumnGroup, Schema, SingleColumn, build_row_layout
from repro.storage.layout import LayoutKind
from repro.storage.schema import Attribute


class TestSchema:
    def test_basic_properties(self):
        schema = Schema.of("a", "b", "c")
        assert schema.width == 3
        assert schema.names == ("a", "b", "c")
        assert schema.row_bytes == 24
        assert "b" in schema and "z" not in schema

    def test_rejects_duplicates(self):
        with pytest.raises(SchemaError):
            Schema.of("a", "a")

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_rejects_bad_name(self):
        with pytest.raises(SchemaError):
            Attribute("1abc")

    def test_index_and_dtype(self):
        schema = Schema(
            [Attribute("i"), Attribute("f", DataType.FLOAT64)]
        )
        assert schema.index_of("f") == 1
        assert schema.dtype_of("f") is DataType.FLOAT64
        with pytest.raises(SchemaError):
            schema.index_of("missing")

    def test_ordered_follows_schema_order(self):
        schema = Schema.of("a", "b", "c", "d")
        assert schema.ordered({"d", "a", "c"}) == ("a", "c", "d")

    def test_ordered_rejects_unknown(self):
        with pytest.raises(SchemaError):
            Schema.of("a").ordered(["a", "zz"])

    def test_subset(self):
        schema = Schema.of("a", "b", "c")
        sub = schema.subset(["c", "a"])
        assert sub.names == ("a", "c")

    def test_common_dtype_promotion(self):
        schema = Schema(
            [Attribute("i"), Attribute("f", DataType.FLOAT64)]
        )
        assert schema.common_dtype(["i"]) is DataType.INT64
        assert schema.common_dtype(["i", "f"]) is DataType.FLOAT64

    def test_equality_and_hash(self):
        assert Schema.of("a", "b") == Schema.of("a", "b")
        assert hash(Schema.of("a")) == hash(Schema.of("a"))


class TestColumnGroup:
    def make(self, rows=10, attrs=("x", "y", "z")):
        data = np.arange(rows * len(attrs)).reshape(rows, len(attrs))
        return ColumnGroup(attrs, data)

    def test_kind_and_width(self):
        group = self.make()
        assert group.kind is LayoutKind.GROUP
        assert group.width == 3
        assert group.num_rows == 10

    def test_full_width_is_row_kind(self):
        group = ColumnGroup(("x",), np.zeros((5, 1)), full_width=True)
        assert group.kind is LayoutKind.ROW

    def test_column_is_view(self):
        group = self.make()
        column = group.column("y")
        assert column[1] == group.data[1, 1]
        assert column.base is not None  # a view, not a copy

    def test_unknown_attribute(self):
        with pytest.raises(LayoutError):
            self.make().column("nope")

    def test_rejects_mismatched_width(self):
        with pytest.raises(LayoutError):
            ColumnGroup(("a", "b"), np.zeros((4, 3)))

    def test_rejects_1d_data(self):
        with pytest.raises(LayoutError):
            ColumnGroup(("a",), np.zeros(4))

    def test_rejects_duplicate_attrs(self):
        with pytest.raises(LayoutError):
            ColumnGroup(("a", "a"), np.zeros((4, 2)))

    def test_rejects_empty_attrs(self):
        with pytest.raises(LayoutError):
            ColumnGroup((), np.zeros((4, 0)))

    def test_data_made_contiguous(self):
        fortran = np.asfortranarray(np.zeros((6, 2)))
        group = ColumnGroup(("a", "b"), fortran)
        assert group.data.flags["C_CONTIGUOUS"]

    def test_block(self):
        group = self.make()
        block = group.block(2, 5)
        assert block.shape == (3, 3)

    def test_attr_set_cached(self):
        group = self.make()
        assert group.attr_set is group.attr_set  # cached object

    def test_contains(self):
        group = self.make()
        assert group.contains(["x", "z"])
        assert not group.contains(["x", "nope"])


class TestSingleColumn:
    def test_basics(self):
        column = SingleColumn("v", np.arange(7))
        assert column.kind is LayoutKind.COLUMN
        assert column.width == 1
        assert column.num_rows == 7
        assert (column.column("v") == np.arange(7)).all()

    def test_rejects_2d(self):
        with pytest.raises(LayoutError):
            SingleColumn("v", np.zeros((3, 2)))

    def test_wrong_name(self):
        with pytest.raises(LayoutError):
            SingleColumn("v", np.arange(3)).column("w")

    def test_nbytes(self):
        column = SingleColumn("v", np.arange(10, dtype=np.int64))
        assert column.nbytes == 80


class TestRowLayout:
    def test_build_from_columns(self):
        schema = Schema.of("a", "b")
        layout = build_row_layout(
            schema, {"a": np.arange(5), "b": np.arange(5) * 10}
        )
        assert layout.kind is LayoutKind.ROW
        assert (layout.column("b") == np.arange(5) * 10).all()

    def test_missing_column(self):
        schema = Schema.of("a", "b")
        with pytest.raises(LayoutError):
            build_row_layout(schema, {"a": np.arange(5)})

    def test_length_mismatch(self):
        schema = Schema.of("a", "b")
        with pytest.raises(LayoutError):
            build_row_layout(
                schema, {"a": np.arange(5), "b": np.arange(6)}
            )
