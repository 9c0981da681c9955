"""Save/load round-trips for ``storage.io`` — incl. the dotted-stem fix.

``Path.with_suffix`` treats everything after the last dot as an
extension, so ``save_table(t, "data.v2")`` used to scatter its files as
``data.npz``/``data.json`` — and two tables saved as ``data.v1`` and
``data.v2`` silently overwrote each other.  ``_sibling`` appends instead
of replacing; these tests pin that down along with full-fidelity content
round-trips (every dtype, empty tables, NaN bit patterns) and the
on-disk format: integers narrowed to the smallest width that holds
them, stored without deflate, and the older deflated format still read.
"""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro.errors import StorageError
from repro.sql.types import DataType
from repro.storage import Schema, Table, generate_table
from repro.storage.io import (
    _sibling,
    load_table,
    narrowest_int_dtype,
    save_table,
)
from repro.storage.schema import Attribute


def make_table(name="t", columns=None):
    columns = columns if columns is not None else {
        "a": np.array([1, 2, 3], dtype=np.int64),
        "b": np.array([0.5, -1.5, 2.25], dtype=np.float64),
    }
    schema = Schema(
        Attribute(attr, DataType.from_any(values.dtype))
        for attr, values in columns.items()
    )
    return Table.from_columns(name, schema, columns)


def assert_tables_equal(left: Table, right: Table):
    assert left.name == right.name
    assert left.schema.names == right.schema.names
    assert left.num_rows == right.num_rows
    for attr in left.schema.names:
        a, b = left.column(attr), right.column(attr)
        assert a.dtype == b.dtype
        # bytes-level: NaNs compare equal, -0.0 != 0.0
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The dotted-stem regression
# ---------------------------------------------------------------------------


def test_dotted_stem_keeps_full_name(tmp_path):
    save_table(make_table(), tmp_path / "data.v2")
    assert (tmp_path / "data.v2.npz").exists()
    assert (tmp_path / "data.v2.json").exists()
    # the with_suffix behaviour would have produced these instead:
    assert not (tmp_path / "data.npz").exists()
    assert not (tmp_path / "data.json").exists()


def test_dotted_stems_do_not_collide(tmp_path):
    one = make_table("one", {"a": np.arange(3, dtype=np.int64)})
    two = make_table("two", {"a": np.arange(5, dtype=np.int64)})
    save_table(one, tmp_path / "data.v1")
    save_table(two, tmp_path / "data.v2")
    assert load_table(tmp_path / "data.v1").name == "one"
    assert load_table(tmp_path / "data.v2").name == "two"


@pytest.mark.parametrize("spelling", ["tbl", "tbl.npz", "tbl.json"])
def test_own_suffix_spellings_address_same_files(tmp_path, spelling):
    save_table(make_table(), tmp_path / "tbl")
    assert_tables_equal(make_table(), load_table(tmp_path / spelling))


def test_sibling_strips_one_own_suffix_only():
    from pathlib import Path

    assert _sibling(Path("x/data.v2"), ".npz") == Path("x/data.v2.npz")
    assert _sibling(Path("x/tbl.npz"), ".json") == Path("x/tbl.json")
    # a file literally named ".npz" is not treated as an empty stem
    assert _sibling(Path("x/.npz"), ".json") == Path("x/.npz.json")


# ---------------------------------------------------------------------------
# Content round-trips
# ---------------------------------------------------------------------------


def test_roundtrip_all_dtypes(tmp_path):
    table = make_table(
        "mixed",
        {
            "i": np.array([-(2**62), 0, 2**62], dtype=np.int64),
            "f": np.array([1e-300, -1e300, 3.5], dtype=np.float64),
        },
    )
    save_table(table, tmp_path / "mixed")
    assert_tables_equal(table, load_table(tmp_path / "mixed"))


def test_roundtrip_empty_table(tmp_path):
    table = make_table(
        "empty",
        {
            "a": np.array([], dtype=np.int64),
            "b": np.array([], dtype=np.float64),
        },
    )
    save_table(table, tmp_path / "empty")
    loaded = load_table(tmp_path / "empty")
    assert loaded.num_rows == 0
    assert_tables_equal(table, loaded)


def test_roundtrip_nan_and_inf_bit_exact(tmp_path):
    values = np.array(
        [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0], dtype=np.float64
    )
    table = make_table("weird", {"f": values})
    save_table(table, tmp_path / "weird")
    loaded = load_table(tmp_path / "weird")
    assert loaded.column("f").tobytes() == values.tobytes()


def test_roundtrip_generated_table(tmp_path):
    table = generate_table("g", num_attrs=6, num_rows=500, rng=11)
    save_table(table, tmp_path / "g")
    assert_tables_equal(table, load_table(tmp_path / "g"))


def test_load_missing_raises(tmp_path):
    with pytest.raises(StorageError, match="no saved table"):
        load_table(tmp_path / "nope")


def test_load_detects_row_count_mismatch(tmp_path):
    import json

    save_table(make_table(), tmp_path / "tbl")
    meta_path = tmp_path / "tbl.json"
    meta = json.loads(meta_path.read_text())
    meta["num_rows"] += 1
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(StorageError, match="row count mismatch"):
        load_table(tmp_path / "tbl")


# ---------------------------------------------------------------------------
# The on-disk format: narrowed integers, stored (not deflated)
# ---------------------------------------------------------------------------


WIDTHS = (np.int8, np.int16, np.int32, np.int64)


@pytest.mark.parametrize("index", range(len(WIDTHS)))
def test_narrowing_picks_the_width_exactly_at_the_iinfo_edges(index):
    info = np.iinfo(WIDTHS[index])
    edges = np.array([info.min, info.max], dtype=np.int64)
    assert narrowest_int_dtype(edges) == WIDTHS[index]
    if index + 1 < len(WIDTHS):
        wider = WIDTHS[index + 1]
        assert narrowest_int_dtype(edges - [1, 0]) == wider
        assert narrowest_int_dtype(edges + [0, 1]) == wider
    assert narrowest_int_dtype(np.array([], dtype=np.int64)) == np.int8


def test_integer_columns_are_stored_narrow_and_uncompressed(tmp_path):
    table = make_table(
        "n",
        {
            "small": np.array([-128, 0, 127], dtype=np.int64),
            "mid": np.array([0, 1, 40_000], dtype=np.int64),
            "f": np.array([0.5, -1.5, 2.25], dtype=np.float64),
        },
    )
    save_table(table, tmp_path / "n")
    with np.load(tmp_path / "n.npz") as archive:
        assert archive["small"].dtype == np.int8
        assert archive["mid"].dtype == np.int32
        assert archive["f"].dtype == np.float64
    with zipfile.ZipFile(tmp_path / "n.npz") as archive:
        assert {i.compress_type for i in archive.infolist()} == {
            zipfile.ZIP_STORED
        }
    loaded = load_table(tmp_path / "n")
    assert_tables_equal(table, loaded)
    assert loaded.column("small").dtype == np.int64


def test_roundtrip_int64_extremes_nan_and_signed_zero_bit_exact(tmp_path):
    info = np.iinfo(np.int64)
    floats = np.array([np.nan, -np.nan, -0.0, 0.0, np.inf], dtype=np.float64)
    table = make_table(
        "edges",
        {
            "lo": np.array([info.min, 0, 1, -1, 5], dtype=np.int64),
            "hi": np.array([info.max, 0, 1, -1, 5], dtype=np.int64),
            "f": floats,
        },
    )
    save_table(table, tmp_path / "edges")
    loaded = load_table(tmp_path / "edges")
    assert_tables_equal(table, loaded)
    assert loaded.column("f").tobytes() == floats.tobytes()


def test_loads_the_older_deflated_int64_format(tmp_path):
    table = generate_table("g", num_attrs=4, num_rows=300, rng=5)
    save_table(table, tmp_path / "g")
    np.savez_compressed(
        tmp_path / "g.npz",
        **{name: table.column(name) for name in table.schema.names},
    )
    assert_tables_equal(table, load_table(tmp_path / "g"))
