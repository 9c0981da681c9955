"""WAL framing/recovery edges and DurableStore unit behavior.

The contract under test (see repro/gateway/wal.py):

- an incomplete or CRC-failed **final** record is a torn crash tail —
  tolerated, diagnosed, truncated;
- a CRC-failed record **followed by intact data** is mid-log corruption
  — loud ``WALCorruptionError``, file left untouched;
- a WAL tail whose LSNs the snapshot already covers is skipped on
  replay (crash between snapshot completion and WAL compaction).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.config import EngineConfig, GatewayConfig
from repro.errors import (
    BadRequestError,
    CatalogError,
    SnapshotError,
    WALCorruptionError,
)
from repro.gateway.persist import (
    DurableStore,
    list_snapshots,
    load_snapshot,
    write_snapshot,
)
from repro.gateway.wal import (
    KIND_APPEND,
    KIND_CREATE,
    WALRecord,
    WriteAheadLog,
    encode_record,
    scan_wal,
)

ATTRS = [("a", "int64"), ("f", "float64")]


def record(lsn, rows=3, kind=KIND_APPEND, table="t"):
    rng = np.random.default_rng(lsn)
    return WALRecord(
        kind=kind,
        table=table,
        lsn=lsn,
        attributes=list(ATTRS),
        columns={
            "a": rng.integers(-100, 100, size=rows, dtype=np.int64),
            "f": rng.standard_normal(rows),
        },
    )


def store_config(**overrides):
    overrides.setdefault("snapshot_every_records", 0)
    return GatewayConfig(**overrides)


def open_store(path, **overrides):
    return DurableStore(
        path,
        engine_config=EngineConfig(),
        gateway_config=store_config(**overrides),
        num_workers=1,
    )


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------


def test_record_roundtrip_bit_exact(tmp_path):
    original = record(7, rows=5, kind=KIND_CREATE)
    original.columns["f"][0] = np.nan
    original.columns["f"][1] = -0.0
    log = WriteAheadLog(tmp_path / "wal.log")
    log.append(original)
    log.close()
    scan = scan_wal(tmp_path / "wal.log")
    assert not scan.torn_tail
    (decoded,) = scan.records
    assert decoded.kind == KIND_CREATE
    assert decoded.table == "t"
    assert decoded.lsn == 7
    assert decoded.attributes == ATTRS
    for name in ("a", "f"):
        assert decoded.columns[name].dtype == original.columns[name].dtype
        assert (
            decoded.columns[name].tobytes()
            == original.columns[name].tobytes()
        )
    assert decoded.columns["a"].flags.writeable


def test_empty_and_missing_wal(tmp_path):
    missing = scan_wal(tmp_path / "absent.log")
    assert missing.records == [] and not missing.torn_tail
    (tmp_path / "empty.log").write_bytes(b"")
    empty = scan_wal(tmp_path / "empty.log")
    assert empty.records == [] and empty.good_bytes == 0
    assert not empty.torn_tail


def test_group_commit_is_one_fsync(tmp_path):
    log = WriteAheadLog(tmp_path / "wal.log", fsync=True)
    log.append_batch([record(i) for i in range(1, 6)])
    assert log.fsyncs == 1
    assert log.group_commits == 1
    assert log.records_written == 5
    log.close()
    assert len(scan_wal(tmp_path / "wal.log").records) == 5


# ---------------------------------------------------------------------------
# Torn tails vs corruption
# ---------------------------------------------------------------------------


def test_incomplete_final_record_is_torn_tail(tmp_path):
    path = tmp_path / "wal.log"
    good = encode_record(record(1)) + encode_record(record(2))
    partial = encode_record(record(3))[:-4]  # crash mid-write
    path.write_bytes(good + partial)
    scan = scan_wal(path)
    assert [r.lsn for r in scan.records] == [1, 2]
    assert scan.torn_tail
    assert scan.good_bytes == len(good)


def test_short_header_tail_is_torn(tmp_path):
    path = tmp_path / "wal.log"
    good = encode_record(record(1))
    path.write_bytes(good + b"\x05\x00")  # not even a full length prefix
    scan = scan_wal(path)
    assert [r.lsn for r in scan.records] == [1]
    assert scan.torn_tail and scan.good_bytes == len(good)


def test_crc_failed_final_record_is_torn(tmp_path):
    # Full declared length on disk, payload bytes never all persisted.
    path = tmp_path / "wal.log"
    good = encode_record(record(1))
    bad = bytearray(encode_record(record(2)))
    bad[-1] ^= 0xFF
    path.write_bytes(good + bytes(bad))
    scan = scan_wal(path)
    assert [r.lsn for r in scan.records] == [1]
    assert scan.torn_tail and scan.good_bytes == len(good)


def test_crc_failed_middle_record_raises_loudly(tmp_path):
    path = tmp_path / "wal.log"
    first = encode_record(record(1))
    second = bytearray(encode_record(record(2)))
    second[len(second) // 2] ^= 0xFF
    blob = first + bytes(second) + encode_record(record(3))
    path.write_bytes(blob)
    with pytest.raises(WALCorruptionError, match="mid-log"):
        scan_wal(path)
    assert path.read_bytes() == blob  # left untouched for inspection


def test_garbage_between_records_raises(tmp_path):
    path = tmp_path / "wal.log"
    payload = b"not a wal record at all, but long enough to frame"
    framed = struct.pack("<II", len(payload), 12345) + payload
    path.write_bytes(encode_record(record(1)) + framed + encode_record(record(2)))
    with pytest.raises(WALCorruptionError):
        scan_wal(path)


def test_undecodable_but_crc_valid_final_record_is_torn(tmp_path):
    path = tmp_path / "wal.log"
    payload = b"\xff\xff\xff\xffjunk"  # header_len way past payload
    framed = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
    good = encode_record(record(1))
    path.write_bytes(good + framed)
    scan = scan_wal(path)
    assert [r.lsn for r in scan.records] == [1]
    assert scan.torn_tail and scan.good_bytes == len(good)


def test_truncate_to_discards_tail(tmp_path):
    path = tmp_path / "wal.log"
    log = WriteAheadLog(path)
    log.append(record(1))
    keep = log.tell()
    log.append(record(2))
    log.truncate_to(keep)
    log.append(record(3))
    log.close()
    assert [r.lsn for r in scan_wal(path).records] == [1, 3]


def test_rewrite_replaces_contents_atomically(tmp_path):
    path = tmp_path / "wal.log"
    log = WriteAheadLog(path)
    log.append_batch([record(i) for i in range(1, 4)])
    log.rewrite([record(9)])
    log.append(record(10))
    log.close()
    assert [r.lsn for r in scan_wal(path).records] == [9, 10]
    assert not path.with_name("wal.log.tmp").exists()


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def test_snapshot_without_manifest_is_invisible(tmp_path):
    store = open_store(tmp_path / "d")
    store.create_table("t", ATTRS, {"a": [1, 2], "f": [0.5, 1.5]})
    snap = store.checkpoint()
    store.close(checkpoint=False)
    (snap / "manifest.json").unlink()  # crash mid-snapshot signature
    assert list_snapshots(snap.parent) == []
    reopened = open_store(tmp_path / "d")
    # falls back to WAL... which was compacted; the store is empty but
    # does not crash, and the incomplete snapshot is simply ignored.
    assert reopened.tables() == []
    reopened.close(checkpoint=False)


def test_complete_but_unreadable_snapshot_raises(tmp_path):
    store = open_store(tmp_path / "d")
    store.create_table("t", ATTRS, {"a": [1], "f": [2.0]})
    snap = store.checkpoint()
    store.close(checkpoint=False)
    (snap / "state.json").write_text("{broken")
    with pytest.raises(SnapshotError, match="complete-but-unreadable"):
        open_store(tmp_path / "d")


def test_snapshot_newer_than_wal_tail_skips_by_lsn(tmp_path):
    """Crash between snapshot completion and WAL compaction: the WAL
    tail overlaps the snapshot; replay must skip already-applied LSNs."""
    data_dir = tmp_path / "d"
    store = open_store(data_dir)
    store.create_table("t", ATTRS, {"a": [1], "f": [1.0]})
    store.append("t", {"a": [2], "f": [2.0]})
    store.close(checkpoint=True)  # snapshot at lsn 2, WAL compacted

    # Reconstruct the pre-compaction WAL: both mutations still in it.
    log = WriteAheadLog(data_dir / "wal.log")
    log.rewrite(
        [
            WALRecord(
                kind=KIND_CREATE, table="t", lsn=1,
                attributes=list(ATTRS),
                columns={
                    "a": np.array([1], dtype=np.int64),
                    "f": np.array([1.0]),
                },
            ),
            WALRecord(
                kind=KIND_APPEND, table="t", lsn=2,
                attributes=list(ATTRS),
                columns={
                    "a": np.array([2], dtype=np.int64),
                    "f": np.array([2.0]),
                },
            ),
        ]
    )
    log.close()
    reopened = open_store(data_dir)
    stats = reopened.stats()
    assert stats["recovered"]
    assert stats["replayed_records"] == 0  # all skipped by LSN
    result = reopened.execute("SELECT count(*) FROM t").result
    assert result.data.tolist() == [[2]]
    reopened.close(checkpoint=False)


def test_write_snapshot_seq_disambiguates_same_lsn(tmp_path):
    store = open_store(tmp_path / "d", snapshots_keep=5)
    store.create_table("t", ATTRS, {"a": [1], "f": [1.0]})
    first = store.checkpoint()
    second = store.checkpoint()  # same LSN, learned state may differ
    assert first.name != second.name
    lsns = [(lsn, seq) for lsn, seq, _ in list_snapshots(first.parent)]
    assert lsns == sorted(lsns, reverse=True)
    store.close(checkpoint=False)


def test_snapshot_pruning_keeps_newest(tmp_path):
    store = open_store(tmp_path / "d", snapshots_keep=2)
    store.create_table("t", ATTRS, {"a": [1], "f": [1.0]})
    for _ in range(4):
        store.checkpoint()
    assert len(list_snapshots(store.data_dir / "snapshots")) == 2
    store.close(checkpoint=False)


def test_kill_mid_checkpoint_leftovers_are_swept_on_open(tmp_path):
    """A manifest-less ``snap-*`` directory is invisible to pruning and
    ``wal.log.tmp`` to everything: both leaked forever before the sweep."""
    data_dir = tmp_path / "d"
    store = open_store(data_dir)
    store.create_table("t", ATTRS, {"a": [1, 2], "f": [0.5, 1.5]})
    good = store.checkpoint()
    store.append("t", {"a": [3], "f": [2.5]})
    before = store.execute("SELECT a, f FROM t").result.data
    store.abandon()
    # Died while writing the next snapshot and, on an earlier run,
    # while compacting the WAL.
    partial = good.parent / "snap-0000000000000002-000001"
    (partial / "tables").mkdir(parents=True)
    (partial / "tables" / "t.npz").write_bytes(b"half a table")
    (partial / "manifest.json.tmp").write_text("{")
    (data_dir / "wal.log.tmp").write_bytes(b"half a log")
    unrelated = good.parent / "notes"
    unrelated.mkdir()

    recovered = open_store(data_dir)
    assert not partial.exists()
    assert not (data_dir / "wal.log.tmp").exists()
    assert good.exists() and unrelated.exists()
    assert recovered.stats()["replayed_records"] == 1
    after = recovered.execute("SELECT a, f FROM t").result.data
    assert after.tobytes() == before.tobytes()
    recovered.close(checkpoint=False)


# ---------------------------------------------------------------------------
# DurableStore units
# ---------------------------------------------------------------------------


def test_recovery_from_wal_only(tmp_path):
    store = open_store(tmp_path / "d")
    store.create_table("t", ATTRS, {"a": [1, 2, 3], "f": [0.5, np.nan, -0.0]})
    store.append("t", {"a": [4], "f": [4.0]})
    before = store.execute("SELECT a, f FROM t").result.data
    store.abandon()  # no checkpoint: WAL is the only persistence
    recovered = open_store(tmp_path / "d")
    stats = recovered.stats()
    assert stats["recovered"] and stats["replayed_records"] == 2
    after = recovered.execute("SELECT a, f FROM t").result.data
    assert after.tobytes() == before.tobytes()  # NaN/−0.0 bit-exact
    recovered.close(checkpoint=False)


def test_append_many_isolates_bad_items(tmp_path):
    store = open_store(tmp_path / "d")
    store.create_table("t", ATTRS, {"a": [1], "f": [1.0]})
    outcomes = store.append_many(
        [
            ("t", {"a": [2, 3], "f": [2.0, 3.0]}),
            ("nope", {"a": [9], "f": [9.0]}),
            ("t", {"a": [4], "f": [4.0, 5.0]}),  # ragged lengths
            ("t", {"a": [], "f": []}),  # empty append is a no-op
            ("t", {"a": [5], "f": [5.0]}),
        ]
    )
    assert outcomes[0] == 2
    assert isinstance(outcomes[1], CatalogError)
    assert isinstance(outcomes[2], BadRequestError)
    assert outcomes[3] == 0
    assert outcomes[4] == 1
    assert store.execute("SELECT count(*) FROM t").result.data.tolist() == [[4]]
    # one group commit covered both good items
    assert store.stats()["wal_group_commits"] == 2  # create + batch
    store.close(checkpoint=False)


def test_create_table_validation(tmp_path):
    store = open_store(tmp_path / "d")
    with pytest.raises(BadRequestError, match="invalid table name"):
        store.create_table("1bad", ATTRS)
    with pytest.raises(BadRequestError, match="invalid table name"):
        store.create_table("dotted.name", ATTRS)
    with pytest.raises(BadRequestError, match="at least one attribute"):
        store.create_table("t", [])
    store.create_table("t", ATTRS)
    with pytest.raises(CatalogError, match="already exists"):
        store.create_table("t", ATTRS)
    store.close(checkpoint=False)


def test_auto_checkpoint_every_n_records(tmp_path):
    store = open_store(tmp_path / "d", snapshot_every_records=3)
    store.create_table("t", ATTRS)  # record 1
    store.append("t", {"a": [1], "f": [1.0]})  # record 2
    assert store.checkpoints == 0
    store.append("t", {"a": [2], "f": [2.0]})  # record 3 -> checkpoint
    assert store.checkpoints == 1
    assert store.stats()["records_since_checkpoint"] == 0
    store.close(checkpoint=False)


def test_wal_disabled_store_does_not_persist(tmp_path):
    store = open_store(tmp_path / "d", wal_enabled=False)
    store.create_table("t", ATTRS, {"a": [1], "f": [1.0]})
    store.abandon()
    reopened = open_store(tmp_path / "d", wal_enabled=False)
    assert reopened.tables() == []
    reopened.close(checkpoint=False)


def test_load_snapshot_roundtrips_layout_descriptors(tmp_path):
    """write_snapshot/load_snapshot preserve non-trivial physical
    configurations (a materialized group), not just logical columns."""
    from repro.sql.types import DataType
    from repro.storage import Schema, Table
    from repro.storage.schema import Attribute

    schema = Schema(
        [Attribute("x", DataType.INT64), Attribute("y", DataType.INT64)]
    )
    table = Table.from_columns(
        "g",
        schema,
        {
            "x": np.arange(10, dtype=np.int64),
            "y": np.arange(10, dtype=np.int64) * 2,
        },
        initial_layout="row",
    )
    snap = write_snapshot(tmp_path, lsn=5, seq=0, tables={"g": table},
                          states={"g": {}})
    lsn, tables, states = load_snapshot(snap)
    assert lsn == 5
    loaded = tables["g"]
    assert [
        (layout.kind.name, tuple(layout.attrs)) for layout in loaded.layouts
    ] == [
        (layout.kind.name, tuple(layout.attrs)) for layout in table.layouts
    ]
    assert loaded.column("y").tolist() == table.column("y").tolist()


# ---------------------------------------------------------------------------
# Snapshot durability ordering + apply-divergence isolation
# ---------------------------------------------------------------------------


def _int_table(name="g", rows=10):
    from repro.sql.types import DataType
    from repro.storage import Schema, Table
    from repro.storage.schema import Attribute

    schema = Schema(
        [Attribute("x", DataType.INT64), Attribute("y", DataType.INT64)]
    )
    return Table.from_columns(
        name,
        schema,
        {
            "x": np.arange(rows, dtype=np.int64),
            "y": np.arange(rows, dtype=np.int64) * 2,
        },
    )


def test_write_snapshot_fsyncs_data_before_manifest(tmp_path, monkeypatch):
    """Every snapshot file and directory entry is fsync'd before the
    manifest advertises completeness, and the directories again after
    the rename — so compacting the WAL right after write_snapshot
    returns cannot lose acknowledged writes to a power cut."""
    from repro.gateway import persist

    events = []  # (fsynced name, manifest visible at that instant)
    real = persist._fsync_path

    def recording(path):
        visible = any((tmp_path / "snaps").glob("snap-*/manifest.json"))
        events.append((path.name, visible))
        real(path)

    monkeypatch.setattr(persist, "_fsync_path", recording)
    snap = write_snapshot(
        tmp_path / "snaps",
        lsn=1,
        seq=0,
        tables={"g": _int_table()},
        states={"g": {}},
    )
    before = {name for name, visible in events if not visible}
    after = {name for name, visible in events if visible}
    # data files + their directory entries durable pre-manifest
    assert {"g.npz", "g.json", "state.json", "tables", snap.name} <= before
    # the rename itself made durable afterwards
    assert {snap.name, "snaps"} <= after


def test_write_snapshot_fsync_off_skips_syncs(tmp_path, monkeypatch):
    from repro.gateway import persist

    calls = []
    monkeypatch.setattr(persist, "_fsync_path", calls.append)
    write_snapshot(
        tmp_path / "snaps",
        lsn=1,
        seq=0,
        tables={"g": _int_table()},
        states={"g": {}},
        fsync=False,
    )
    assert calls == []


def test_checkpoint_fsync_follows_wal_fsync_knob(tmp_path, monkeypatch):
    from repro.gateway import persist

    calls = []
    real = persist._fsync_path

    def recording(path):
        calls.append(path)
        real(path)

    monkeypatch.setattr(persist, "_fsync_path", recording)
    store = open_store(tmp_path / "d")
    store.create_table("t", ATTRS, {"a": [1], "f": [1.0]})
    store.checkpoint()
    assert calls  # durable mode fsyncs the snapshot tree
    store.close(checkpoint=False)

    calls.clear()
    relaxed = open_store(tmp_path / "d2", wal_fsync=False)
    relaxed.create_table("t", ATTRS, {"a": [1], "f": [1.0]})
    relaxed.checkpoint()
    assert calls == []  # ablation mode: page cache only, like the WAL
    relaxed.close(checkpoint=False)


def test_apply_failure_after_wal_fsync_is_isolated(tmp_path, monkeypatch):
    """An append that fails to apply *after* its WAL record is durable
    must not fail the rest of the batch; it is surfaced as a divergence
    and healed by replay on the next restart."""
    from repro.errors import StorageError
    from repro.storage.relation import Table

    store = open_store(tmp_path / "d")
    store.create_table("t", ATTRS, {"a": [1], "f": [1.0]})
    real = Table.append_rows
    calls = {"n": 0}

    def failing(self, arrays):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("simulated apply failure")
        return real(self, arrays)

    monkeypatch.setattr(Table, "append_rows", failing)
    outcomes = store.append_many(
        [
            ("t", {"a": [2], "f": [2.0]}),  # WAL-durable, apply fails
            ("t", {"a": [3], "f": [3.0]}),  # must still apply
        ]
    )
    assert isinstance(outcomes[0], StorageError)
    assert "durable in the WAL" in str(outcomes[0])
    assert outcomes[1] == 1
    assert store.stats()["apply_divergences"] == 1
    # in-memory: seed row + the one applied append
    assert store.execute("SELECT count(*) FROM t").result.data.tolist() == [
        [2]
    ]
    monkeypatch.undo()
    store.abandon()
    recovered = open_store(tmp_path / "d")
    # replay heals the divergence: all three WAL records applied
    assert recovered.execute(
        "SELECT count(*) FROM t"
    ).result.data.tolist() == [[3]]
    assert recovered.stats()["apply_divergences"] == 0
    recovered.close(checkpoint=False)


def test_table_infos_is_a_consistent_snapshot(tmp_path):
    store = open_store(tmp_path / "d")
    store.create_table("b", ATTRS, {"a": [1], "f": [1.0]})
    store.create_table("a", ATTRS)
    assert store.table_infos() == [
        {"name": "a", "num_rows": 0},
        {"name": "b", "num_rows": 1},
    ]
    store.close(checkpoint=False)
