"""Write-ahead log: length-prefixed, CRC-checked record framing.

Every durable mutation (table create, row append) is serialized into one
WAL record and written — with a single ``fsync`` per *group-commit
batch* — before it is applied to the in-memory store.  On recovery the
log is replayed on top of the latest snapshot.

Record framing (all integers little-endian)::

    u32 payload_len | u32 crc32(payload) | payload
    payload = u32 header_len | header JSON (utf-8) | column blobs

The header describes the mutation (kind, table, schema, per-column dtype
and row count, LSN); the column blobs are the raw little-endian bytes of
each column array, in header order.  Raw ``tobytes`` framing keeps
float64 payloads (including NaN bit patterns) exactly intact, so
recovered answers are bit-identical to the pre-crash store.

**Torn tails vs. corruption.**  A crash mid-write leaves an incomplete
final record (or a complete-length final record whose payload bytes
never all hit the disk).  That is the *expected* crash signature:
:func:`scan_wal` reports it as a torn tail and recovery truncates it —
those bytes were never acknowledged as durable.  A CRC failure on a
record **followed by further intact data** is different: something
damaged the middle of the log, and truncating there would silently drop
acknowledged writes.  That raises :class:`~repro.errors.WALCorruptionError`
and leaves the file untouched for inspection.
"""

from __future__ import annotations

import io
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from ..errors import WALCorruptionError, WALError
from ..sql.types import DataType

PathLike = Union[str, Path]

_LEN_CRC = struct.Struct("<II")
_HDR_LEN = struct.Struct("<I")

#: Record kinds the log understands.
KIND_CREATE = "create"
KIND_APPEND = "append"


@dataclass
class WALRecord:
    """One decoded mutation."""

    kind: str  # KIND_CREATE | KIND_APPEND
    table: str
    lsn: int
    #: For creates: the full schema as [(name, dtype-string), ...] in
    #: schema order.  For appends: the appended columns' declared
    #: dtypes, same order as ``columns``.
    attributes: List[Tuple[str, str]] = field(default_factory=list)
    #: Column payloads by name (empty for a rowless create).
    columns: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def num_rows(self) -> int:
        for array in self.columns.values():
            return int(array.shape[0])
        return 0


def encode_record(record: WALRecord) -> bytes:
    """Serialize one record to its framed byte representation."""
    header = {
        "kind": record.kind,
        "table": record.table,
        "lsn": record.lsn,
        "attributes": [[n, d] for n, d in record.attributes],
        "columns": [],
    }
    blobs: List[bytes] = []
    for name, dtype_name in record.attributes:
        if name not in record.columns:
            continue
        dtype = DataType.from_any(dtype_name).numpy_dtype
        array = np.ascontiguousarray(
            np.asarray(record.columns[name], dtype=dtype)
        )
        blob = array.astype(dtype.newbyteorder("<"), copy=False).tobytes()
        header["columns"].append(
            {"name": name, "dtype": dtype_name, "rows": int(array.shape[0])}
        )
        blobs.append(blob)
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    payload = b"".join(
        [_HDR_LEN.pack(len(header_bytes)), header_bytes, *blobs]
    )
    return _LEN_CRC.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes) -> WALRecord:
    """Rebuild a :class:`WALRecord` from a verified payload."""
    if len(payload) < _HDR_LEN.size:
        raise WALError("WAL payload shorter than its header length field")
    (header_len,) = _HDR_LEN.unpack_from(payload, 0)
    start = _HDR_LEN.size
    if start + header_len > len(payload):
        raise WALError("WAL header length exceeds payload")
    try:
        header = json.loads(payload[start : start + header_len])
    except ValueError as exc:
        raise WALError(f"WAL header is not valid JSON: {exc}") from exc
    offset = start + header_len
    columns: Dict[str, np.ndarray] = {}
    for spec in header.get("columns", []):
        dtype = DataType.from_any(spec["dtype"]).numpy_dtype
        nbytes = int(spec["rows"]) * dtype.itemsize
        if offset + nbytes > len(payload):
            raise WALError(
                f"WAL column blob for {spec['name']!r} exceeds payload"
            )
        # .copy() both detaches from the payload buffer and makes the
        # array writable (frombuffer views are read-only).
        columns[spec["name"]] = np.frombuffer(
            payload, dtype=dtype.newbyteorder("<"), count=int(spec["rows"]),
            offset=offset,
        ).astype(dtype, copy=True)
        offset += nbytes
    return WALRecord(
        kind=header["kind"],
        table=header["table"],
        lsn=int(header["lsn"]),
        attributes=[(n, d) for n, d in header.get("attributes", [])],
        columns=columns,
    )


@dataclass
class WALScan:
    """Result of reading a log back: records plus tail diagnosis."""

    records: List[WALRecord]
    #: Byte offset just past the last intact record — the truncation
    #: point when the tail is torn.
    good_bytes: int
    #: Whether bytes past ``good_bytes`` were discarded as a torn tail.
    torn_tail: bool


def scan_wal(path: PathLike) -> WALScan:
    """Read every intact record; diagnose the tail.

    Raises :class:`WALCorruptionError` for a CRC-failed record that is
    *not* the final one (mid-log damage); tolerates an incomplete or
    CRC-failed **final** record as a torn crash tail.
    """
    path = Path(path)
    if not path.exists():
        return WALScan([], 0, False)
    data = path.read_bytes()
    records: List[WALRecord] = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _LEN_CRC.size > size:
            return WALScan(records, offset, True)
        length, crc = _LEN_CRC.unpack_from(data, offset)
        body_start = offset + _LEN_CRC.size
        body_end = body_start + length
        if body_end > size:
            return WALScan(records, offset, True)
        payload = data[body_start:body_end]
        if zlib.crc32(payload) != crc:
            if body_end >= size:
                # Final record: a torn write can leave the full declared
                # length allocated but the payload only partially
                # persisted.  Nothing intact follows, so discard it.
                return WALScan(records, offset, True)
            raise WALCorruptionError(
                f"WAL record at byte {offset} of {path} fails its CRC "
                f"but is followed by {size - body_end} more bytes — "
                "mid-log corruption, refusing to truncate acknowledged "
                "writes"
            )
        try:
            records.append(decode_payload(payload))
        except WALError as exc:
            if body_end >= size:
                return WALScan(records, offset, True)
            raise WALCorruptionError(
                f"WAL record at byte {offset} of {path} is undecodable "
                f"mid-log: {exc}"
            ) from exc
        offset = body_end
    return WALScan(records, offset, False)


class WriteAheadLog:
    """Append-only log with group commit.

    Not internally locked: the owning :class:`~repro.gateway.persist.
    DurableStore` serializes all mutations under its apply lock.
    """

    def __init__(self, path: PathLike, fsync: bool = True) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "ab")
        # Counters consumed by /metrics.
        self.records_written = 0
        self.bytes_written = 0
        self.fsyncs = 0
        self.group_commits = 0

    def append_batch(self, records: Sequence[WALRecord]) -> None:
        """Write a batch of records with one flush + (optional) fsync.

        This *is* the group commit: every record in the batch becomes
        durable together, so the gateway acknowledges all of the
        coalesced appends only after the single fsync returns.
        """
        if not records:
            return
        if self._file.closed:
            raise WALError(f"WAL {self.path} is closed")
        buffer = io.BytesIO()
        for record in records:
            buffer.write(encode_record(record))
        blob = buffer.getvalue()
        self._file.write(blob)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
            self.fsyncs += 1
        self.records_written += len(records)
        self.bytes_written += len(blob)
        self.group_commits += 1

    def append(self, record: WALRecord) -> None:
        self.append_batch([record])

    def truncate_to(self, good_bytes: int) -> None:
        """Discard a torn tail (bytes past the last intact record)."""
        self._file.flush()
        self._file.truncate(good_bytes)
        self._file.seek(0, os.SEEK_END)
        if self.fsync:
            os.fsync(self._file.fileno())

    def rewrite(self, records: Sequence[WALRecord]) -> None:
        """Atomically replace the log's contents (checkpoint compaction).

        Written to a temp sibling, fsynced, then ``os.replace``d over
        the live log so a crash mid-checkpoint leaves either the old or
        the new log intact, never a mix.
        """
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            for record in records:
                handle.write(encode_record(record))
            handle.flush()
            os.fsync(handle.fileno())
        self._file.close()
        os.replace(tmp, self.path)
        self._file = open(self.path, "ab")
        if self.fsync:
            # Persist the directory entry for the replace itself.
            dir_fd = os.open(str(self.path.parent), os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)

    def tell(self) -> int:
        return self._file.tell()

    def close(self) -> None:
        if not self._file.closed:
            self._file.flush()
            if self.fsync:
                os.fsync(self._file.fileno())
            self._file.close()

    def stats(self) -> Dict[str, int]:
        return {
            "records_written": self.records_written,
            "bytes_written": self.bytes_written,
            "fsyncs": self.fsyncs,
            "group_commits": self.group_commits,
        }
