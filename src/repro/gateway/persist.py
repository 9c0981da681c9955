"""Durability tier: snapshots + WAL replay + learned-state recovery.

Grown out of :mod:`repro.storage.io` (which persists one table's logical
columns): this module persists a whole *store* — every table, its
physical layout configuration, **and the adaptation state its engine
learned** — so a restart recovers not just the rows but the affinity
statistics, materialized column groups, learned selectivities and warm
plan-cache shapes that H2O paid queries to acquire.  RodentStore-style:
learned physical designs are first-class persistent artifacts.

Two cooperating mechanisms:

- the :class:`~repro.gateway.wal.WriteAheadLog` records every mutation
  (create/append) *before* it is applied, fsync'd per group-commit
  batch, so acknowledged writes survive a crash at any instant;
- periodic **snapshots** serialize the full store state.  A snapshot
  directory is only considered once its ``manifest.json`` exists (it is
  written last), so a crash mid-snapshot leaves a previous snapshot
  authoritative.  After a snapshot completes, the WAL is compacted via
  an atomic rewrite.

Recovery = load latest complete snapshot → replay the WAL tail (records
with LSN beyond the snapshot) → truncate a torn final record, if any →
re-seed every engine with its persisted adaptation state
(:meth:`~repro.core.engine.H2OEngine.seed_adaptation_state`).  The
restart-recovery oracle (:mod:`repro.testkit.restart`) asserts that
post-recovery answers are bit-identical to an uninterrupted run and that
the recovered engines did not re-pay the adaptation ramp.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import EngineConfig, GatewayConfig
from ..errors import (
    BadRequestError,
    CatalogError,
    SchemaError,
    SnapshotError,
    StorageError,
)
from ..service import H2OService
from ..sql.types import DataType
from ..storage.column_group import ColumnGroup
from ..storage.column_layout import SingleColumn
from ..storage.io import load_columns, save_table
from ..storage.layout import Layout
from ..storage.relation import Table
from ..storage.schema import Attribute, Schema
from .wal import (
    KIND_APPEND,
    KIND_CREATE,
    WALRecord,
    WriteAheadLog,
    scan_wal,
)

PathLike = Union[str, Path]

#: Table names must be safe both as file stems and as SQL identifiers
#: (the parser's FROM clause takes plain identifiers, so no dots here;
#: the storage tier itself handles dotted stems — see
#: :func:`repro.storage.io._sibling`).
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]{0,63}$")

_SNAP_RE = re.compile(r"^snap-(\d{16})-(\d{6})$")

SNAPSHOT_FORMAT = 1


def _validate_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise BadRequestError(
            f"invalid table name {name!r}: expected "
            "[A-Za-z_][A-Za-z0-9_]{0,63}"
        )
    return name


def _build_schema(attributes: Sequence) -> Schema:
    """Schema from JSON-ish attribute specs.

    Accepts ``[{"name": ..., "dtype": ...}, ...]`` or ``[(name, dtype),
    ...]``; dtype defaults to int64.
    """
    attrs: List[Attribute] = []
    for item in attributes:
        if isinstance(item, Mapping):
            name, dtype = item.get("name"), item.get("dtype", "int64")
        else:
            name, dtype = item
        if not isinstance(name, str):
            raise BadRequestError(f"attribute name must be a string: {item!r}")
        try:
            attrs.append(Attribute(name, DataType.from_any(dtype)))
        except SchemaError as exc:
            raise BadRequestError(str(exc)) from exc
    if not attrs:
        raise BadRequestError("a table needs at least one attribute")
    try:
        return Schema(attrs)
    except SchemaError as exc:
        raise BadRequestError(str(exc)) from exc


def _coerce_columns(
    schema: Schema, columns: Optional[Mapping[str, object]]
) -> Dict[str, np.ndarray]:
    """Validate and dtype-coerce a column payload against ``schema``.

    Every attribute must be present, all columns equal length; values
    are cast to the declared dtype (loudly on lossy input like strings).
    """
    if columns is None:
        columns = {}
    if not isinstance(columns, Mapping):
        raise BadRequestError("columns must be an object of name -> values")
    unknown = sorted(set(columns) - set(schema.names))
    if unknown:
        raise BadRequestError(f"unknown columns: {unknown}")
    if columns:
        missing = sorted(set(schema.names) - set(columns))
        if missing:
            raise BadRequestError(f"missing columns: {missing}")
    out: Dict[str, np.ndarray] = {}
    length: Optional[int] = None
    for attr in schema:
        raw = columns.get(attr.name, [])
        try:
            array = np.asarray(raw, dtype=attr.dtype.numpy_dtype)
        except (TypeError, ValueError) as exc:
            raise BadRequestError(
                f"column {attr.name!r} is not valid {attr.dtype.value}: {exc}"
            ) from exc
        if array.ndim != 1:
            raise BadRequestError(
                f"column {attr.name!r} must be one-dimensional"
            )
        if length is None:
            length = int(array.shape[0])
        elif int(array.shape[0]) != length:
            raise BadRequestError(
                f"column {attr.name!r} has {array.shape[0]} values, "
                f"expected {length}"
            )
        out[attr.name] = array
    return out


def _fsync_path(path: Path) -> None:
    """fsync one file or directory by path.

    Directory fsyncs persist the directory *entries* (new files, the
    manifest rename); without them a power loss can leave a snapshot
    whose data files exist in the page cache only.
    """
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# Snapshot serialization ----------------------------------------------------


def _layout_descriptors(table: Table) -> List[Dict[str, object]]:
    """The table's physical configuration as JSON-able descriptors."""
    return [
        {"kind": layout.kind.value, "attrs": list(layout.attrs)}
        for layout in table.layouts
    ]


def _rebuild_layouts(
    schema: Schema,
    columns: Mapping[str, np.ndarray],
    descriptors: Sequence[Mapping[str, object]],
) -> List[Layout]:
    """Materialize persisted layout descriptors over loaded columns."""
    layouts: List[Layout] = []
    for desc in descriptors:
        attrs = [str(a) for a in desc["attrs"]]
        kind = str(desc["kind"])
        if kind == "column":
            (name,) = attrs
            layouts.append(SingleColumn(name, columns[name]))
        elif kind == "encoded":
            # Older checkpoints may name an encoded replica.  Replicas
            # were additive — the plain descriptors still cover the
            # attribute — so recovery simply drops it.
            continue
        elif kind in ("group", "row"):
            dtype = schema.common_dtype(attrs).numpy_dtype
            data = np.column_stack(
                [columns[name].astype(dtype, copy=False) for name in attrs]
            ).astype(dtype, copy=False)
            data = np.ascontiguousarray(data)
            layouts.append(
                ColumnGroup(tuple(attrs), data, full_width=(kind == "row"))
            )
        else:
            raise SnapshotError(f"unknown layout kind {kind!r} in snapshot")
    return layouts


def write_snapshot(
    directory: PathLike,
    lsn: int,
    seq: int,
    tables: Mapping[str, Table],
    states: Mapping[str, Mapping[str, object]],
    *,
    fsync: bool = True,
) -> Path:
    """Write one complete snapshot directory; returns its path.

    Layout on disk::

        snap-<lsn:016>-<seq:06>/
            tables/<name>.npz       logical columns (storage.io format)
            tables/<name>.json      schema + row count sidecar
            state.json              per-table layouts + adaptation state
            manifest.json           written last — marks completeness

    ``seq`` disambiguates checkpoints taken at the same LSN (the rows
    didn't change but the learned state did).

    Durability ordering (``fsync=True``): every data file and the
    directory entries holding them are fsync'd *before* the manifest is
    renamed into place, and the directories are fsync'd again after the
    rename.  The manifest therefore never advertises a snapshot whose
    contents could still be page-cache-only — callers may compact the
    WAL the moment this returns, even against power loss.
    """
    directory = Path(directory)
    snap_dir = directory / f"snap-{lsn:016d}-{seq:06d}"
    if snap_dir.exists():
        shutil.rmtree(snap_dir)
    tables_dir = snap_dir / "tables"
    tables_dir.mkdir(parents=True)
    for name, table in tables.items():
        save_table(table, tables_dir / name)
    state = {
        "tables": {
            name: {
                "layouts": _layout_descriptors(table),
                "adaptation": states.get(name, {}),
            }
            for name, table in tables.items()
        }
    }
    (snap_dir / "state.json").write_text(json.dumps(state))
    if fsync:
        for child in sorted(tables_dir.iterdir()):
            _fsync_path(child)
        _fsync_path(snap_dir / "state.json")
        _fsync_path(tables_dir)
        _fsync_path(snap_dir)
    manifest = {
        "format": SNAPSHOT_FORMAT,
        "lsn": int(lsn),
        "seq": int(seq),
        "tables": sorted(tables),
    }
    manifest_path = snap_dir / "manifest.json"
    tmp = manifest_path.with_name("manifest.json.tmp")
    with open(tmp, "w") as handle:
        json.dump(manifest, handle)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, manifest_path)
    if fsync:
        _fsync_path(snap_dir)
        # The snapshots directory itself (its entry for snap_dir), and
        # its own entry in the data dir — mkdir(parents=True) above may
        # have just created it.
        _fsync_path(directory)
        _fsync_path(directory.parent)
    return snap_dir


def list_snapshots(directory: PathLike) -> List[Tuple[int, int, Path]]:
    """Complete snapshots as (lsn, seq, path), newest first."""
    directory = Path(directory)
    found: List[Tuple[int, int, Path]] = []
    if not directory.exists():
        return found
    for child in directory.iterdir():
        match = _SNAP_RE.match(child.name)
        if match and (child / "manifest.json").exists():
            found.append((int(match.group(1)), int(match.group(2)), child))
    found.sort(reverse=True)
    return found


def sweep_partial_checkpoint(directory: PathLike, wal_path: Path) -> None:
    """Delete what a kill mid-checkpoint leaves behind.

    A ``snap-*`` directory without its manifest is invisible to
    :func:`list_snapshots`, so pruning never reclaims it; neither does
    anything revisit a half-written ``wal.log.tmp`` from an interrupted
    compaction.  Recovery never reads either, so both are safe to drop
    once it has picked its snapshot.
    """
    directory = Path(directory)
    if directory.exists():
        for child in directory.iterdir():
            if _SNAP_RE.match(child.name) and not (
                child / "manifest.json"
            ).exists():
                shutil.rmtree(child, ignore_errors=True)
    wal_path.with_name(wal_path.name + ".tmp").unlink(missing_ok=True)


def load_snapshot(
    snap_dir: PathLike,
) -> Tuple[int, Dict[str, Table], Dict[str, Dict[str, object]]]:
    """Load one snapshot: (lsn, tables, per-table adaptation state).

    A snapshot that advertised completeness (manifest present) but fails
    to load raises :class:`~repro.errors.SnapshotError` loudly — falling
    back silently would resurrect stale data.
    """
    snap_dir = Path(snap_dir)
    try:
        manifest = json.loads((snap_dir / "manifest.json").read_text())
        if manifest.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"snapshot {snap_dir} has unsupported format "
                f"{manifest.get('format')!r}"
            )
        state = json.loads((snap_dir / "state.json").read_text())
        tables: Dict[str, Table] = {}
        adaptation: Dict[str, Dict[str, object]] = {}
        for name in manifest["tables"]:
            meta = json.loads(
                (snap_dir / "tables" / f"{name}.json").read_text()
            )
            schema = _build_schema(meta["attributes"])
            columns = load_columns(
                snap_dir / "tables" / f"{name}.npz", schema
            )
            per_table = state["tables"][name]
            layouts = _rebuild_layouts(
                schema, columns, per_table["layouts"]
            )
            table = Table(name, schema, layouts)
            if table.num_rows != int(meta["num_rows"]):
                raise SnapshotError(
                    f"snapshot {snap_dir} table {name!r}: metadata says "
                    f"{meta['num_rows']} rows, data has {table.num_rows}"
                )
            tables[name] = table
            adaptation[name] = dict(per_table.get("adaptation", {}))
        return int(manifest["lsn"]), tables, adaptation
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(
            f"snapshot {snap_dir} is complete-but-unreadable: {exc}"
        ) from exc


# The durable store ----------------------------------------------------------


class DurableStore:
    """An :class:`H2OService` whose tables and learned state persist.

    All mutations go WAL-first under one apply lock (reads — queries —
    never take it; they run through the service against snapshot-
    isolated layouts).  Construction *is* recovery: pointing a store at
    a directory with prior state loads the latest snapshot, replays the
    WAL tail, and re-seeds the engines.
    """

    def __init__(
        self,
        data_dir: PathLike,
        *,
        engine_config: Optional[EngineConfig] = None,
        gateway_config: Optional[GatewayConfig] = None,
        num_workers: int = 2,
        seed_adaptation: bool = True,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.engine_config = engine_config or EngineConfig()
        self.gateway_config = gateway_config or GatewayConfig()
        self._lock = threading.RLock()
        self._snap_dir = self.data_dir / "snapshots"
        wal_path = self.data_dir / "wal.log"

        # ---- Recovery: snapshot, then WAL tail --------------------------
        self.recovered = False
        self.replayed_records = 0
        self.torn_tail_discarded = False
        tables: Dict[str, Table] = {}
        adaptation: Dict[str, Dict[str, object]] = {}
        applied_lsn = 0
        snapshots = list_snapshots(self._snap_dir)
        if snapshots:
            lsn, _, snap_path = snapshots[0]
            applied_lsn, tables, adaptation = load_snapshot(snap_path)
            self.recovered = True
            self._checkpoint_seq = snapshots[0][1] + 1
        else:
            self._checkpoint_seq = 0

        scan = scan_wal(wal_path)  # raises WALCorruptionError mid-log
        self.torn_tail_discarded = scan.torn_tail
        max_lsn = applied_lsn
        for record in scan.records:
            max_lsn = max(max_lsn, record.lsn)
            if record.lsn <= applied_lsn:
                # Snapshot-newer-than-WAL (or overlapping tail after a
                # crash between snapshot completion and WAL compaction):
                # the snapshot already contains this mutation.
                continue
            self._replay(tables, record)
            self.recovered = True
            self.replayed_records += 1
        sweep_partial_checkpoint(self._snap_dir, wal_path)

        self._wal = WriteAheadLog(
            wal_path, fsync=self.gateway_config.wal_fsync
        )
        if scan.torn_tail:
            self._wal.truncate_to(scan.good_bytes)
        self._applied_lsn = max_lsn
        self._next_lsn = max_lsn + 1
        self._records_since_checkpoint = len(scan.records)
        self.checkpoints = 0
        self.apply_divergences = 0

        # ---- Service + engines ------------------------------------------
        self.service = H2OService(
            config=self.engine_config,
            num_workers=num_workers,
            default_timeout=self.gateway_config.default_timeout,
        )
        self.system = self.service.system
        for name in sorted(tables):
            self.service.register(tables[name])
        if seed_adaptation:
            for name, state in adaptation.items():
                if state:
                    self.system.engine_for(name).seed_adaptation_state(state)

    # -- replay ------------------------------------------------------------

    @staticmethod
    def _replay(tables: Dict[str, Table], record: WALRecord) -> None:
        if record.kind == KIND_CREATE:
            schema = _build_schema(record.attributes)
            columns = {
                attr.name: record.columns.get(
                    attr.name, np.empty(0, dtype=attr.dtype.numpy_dtype)
                )
                for attr in schema
            }
            tables[record.table] = Table.from_columns(
                record.table, schema, columns
            )
        elif record.kind == KIND_APPEND:
            table = tables.get(record.table)
            if table is None:
                raise SnapshotError(
                    f"WAL append for unknown table {record.table!r} "
                    "(snapshot and log disagree)"
                )
            if record.num_rows:
                table.append_rows(record.columns)
        else:
            raise SnapshotError(
                f"unknown WAL record kind {record.kind!r}"
            )

    # -- mutations (WAL-first, applied under the lock) ---------------------

    def create_table(
        self,
        name: str,
        attributes: Sequence,
        columns: Optional[Mapping[str, object]] = None,
    ) -> Table:
        """Create (and optionally seed) a table durably."""
        _validate_name(name)
        schema = _build_schema(attributes)
        arrays = _coerce_columns(schema, columns)
        with self._lock:
            if name in self.system.catalog:
                raise CatalogError(f"table {name!r} already exists")
            lsn = self._next_lsn
            if self.gateway_config.wal_enabled:
                self._wal.append(
                    WALRecord(
                        kind=KIND_CREATE,
                        table=name,
                        lsn=lsn,
                        attributes=[
                            (a.name, a.dtype.value) for a in schema
                        ],
                        columns=arrays,
                    )
                )
            full = {
                attr.name: arrays.get(
                    attr.name, np.empty(0, dtype=attr.dtype.numpy_dtype)
                )
                for attr in schema
            }
            table = Table.from_columns(name, schema, full)
            self.service.register(table)
            self._next_lsn = lsn + 1
            self._applied_lsn = lsn
            self._note_records(1)
            return table

    def append(self, name: str, columns: Mapping[str, object]) -> int:
        """Durably append one batch of rows; returns the row count."""
        (outcome,) = self.append_many([(name, columns)])
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def append_many(
        self, items: Sequence[Tuple[str, Mapping[str, object]]]
    ) -> List[Union[int, Exception]]:
        """One group commit for many appends.

        Validates every item first; the valid subset is written to the
        WAL as **one batch with one fsync** and then applied.  Returns a
        per-item outcome aligned with the input: appended row count, or
        the exception describing why that item was rejected (invalid
        items never reach the WAL).
        """
        outcomes: List[Union[int, Exception]] = [0] * len(items)
        with self._lock:
            records: List[WALRecord] = []
            applies: List[Tuple[int, Table, Dict[str, np.ndarray]]] = []
            lsn = self._next_lsn
            for index, (name, columns) in enumerate(items):
                try:
                    _validate_name(name)
                    if name not in self.system.catalog:
                        raise CatalogError(f"unknown table {name!r}")
                    table = self.system.catalog.get(name)
                    arrays = _coerce_columns(table.schema, columns)
                    if not arrays or next(iter(arrays.values())).size == 0:
                        outcomes[index] = 0
                        continue
                except Exception as exc:  # per-item isolation
                    outcomes[index] = exc
                    continue
                records.append(
                    WALRecord(
                        kind=KIND_APPEND,
                        table=name,
                        lsn=lsn,
                        attributes=[
                            (a.name, a.dtype.value) for a in table.schema
                        ],
                        columns=arrays,
                    )
                )
                applies.append((index, lsn, table, arrays))
                lsn += 1
            wal_logged = bool(records and self.gateway_config.wal_enabled)
            if wal_logged:
                self._wal.append_batch(records)  # the group commit
            for index, item_lsn, table, arrays in applies:
                try:
                    # _coerce_columns validated shape/dtype above, so
                    # this should never raise — but if it does after
                    # the WAL fsync, the other items in the batch (some
                    # already applied and durable) must not be reported
                    # failed with it.
                    table.append_rows(arrays)
                except Exception as exc:
                    outcomes[index] = self._apply_divergence(
                        table.name, item_lsn, exc, wal_logged
                    )
                    continue
                outcomes[index] = int(next(iter(arrays.values())).shape[0])
            if records:
                # LSNs advance for every WAL-logged record, applied or
                # not: the log is authoritative and replay will apply a
                # diverged record on restart.
                self._next_lsn = lsn
                self._applied_lsn = lsn - 1
                self._note_records(len(records))
        return outcomes

    def _apply_divergence(
        self, name: str, lsn: int, exc: Exception, wal_logged: bool
    ) -> Exception:
        """Describe an append that failed *after* its WAL record.

        In-memory and durable state now disagree for this record until
        a restart replays it; count it (surfaced via :meth:`stats` and
        ``/metrics``) and hand the caller an error that says so.
        """
        if not wal_logged:
            return exc
        self.apply_divergences += 1
        failure = StorageError(
            f"append to {name!r} (lsn {lsn}) is durable in the WAL but "
            f"failed to apply in memory: {exc}; the write will be "
            "applied by WAL replay on the next restart"
        )
        failure.__cause__ = exc
        return failure

    def _note_records(self, count: int) -> None:
        """Auto-checkpoint bookkeeping (caller holds the lock)."""
        self._records_since_checkpoint += count
        every = self.gateway_config.snapshot_every_records
        if every and self._records_since_checkpoint >= every:
            self.checkpoint()

    # -- reads -------------------------------------------------------------

    def execute(self, query, timeout: Optional[float] = None):
        """Run one query through the service (never takes the lock)."""
        return self.service.execute(query, timeout=timeout)

    def tables(self) -> List[str]:
        with self._lock:
            return sorted(self.system.catalog)

    def table_infos(self) -> List[Dict[str, object]]:
        """Name + row count per table, snapshotted under the apply lock
        so a concurrent create cannot mutate the catalog mid-listing."""
        with self._lock:
            return [
                {
                    "name": name,
                    "num_rows": self.system.catalog.get(name).num_rows,
                }
                for name in sorted(self.system.catalog)
            ]

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> Path:
        """Snapshot the whole store and compact the WAL.

        Holds the apply lock, so the snapshot is consistent with one
        LSN; queries keep running (they never take this lock).  The WAL
        is compacted only *after* the snapshot is durable: every data
        file, directory entry and the manifest rename are fsync'd first
        (when ``wal_fsync`` is on), so a power loss after the compaction
        can never leave an empty WAL pointing at an invisible or
        unreadable snapshot.  A crash *between* snapshot and compaction
        merely replays a tail the snapshot already contains, which
        recovery skips by LSN.
        """
        with self._lock:
            tables = {
                name: self.system.catalog.get(name)
                for name in self.system.catalog
            }
            states = {
                name: self.system.engine_for(name).adaptation_state()
                for name in tables
            }
            snap = write_snapshot(
                self._snap_dir,
                self._applied_lsn,
                self._checkpoint_seq,
                tables,
                states,
                fsync=self.gateway_config.wal_fsync,
            )
            self._checkpoint_seq += 1
            self._wal.rewrite([])
            self._records_since_checkpoint = 0
            self.checkpoints += 1
            self._prune_snapshots()
            return snap

    def _prune_snapshots(self) -> None:
        keep = self.gateway_config.snapshots_keep
        for _, _, path in list_snapshots(self._snap_dir)[keep:]:
            shutil.rmtree(path, ignore_errors=True)

    # -- lifecycle ---------------------------------------------------------

    def close(self, checkpoint: bool = True) -> None:
        """Graceful shutdown: optional final checkpoint, then release."""
        if checkpoint:
            self.checkpoint()
        self.service.close()
        self._wal.close()

    def abandon(self) -> None:
        """Release resources *without* flushing state (test crashes).

        Leaves the WAL and snapshots exactly as a SIGKILL would: used by
        the restart-recovery oracle to simulate dying mid-workload.
        """
        self.service.close()
        self._wal.close()

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            snap: Dict[str, object] = {
                "applied_lsn": self._applied_lsn,
                "apply_divergences": self.apply_divergences,
                "checkpoints": self.checkpoints,
                "records_since_checkpoint": self._records_since_checkpoint,
                "recovered": self.recovered,
                "replayed_records": self.replayed_records,
                "torn_tail_discarded": self.torn_tail_discarded,
                "snapshots_on_disk": len(list_snapshots(self._snap_dir)),
                "tables": len(self.system.catalog),
            }
            snap.update(
                {f"wal_{k}": v for k, v in self._wal.stats().items()}
            )
            return snap
