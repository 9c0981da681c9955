"""The shard worker: one process, one full adaptive engine per table.

Spawned by :class:`~repro.sharding.coordinator.ShardedSystem`, a worker
attaches the shared-memory packs the coordinator created, builds its
slice of every table as zero-copy ``SingleColumn`` views over them, and
serves framed commands (:mod:`repro.sharding.protocol`) over its pipe
until shutdown or coordinator death (EOF on the pipe).

Each worker runs a private :class:`~repro.core.system.H2OSystem`, so a
shard has its *own* plan cache, operator cache, monitoring window,
affinity matrices and zone maps — per-shard adaptation is the point
(RodentStore's argument: each partition learns the layout its slice of
the workload deserves).  Three knobs are forced regardless of the
coordinator's config:

- ``max_scan_threads=1`` — shard processes *are* the parallel tier;
  nesting thread fan-out inside each shard would oversubscribe cores,
  so every shard's morsel loop runs on its one thread;
- ``adaptation_mode="inline"`` — there is no background scheduler in a
  shard; inline adaptation keeps per-shard evolution deterministic;
- ``shard_count=0`` — shards do not recursively shard.

For aggregations the coordinator sends a rewritten *partials* query
(``count(*)`` first, then one slot per unique aggregate with AVG
decomposed into SUM); the worker executes it through its ordinary
adaptive path and returns the scalar row as raw float64 bytes.  The
coordinator reshapes that into the per-morsel combine contract — a
worker never needs to know it is producing partials.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from ..config import EngineConfig, MachineProfile
from ..core.system import H2OSystem
from ..sql.types import DataType
from ..storage.relation import Table
from ..storage.schema import Attribute, Schema
from .protocol import encode_block, recv_msg, send_msg
from .shm import attach_segment, segment_view


def worker_config(knobs: dict) -> EngineConfig:
    """The coordinator's scalar knobs with the shard overrides applied."""
    merged = dict(knobs)
    machine = merged.get("machine")
    if isinstance(machine, dict):
        # dataclasses.asdict flattened the MachineProfile for transport.
        merged["machine"] = MachineProfile(**machine)
    merged.update(
        max_scan_threads=1,
        adaptation_mode="inline",
        shard_count=0,
    )
    return EngineConfig(**merged)


def _attach_columns(packs: List[dict]):
    """Attach the listed packs; returns (columns, attachments)."""
    columns: Dict[str, np.ndarray] = {}
    attachments = []
    for pack in packs:
        seg = attach_segment(pack["seg"])
        attachments.append(seg)
        attrs = pack["attrs"]
        view = segment_view(
            seg, (len(attrs), pack["rows"]), np.dtype(pack["dtype"])
        )
        for i, name in enumerate(attrs):
            columns[name] = view[i]
    return columns, attachments


class _ShardServer:
    """Command dispatch state for one worker process."""

    def __init__(self, shard_index: int, knobs: dict) -> None:
        self.shard_index = shard_index
        self.system = H2OSystem(config=worker_config(knobs))
        #: table → shared-memory handles kept alive while views exist.
        self.attachments: Dict[str, list] = {}

    # Commands ----------------------------------------------------------

    def create_table(self, header: dict) -> dict:
        schema = Schema(
            Attribute(name, DataType(dtype))
            for name, dtype in zip(
                header["attr_names"], header["attr_dtypes"]
            )
        )
        columns, attachments = _attach_columns(header["packs"])
        table = Table.from_columns(
            header["name"], schema, columns, initial_layout="column"
        )
        self.system.register(table, replace=True)
        # Replace (respawn replay / re-register) drops the old views.
        for seg in self.attachments.pop(header["name"], ()):
            seg.close()
        self.attachments[header["name"]] = attachments
        return {"ok": True, "rows": table.num_rows, "epoch": 0}

    def append(self, header: dict) -> dict:
        columns, attachments = _attach_columns(header["packs"])
        table = self.system.catalog.get(header["name"])
        table.append_rows(columns)
        # append_rows copies the values into the layouts' own buffers;
        # the staging segments are not referenced afterwards.
        for seg in attachments:
            seg.close()
        return {
            "ok": True,
            "rows": table.num_rows,
            "epoch": table.layout_epoch,
        }

    def query(self, header: dict):
        budget = header.get("budget")
        deadline = time.monotonic() + budget if budget is not None else None
        report = self.system.execute(header["sql"], deadline=deadline)
        reply = {
            "ok": True,
            "kind": header["mode"],
            "epoch": report.snapshot_epoch,
            "morsels_total": report.morsels_total,
            "morsels_pruned": report.morsels_pruned,
            "codegen_fallback": report.codegen_fallback,
            "breaker_short_circuit": report.breaker_short_circuit,
            "reorg_aborted": report.reorg_aborted,
            "plan_cache_hit": report.plan_cache_hit,
        }
        meta, blob = encode_block(report.result.data)
        reply.update(meta)
        return reply, [blob]

    def drop(self, header: dict) -> dict:
        self.system.drop(header["name"])
        for seg in self.attachments.pop(header["name"], ()):
            seg.close()
        return {"ok": True}

    def health(self, header: dict) -> dict:
        tables = {}
        for engine in self.system.engines():
            tables[engine.table.name] = {
                "breaker": engine.breaker.snapshot(),
                "quarantine": engine.quarantine.snapshot(),
                "codegen_fallbacks": engine.executor.codegen_fallbacks,
                "breaker_short_circuits": engine.breaker.short_circuits,
                "reorg_aborts": engine.reorg_aborts,
                "deadline_aborts": engine.deadline_aborts,
                "policy": engine.policy.snapshot(),
                "epoch": engine.table.layout_epoch,
            }
        return {"ok": True, "shard": self.shard_index, "tables": tables}

    def close(self) -> None:
        for segs in self.attachments.values():
            for seg in segs:
                seg.close()
        self.attachments.clear()


def shard_worker_main(conn, shard_index: int, knobs: dict) -> None:
    """Entry point of one shard process (spawn-safe, top-level)."""
    server = _ShardServer(shard_index, knobs)
    try:
        while True:
            try:
                header, _blobs = recv_msg(conn)
            except (EOFError, OSError):
                return  # coordinator went away; exit quietly
            cmd = header.get("cmd")
            reply_blobs: list = []
            try:
                if cmd == "shutdown":
                    send_msg(conn, {"ok": True, "id": header.get("id")})
                    return
                if cmd == "create_table":
                    reply = server.create_table(header)
                elif cmd == "append":
                    reply = server.append(header)
                elif cmd == "query":
                    reply, reply_blobs = server.query(header)
                elif cmd == "drop":
                    reply = server.drop(header)
                elif cmd == "health":
                    reply = server.health(header)
                else:
                    reply = {
                        "ok": False,
                        "error": f"unknown command {cmd!r}",
                        "etype": "ShardError",
                        "retryable": False,
                    }
            except Exception as exc:  # noqa: BLE001 - forwarded, not fatal
                reply = {
                    "ok": False,
                    "error": str(exc),
                    "etype": type(exc).__name__,
                    "retryable": bool(getattr(exc, "is_retryable", False)),
                }
                reply_blobs = []
            reply["id"] = header.get("id")
            try:
                send_msg(conn, reply, reply_blobs)
            except (BrokenPipeError, OSError):
                return
    finally:
        server.close()
        try:
            conn.close()
        except Exception:  # pragma: no cover - already closed
            pass
