"""The scatter–gather coordinator over N shard processes.

:class:`ShardedSystem` duck-types :class:`~repro.core.system.H2OSystem`
(register / drop / execute / run_sequence / describe / engines /
cumulative_seconds) so :class:`~repro.service.H2OService` routes tickets
through it unchanged.  Per query:

1. **route** — the routing decision is cached by the query's masked
   shape signature: aggregation vs projection, and (for hash-partitioned
   tables) whether a top-level equality conjunct pins the partition key,
   in which case the query goes to exactly one shard;
2. **scatter** — aggregations are rewritten into a *partials* query
   (``count(*)`` first, one slot per unique aggregate, AVG decomposed
   into SUM) and sent to every target shard over the pickle-free framed
   protocol; projections are forwarded verbatim;
3. **gather** — per-shard replies are reshaped into the per-morsel
   combine contract and folded **in shard-index order** via
   :func:`repro.execution.morsel.combine_partial_aggregates`, so the
   answer is bit-identical to serial execution; projection blocks are
   concatenated in shard order (bit-identical under range partitioning,
   which preserves global row order).

**Failure model.**  A shard that dies or misses the scatter timeout is
marked dead, killed if wedged, and the watchdog thread is woken; the
query raises a *retryable* :class:`~repro.errors.ShardError`, which the
service's retry ladder turns into a requeued ticket — the waiter never
sees the death.  The watchdog respawns dead shards under a token-bucket
budget and replays their slice from the coordinator's retained
shared-memory segments (initial registration plus every append batch,
in order), so a respawned shard is bit-identical in *data*; its learned
adaptive state starts fresh and is re-learned from traffic.

One scatter is in flight at a time (``_io_lock``): parallelism comes
from the shards executing concurrently inside one query, not from
interleaving queries on the pipes.  Replies carry echoed request ids so
a reply abandoned by a failed scatter is drained, never mis-matched.
"""

from __future__ import annotations

import dataclasses
import threading
import time
import weakref
from typing import Dict, List, Optional, Sequence, Tuple, Union

import multiprocessing
import numpy as np

from ..config import EngineConfig
from ..core.engine import QueryReport
from ..errors import CatalogError, H2OError, ShardError
from ..execution.evaluator import collect_aggregates, finalize_output
from ..execution.morsel import combine_partial_aggregates
from ..execution.result import QueryResult
from ..resilience.budget import TokenBucket
from ..resilience.supervisor import Supervisor
from ..sql.expressions import (
    Aggregate,
    AggregateFunc,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
)
from ..sql.parser import parse_query
from ..sql.query import OutputColumn, Query
from ..storage.relation import Table
from .partition import hash_shard_of, pack_by_dtype, partition_rows
from .protocol import decode_block, recv_msg, send_msg
from .shm import create_segment, unlink_segment
from .worker import shard_worker_main

from .. import errors as _errors

#: Seconds a query waits for the watchdog to respawn its dead target
#: shards before it fails with a (retryable) ShardError.
RESPAWN_WAIT = 30.0


class _Shard:
    """One worker process + its command pipe."""

    __slots__ = ("index", "process", "conn", "alive", "seq")

    def __init__(self, index: int, process, conn) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.alive = True
        self.seq = 0


@dataclasses.dataclass
class _TableState:
    """Everything needed to answer for — and replay — one table."""

    name: str
    attr_names: Tuple[str, ...]
    attr_dtypes: Tuple[str, ...]
    partition: str
    key: Optional[str]
    num_rows: int
    #: [shard][batch] → pack descriptors; batch 0 is the initial
    #: registration, later batches are appends (replayed in order).
    shard_batches: List[List[List[dict]]]
    #: Every owned segment name (unlinked on drop/close).
    segments: List[str]
    #: Latest layout epoch each shard reported (per-shard publication).
    epochs: Dict[int, int]
    query_index: int = 0


@dataclasses.dataclass(frozen=True)
class _Route:
    """Cached routing decision for one (table, shape signature)."""

    is_aggregation: bool
    #: Index of the top-level EQ conjunct pinning the hash key, and
    #: which side holds the literal ("left"/"right"); None → all shards.
    key_conjunct: Optional[int] = None
    literal_side: Optional[str] = None


def _scalar_knobs(config: EngineConfig) -> dict:
    """The config as a JSON-able dict the spawn bootstrap can carry."""
    knobs = dataclasses.asdict(config)
    # MachineProfile flattens to a plain dict; the worker rebuilds it.
    return knobs


def _finalize_shards(processes: List) -> None:
    """weakref.finalize hook: never leave orphan shard processes."""
    for proc in processes:
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:  # pragma: no cover - interpreter teardown
            pass


class ShardedSystem:
    """Process-sharded adaptive store with scatter–gather execution."""

    def __init__(
        self,
        config: Optional[EngineConfig] = None,
        *,
        name: str = "h2o-sharded",
    ) -> None:
        config = config or EngineConfig(shard_count=2)
        if config.shard_count < 1:
            raise ShardError(
                "ShardedSystem needs shard_count >= 1 in its config "
                f"(got {config.shard_count}); use H2OSystem when "
                "sharding is off"
            )
        self.config = config
        self.name = name
        self.shard_count = config.shard_count
        self.scatter_timeout = config.scatter_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._knobs = _scalar_knobs(config)
        self._tables: Dict[str, _TableState] = {}
        self._routes: Dict[Tuple[str, object], _Route] = {}
        #: One scatter (or append/health broadcast) in flight at a time.
        self._io_lock = threading.RLock()
        #: Guards shard aliveness; respawns notify waiters.
        self._state_lock = threading.Lock()
        self._ready = threading.Condition(self._state_lock)
        self._closed = threading.Event()
        self._cumulative = 0.0
        self.shard_respawns = 0
        self.shard_deaths = 0
        self._shards: List[_Shard] = [
            self._spawn_shard(index) for index in range(self.shard_count)
        ]
        #: Mutable process list the exit finalizer terminates; updated
        #: in place on respawn so late deaths are still covered.
        self._finalize_procs = [s.process for s in self._shards]
        self._finalizer = weakref.finalize(
            self, _finalize_shards, self._finalize_procs
        )
        self._supervisor = Supervisor(name, self._heal, self.shard_count)

    # Shard lifecycle ---------------------------------------------------

    def _spawn_shard(self, index: int) -> _Shard:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, index, self._knobs),
            name=f"{self.name}-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Shard(index, process, parent_conn)

    def _heal(self, budget: TokenBucket) -> None:
        """Respawn dead shards (budgeted) and replay their data."""
        for position, shard in enumerate(list(self._shards)):
            dead = not shard.alive or not shard.process.is_alive()
            if not dead or self._closed.is_set():
                continue
            self.shard_deaths += shard.alive  # died without being marked
            if not budget.try_take():
                continue  # throttled; next tick retries
            with self._io_lock:
                if self._closed.is_set():
                    return
                fresh = self._spawn_shard(shard.index)
                try:
                    self._replay(fresh)
                except ShardError:
                    # The replacement died during replay; next tick
                    # tries again (budget willing).
                    fresh.alive = False
                try:
                    shard.conn.close()
                except Exception:  # pragma: no cover - already closed
                    pass
                self._shards[position] = fresh
                self._finalize_procs.append(fresh.process)
            if fresh.alive:
                self.shard_respawns += 1
                with self._ready:
                    self._ready.notify_all()

    def _replay(self, shard: _Shard) -> None:
        """Rebuild a fresh shard's slice of every table, batch order."""
        for state in self._tables.values():
            batches = state.shard_batches[shard.index]
            if not batches:
                continue
            self._request(
                shard,
                {
                    "cmd": "create_table",
                    "name": state.name,
                    "attr_names": list(state.attr_names),
                    "attr_dtypes": list(state.attr_dtypes),
                    "packs": batches[0],
                },
                timeout=self.scatter_timeout,
            )
            for packs in batches[1:]:
                reply, _ = self._request(
                    shard,
                    {"cmd": "append", "name": state.name, "packs": packs},
                    timeout=self.scatter_timeout,
                )
                state.epochs[shard.index] = int(reply.get("epoch", 0))

    def _mark_dead(self, shard: _Shard, reason: str, kill: bool) -> None:
        with self._state_lock:
            was_alive = shard.alive
            shard.alive = False
        if was_alive:
            self.shard_deaths += 1
        if kill and shard.process.is_alive():
            shard.process.kill()
        self._supervisor.wake()

    def _shard_failed(self, shard: _Shard, reason: str, kill: bool = False):
        self._mark_dead(shard, reason, kill)
        raise ShardError(
            f"shard {shard.index} of {self.name!r} {reason}; it is being "
            f"respawned — retry the query"
        )

    def _await_ready(self, shard_ids: Sequence[int]) -> None:
        """Block (bounded) until the target shards are alive again.

        This is what makes the service's retry ladder deterministic: a
        requeued ticket's next attempt waits here for the watchdog's
        respawn instead of failing again on a still-dead shard.
        """
        deadline = time.monotonic() + RESPAWN_WAIT

        def ready() -> bool:
            if self._closed.is_set():
                return True
            return all(
                self._shards[i].alive and self._shards[i].process.is_alive()
                for i in shard_ids
            )

        with self._ready:
            while not ready():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardError(
                        f"shards {list(shard_ids)} of {self.name!r} not "
                        f"ready within {RESPAWN_WAIT:.1f}s"
                    )
                self._ready.wait(min(0.05, remaining))
        if self._closed.is_set():
            raise ShardError(f"sharded system {self.name!r} is closed")

    # Framed RPC --------------------------------------------------------

    def _send(self, shard: _Shard, header: dict) -> int:
        shard.seq += 1
        header = dict(header, id=shard.seq)
        try:
            send_msg(shard.conn, header)
        except (BrokenPipeError, EOFError, OSError):
            self._shard_failed(shard, "pipe broke on send")
        return shard.seq

    def _recv(
        self, shard: _Shard, want_id: int, timeout: float
    ) -> Tuple[dict, List[bytes]]:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._shard_failed(
                    shard, "missed the scatter timeout", kill=True
                )
            try:
                reply, blobs = recv_msg(shard.conn, remaining)
            except ShardError:
                self._shard_failed(
                    shard, "missed the scatter timeout", kill=True
                )
            except (EOFError, OSError):
                self._shard_failed(shard, "died mid-query")
            if reply.get("id") == want_id:
                if not reply.get("ok", False):
                    self._raise_reply_error(reply)
                return reply, blobs
            # Stale reply from a scatter an earlier failure abandoned.

    def _request(
        self,
        shard: _Shard,
        header: dict,
        timeout: Optional[float] = None,
    ) -> Tuple[dict, List[bytes]]:
        want = self._send(shard, header)
        return self._recv(
            shard, want, self.scatter_timeout if timeout is None else timeout
        )

    @staticmethod
    def _raise_reply_error(reply: dict) -> None:
        """Re-raise a worker-side error under its original class.

        The class is resolved *by name* from :mod:`repro.errors` — no
        pickling — so permanent errors (analysis, schema) surface
        exactly as a local engine would raise them, and anything
        unrecognized degrades to a non-retryable ShardError.
        """
        etype = str(reply.get("etype", ""))
        message = str(reply.get("error", "shard-side failure"))
        cls = getattr(_errors, etype, None)
        if isinstance(cls, type) and issubclass(cls, H2OError):
            raise cls(message)
        exc = ShardError(f"shard-side {etype or 'failure'}: {message}")
        exc.is_retryable = bool(reply.get("retryable", False))
        raise exc

    # Catalog -----------------------------------------------------------

    def register(
        self,
        table: Table,
        replace: bool = False,
        partition_key: Optional[str] = None,
    ) -> None:
        """Partition ``table`` across the shards and ship the slices.

        ``partition_key`` names the hash attribute (defaults to the
        first schema attribute when ``shard_partition="hash"``; unused
        for range partitioning).
        """
        if self._closed.is_set():
            raise ShardError(f"sharded system {self.name!r} is closed")
        name = table.name
        if name in self._tables and not replace:
            raise CatalogError(f"table {name!r} is already registered")
        schema = table.schema
        partition = self.config.shard_partition
        key = (
            (partition_key or schema.names[0])
            if partition == "hash"
            else None
        )
        columns = {n: table.column(n) for n in schema.names}
        parts = partition_rows(
            columns, table.num_rows, self.shard_count, partition, key
        )
        state = _TableState(
            name=name,
            attr_names=tuple(schema.names),
            attr_dtypes=tuple(a.dtype.value for a in schema.attributes),
            partition=partition,
            key=key,
            num_rows=table.num_rows,
            shard_batches=[[] for _ in range(self.shard_count)],
            segments=[],
            epochs={i: 0 for i in range(self.shard_count)},
        )
        for sid, part in enumerate(parts):
            packs = self._make_packs(state, part)
            state.shard_batches[sid].append(packs)
        if replace:
            self.drop(name, missing_ok=True)
        self._tables[name] = state
        with self._io_lock:
            self._await_ready(range(self.shard_count))
            pending = [
                (
                    shard,
                    self._send(
                        shard,
                        {
                            "cmd": "create_table",
                            "name": name,
                            "attr_names": list(state.attr_names),
                            "attr_dtypes": list(state.attr_dtypes),
                            "packs": state.shard_batches[shard.index][0],
                        },
                    ),
                )
                for shard in self._shards
            ]
            for shard, want in pending:
                self._recv(shard, want, self.scatter_timeout)

    def _make_packs(
        self, state: _TableState, columns: Dict[str, np.ndarray]
    ) -> List[dict]:
        packs: List[dict] = []
        for attrs, block in pack_by_dtype(columns, state.attr_names):
            seg_name, _seg = create_segment(block)
            state.segments.append(seg_name)
            packs.append(
                {
                    "seg": seg_name,
                    "attrs": list(attrs),
                    "rows": int(block.shape[1]),
                    "dtype": str(block.dtype),
                }
            )
        return packs

    def drop(self, name: str, missing_ok: bool = False) -> None:
        state = self._tables.pop(name, None)
        if state is None:
            if missing_ok:
                return
            raise CatalogError(f"unknown table {name!r}")
        with self._io_lock:
            for shard in self._shards:
                if not shard.alive:
                    continue
                try:
                    self._request(shard, {"cmd": "drop", "name": name})
                except (ShardError, H2OError):
                    pass  # dying shard; respawn simply omits the table
        for seg in state.segments:
            unlink_segment(seg)

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def tables(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def num_rows(self, name: str) -> int:
        return self._state_of(name).num_rows

    def shard_epochs(self, name: str) -> Dict[int, int]:
        """Latest layout epoch each shard published for ``name``."""
        return dict(self._state_of(name).epochs)

    def _state_of(self, name: str) -> _TableState:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"unknown table {name!r} (registered: "
                + (", ".join(sorted(self._tables)) or "<none>")
                + ")"
            ) from None

    # Appends -----------------------------------------------------------

    def append_rows(self, name: str, columns) -> None:
        """Fan an append out to the owning shards (exactly-once).

        The batch is recorded in the coordinator's replay log *before*
        delivery: a shard that dies around its append gets the batch
        replayed on respawn, so delivery is exactly-once per shard and
        the append never raises for a recoverable death.

        Range partitioning appends to the tail shard (the only
        assignment preserving global row order); hash partitioning fans
        out by key.  Each receiving shard publishes its own epoch bump.
        """
        state = self._state_of(name)
        arrays = {n: np.asarray(v) for n, v in columns.items()}
        missing = [n for n in state.attr_names if n not in arrays]
        if missing:
            raise CatalogError(
                f"append to {name!r} is missing attributes: {missing}"
            )
        lengths = {len(arrays[n]) for n in state.attr_names}
        if len(lengths) != 1:
            raise CatalogError(
                f"appended columns differ in length: {lengths}"
            )
        (extra,) = lengths
        if extra == 0:
            return
        if state.partition == "hash":
            parts = partition_rows(
                arrays, extra, self.shard_count, "hash", state.key
            )
        else:
            parts = [
                {n: arrays[n][0:0] for n in state.attr_names}
                for _ in range(self.shard_count - 1)
            ] + [arrays]
        targets: List[Tuple[int, List[dict]]] = []
        for sid, part in enumerate(parts):
            rows = len(part[state.attr_names[0]])
            if rows == 0:
                continue
            packs = self._make_packs(state, part)
            state.shard_batches[sid].append(packs)
            targets.append((sid, packs))
        state.num_rows += extra
        with self._io_lock:
            for sid, packs in targets:
                shard = self._shards[sid]
                if not shard.alive:
                    continue  # the replay log delivers it on respawn
                try:
                    reply, _ = self._request(
                        shard,
                        {"cmd": "append", "name": name, "packs": packs},
                    )
                    state.epochs[sid] = int(reply.get("epoch", 0))
                except ShardError:
                    # Recorded above; respawn replay delivers it.
                    continue

    # Querying ----------------------------------------------------------

    def execute(
        self,
        query: Union[Query, str],
        deadline: Optional[float] = None,
    ) -> QueryReport:
        """Scatter one query, gather bit-identical answers."""
        started = time.perf_counter()
        if isinstance(query, str):
            query = parse_query(query)
        state = self._state_of(query.table)
        route = self._route_for(query, state)
        shard_ids = self._target_shards(query, state, route)
        budget = self.scatter_timeout
        if deadline is not None:
            budget = min(budget, max(0.0, deadline - time.monotonic()))
        self._await_ready(shard_ids)
        if route.is_aggregation:
            aggregates, slots, partials_sql = self._partials_for(query)
            sql, mode = partials_sql, "scalar"
        else:
            aggregates, slots = (), {}
            sql, mode = query.to_sql(), "rows"
        replies: List[Tuple[dict, List[bytes]]] = []
        with self._io_lock:
            pending = []
            for sid in shard_ids:
                shard = self._shards[sid]
                if not shard.alive:
                    self._shard_failed(shard, "is down")
                want = self._send(
                    shard,
                    {
                        "cmd": "query",
                        "sql": sql,
                        "mode": mode,
                        "budget": budget,
                    },
                )
                pending.append((shard, want))
            gather_deadline = time.monotonic() + budget
            for shard, want in pending:
                remaining = max(0.001, gather_deadline - time.monotonic())
                replies.append(self._recv(shard, want, remaining))
        result = self._gather(query, route, aggregates, slots, replies)
        seconds = time.perf_counter() - started
        self._cumulative += seconds
        state.query_index += 1
        for sid, (reply, _) in zip(shard_ids, replies):
            state.epochs[sid] = max(
                state.epochs.get(sid, 0), int(reply.get("epoch", 0))
            )
        return QueryReport(
            index=state.query_index - 1,
            query=query,
            result=result,
            seconds=seconds,
            strategy=f"sharded-scatter-gather[{len(shard_ids)}]",
            plan=(
                f"scatter {len(shard_ids)}/{self.shard_count} shards "
                f"({state.partition} partition), gather "
                f"{'partials' if route.is_aggregation else 'blocks'}"
            ),
            snapshot_epoch=max(
                (int(r.get("epoch", 0)) for r, _ in replies), default=0
            ),
            plan_cache_hit=all(
                bool(r.get("plan_cache_hit")) for r, _ in replies
            ),
            codegen_fallback=any(
                bool(r.get("codegen_fallback")) for r, _ in replies
            ),
            breaker_short_circuit=any(
                bool(r.get("breaker_short_circuit")) for r, _ in replies
            ),
            reorg_aborted=any(
                bool(r.get("reorg_aborted")) for r, _ in replies
            ),
            morsels_total=sum(
                int(r.get("morsels_total", 0)) for r, _ in replies
            ),
            morsels_pruned=sum(
                int(r.get("morsels_pruned", 0)) for r, _ in replies
            ),
            scan_threads_used=len(shard_ids),
            parallel_scan=len(shard_ids) > 1,
            shards_used=len(shard_ids),
        )

    # Routing -----------------------------------------------------------

    def _route_for(self, query: Query, state: _TableState) -> _Route:
        cache_key = (state.name, query.shape_signature())
        route = self._routes.get(cache_key)
        if route is not None:
            return route
        key_conjunct = None
        literal_side = None
        if state.partition == "hash" and state.key is not None:
            for index, conjunct in enumerate(query.predicates):
                if not isinstance(conjunct, Comparison):
                    continue
                if conjunct.op is not ComparisonOp.EQ:
                    continue
                left, right = conjunct.left, conjunct.right
                if (
                    isinstance(left, ColumnRef)
                    and left.name == state.key
                    and isinstance(right, Literal)
                ):
                    key_conjunct, literal_side = index, "right"
                    break
                if (
                    isinstance(right, ColumnRef)
                    and right.name == state.key
                    and isinstance(left, Literal)
                ):
                    key_conjunct, literal_side = index, "left"
                    break
        route = _Route(
            is_aggregation=query.is_aggregation,
            key_conjunct=key_conjunct,
            literal_side=literal_side,
        )
        self._routes[cache_key] = route
        return route

    def _target_shards(
        self, query: Query, state: _TableState, route: _Route
    ) -> List[int]:
        if route.key_conjunct is not None:
            conjunct = query.predicates[route.key_conjunct]
            literal = (
                conjunct.right
                if route.literal_side == "right"
                else conjunct.left
            )
            value = literal.value
            if isinstance(value, (int, np.integer)):
                return [hash_shard_of(int(value), self.shard_count)]
        return list(range(self.shard_count))

    # Partials rewrite + gather -----------------------------------------

    def _partials_for(
        self, query: Query
    ) -> Tuple[Tuple[Aggregate, ...], Dict[Aggregate, Optional[int]], str]:
        """Rewrite an aggregation into its partials query.

        Output 0 is always ``count(*)``; every unique non-COUNT
        aggregate gets one slot, with AVG decomposed into SUM (the
        count is shared).  ``slots`` maps each original aggregate to
        its value's position in the partials row (None = use count).
        """
        aggregates = collect_aggregates(query.select)
        outputs: List[OutputColumn] = [
            OutputColumn(Aggregate(AggregateFunc.COUNT, None), "c")
        ]
        slots: Dict[Aggregate, Optional[int]] = {}
        positions: Dict[Aggregate, int] = {}
        for agg in aggregates:
            if agg.func is AggregateFunc.COUNT:
                slots[agg] = None
                continue
            func = (
                AggregateFunc.SUM
                if agg.func is AggregateFunc.AVG
                else agg.func
            )
            rewritten = Aggregate(func, agg.arg)
            position = positions.get(rewritten)
            if position is None:
                position = len(outputs)
                positions[rewritten] = position
                outputs.append(OutputColumn(rewritten, f"s{position}"))
            slots[agg] = position
        partials = Query(query.table, tuple(outputs), query.where)
        return aggregates, slots, partials.to_sql()

    def _gather(
        self,
        query: Query,
        route: _Route,
        aggregates: Tuple[Aggregate, ...],
        slots: Dict[Aggregate, Optional[int]],
        replies: List[Tuple[dict, List[bytes]]],
    ) -> QueryResult:
        names = [out.name for out in query.select]
        if not route.is_aggregation:
            blocks = [
                decode_block(reply, blobs[0]) for reply, blobs in replies
            ]
            dtype = blocks[0].dtype if blocks else np.float64
            return QueryResult.from_blocks(
                names, [b for b in blocks if b.shape[0]], dtype
            )
        payloads = []
        for reply, blobs in replies:
            row = decode_block(reply, blobs[0])[0]
            count = float(row[0])
            states: List[Optional[float]] = []
            for agg in aggregates:
                position = slots[agg]
                if position is None:
                    states.append(None)  # COUNT: contract carries None
                elif agg.func in (AggregateFunc.SUM, AggregateFunc.AVG):
                    states.append(float(row[position]))
                else:  # MIN/MAX: None when the shard had no qualifiers
                    states.append(
                        None if count == 0 else float(row[position])
                    )
            payloads.append((count, tuple(states)))
        agg_values, _count = combine_partial_aggregates(
            aggregates, payloads
        )
        values = [
            float(finalize_output(out.expr, agg_values))
            for out in query.select
        ]
        return QueryResult.scalar_row(names, values)

    # H2OSystem-compatible surface --------------------------------------

    def run_sequence(self, queries) -> List[QueryReport]:
        return [self.execute(q) for q in queries]

    def engines(self) -> Tuple[()]:
        """Engines live in the shard processes; see :meth:`shard_health`."""
        return ()

    def cumulative_seconds(self) -> float:
        return self._cumulative

    def alive_shards(self) -> int:
        return sum(
            1
            for s in self._shards
            if s.alive and s.process.is_alive()
        )

    def shard_health(self) -> Dict[int, Optional[dict]]:
        """Per-shard engine health over the protocol (None = dead)."""
        out: Dict[int, Optional[dict]] = {}
        with self._io_lock:
            for shard in self._shards:
                if self._closed.is_set():
                    break
                if not (shard.alive and shard.process.is_alive()):
                    out[shard.index] = None
                    continue
                try:
                    reply, _ = self._request(shard, {"cmd": "health"})
                    out[shard.index] = reply
                except (ShardError, H2OError):
                    out[shard.index] = None
        return out

    def describe(self) -> str:
        lines = [
            f"H2O sharded system {self.name!r}: {self.shard_count} "
            f"shards ({self.config.shard_partition} partition), "
            f"{self.alive_shards()} alive, "
            f"{self.shard_respawns} respawn(s), "
            f"{len(self._tables)} table(s)"
        ]
        for name in sorted(self._tables):
            state = self._tables[name]
            lines.append(
                f"  - {name}: {state.num_rows} rows, epochs "
                f"{[state.epochs[i] for i in range(self.shard_count)]}"
            )
        return "\n".join(lines)

    # Lifecycle ---------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Shut shards down and unlink every owned segment (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        self._supervisor.close(timeout)
        with self._ready:
            self._ready.notify_all()
        with self._io_lock:
            for shard in self._shards:
                if shard.alive and shard.process.is_alive():
                    try:
                        self._send(shard, {"cmd": "shutdown"})
                    except (ShardError, H2OError, OSError):
                        pass
            for shard in self._shards:
                shard.process.join(timeout)
                if shard.process.is_alive():
                    shard.process.terminate()
                    shard.process.join(1.0)
                if shard.process.is_alive():  # pragma: no cover - stuck
                    shard.process.kill()
                    shard.process.join(1.0)
                try:
                    shard.conn.close()
                except Exception:  # pragma: no cover - already closed
                    pass
                shard.alive = False
        for state in self._tables.values():
            for seg in state.segments:
                unlink_segment(seg)
        self._tables.clear()
        self._finalizer.detach()

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    def __enter__(self) -> "ShardedSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
