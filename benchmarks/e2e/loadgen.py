"""Closed-loop load generation over keep-alive gateway connections.

One generator process, at most two client threads (the host has two
cores, and the server is a separate process).  A client sends its next
op only after the previous reply: database sessions wait for replies,
so a slower server receives less load rather than a growing queue.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .workloads import TABLE, AppendOp, IngestLedger, QueryOp

CLIENT_TIMEOUT_S = 60.0
#: A client that keeps failing (the child died) stops instead of spinning.
MAX_CONSECUTIVE_ERRORS = 20


class Tracer:
    """In-memory span list: (id, name, start, end, parent id, op id).

    Spans are recorded here, in the benchmark's own files, around calls
    into the program; they are written out when the run ends.
    """

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, str]] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, op: str, parent: int = 0) -> Iterator[int]:
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            self.spans.append(
                (span_id, name, start, time.perf_counter(), parent, op)
            )

    def durations(self, name: str) -> List[float]:
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def as_dicts(self) -> List[dict]:
        return [
            dict(id=i, name=n, start=s, end=e, parent=p, op=o)
            for i, n, s, e, p, o in self.spans
        ]


@dataclass
class Sample:
    """One op as its caller saw it."""

    op: object
    sent: float
    done: float
    payload: Optional[dict] = None
    error: Optional[str] = None
    #: ingest reader only: batches acknowledged before the query left and
    #: batches submitted before its reply arrived.
    window: Optional[Tuple[int, int]] = None

    @property
    def seconds(self) -> float:
        return self.done - self.sent


def _client(port: int):
    from repro.gateway import GatewayClient

    return GatewayClient("127.0.0.1", port, timeout=CLIENT_TIMEOUT_S)


def _call(port: int, ops, stop, send, tracer, label) -> List[Sample]:
    """The closed loop: draw, send, wait, record — until ``stop()``."""
    samples: List[Sample] = []
    client = _client(port)
    errors = 0
    try:
        for number, op in enumerate(ops):
            if stop():
                break
            try:
                if tracer is None:
                    sample = send(client, op)
                else:
                    op_id = f"{label}-{number}"
                    with tracer.span("op", op_id) as root:
                        with tracer.span("gateway.rtt", op_id, root):
                            sample = send(client, op)
                errors = 0
            except Exception as exc:  # a failed op is a result, not a crash
                now = time.perf_counter()
                sample = Sample(op, now, now, error=f"{type(exc).__name__}: {exc}")
                errors += 1
                client.close()
                if errors >= MAX_CONSECUTIVE_ERRORS:
                    samples.append(sample)
                    break
                client = _client(port)
            samples.append(sample)
    finally:
        client.close()
    return samples


def _send_query(ledger: Optional[IngestLedger]):
    def send(client, op: QueryOp) -> Sample:
        low = ledger.acked if ledger is not None else 0
        sent = time.perf_counter()
        payload = client.query(op.sql)
        done = time.perf_counter()
        window = (low, ledger.submitted) if ledger is not None else None
        return Sample(op, sent, done, payload=payload, window=window)

    return send


def _send_append(ledger: IngestLedger):
    def send(client, op: AppendOp) -> Sample:
        ledger.note_submitted(op)
        sent = time.perf_counter()
        payload = client.append(TABLE, op.columns)
        done = time.perf_counter()
        ledger.acked += 1
        return Sample(op, sent, done, payload=payload)

    return send


def _run_together(loops: Sequence[Callable[[], List[Sample]]]) -> List[List[Sample]]:
    """One thread per client loop; a loop's exception is re-raised here."""
    with ThreadPoolExecutor(max_workers=len(loops)) as pool:
        futures = [pool.submit(loop) for loop in loops]
        return [future.result() for future in futures]


def run_queries(
    port: int,
    streams: Sequence[Iterator[QueryOp]],
    seconds: float,
    tracer: Optional[Tracer] = None,
    label: str = "q",
    ledger: Optional[IngestLedger] = None,
) -> Tuple[List[List[Sample]], float]:
    """``len(streams)`` closed-loop query clients for ``seconds``.

    Returns each client's samples and the measured wall time (start to
    the last reply).  ``label`` prefixes the op ids of traced spans;
    ``ledger`` says how many batches an ``ingest-mixed`` table holds.
    """
    start = time.perf_counter()
    deadline = start + seconds

    def stop() -> bool:
        return time.perf_counter() >= deadline

    per_client = _run_together(
        [
            lambda s=stream, i=i: _call(
                port, s, stop, _send_query(ledger), tracer, f"{label}{i}"
            )
            for i, stream in enumerate(streams)
        ]
    )
    return per_client, _wall(per_client, start)


def run_ingest(
    port: int,
    appends: Iterator[AppendOp],
    queries: Iterator[QueryOp],
    ledger: IngestLedger,
    tracer: Optional[Tracer] = None,
    label: str = "q",
) -> Tuple[List[Sample], List[Sample], float]:
    """One writer until ``appends`` runs out; one reader until the
    writer's last ack."""
    writer_done = threading.Event()
    start = time.perf_counter()

    def write() -> List[Sample]:
        try:
            return _call(
                port, appends, lambda: False, _send_append(ledger), tracer, label + "w"
            )
        finally:
            writer_done.set()

    def read() -> List[Sample]:
        return _call(
            port, queries, writer_done.is_set, _send_query(ledger), tracer, label + "r"
        )

    written, read_samples = _run_together([write, read])
    return written, read_samples, _wall([written, read_samples], start)


def _wall(per_client: Sequence[Sequence[Sample]], start: float) -> float:
    last = max((s.done for samples in per_client for s in samples), default=start)
    return max(last - start, 1e-9)
