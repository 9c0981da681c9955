"""Seeded inputs, op streams and numpy reference answers.

Everything the program receives is made here from ``--seed``; reference
answers are computed with plain numpy on the generated columns, never
with the program's own evaluator.  All values keep every aggregate
below 2**53, so equality with the engine's float64 results is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

TABLE = "t"
BATCH_ROWS = 64
VALUE_HIGH = 10**9

#: rows × attrs of each workload's table at full scale.
TABLE_SHAPES = {
    "adaptive-seq": (50_000, 150),
    "steady-serve": (50_000, 16),
    "scan-serve": (1_000_000, 8),
    "ingest-mixed": (200_000, 8),
}
#: ``--smoke`` shrinks every table by this factor.
SMOKE_FACTOR = 20
#: Stable small integers to key each workload's random streams.
_WORKLOAD_ID = {name: i for i, name in enumerate(TABLE_SHAPES)}

Columns = Dict[str, np.ndarray]
Rows = List[List[float]]


def table_shape(workload: str, smoke: bool) -> Tuple[int, int]:
    rows, attrs = TABLE_SHAPES[workload]
    return (rows // SMOKE_FACTOR if smoke else rows), attrs


def attr_specs(columns: Columns) -> List[Dict[str, str]]:
    return [{"name": name, "dtype": "int64"} for name in columns]


def user_bytes(rows: int, attrs: int) -> int:
    return rows * attrs * 8


# Tables -------------------------------------------------------------------


def serve_columns(workload: str, seed: int, smoke: bool) -> Columns:
    """The gateway workloads' base table: int64 values in [0, 1e9).

    ``steady-serve``: ``a10`` has ``rows/25`` distinct values so an
    equality projection returns ~25 rows.  ``scan-serve``: ``a1`` is
    sorted (zone maps can prune on it), ``a8`` is signed so ``a8 < 0``
    keeps half the rows.  ``ingest-mixed``: base values are all >= 0 and
    appended values all < 0, so a predicate's sign says which rows it
    can see.
    """
    rows, attrs = table_shape(workload, smoke)
    rng = np.random.default_rng([seed, _WORKLOAD_ID[workload], 0])
    columns = {
        f"a{i}": rng.integers(0, VALUE_HIGH, size=rows, dtype=np.int64)
        for i in range(1, attrs + 1)
    }
    if workload == "steady-serve":
        columns["a10"] = rng.integers(
            0, max(1, rows // 25), size=rows, dtype=np.int64
        )
    elif workload == "scan-serve":
        columns["a1"].sort()
        columns["a8"] -= VALUE_HIGH // 2
    return columns


# Ops ----------------------------------------------------------------------


@dataclass(frozen=True)
class QueryOp:
    shape: str
    sql: str
    literals: Tuple[int, ...] = ()


@dataclass(frozen=True)
class AppendOp:
    columns: Dict[str, List[int]]


def _query(shape: str, template: str, *literals: int) -> QueryOp:
    return QueryOp(shape, template.format(*literals), tuple(literals))


_STEADY = {
    "agg3": "SELECT sum(a2), max(a3), count(*) FROM t WHERE a4 > {}",
    "expr": "SELECT sum(a5 + a6) FROM t WHERE a7 > {}",
    "proj": "SELECT a8, a9 FROM t WHERE a10 = {}",
    "conj2": "SELECT count(*) FROM t WHERE a11 > {} AND a12 < {}",
}
_SCAN = {
    "pruned": "SELECT sum(a2), count(*) FROM t WHERE a1 < {}",
    "filter": "SELECT sum(a3 + a4), max(a5) FROM t WHERE a6 > {}",
    "conj": "SELECT count(*) FROM t WHERE a7 > {} AND a8 < 0",
    "full": "SELECT sum(a2 + a3), max(a4), min(a5) FROM t",
}
_INGEST = {
    "agg3": "SELECT sum(a2), max(a3), count(*) FROM t WHERE a4 > {}",
    "expr": "SELECT sum(a5 + a6) FROM t WHERE a7 > {}",
    "all": "SELECT count(*), sum(a2) FROM t",
}
QUERY_SHAPES = {
    "steady-serve": _STEADY,
    "scan-serve": _SCAN,
    "ingest-mixed": _INGEST,
}
#: How often a shape comes in one round of a stream (default: once).
#: ``scan-serve``'s four shapes cost 2 / 6 / 15 / 24 ms, so with equal
#: shares the median query is the gap between two shapes and jumps with
#: the slightest shift (spread 0.16 over ten runs); with ``full`` twice
#: it is a full scan, the one shape that takes no literal.
SHAPE_REPEATS = {"scan-serve": {"full": 2}}


def _literals(shape: str, rng, columns: Columns) -> Tuple[int, ...]:
    """Fresh literals for one op; every draw leaves >= 1 qualifying row
    for the shapes that take ``max`` (the top 5% of the range is kept)."""
    top = int(VALUE_HIGH * 0.95)
    if shape == "proj":
        return (int(rng.integers(0, max(1, len(columns["a10"]) // 25))),)
    if shape == "conj2":
        return (int(rng.integers(0, top)), int(rng.integers(0, VALUE_HIGH)))
    if shape == "pruned":
        # a1 is sorted uniform: a literal below 5% of the range keeps
        # <= 5% of the rows, so >= 95% of the morsels can be skipped.
        return (int(rng.integers(1, VALUE_HIGH // 20)),)
    if shape in ("full", "all"):
        return ()
    return (int(rng.integers(0, top)),)


def query_stream(
    workload: str, seed: int, client: int, columns: Columns
) -> Iterator[QueryOp]:
    """An endless closed-loop stream for one client.

    Shapes come in shuffled rounds holding each shape a fixed number of
    times (``SHAPE_REPEATS``), so every prefix has the same mix whatever
    the seed; literals are fresh.
    """
    templates = QUERY_SHAPES[workload]
    repeats = SHAPE_REPEATS.get(workload, {})
    shapes = [s for s in sorted(templates) for _ in range(repeats.get(s, 1))]
    rng = np.random.default_rng([seed, _WORKLOAD_ID[workload], 1, client])
    while True:
        for shape in rng.permutation(shapes):
            shape = str(shape)
            yield _query(
                shape,
                templates[shape],
                *_literals(shape, rng, columns),
            )


def append_stream(seed: int, writer: int, attrs: int) -> Iterator[AppendOp]:
    """Endless seeded 64-row batches of negative int64 values."""
    rng = np.random.default_rng([seed, _WORKLOAD_ID["ingest-mixed"], 2, writer])
    while True:
        block = rng.integers(
            -VALUE_HIGH, 0, size=(attrs, BATCH_ROWS), dtype=np.int64
        )
        yield AppendOp({f"a{i + 1}": block[i].tolist() for i in range(attrs)})


# adaptive-seq -------------------------------------------------------------

#: The drift schedule is fixed: segment ``i`` is
#: ``fig7_sequence(rng=ADAPTIVE_SCHEDULE_BASE + i)``.  ``--seed`` draws the
#: table's values.  A different schedule is a different workload (four
#: schedules measured 26–37 queries/s on one commit), so tying it to the
#: seed would put that spread into every comparison.
ADAPTIVE_SCHEDULE_BASE = 7000
ADAPTIVE_SEGMENT_QUERIES = 100


def adaptive_segments(seconds: float) -> int:
    """The sequence is sized from ``--seconds``, not cut at a deadline:
    the paper's metric is the cumulative time of a *fixed* drifting
    sequence, and the layout counts must repeat exactly.  One segment
    per two seconds measures ≈ ``seconds`` on the seed commit."""
    return max(1, int(seconds // 2))


def adaptive_queries(segments: int, smoke: bool):
    from repro.workloads.sequences import fig7_sequence

    per_segment = ADAPTIVE_SEGMENT_QUERIES // (4 if smoke else 1)
    queries = []
    for i in range(segments):
        queries.extend(
            fig7_sequence(
                num_queries=per_segment,
                rng=ADAPTIVE_SCHEDULE_BASE + i,
                table=TABLE,
            ).queries
        )
    return queries


def adaptive_reference(query, columns: Columns) -> Rows:
    """``SELECT sum(x), ... WHERE y < c AND ...`` by brute force.

    Reads the query's own AST (built by the workload generator, not by
    the parser under test) and accepts only that shape.
    """
    from repro.sql.expressions import (
        Aggregate,
        AggregateFunc,
        ColumnRef,
        Comparison,
        ComparisonOp,
        Literal,
    )

    mask = np.ones(len(next(iter(columns.values()))), dtype=bool)
    for pred in query.predicates:
        if not (
            isinstance(pred, Comparison)
            and pred.op is ComparisonOp.LT
            and isinstance(pred.left, ColumnRef)
            and isinstance(pred.right, Literal)
        ):
            raise ValueError(f"unexpected predicate {pred!r}")
        mask &= columns[pred.left.name] < pred.right.value
    row = []
    for out in query.select:
        agg = out.expr
        if not (
            isinstance(agg, Aggregate)
            and agg.func is AggregateFunc.SUM
            and isinstance(agg.arg, ColumnRef)
        ):
            raise ValueError(f"unexpected output {agg!r}")
        row.append(float(columns[agg.arg.name][mask].sum()))
    return [row]


# References for the serve workloads --------------------------------------


class _FilterIndex:
    """Rows ordered by one filter column, so ``col > c`` is a suffix and
    ``col < c`` a prefix of that order; aggregates become lookups."""

    def __init__(self, key: np.ndarray) -> None:
        self.order = np.argsort(key, kind="stable")
        self.sorted = key[self.order]
        self.rows = len(key)

    def gt(self, literal: int) -> int:
        """Start of the suffix holding ``key > literal``."""
        return int(np.searchsorted(self.sorted, literal, side="right"))

    def lt(self, literal: int) -> int:
        """End of the prefix holding ``key < literal``."""
        return int(np.searchsorted(self.sorted, literal, side="left"))

    def running_sum(self, values: np.ndarray) -> np.ndarray:
        """``out[i]`` = sum of the first ``i`` values in key order."""
        return np.concatenate(([0], np.cumsum(values[self.order])))

    def suffix_max(self, values: np.ndarray) -> np.ndarray:
        """``out[i]`` = max of the values from position ``i`` on."""
        return np.maximum.accumulate(values[self.order][::-1])[::-1]


class ServeReference:
    """Expected rows for every query shape of the serve workloads.

    :meth:`expect` answers from per-column sorted indexes (2 000 checks
    by boolean masks over a million rows would cost more than the run);
    :meth:`brute` is the definition it must agree with, which
    ``test_smoke.py`` asserts.
    """

    def __init__(self, columns: Columns) -> None:
        self.columns = columns
        self._memo: Dict[tuple, object] = {}

    def _cached(self, key: tuple, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def _by(self, column: str) -> _FilterIndex:
        return self._cached(
            ("index", column), lambda: _FilterIndex(self.columns[column])
        )

    def _values(self, expr: str) -> np.ndarray:
        """``"a5+a6"`` → the per-row value of that expression."""
        return sum(self.columns[name] for name in expr.split("+"))

    def _sum_from(self, column: str, expr: str, start: int) -> float:
        """Sum of ``expr`` over the rows from ``start`` on, in the order
        of ``column``."""
        sums = self._cached(
            ("sum", column, expr),
            lambda: self._by(column).running_sum(self._values(expr)),
        )
        return float(sums[-1] - sums[start])

    def _max_from(self, column: str, expr: str, start: int) -> float:
        maxes = self._cached(
            ("max", column, expr),
            lambda: self._by(column).suffix_max(self._values(expr)),
        )
        return float(maxes[start])

    def expect(self, op: QueryOp) -> Rows:
        shape = op.shape
        if shape == "agg3":  # sum(a2), max(a3), count(*) WHERE a4 > lit
            by = self._by("a4")
            start = by.gt(op.literals[0])
            return [
                [
                    self._sum_from("a4", "a2", start),
                    self._max_from("a4", "a3", start),
                    float(by.rows - start),
                ]
            ]
        if shape == "expr":  # sum(a5 + a6) WHERE a7 > lit
            start = self._by("a7").gt(op.literals[0])
            return [[self._sum_from("a7", "a5+a6", start)]]
        if shape == "filter":  # sum(a3 + a4), max(a5) WHERE a6 > lit
            start = self._by("a6").gt(op.literals[0])
            return [
                [
                    self._sum_from("a6", "a3+a4", start),
                    self._max_from("a6", "a5", start),
                ]
            ]
        if shape == "pruned":  # sum(a2), count(*) WHERE a1 < lit
            stop = self._by("a1").lt(op.literals[0])
            total = self._sum_from("a1", "a2", 0) - self._sum_from("a1", "a2", stop)
            return [[total, float(stop)]]
        if shape == "conj":  # count(*) WHERE a7 > lit AND a8 < 0
            by = self._cached(
                ("index", "a7 where a8<0"),
                lambda: _FilterIndex(self.columns["a7"][self.columns["a8"] < 0]),
            )
            return [[float(by.rows - by.gt(op.literals[0]))]]
        return self.brute(op)

    def brute(self, op: QueryOp) -> Rows:
        """The same answers straight from boolean masks."""
        c = self.columns
        shape, lits = op.shape, op.literals

        def agg(mask, *cells):
            return [[float(cell(mask)) for cell in cells]]

        if shape == "agg3":
            return agg(
                c["a4"] > lits[0],
                lambda m: c["a2"][m].sum(),
                lambda m: c["a3"][m].max(),
                lambda m: m.sum(),
            )
        if shape == "expr":
            return agg(
                c["a7"] > lits[0], lambda m: (c["a5"] + c["a6"])[m].sum()
            )
        if shape == "proj":
            mask = c["a10"] == lits[0]
            return np.column_stack([c["a8"][mask], c["a9"][mask]]).tolist()
        if shape == "conj2":
            return agg(
                (c["a11"] > lits[0]) & (c["a12"] < lits[1]), lambda m: m.sum()
            )
        if shape == "conj":
            return agg((c["a7"] > lits[0]) & (c["a8"] < 0), lambda m: m.sum())
        if shape == "pruned":
            return agg(
                c["a1"] < lits[0], lambda m: c["a2"][m].sum(), lambda m: m.sum()
            )
        if shape == "filter":
            return agg(
                c["a6"] > lits[0],
                lambda m: (c["a3"] + c["a4"])[m].sum(),
                lambda m: c["a5"][m].max(),
            )
        if shape == "full":
            return [
                [
                    float((c["a2"] + c["a3"]).sum()),
                    float(c["a4"].max()),
                    float(c["a5"].min()),
                ]
            ]
        raise ValueError(f"no reference for shape {shape!r}")


def rows_equal(got: Sequence[Sequence[float]], expected: Rows) -> bool:
    if len(got) != len(expected):
        return False
    return all(
        len(g) == len(e) and all(float(x) == y for x, y in zip(g, e))
        for g, e in zip(got, expected)
    )


class IngestLedger:
    """What ``SELECT count(*), sum(a2)`` must return after ``k`` batches.

    One writer appends in order, so the table is always the base plus a
    prefix of the batches; a reader's answer is right iff it names one
    prefix, and that prefix lies between the batches acknowledged before
    the query was sent and those submitted before its reply arrived.
    """

    def __init__(self, base: Columns) -> None:
        self.base_rows = len(base["a2"])
        self._sums = [int(base["a2"].sum())]
        #: Written by the writer thread only, read by the reader.
        self.submitted = 0
        self.acked = 0

    def note_submitted(self, op: AppendOp) -> None:
        self._sums.append(self._sums[-1] + sum(op.columns["a2"]))
        self.submitted += 1

    def batches_in(self, row: Sequence[float]) -> int:
        """The prefix length ``row`` describes, or -1 if it names none."""
        extra = int(row[0]) - self.base_rows
        if extra < 0 or extra % BATCH_ROWS or float(row[0]) != int(row[0]):
            return -1
        k = extra // BATCH_ROWS
        if k >= len(self._sums) or float(row[1]) != float(self._sums[k]):
            return -1
        return k

    def expect(self, batches: int) -> Rows:
        return [
            [
                float(self.base_rows + batches * BATCH_ROWS),
                float(self._sums[batches]),
            ]
        ]
