"""Seeded random workload generation for the differential oracle.

A :class:`CaseSpec` is the *compact, reconstructible* description of one
oracle sequence: a seed, a schema width, a row count, and the SQL text
of every query.  Everything heavy — the table data, the parsed ASTs —
is re-derived deterministically from the spec, which is what makes
shrinking and one-line repros possible: a failing case is fully
described by ``CaseSpec(seed=…, num_attrs=…, num_rows=…, queries=…)``.

Value ranges are deliberately small (``|v| ≤ VALUE_BOUND``) so that
every aggregate over every generated sequence stays far below 2**53:
float64 represents each sum/product *exactly*, making "bit-identical
across engines" a sound oracle rather than an approximate one (the same
discipline as the service stress suite).

Queries are built through :mod:`repro.sql.builder` and the expression
AST, then round-tripped through ``to_sql()`` — the oracle feeds the SQL
text to every engine, so the parser is exercised on every generated
shape as a side effect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from ..sql.builder import QueryBuilder
from ..sql.expressions import (
    BoolConnective,
    BooleanOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    Not,
)
from ..sql.parser import parse_query
from ..sql.query import Query
from ..storage.generator import generate_table
from ..storage.relation import Table
from ..util.rng import RngLike, ensure_rng

#: Generated attribute values are drawn from [-VALUE_BOUND, VALUE_BOUND).
#: Small enough that sums of pairwise products over MAX_ROWS rows stay
#: below 2**53 (exact in float64), large enough for varied selectivities.
VALUE_BOUND = 1000

#: Hard caps keeping one oracle sequence cheap (< ~1s per engine mode).
MAX_ATTRS = 12
MAX_ROWS = 2048
MAX_QUERIES = 24

_COMPARISONS = (
    ComparisonOp.LT,
    ComparisonOp.LE,
    ComparisonOp.GT,
    ComparisonOp.GE,
    ComparisonOp.EQ,
    ComparisonOp.NE,
)


@dataclass(frozen=True)
class CaseSpec:
    """One oracle sequence, reconstructible from this record alone."""

    seed: int
    num_attrs: int
    num_rows: int
    queries: Tuple[str, ...]
    table_name: str = "t"

    def build_table(self) -> Table:
        """A fresh table with this spec's (deterministic) data.

        Every engine mode gets its *own* table built from the same
        spec: identical bytes, independent physical evolution.  Even
        seeds start column-major, odd seeds row-major: from a row-major
        base a tailored group wins filtered queries too, so half the
        sequences keep the advisor and the online stitch busy.
        """
        return generate_table(
            self.table_name,
            num_attrs=self.num_attrs,
            num_rows=self.num_rows,
            rng=np.random.default_rng(self.seed),
            initial_layout="row" if self.seed % 2 else "column",
            low=-VALUE_BOUND,
            high=VALUE_BOUND,
        )

    def parsed(self) -> List[Query]:
        """The query ASTs (parsed back from the canonical SQL text)."""
        return [parse_query(sql) for sql in self.queries]

    @property
    def ops(self) -> List[Tuple[str, str]]:
        """The sequence as a query-only op stream of the oracle's
        replay (scenario streams also carry appends)."""
        return [("query", sql) for sql in self.queries]

    def with_queries(self, queries: Tuple[str, ...]) -> "CaseSpec":
        return replace(self, queries=tuple(queries))

    def describe(self) -> str:
        return (
            f"CaseSpec(seed={self.seed}, attrs={self.num_attrs}, "
            f"rows={self.num_rows}, queries={len(self.queries)})"
        )


# Query generation -----------------------------------------------------------


def _random_column(rng: np.random.Generator, attrs: Tuple[str, ...]) -> str:
    return attrs[int(rng.integers(0, len(attrs)))]


def _random_value_expr(
    rng: np.random.Generator, attrs: Tuple[str, ...]
) -> Expr:
    """A column, or a binary arithmetic over two columns / a literal.

    Depth is capped at one binary operator so products stay ≤
    ``VALUE_BOUND**2`` and sums over ``MAX_ROWS`` rows remain exactly
    representable in float64.
    """
    kind = int(rng.integers(0, 4))
    left = ColumnRef(_random_column(rng, attrs))
    if kind == 0:
        return left
    if kind == 1:
        return left + ColumnRef(_random_column(rng, attrs))
    if kind == 2:
        return left - ColumnRef(_random_column(rng, attrs))
    if int(rng.integers(0, 2)):
        return left * ColumnRef(_random_column(rng, attrs))
    return left + Literal(int(rng.integers(-VALUE_BOUND, VALUE_BOUND)))


def _random_comparison(
    rng: np.random.Generator, attrs: Tuple[str, ...]
) -> Expr:
    column = ColumnRef(_random_column(rng, attrs))
    op = _COMPARISONS[int(rng.integers(0, len(_COMPARISONS)))]
    # Bias literals toward the value range's interior so predicates have
    # varied selectivity (including empty and full results at the tails).
    literal = Literal(int(rng.integers(-VALUE_BOUND - 200, VALUE_BOUND + 200)))
    return Comparison(op, column, literal)


def _random_conjunct(
    rng: np.random.Generator, attrs: Tuple[str, ...]
) -> Expr:
    kind = int(rng.integers(0, 5))
    if kind <= 2:
        return _random_comparison(rng, attrs)
    if kind == 3:
        return Not(_random_comparison(rng, attrs))
    return BooleanOp(
        BoolConnective.OR,
        _random_comparison(rng, attrs),
        _random_comparison(rng, attrs),
    )


def random_query(rng: RngLike, attrs: Tuple[str, ...], table: str = "t") -> Query:
    """One random SELECT/WHERE/aggregate query over ``attrs``.

    ~70% aggregations (the paper's workload shape), ~30% projections;
    zero to three AND-ed conjuncts mixing plain comparisons, ``NOT``,
    and ``OR`` pairs.  Hot shapes recur naturally across a sequence
    because the attribute pool is small — which is what drives the
    advisor, the reorganizer and the plan cache during oracle runs.
    """
    rng = ensure_rng(rng)
    builder = QueryBuilder(table)
    if rng.random() < 0.7:
        num_outputs = int(rng.integers(1, 4))
        for _ in range(num_outputs):
            agg = int(rng.integers(0, 5))
            if agg == 0:
                builder.select_sum(_random_value_expr(rng, attrs))
            elif agg == 1:
                builder.select_min(_random_value_expr(rng, attrs))
            elif agg == 2:
                builder.select_max(_random_value_expr(rng, attrs))
            elif agg == 3:
                builder.select_count()
            else:
                builder.select_avg(_random_value_expr(rng, attrs))
    else:
        num_outputs = int(rng.integers(1, 4))
        for _ in range(num_outputs):
            if rng.random() < 0.6:
                builder.select(_random_column(rng, attrs))
            else:
                builder.select(_random_value_expr(rng, attrs))
    for _ in range(int(rng.integers(0, 4))):
        builder.where(_random_conjunct(rng, attrs))
    return builder.build()


def random_case(
    seed: int,
    *,
    max_attrs: int = MAX_ATTRS,
    max_rows: int = MAX_ROWS,
    max_queries: int = MAX_QUERIES,
    table_name: str = "t",
) -> CaseSpec:
    """A complete random sequence spec, fully determined by ``seed``."""
    rng = np.random.default_rng(seed)
    num_attrs = int(rng.integers(4, max_attrs + 1))
    num_rows = int(rng.integers(128, max_rows + 1))
    num_queries = int(rng.integers(6, max_queries + 1))
    attrs = tuple(f"a{i}" for i in range(1, num_attrs + 1))
    queries = tuple(
        random_query(rng, attrs, table=table_name).to_sql()
        for _ in range(num_queries)
    )
    return CaseSpec(
        seed=seed,
        num_attrs=num_attrs,
        num_rows=num_rows,
        queries=queries,
        table_name=table_name,
    )


def max_referenced_attr(spec: CaseSpec) -> Optional[int]:
    """Highest ``aN`` index any query references (None if none do)."""
    highest = None
    for query in spec.parsed():
        for name in query.attributes:
            if name.startswith("a"):
                try:
                    index = int(name[1:])
                except ValueError:
                    continue
                if highest is None or index > highest:
                    highest = index
    return highest
