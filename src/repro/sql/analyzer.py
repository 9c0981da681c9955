"""Semantic analysis of queries against a schema.

:func:`analyze_query` validates a parsed/built query against the queried
relation's schema and returns a :class:`QueryInfo` that downstream
components (planner, cost model, codegen) consume: resolved attribute
lists in schema order, result data types, and the query's classification
(projection vs. aggregation, filtered vs. full scan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import AnalysisError
from ..sql.types import DataType
from .expressions import (
    Aggregate,
    AggregateFunc,
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    Not,
)
from .query import Query

# ``Schema`` lives in repro.storage; importing it here would create a
# package cycle, so the analyzer accepts any object with ``names`` (a
# sequence of attribute names) and ``dtype_of(name) -> DataType``.


@dataclass(frozen=True)
class QueryInfo:
    """Resolved facts about one query, ready for planning.

    Attributes
    ----------
    query:
        The analyzed query.
    select_attrs / where_attrs / all_attrs:
        Referenced attributes in schema order (deterministic, unlike the
        frozensets on :class:`Query`).
    output_types:
        Result :class:`DataType` for each output column, in order.
    is_aggregation:
        True when the query returns one aggregated row.
    has_predicate:
        True when the query has a WHERE clause.
    """

    query: Query
    select_attrs: Tuple[str, ...]
    where_attrs: Tuple[str, ...]
    all_attrs: Tuple[str, ...]
    output_types: Tuple[DataType, ...]
    is_aggregation: bool
    has_predicate: bool

    def for_query(self, query: Query) -> "QueryInfo":
        """These facts for another query of the same shape — a
        plan-cache hit's own query, whose literals differ.  Built
        directly: a hit pays this on every query, and
        :func:`dataclasses.replace` introspects every field."""
        return QueryInfo(
            query,
            self.select_attrs,
            self.where_attrs,
            self.all_attrs,
            self.output_types,
            self.is_aggregation,
            self.has_predicate,
        )


def expression_type(expr: Expr, schema) -> DataType:
    """Infer the value type of an arithmetic/aggregate expression."""
    if isinstance(expr, Literal):
        return (
            DataType.INT64 if isinstance(expr.value, int) else DataType.FLOAT64
        )
    if isinstance(expr, ColumnRef):
        return schema.dtype_of(expr.name)
    if isinstance(expr, Arithmetic):
        return DataType.common(
            expression_type(expr.left, schema),
            expression_type(expr.right, schema),
        )
    if isinstance(expr, Aggregate):
        if expr.func is AggregateFunc.COUNT:
            return DataType.INT64
        inner = expression_type(expr.arg, schema)
        if expr.func is AggregateFunc.AVG:
            return DataType.FLOAT64
        return inner
    if isinstance(expr, (Comparison, BooleanOp, Not)):
        raise AnalysisError(
            f"boolean expression used where a value is required: "
            f"{expr.to_sql()}"
        )
    raise AnalysisError(f"cannot type expression {expr!r}")


def _check_boolean(expr: Expr, schema) -> None:
    """Validate that ``expr`` is a well-formed boolean predicate."""
    if isinstance(expr, Comparison):
        expression_type(expr.left, schema)
        expression_type(expr.right, schema)
        return
    if isinstance(expr, BooleanOp):
        _check_boolean(expr.left, schema)
        _check_boolean(expr.right, schema)
        return
    if isinstance(expr, Not):
        _check_boolean(expr.child, schema)
        return
    raise AnalysisError(
        f"WHERE clause must be a boolean expression, got {expr.to_sql()}"
    )


def analyze_query(query: Query, schema) -> QueryInfo:
    """Validate ``query`` against ``schema`` and resolve its access info.

    Raises :class:`~repro.errors.AnalysisError` for unknown attributes or
    type-incorrect clauses.
    """
    known = set(schema.names)
    unknown = sorted(query.attributes - known)
    if unknown:
        raise AnalysisError(
            f"query references unknown attribute(s): {', '.join(unknown)}"
        )

    output_types = tuple(
        expression_type(out.expr, schema) for out in query.select
    )
    if query.where is not None:
        _check_boolean(query.where, schema)

    order = {name: i for i, name in enumerate(schema.names)}

    def ordered(names) -> Tuple[str, ...]:
        return tuple(sorted(names, key=order.__getitem__))

    return QueryInfo(
        query=query,
        select_attrs=ordered(query.select_attributes),
        where_attrs=ordered(query.where_attributes),
        all_attrs=ordered(query.attributes),
        output_types=output_types,
        is_aggregation=query.is_aggregation,
        has_predicate=query.where is not None,
    )
