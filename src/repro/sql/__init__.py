"""Query representation: types, expression AST, parser, analyzer.

H2O's scope (paper section 4) is scan-based select-project-aggregate
queries over one wide relation; joins are out of scope because the data
layout has little effect on cache-conscious joins.  This package models
exactly that query class:

- :mod:`repro.sql.types` — the fixed-width value types (int64/float64),
- :mod:`repro.sql.expressions` — arithmetic / comparison / boolean /
  aggregate expression AST,
- :mod:`repro.sql.query` — the ``Query`` object plus access-pattern
  signatures used by monitoring, the advisor and the operator cache,
- :mod:`repro.sql.parser` — a small SQL-subset parser,
- :mod:`repro.sql.builder` — a fluent programmatic query builder,
- :mod:`repro.sql.analyzer` — semantic validation against a schema.
"""

from .types import DataType
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
    col,
    lit,
)
from .query import OutputColumn, Query, QuerySignature
from .parser import parse_query
from .builder import QueryBuilder
from .analyzer import analyze_query, QueryInfo
from .signature import (
    QueryShapeSignature,
    masked_sql,
    query_literals,
    shape_signature,
)

__all__ = [
    "DataType",
    "Expr",
    "ColumnRef",
    "Literal",
    "Arithmetic",
    "Comparison",
    "BooleanOp",
    "Not",
    "Aggregate",
    "AggregateFunc",
    "col",
    "lit",
    "Query",
    "OutputColumn",
    "QuerySignature",
    "parse_query",
    "QueryBuilder",
    "analyze_query",
    "QueryInfo",
    "QueryShapeSignature",
    "masked_sql",
    "query_literals",
    "shape_signature",
]
