"""Canonical query-shape signatures: literals masked, structure kept.

The steady-state fast lane (and the operator cache before it) relies on
one idea from the paper's section 3.4: two queries that differ only in
their constants are *the same work* — they can share a compiled
operator, a chosen access plan, and a costing decision, with the
constants re-bound at run time.  This module is the single source of
truth for that equivalence:

- :func:`masked_sql` renders an expression with every literal replaced
  by ``?`` (pre-order, matching the parameter-collection order of the
  code generator);
- :func:`query_literals` extracts a query's literal values in exactly
  that canonical order (walked once per query and cached as
  ``Query.literals``), so a kernel compiled for one member of a shape
  class can be invoked with any other member's constants;
- :func:`shape_signature` produces the hashable
  :class:`QueryShapeSignature` that keys the engine's plan cache.
- :class:`ShapeTemplate` re-binds a repeat's numbers into the tree of
  its shape's first parse (the parser's shape table).

``repro.codegen`` consumes these helpers for its operator-cache key;
``repro.core.planner`` consumes them for the plan cache.  Keeping them
here (in ``repro.sql``) keeps the dependency arrow one-directional:
sql ← codegen, sql ← core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from .expressions import (
    Aggregate,
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    Not,
    Scalar,
)
from .query import OutputColumn, Query


def masked_sql(
    expr: Expr, column: Optional[Callable[[str], str]] = None
) -> str:
    """Render ``expr`` with every literal replaced by ``?``.

    Pre-order traversal matching the compiler's parameter collection
    order, so two expressions with equal masked SQL bind their parameter
    vectors compatibly — this string is the structural part of the
    plan-cache signature.  ``column`` respells attribute names (the
    operator cache spells them as the kernel's column slots).  The
    fast lane renders every repeat query's signature, so dispatch is an
    exact-type chain and operators are spelled from ``Enum._value_``
    (no descriptor call per node).
    """
    kind = type(expr)
    if kind is Literal:
        return "?"
    if kind is ColumnRef:
        return expr.name if column is None else column(expr.name)
    if kind is Comparison:
        return (
            f"{masked_sql(expr.left, column)} {expr.op._value_} "
            f"{masked_sql(expr.right, column)}"
        )
    if kind is BooleanOp:
        return (
            f"({masked_sql(expr.left, column)} "
            f"{expr.op._value_.upper()} {masked_sql(expr.right, column)})"
        )
    if kind is Arithmetic:
        return (
            f"({masked_sql(expr.left, column)} {expr.op._value_} "
            f"{masked_sql(expr.right, column)})"
        )
    if kind is Aggregate:
        arg = "*" if expr.arg is None else masked_sql(expr.arg, column)
        return f"{expr.func._value_}({arg})"
    if kind is Not:
        return f"NOT ({masked_sql(expr.child, column)})"
    raise AnalysisError(f"cannot mask {expr!r}")


def _walk_literals(expr: Expr, out: List[Literal]) -> None:
    """Pre-order literal collection (the nodes)."""
    kind = type(expr)
    if kind is Literal:
        out.append(expr)
    elif kind is ColumnRef:
        pass
    elif kind is Arithmetic or kind is Comparison or kind is BooleanOp:
        _walk_literals(expr.left, out)
        _walk_literals(expr.right, out)
    elif kind is Not:
        _walk_literals(expr.child, out)
    elif kind is Aggregate:
        if expr.arg is not None:
            _walk_literals(expr.arg, out)
    else:
        raise AnalysisError(f"cannot collect literals from {expr!r}")


def literal_count(expr: Expr) -> int:
    """How many canonical-vector slots ``expr``'s literals take."""
    literals: List[Literal] = []
    _walk_literals(expr, literals)
    return len(literals)


def _unique_aggregates(query: Query) -> Tuple[Aggregate, ...]:
    """Unique aggregate nodes across the outputs, in first-seen order.

    Mirrors ``repro.execution.evaluator.collect_aggregates`` exactly
    (structural dedup): the templates emit one accumulator per *unique*
    aggregate, so the canonical literal order must dedup the same way.
    """
    seen: Dict[Aggregate, None] = {}
    for out in query.select:
        for agg in out.expr.aggregates():
            seen.setdefault(agg, None)
    return tuple(seen.keys())


def collect_literals(query: Query) -> List[object]:
    """One pre-order literal walk; prefer the cached ``Query.literals``."""
    return [node.value for node in literal_nodes(query)]


def literal_nodes(query: Query) -> List[Literal]:
    """The :class:`Literal` nodes behind ``query``'s canonical vector."""
    literals: List[Literal] = []
    for conjunct in query.predicates:
        _walk_literals(conjunct, literals)
    # Literals in arithmetic *over* aggregates (``sum(a) * 2``) are not
    # kernel parameters: kernels return raw aggregate states and the
    # scan driver finalizes the output expressions from the query itself.
    for expr in (
        _unique_aggregates(query)
        if query.is_aggregation
        else [out.expr for out in query.select]
    ):
        _walk_literals(expr, literals)
    return literals


def query_literals(query: Query) -> List[object]:
    """The canonical runtime-parameter vector of one query.

    The order mirrors template emission exactly: predicate conjuncts
    first (pre-order each), then — for aggregations — the unique
    aggregate arguments in collection order; for projections, the
    output expressions in order.  Two queries of one shape signature
    bind a kernel compiled for either with their own vector.
    """
    return list(query.literals)


@dataclass(frozen=True)
class QueryShapeSignature:
    """The literal-independent identity of a query.

    Two queries with equal shape signatures touch the same table with
    structurally identical SELECT and WHERE clauses whose literals have
    the same Python types (int vs. float changes output dtypes and
    compiled parameter handling, so types are part of the shape).  The
    ``param_types`` tuple also disambiguates shapes whose *masked* text
    collides but whose aggregate dedup differs (``sum(a + 1), sum(a +
    1)`` folds to one accumulator, ``sum(a + 1), sum(a + 2)`` to two).
    """

    table: str
    masked_select: Tuple[str, ...]
    masked_where: Optional[str]
    param_types: Tuple[str, ...]


def shape_signature(query: Query) -> QueryShapeSignature:
    """Compute the canonical :class:`QueryShapeSignature` of ``query``.

    Prefer :meth:`repro.sql.query.Query.shape_signature`, which caches
    the result on the query object.
    """
    masked_select = tuple(masked_sql(out.expr) for out in query.select)
    masked_where = (
        masked_sql(query.where) if query.where is not None else None
    )
    param_types = tuple(
        type(value).__name__ for value in query.literals
    )
    return QueryShapeSignature(
        table=query.table,
        masked_select=masked_select,
        masked_where=masked_where,
        param_types=param_types,
    )


# Re-binding a shape ----------------------------------------------------------

Binder = Callable[[Sequence[Scalar]], Expr]


def _binder(node: Expr, slots: Dict[int, Tuple[int, bool]]) -> Optional[Binder]:
    """Rebuild ``node`` from one repeat's token numbers, or None when
    ``node`` holds no slot (a repeat then shares it: nodes are frozen).

    The constructors run as in a parse, so a bound tree is an ordinary
    one; only slot-free subtrees (columns, the ``0`` of ``-x``) are
    shared with the first parse.
    """
    kind = type(node)
    if kind is Literal:
        origin = slots.get(id(node))
        if origin is None:
            return None
        slot, negated = origin
        if negated:
            return lambda values: Literal(-values[slot])
        return lambda values: Literal(values[slot])
    if kind is Arithmetic or kind is Comparison or kind is BooleanOp:
        op, left, right = node.op, node.left, node.right
        bind_left, bind_right = _binder(left, slots), _binder(right, slots)
        if bind_left is None and bind_right is None:
            return None
        bind_left = bind_left or (lambda values: left)
        bind_right = bind_right or (lambda values: right)
        return lambda values: kind(op, bind_left(values), bind_right(values))
    if kind is Not:
        bind_child = _binder(node.child, slots)
        if bind_child is None:
            return None
        return lambda values: Not(bind_child(values))
    if kind is Aggregate and node.arg is not None:
        func, bind_arg = node.func, _binder(node.arg, slots)
        if bind_arg is None:
            return None
        return lambda values: Aggregate(func, bind_arg(values))
    return None


class ShapeTemplate:
    """One cached shape: binds a repeat's numbers into a fresh query."""

    __slots__ = ("table", "select", "where", "params", "cached", "shape")

    def __init__(
        self, query: Query, slots: Dict[int, Tuple[int, bool]]
    ) -> None:
        self.table = query.table
        self.select = tuple(
            (out, _binder(out.expr, slots)) for out in query.select
        )
        self.where = (
            query.where,
            None if query.where is None else _binder(query.where, slots),
        )
        #: ``(slot, negated, value)`` per entry of the canonical literal
        #: vector: a slot's number, or the shape's own constant.
        self.params = tuple(
            slots.get(id(node), (None, False)) + (node.value,)
            for node in literal_nodes(query)
        )
        self.shape = query.shape_signature()
        self.cached = {
            name: getattr(query, name)
            for name in (
                "is_aggregation",
                "select_attributes",
                "where_attributes",
                "attributes",
            )
        }

    def bind(self, values: Sequence[Scalar]) -> Query:
        select = tuple(
            out if bind is None else OutputColumn(bind(values), out.alias)
            for out, bind in self.select
        )
        where, bind_where = self.where
        if bind_where is not None:
            where = bind_where(values)
        query = Query(self.table, select, where)
        query.__dict__.update(self.cached)
        query.__dict__["literals"] = tuple(
            value
            if slot is None
            else (-values[slot] if negated else values[slot])
            for slot, negated, value in self.params
        )
        query.signature()  # slot 0 of the cache; the shape is slot 1
        query._signature_cache.append(self.shape)
        return query
