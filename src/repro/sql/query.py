"""The Query object and its access-pattern signature.

A :class:`Query` is one select-project-aggregate statement over a single
table.  Beyond carrying the AST, it computes the two attribute sets that
drive every adaptive decision in H2O (paper section 3.2): the attributes
accessed in the SELECT clause and the attributes accessed in the WHERE
clause.  H2O keeps these separate — they feed two distinct affinity
matrices and may be materialized as distinct column groups so that, e.g.,
a predicate group can produce a selection vector (Fig. 6).

:class:`QuerySignature` is the hashable shape of a query used by the
monitor (pattern frequency), the advisor (candidate generation), and the
operator cache (kernel reuse across structurally identical queries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Optional, Tuple

from ..errors import AnalysisError
from .expressions import Expr, flatten_conjuncts


@dataclass(frozen=True)
class OutputColumn:
    """One item of the SELECT list: an expression and an output name."""

    expr: Expr
    alias: Optional[str] = None

    @property
    def name(self) -> str:
        """Name of this column in the result (alias or rendered SQL)."""
        return self.alias if self.alias is not None else self.expr.to_sql()

    def to_sql(self) -> str:
        sql = self.expr.to_sql()
        if self.alias is not None:
            sql += f" AS {self.alias}"
        return sql


class QuerySignature:
    """The access-pattern shape of a query.

    Two queries with the same signature touch the same attributes in the
    same clauses and have structurally identical output expressions and
    predicates, so they can share a generated operator and they count as
    the same pattern for monitoring purposes.

    The ``structure`` tuple (rendered SQL of outputs and predicate) is
    computed lazily: the per-query monitoring hot path only consults the
    attribute sets, while structure is needed by the cost model's shape
    cache, the advisor, and signature equality — all of which run off
    the hot path.  Equality and hashing include the structure, so the
    semantics match the former eager implementation exactly.
    """

    __slots__ = ("select_attrs", "where_attrs", "_select", "_where",
                 "_structure")

    def __init__(
        self,
        select_attrs: FrozenSet[str],
        where_attrs: FrozenSet[str],
        structure: Optional[Tuple[str, ...]] = None,
        select: Tuple["OutputColumn", ...] = (),
        where: Optional[Expr] = None,
    ) -> None:
        self.select_attrs = select_attrs
        self.where_attrs = where_attrs
        self._structure = tuple(structure) if structure is not None else None
        self._select = tuple(select)
        self._where = where

    @property
    def structure(self) -> Tuple[str, ...]:
        """Rendered output/predicate SQL (computed on first access)."""
        if self._structure is None:
            parts = tuple(out.expr.to_sql() for out in self._select)
            if self._where is not None:
                parts += ("WHERE", self._where.to_sql())
            self._structure = parts
        return self._structure

    @property
    def all_attrs(self) -> FrozenSet[str]:
        return self.select_attrs | self.where_attrs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuerySignature):
            return NotImplemented
        return (
            self.select_attrs == other.select_attrs
            and self.where_attrs == other.where_attrs
            and self.structure == other.structure
        )

    def __hash__(self) -> int:
        return hash((self.select_attrs, self.where_attrs, self.structure))

    def __repr__(self) -> str:
        return (
            f"QuerySignature(select_attrs={set(self.select_attrs)!r}, "
            f"where_attrs={set(self.where_attrs)!r}, "
            f"structure={self.structure!r})"
        )


@dataclass(frozen=True)
class Query:
    """A select-project-aggregate query over one table.

    Parameters
    ----------
    table:
        Name of the relation scanned.
    select:
        Output columns, in order.  Either all of them contain aggregates
        (an aggregation query returning one row) or none of them do
        (a projection query returning one row per qualifying tuple).
    where:
        Optional boolean predicate; ``None`` means no WHERE clause.
    """

    table: str
    select: Tuple[OutputColumn, ...]
    where: Optional[Expr] = None
    _signature_cache: "list" = field(
        default_factory=list, compare=False, hash=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.select:
            raise AnalysisError("a query must select at least one column")
        agg_flags = {out.expr.contains_aggregate() for out in self.select}
        if agg_flags == {True, False}:
            raise AnalysisError(
                "cannot mix aggregate and non-aggregate output columns "
                "(the engine has no GROUP BY)"
            )
        if self.where is not None and self.where.contains_aggregate():
            raise AnalysisError("aggregates are not allowed in WHERE")

    # Access-pattern views ---------------------------------------------
    #
    # The attribute sets are consulted several times per query on the
    # engine's hot path (monitoring, shift detection, candidate match);
    # they are pure functions of the frozen AST, so they are computed
    # once per Query instance (``cached_property`` writes straight into
    # ``__dict__``, which a frozen dataclass permits).

    @cached_property
    def is_aggregation(self) -> bool:
        """Whether this query returns one aggregated row."""
        return self.select[0].expr.contains_aggregate()

    @cached_property
    def select_attributes(self) -> FrozenSet[str]:
        """Attributes referenced anywhere in the SELECT clause."""
        names: set = set()
        for out in self.select:
            names |= out.expr.columns()
        return frozenset(names)

    @cached_property
    def where_attributes(self) -> FrozenSet[str]:
        """Attributes referenced in the WHERE clause."""
        if self.where is None:
            return frozenset()
        return self.where.columns()

    @cached_property
    def attributes(self) -> FrozenSet[str]:
        """All attributes this query touches."""
        return self.select_attributes | self.where_attributes

    @cached_property
    def predicates(self) -> Tuple[Expr, ...]:
        """Top-level AND-ed conjuncts of the WHERE clause."""
        return flatten_conjuncts(self.where)

    @cached_property
    def literals(self) -> Tuple[object, ...]:
        """The canonical runtime-parameter vector (see
        :func:`repro.sql.signature.query_literals`): one AST walk per
        query, shared by the shape signature, the code generator and the
        fast lane's kernel call."""
        from .signature import collect_literals

        return tuple(collect_literals(self))

    def signature(self) -> QuerySignature:
        """The hashable access-pattern shape of this query (cached)."""
        if not self._signature_cache:
            self._signature_cache.append(
                QuerySignature(
                    select_attrs=self.select_attributes,
                    where_attrs=self.where_attributes,
                    select=self.select,
                    where=self.where,
                )
            )
        return self._signature_cache[0]

    def shape_signature(self):
        """The literal-masked canonical shape of this query (cached).

        This is the plan-cache key of the engine's steady-state fast
        lane: two queries with equal shape signatures can share one
        access plan and one compiled kernel, re-binding only literals.
        See :mod:`repro.sql.signature`.
        """
        if len(self._signature_cache) < 2:
            from .signature import shape_signature

            self.signature()  # ensure slot 0 holds the access signature
            self._signature_cache.append(shape_signature(self))
        return self._signature_cache[1]

    def to_sql(self) -> str:
        """Render the query back to SQL-subset text."""
        cols = ", ".join(out.to_sql() for out in self.select)
        sql = f"SELECT {cols} FROM {self.table}"
        if self.where is not None:
            sql += f" WHERE {self.where.to_sql()}"
        return sql

    def __repr__(self) -> str:
        return f"Query({self.to_sql()!r})"
