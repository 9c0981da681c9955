"""Generic (interpreted) expression evaluation.

This is the "generic database operator" of the paper's Fig. 14: a
tree-walking evaluator that dispatches on node type for every vector and
materializes a fresh intermediate array for every operator.  It is
deliberately *not* specialized — that overhead is the thing the
on-the-fly generated operators (:mod:`repro.codegen`) remove.

The evaluator is also the semantic reference: generated kernels must
produce bit-identical results to it (integration tests enforce this).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..sql.expressions import (
    Aggregate,
    AggregateFunc,
    Arithmetic,
    ArithmeticOp,
    BoolConnective,
    BooleanOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    Not,
)

Resolver = Callable[[str], np.ndarray]

_ARITH_FUNCS = {
    ArithmeticOp.ADD: np.add,
    ArithmeticOp.SUB: np.subtract,
    ArithmeticOp.MUL: np.multiply,
}

_CMP_FUNCS = {
    ComparisonOp.LT: np.less,
    ComparisonOp.LE: np.less_equal,
    ComparisonOp.GT: np.greater,
    ComparisonOp.GE: np.greater_equal,
    ComparisonOp.EQ: np.equal,
    ComparisonOp.NE: np.not_equal,
}


def evaluate_value(expr: Expr, resolve: Resolver) -> np.ndarray:
    """Evaluate an arithmetic expression to an array (or 0-d scalar).

    Every Arithmetic node allocates a fresh output array — the
    full-materialization behaviour of a generic column-at-a-time
    operator (paper section 2.1: "one intermediate for a+b and one for
    the addition of the previous intermediate with c").
    """
    if isinstance(expr, Literal):
        return np.asarray(expr.value)
    if isinstance(expr, ColumnRef):
        return resolve(expr.name)
    if isinstance(expr, Arithmetic):
        left = evaluate_value(expr.left, resolve)
        right = evaluate_value(expr.right, resolve)
        return _ARITH_FUNCS[expr.op](left, right)
    if isinstance(expr, Aggregate):
        raise ExecutionError(
            "aggregate encountered during value evaluation; aggregates "
            "are computed by the aggregation operator"
        )
    raise ExecutionError(f"cannot evaluate {expr!r} as a value")


def evaluate_predicate(
    expr: Expr, resolve: Resolver, rows: Optional[int] = None
) -> np.ndarray:
    """Evaluate a boolean expression to a boolean mask array.

    A predicate that reads no column (``1 > 2``) is one constant, which
    every row shares: given the ``rows`` count, it folds to an all-false
    or all-true mask over them.
    """
    mask = _evaluate_mask(expr, resolve)
    if rows is not None and mask.ndim == 0:
        return np.full(rows, bool(mask))
    return mask


def _evaluate_mask(expr: Expr, resolve: Resolver) -> np.ndarray:
    if isinstance(expr, Comparison):
        left = evaluate_value(expr.left, resolve)
        right = evaluate_value(expr.right, resolve)
        return _CMP_FUNCS[expr.op](left, right)
    if isinstance(expr, BooleanOp):
        left = _evaluate_mask(expr.left, resolve)
        right = _evaluate_mask(expr.right, resolve)
        if expr.op is BoolConnective.AND:
            return np.logical_and(left, right)
        return np.logical_or(left, right)
    if isinstance(expr, Not):
        return np.logical_not(_evaluate_mask(expr.child, resolve))
    raise ExecutionError(f"cannot evaluate {expr!r} as a predicate")


def _fold(pick, kept: "float | None", new: float) -> float:
    """``pick`` (min or max) of two blocks' results.  A NaN on either
    side wins, as it does in numpy's reduction over all the blocks."""
    if kept is None or new != new:
        return new
    return kept if kept != kept else pick(kept, new)


class AggregateAccumulator:
    """Streaming state for one aggregate call across blocks."""

    __slots__ = ("func", "_sum", "_min", "_max")

    def __init__(self, func: AggregateFunc) -> None:
        self.func = func
        self._sum = 0.0
        self._min: "float | None" = None
        self._max: "float | None" = None

    def update(self, values: "np.ndarray | None", count: int) -> None:
        """Fold one block of qualifying values into the state.

        ``values`` is None for COUNT(*) (only the count matters) and a
        0-d array when the argument is a constant, which every one of
        the ``count`` rows carries.
        """
        if count == 0 or self.func is AggregateFunc.COUNT:
            return
        if values is None:
            raise ExecutionError(f"{self.func.value}() needs values")
        if self.func in (AggregateFunc.SUM, AggregateFunc.AVG):
            self._sum += (
                float(values.sum(dtype=np.float64))
                if values.ndim
                else float(values) * count
            )
        elif self.func is AggregateFunc.MIN:
            self._min = _fold(min, self._min, float(values.min()))
        elif self.func is AggregateFunc.MAX:
            self._max = _fold(max, self._max, float(values.max()))

    def state(self) -> "float | None":
        """This accumulator as one slot of the partial-aggregate contract
        (see :func:`repro.execution.morsel.combine_partial_aggregates`):
        COUNT → None (the shared qualifying count covers it), SUM/AVG →
        the running float sum, MIN/MAX → float or None when no row
        qualified."""
        if self.func is AggregateFunc.COUNT:
            return None
        if self.func in (AggregateFunc.SUM, AggregateFunc.AVG):
            return self._sum
        return self._min if self.func is AggregateFunc.MIN else self._max


def finalize_output(expr: Expr, agg_values: Dict[Aggregate, float]) -> float:
    """Evaluate an output expression whose aggregates are now scalars.

    Supports arithmetic *over* aggregates, e.g. ``sum(a) - min(b)``.
    """
    if isinstance(expr, Aggregate):
        return agg_values[expr]
    if isinstance(expr, Literal):
        return float(expr.value)
    if isinstance(expr, Arithmetic):
        left = finalize_output(expr.left, agg_values)
        right = finalize_output(expr.right, agg_values)
        if expr.op is ArithmeticOp.ADD:
            return left + right
        if expr.op is ArithmeticOp.SUB:
            return left - right
        return left * right
    raise ExecutionError(
        f"unsupported expression over aggregates: {expr.to_sql()}"
    )


def collect_aggregates(outputs) -> Tuple[Aggregate, ...]:
    """Unique aggregate nodes across the output expressions, in order."""
    seen: Dict[Aggregate, None] = {}
    for out in outputs:
        for agg in out.expr.aggregates():
            seen.setdefault(agg, None)
    return tuple(seen.keys())
