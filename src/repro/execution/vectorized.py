"""Interpreted late-materialization execution (column-store style).

Follows the evaluation procedure of paper section 2.1 exactly:

1. evaluate the first predicate over its full column(s), producing a
   selection vector of qualifying positions;
2. for each further conjunct, *fetch* the qualifying values of its
   columns into new intermediate columns, evaluate, and refine the
   selection vector;
3. gather the SELECT-clause columns at the final positions and compute
   the output expressions, materializing one intermediate per operator;
4. aggregate or emit the row-major result.

The per-step materialization cost is tracked and surfaced — it is the
central overhead that makes column-major execution lose to groups when
many attributes are accessed (Fig. 2, Fig. 10c).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..sql.analyzer import QueryInfo
from ..sql.expressions import (
    Arithmetic,
    ArithmeticOp,
    ColumnRef,
    Expr,
    Literal,
)
from ..storage.layout import Layout
from .evaluator import (
    AggregateAccumulator,
    collect_aggregates,
    evaluate_predicate,
)
from .selection import SelectionVector
from .strategies import narrowest_providers
from .volcano import projection_dtype


class _MaterializingEvaluator:
    """Evaluates value expressions with explicit per-op intermediates."""

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        self._columns = columns
        self.intermediate_bytes = 0

    def evaluate(self, expr: Expr) -> np.ndarray:
        if isinstance(expr, Literal):
            return np.asarray(expr.value)
        if isinstance(expr, ColumnRef):
            return self._columns[expr.name]
        if isinstance(expr, Arithmetic):
            left = self.evaluate(expr.left)
            right = self.evaluate(expr.right)
            if expr.op is ArithmeticOp.ADD:
                out = left + right
            elif expr.op is ArithmeticOp.SUB:
                out = left - right
            else:
                out = left * right
            if isinstance(out, np.ndarray) and out.ndim:
                self.intermediate_bytes += int(out.nbytes)
            return out
        raise ExecutionError(f"cannot evaluate {expr!r} late")


def _provider_columns(
    layouts: Sequence[Layout], attrs: Sequence[str]
) -> Dict[str, np.ndarray]:
    """Full column per attribute, each from its narrowest provider."""
    narrowest = narrowest_providers(layouts)
    columns: Dict[str, np.ndarray] = {}
    for attr in attrs:
        if attr not in narrowest:
            raise ExecutionError(f"attribute {attr!r} not stored")
        columns[attr] = layouts[narrowest[attr]].column(attr)
    return columns


def run_late_interpreted(
    info: QueryInfo, layouts: Sequence[Layout], lo: int, hi: int
) -> Tuple[object, int]:
    """Run interpreted late materialization over the morsel ``[lo, hi)``.

    Returns ``(partial, intermediate_bytes)`` for the morsel driver: the
    ``(qualifying_count, states)`` payload of an aggregation or the
    morsel's output block of a projection, and the total bytes of
    intermediates (selection vectors, gathered columns, per-op arrays)
    materialized on the way.
    """
    columns = {
        name: column[lo:hi]
        for name, column in _provider_columns(
            layouts, info.all_attrs
        ).items()
    }
    selection = SelectionVector.all_rows(hi - lo)

    # Phase 1: predicate conjuncts refine the selection vector in turn.
    for conjunct in info.query.predicates:
        gathered = {
            name: selection.gather(columns[name])
            for name in conjunct.columns()
        }
        mask = evaluate_predicate(
            conjunct, gathered.__getitem__, selection.count
        )
        selection = selection.refine(mask)

    # Phase 2: gather SELECT-clause columns at the qualifying positions.
    select_values = {
        name: selection.gather(columns[name]) for name in info.select_attrs
    }
    evaluator = _MaterializingEvaluator(select_values)
    count = selection.count

    if info.is_aggregation:
        states = []
        for agg in collect_aggregates(info.query.select):
            state = AggregateAccumulator(agg.func)
            if agg.arg is None:
                state.update(None, count)
            else:
                values = evaluator.evaluate(agg.arg)
                state.update(values, count)
            states.append(state.state())
        partial = (count, tuple(states))
        intermediate = 0
    else:
        partial = np.empty(
            (count, len(info.query.select)), dtype=projection_dtype(info)
        )
        for position, out in enumerate(info.query.select):
            partial[:, position] = evaluator.evaluate(out.expr)
        intermediate = int(partial.nbytes)

    intermediate += selection.materialized_bytes + evaluator.intermediate_bytes
    return partial, intermediate
