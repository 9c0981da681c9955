"""Aggregation operator: streams chunks into aggregate accumulators."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...sql.expressions import Aggregate as AggregateExpr
from ...sql.expressions import AggregateFunc
from ...sql.query import OutputColumn
from ..evaluator import (
    AggregateAccumulator,
    collect_aggregates,
    evaluate_value,
    finalize_output,
)
from ..result import QueryResult
from .base import Chunk, Operator


class Aggregate(Operator):
    """Consumes its child entirely and produces the one-row result.

    Aggregate arguments are evaluated per chunk with the interpreted
    evaluator and the output expressions (which may combine several
    aggregates arithmetically) are finalized at the end.  MIN, MAX and
    COUNT fold into their accumulators chunk by chunk; SUM and AVG keep
    each chunk's values and sum them once, when the input is exhausted
    — the order the generated kernels sum a morsel in, so an inexact
    float sum carries the kernels' bits.
    """

    def __init__(
        self, child: Operator, outputs: Sequence[OutputColumn]
    ) -> None:
        self._child = child
        self._outputs = tuple(outputs)
        self._aggregates = collect_aggregates(self._outputs)
        self._accumulators: Dict[AggregateExpr, AggregateAccumulator] = {}
        self._summands: Dict[AggregateExpr, List[np.ndarray]] = {}
        self._done = False
        #: Tuples that reached the aggregate (i.e. qualified the filter
        #: below, if any) — the executor reports this as the qualifying
        #: row count so selectivity feedback also works for aggregations.
        self.rows_seen = 0

    def open(self) -> None:
        self._child.open()
        self._accumulators = {
            agg: AggregateAccumulator(agg.func) for agg in self._aggregates
        }
        self._summands = {
            agg: []
            for agg in self._aggregates
            if agg.arg is not None
            and agg.func in (AggregateFunc.SUM, AggregateFunc.AVG)
        }
        self._done = False
        self.rows_seen = 0

    def next_chunk(self) -> Optional[Chunk]:
        if self._done:
            return None
        while True:
            chunk = self._child.next_chunk()
            if chunk is None:
                break
            self.rows_seen += chunk.num_rows
            for agg, state in self._accumulators.items():
                if agg.arg is None:  # COUNT(*)
                    state.update(None, chunk.num_rows)
                    continue
                values = evaluate_value(agg.arg, chunk.col)
                summands = self._summands.get(agg)
                if summands is None:
                    state.update(values, chunk.num_rows)
                else:
                    summands.append(values)
        for agg, summands in self._summands.items():
            if summands:
                # A constant argument is one 0-d value for every chunk.
                values = (
                    summands[0]
                    if summands[0].ndim == 0
                    else np.concatenate(summands)
                )
                self._accumulators[agg].update(values, self.rows_seen)
        self._done = True
        return Chunk(num_rows=1, columns={})

    def partial(self) -> Tuple[int, tuple]:
        """The ``(qualifying_count, states)`` partial of the rows consumed
        (after exhaustion), for the morsel driver's in-order combine."""
        return self.rows_seen, tuple(
            state.state() for state in self._accumulators.values()
        )

    def result(self) -> QueryResult:
        """Finalize into the one-row query result (after exhaustion)."""
        agg_values = {
            agg: state.finalize()
            for agg, state in self._accumulators.items()
        }
        values = [
            finalize_output(out.expr, agg_values) for out in self._outputs
        ]
        names = [out.name for out in self._outputs]
        return QueryResult.scalar_row(names, values)

    def close(self) -> None:
        self._child.close()
