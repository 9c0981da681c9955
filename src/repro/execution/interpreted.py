"""The interpreted morsel functions: the "generic operator" of Fig. 14.

Each strategy of paper section 3.3 is one plain function from a morsel
``[lo, hi)`` of a layout set to the morsel's partial result, for the
morsel driver to combine (:mod:`repro.execution.morsel`):

- :func:`run_fused_interpreted`, the fused (volcano-style) scan: one
  :data:`VECTOR_ROWS`-row vector at a time, the whole WHERE clause is
  evaluated, the vector compacted to its qualifying rows and answered
  before the next is read (Fig. 5);
- :func:`run_late_interpreted`, late materialization (paper section
  2.1, Fig. 6): each conjunct is evaluated over its columns gathered at
  the positions that qualified so far, refining a position array, and
  the SELECT columns are gathered at the final positions.

Both read every attribute from its narrowest provider
(:func:`~repro.execution.strategies.narrowest_providers`, the binding
the generated kernels use), evaluate with the tree-walking evaluator of
:mod:`repro.execution.evaluator`, and answer alike: an aggregation's
partial is ``(qualifying_count, states)`` with SUM and AVG summing the
morsel's qualifying values once, in the generated kernels' order, and
MIN and MAX keeping a NaN as the kernels' one reduction does; a
projection's partial is its row-major output block.

They answer when codegen is off (the testkit oracle's ground truth),
when a compile fails and while a shape's compiles are quarantined;
every generated kernel must agree with them bit for bit.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..sql.analyzer import QueryInfo
from ..sql.expressions import AggregateFunc
from ..storage.layout import Layout
from .evaluator import (
    AggregateAccumulator,
    collect_aggregates,
    evaluate_predicate,
    evaluate_value,
)
from .result import QueryResult, projection_dtype
from .strategies import narrowest_providers

#: Rows per vector of the fused interpreter: a ~20-attribute
#: vector stays cache-resident (paper §3.3, "vectors fit in L1").  The
#: generated kernels do not use it; they work on whole morsels.
VECTOR_ROWS = 4096


def _morsel_columns(
    info: QueryInfo, layouts: Sequence[Layout], lo: int, hi: int
) -> Dict[str, np.ndarray]:
    """The ``[lo, hi)`` slice of every attribute ``info`` reads."""
    providers = narrowest_providers(layouts)
    columns = {}
    for attr in info.all_attrs:
        if attr not in providers:
            raise ExecutionError(
                f"attribute {attr!r} is not stored in any given layout"
            )
        columns[attr] = layouts[providers[attr]].column(attr)[lo:hi]
    return columns


def _partial(
    info: QueryInfo, vectors: Iterable[Tuple[int, Dict[str, np.ndarray]]]
) -> object:
    """The morsel's partial from its qualifying rows, given in order as
    ``(rows, columns)`` vectors.  Each vector is evaluated as it comes,
    so temporaries stay cache-sized; a SUM/AVG argument is summed once
    over all vectors, in the generated kernels' order."""
    select = info.query.select
    if not info.is_aggregation:
        dtype = projection_dtype(info)
        blocks = []
        for rows, columns in vectors:
            block = np.empty((rows, len(select)), dtype=dtype)
            for position, out in enumerate(select):
                block[:, position] = evaluate_value(
                    out.expr, columns.__getitem__
                )
            blocks.append(block)
        names = [out.name for out in select]
        return QueryResult.from_blocks(names, blocks, dtype).data
    aggregates = collect_aggregates(select)
    states = [AggregateAccumulator(agg.func) for agg in aggregates]
    summands = {
        index: []
        for index, agg in enumerate(aggregates)
        if agg.arg is not None
        and agg.func in (AggregateFunc.SUM, AggregateFunc.AVG)
    }
    count = 0
    for rows, columns in vectors:
        if not rows:
            continue
        count += rows
        for index, (agg, state) in enumerate(zip(aggregates, states)):
            values = (
                None if agg.arg is None
                else evaluate_value(agg.arg, columns.__getitem__)
            )
            if index in summands:
                summands[index].append(values)
            else:
                state.update(values, rows)
    for index, values in summands.items():
        if values:
            # A constant argument is one 0-d value for every vector.
            states[index].update(
                values[0] if values[0].ndim == 0 else np.concatenate(values),
                count,
            )
    return count, tuple(state.state() for state in states)


def _fused_vectors(
    info: QueryInfo, columns: Dict[str, np.ndarray], rows: int
) -> Iterator[Tuple[int, Dict[str, np.ndarray]]]:
    """The morsel's :data:`VECTOR_ROWS`-row vectors, each compacted to
    the rows that satisfy the whole WHERE clause."""
    for start in range(0, rows, VECTOR_ROWS):
        vector = {
            name: column[start : start + VECTOR_ROWS]
            for name, column in columns.items()
        }
        kept = min(VECTOR_ROWS, rows - start)
        if info.has_predicate:
            mask = evaluate_predicate(
                info.query.where, vector.__getitem__, kept
            )
            vector = {name: values[mask] for name, values in vector.items()}
            kept = int(np.count_nonzero(mask))
        yield kept, vector


def run_fused_interpreted(
    info: QueryInfo, layouts: Sequence[Layout], lo: int, hi: int
) -> object:
    """The interpreted fused scan of the morsel ``[lo, hi)``."""
    columns = _morsel_columns(info, layouts, lo, hi)
    return _partial(info, _fused_vectors(info, columns, hi - lo))


def run_late_interpreted(
    info: QueryInfo, layouts: Sequence[Layout], lo: int, hi: int
) -> object:
    """Interpreted late materialization of the morsel ``[lo, hi)``."""
    columns = _morsel_columns(info, layouts, lo, hi)
    count = hi - lo
    positions = None  # every row of the morsel qualifies
    for conjunct in info.query.predicates:
        gathered = {
            name: (
                columns[name] if positions is None
                else columns[name][positions]
            )
            for name in conjunct.columns()
        }
        mask = evaluate_predicate(conjunct, gathered.__getitem__, count)
        positions = (
            np.flatnonzero(mask) if positions is None else positions[mask]
        )
        count = len(positions)
    if positions is not None:
        columns = {
            name: columns[name][positions] for name in info.select_attrs
        }
    return _partial(info, [(count, columns)])
