"""Interpreted fused-scan execution (volcano pipeline).

Builds the scan → filter → project/aggregate pipeline from the generic
operators and runs it to completion.  This is the row-store / group
execution strategy in its *generic* form: correct for any layout
combination, but paying interpretation overhead per vector — the cost
the generated kernels of :mod:`repro.codegen` eliminate (Fig. 14).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..sql.analyzer import QueryInfo
from ..sql.types import DataType
from ..storage.layout import Layout
from .operators import AggregateOperator, Filter, LayoutScan, Project
from .operators.base import Operator
from .result import QueryResult

#: Rows per vector of the interpreted pipeline: a ~20-attribute vector
#: stays cache-resident (paper §3.3, "vectors fit in L1").  The
#: generated kernels do not use it; they work on whole morsels.
VECTOR_ROWS = 4096


def projection_dtype(info: QueryInfo) -> np.dtype:
    """Output dtype for a projection: int64 unless any output is float."""
    if any(t is DataType.FLOAT64 for t in info.output_types):
        return np.dtype(np.float64)
    return np.dtype(np.int64)


def build_pipeline(
    info: QueryInfo,
    layouts: Sequence[Layout],
    block_rows: int,
    lo: int = 0,
    hi: Optional[int] = None,
) -> Operator:
    """Assemble the operator tree for ``info`` over rows ``[lo, hi)``."""
    node: Operator = LayoutScan(layouts, info.all_attrs, block_rows, lo, hi)
    if info.has_predicate:
        node = Filter(node, info.query.where)
    if info.is_aggregation:
        node = AggregateOperator(node, info.query.select)
    else:
        node = Project(node, info.query.select, projection_dtype(info))
    return node


def run_fused_interpreted(
    info: QueryInfo,
    layouts: Sequence[Layout],
    lo: int,
    hi: int,
    block_rows: int,
) -> Tuple[object, int]:
    """Run the interpreted volcano pipeline over the morsel ``[lo, hi)``.

    Returns ``(partial, intermediate_bytes)`` for the morsel driver: the
    partial is the ``(qualifying_count, states)`` payload of an
    aggregation (which feeds the engine's selectivity feedback even
    though the result is a single row) or the morsel's row-major output
    block of a projection; the intermediates are the filter compaction
    buffers the projection materialized.
    """
    root = build_pipeline(info, layouts, block_rows, lo, hi)
    if isinstance(root, AggregateOperator):
        for _ in root:
            pass
        return root.partial(), 0
    blocks = [chunk.col(Project.OUTPUT_KEY) for chunk in root]
    names = [out.name for out in info.query.select]
    block = QueryResult.from_blocks(
        names, blocks, projection_dtype(info)
    ).data
    return block, sum(int(b.nbytes) for b in blocks)
