"""The static column-store baseline (DSM; "DBMS-C" stand-in)."""

from __future__ import annotations

from typing import Optional

from ..config import EngineConfig
from ..execution.strategies import ExecutionStrategy
from ..storage.column_layout import SingleColumn
from ..storage.relation import Table
from ..storage.stitcher import stitch_single_columns
from .base import StaticEngine


class ColumnStoreEngine(StaticEngine):
    """Fixed column-major layout + late-materialization execution.

    The classic DSM pipeline of paper section 2.1, run by the same
    generated late kernels H2O uses: every conjunct is compared over
    its full column into one bitmap, one selection vector is taken
    from it, qualifying values are gathered where each aggregate or
    output column uses them, and arithmetic materializes one
    intermediate per operator.  With codegen off, the interpreted
    operator refines the selection vector conjunct by conjunct instead
    (same answers).
    """

    strategy = ExecutionStrategy.LATE
    name = "column-store"

    def __init__(
        self, table: Table, config: Optional[EngineConfig] = None
    ) -> None:
        table = _ensure_column_major(table)
        super().__init__(table, config)


def _ensure_column_major(table: Table) -> Table:
    """A table equivalent to ``table`` stored purely column-major."""
    if all(isinstance(layout, SingleColumn) for layout in table.layouts):
        return table
    columns, _stats = stitch_single_columns(
        table.layouts, table.schema.names
    )
    return Table(table.name, table.schema, columns)
