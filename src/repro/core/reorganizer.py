"""Data reorganization, offline and online (paper section 3.2, Fig. 13).

*Offline* reorganization stitches the new layout in a dedicated pass and
only then executes the query — two scans of the data.

*Online* reorganization is H2O's approach: a single physical operator
both builds the new layout and computes the query result block by block.
Each stitched block is written into the new group's backing array and,
while it is still cache-hot, the query's predicate and output
expressions are evaluated on it.  The relation is scanned once for both
tasks ("the early materialization strategy allows H2O to generate the
data layout and compute the query result without scanning the relation
twice").

Both passes accept either a live :class:`~repro.storage.relation.Table`
or a pinned :class:`~repro.storage.relation.LayoutSnapshot` — they only
read (schema, covering layouts, row count) and never mutate.  A stitch
raced by an append yields a group whose row count no longer matches
the table; the layout manager refuses to register it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from ..config import EngineConfig
from ..errors import ExecutionError
from ..execution.evaluator import (
    AggregateAccumulator,
    collect_aggregates,
    evaluate_predicate,
    evaluate_value,
    finalize_output,
)
from ..execution.result import QueryResult
from ..execution.volcano import VECTOR_ROWS, projection_dtype
from ..sql.analyzer import QueryInfo
from ..storage.column_group import ColumnGroup
from ..storage.relation import LayoutSnapshot, Table
from ..storage.stitcher import stitch_group
from ..storage.zonemap import ZoneMapBuilder, attach_zone_maps
from ..util.faultpoints import fault_point
from ..util.timing import Timer

#: Anything the reorganizer can read layouts from: a live table or an
#: immutable snapshot pinned by the caller.
LayoutSource = Union[Table, LayoutSnapshot]


@dataclass
class ReorgOutcome:
    """Result of one reorganization, with its timing split."""

    group: ColumnGroup
    result: Optional[QueryResult]
    seconds: float
    mode: str  # "online" | "offline"


class Reorganizer:
    """Builds new column groups, optionally fused with a query."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()

    @property
    def block_rows(self) -> int:
        """Rows per block of the online pass: one interpreter vector, cut
        to a divisor of ``morsel_rows`` so no block straddles a morsel
        (the zone-map builder reduces blocks per morsel)."""
        return math.gcd(VECTOR_ROWS, self.config.morsel_rows)

    def _zone_morsel_rows(self) -> int:
        """Morsel granularity for fused zone-map builds (0 = disabled)."""
        return self.config.morsel_rows if self.config.zone_maps else 0

    # Offline --------------------------------------------------------------------

    def offline(
        self, table: LayoutSource, attrs: Iterable[str]
    ) -> ReorgOutcome:
        """Stitch the group in a dedicated pass (no query involved).

        Read-only over ``table``.
        """
        ordered = table.schema.ordered(attrs)
        sources = table.covering_layouts(ordered)
        full_width = len(ordered) == table.schema.width
        with Timer() as timer:
            group, _stats = stitch_group(
                sources,
                ordered,
                table.schema,
                full_width=full_width,
                morsel_rows=self._zone_morsel_rows(),
            )
        return ReorgOutcome(
            group=group, result=None, seconds=timer.elapsed, mode="offline"
        )

    # Online ---------------------------------------------------------------------

    def online(
        self, table: LayoutSource, attrs: Iterable[str], info: QueryInfo
    ) -> ReorgOutcome:
        """One pass: build the group *and* answer ``info`` from it.

        The query need not be fully contained in the new group: a
        select-clause group can be built while the predicate reads
        attributes from the existing layouts (and vice versa for a
        where-clause group) — the online operator resolves such
        attributes from their current providers.
        """
        ordered = table.schema.ordered(attrs)
        with Timer() as timer:
            group, result = self._online_pass(table, ordered, info)
        return ReorgOutcome(
            group=group, result=result, seconds=timer.elapsed, mode="online"
        )

    def _online_pass(
        self, table: LayoutSource, ordered: Tuple[str, ...], info: QueryInfo
    ) -> Tuple[ColumnGroup, QueryResult]:
        schema = table.schema
        num_rows = table.num_rows
        dtype = schema.common_dtype(ordered).numpy_dtype
        position = {attr: i for i, attr in enumerate(ordered)}
        # Pick, per attribute, the narrowest source column (a view).
        # Query attributes outside the new group are read from their
        # providers too (a select-clause group may be built while the
        # predicate still reads existing layouts, and vice versa).
        sources = {}
        for attr in set(ordered) | set(info.all_attrs):
            provider = table.layouts_containing(attr)[0]
            sources[attr] = provider.column(attr)

        data = np.empty((num_rows, len(ordered)), dtype=dtype)
        block_rows = self.block_rows
        # Zone maps ride the same fused pass: each stitched block is
        # reduced while cache-hot, then blocks collapse into per-morsel
        # stats at the end.
        zone_morsel_rows = self._zone_morsel_rows()
        zone_builder = (
            ZoneMapBuilder(ordered, zone_morsel_rows)
            if zone_morsel_rows > 0
            else None
        )

        aggregates = (
            collect_aggregates(info.query.select)
            if info.is_aggregation
            else ()
        )
        accumulators = {
            agg: AggregateAccumulator(agg.func) for agg in aggregates
        }
        out_blocks: List[np.ndarray] = []
        out_dtype = None if info.is_aggregation else projection_dtype(info)

        for start in range(0, num_rows, block_rows):
            stop = min(start + block_rows, num_rows)
            # Injectable failure site: the online stitch aborting *mid*-
            # reorganization — ``data`` already holds partially stitched
            # blocks at this point.  Raises ReorganizationError; the
            # engine discards the partial group (it was never published)
            # and answers the query through ordinary planning instead.
            fault_point("reorg.online", attrs=ordered, offset=start)
            block = data[start:stop]
            # The stitch: copy source slices into the new layout's block.
            for attr in ordered:
                block[:, position[attr]] = sources[attr][start:stop]
            if zone_builder is not None:
                zone_builder.add_block(start, block)

            # The query: evaluate on the cache-hot stitched block.
            def resolve(
                name: str, _block=block, _start=start, _stop=stop
            ) -> np.ndarray:
                index = position.get(name)
                if index is None:  # attribute outside the new group
                    return sources[name][_start:_stop]
                return _block[:, index]

            if info.has_predicate:
                mask = evaluate_predicate(info.query.where, resolve)
                idx = np.flatnonzero(mask)
                if idx.size == 0:
                    continue
                # Compact the qualifying tuples once per block; every
                # aggregate argument then reads the compacted block.
                qblock = block.take(idx, axis=0)

                def resolve_q(
                    name: str, _qblock=qblock, _start=start, _stop=stop,
                    _idx=idx,
                ) -> np.ndarray:
                    index = position.get(name)
                    if index is None:  # attribute outside the new group
                        return sources[name][_start:_stop].take(_idx)
                    return _qblock[:, index]

                row_resolver = resolve_q
                row_count = int(idx.size)
            else:
                row_resolver = resolve
                row_count = stop - start

            if info.is_aggregation:
                for agg, state in accumulators.items():
                    if agg.arg is None:
                        state.update(None, row_count)
                    else:
                        state.update(
                            evaluate_value(agg.arg, row_resolver), row_count
                        )
            else:
                out = np.empty(
                    (row_count, len(info.query.select)), dtype=out_dtype
                )
                for j, out_col in enumerate(info.query.select):
                    out[:, j] = evaluate_value(out_col.expr, row_resolver)
                out_blocks.append(out)

        full_width = len(ordered) == schema.width
        group = ColumnGroup(ordered, data, full_width=full_width)
        if zone_builder is not None:
            attach_zone_maps(group, zone_builder.finish())
        names = [out.name for out in info.query.select]
        if info.is_aggregation:
            agg_values = {
                agg: state.finalize() for agg, state in accumulators.items()
            }
            values = [
                finalize_output(out.expr, agg_values)
                for out in info.query.select
            ]
            result = QueryResult.scalar_row(names, values)
        else:
            result = QueryResult.from_blocks(names, out_blocks, out_dtype)
        return group, result
