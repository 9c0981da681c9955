"""Physical layout transformation ("stitching").

The paper (section 3.2, Data Reorganization) describes building a new
layout by reading blocks from source layouts and *stitching* them into
blocks of the target layout.  This module is that primitive for
offline builds (create the layout, then query it — the slow path of
Fig. 13); the online reorganizer stitches morsel by morsel inside the
scan that answers its query.

The stitcher always preserves tuple order, which maintains the
row-alignment invariant every other component relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..errors import LayoutError
from .column_group import ColumnGroup
from .column_layout import SingleColumn
from .layout import Layout
from .schema import Schema


@dataclass(frozen=True)
class TransformStats:
    """Data volume moved by one stitching operation.

    ``bytes_read`` counts the source bytes actually fetched (for a group
    source, whole tuples are fetched even if only some attributes are
    needed — that is the row-layout reading penalty the cost model also
    charges).  ``bytes_written`` is the size of the new layout.
    """

    bytes_read: int
    bytes_written: int
    source_layouts: int

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


def _plan_sources(
    sources: Sequence[Layout], attrs: Sequence[str]
) -> Dict[str, Layout]:
    """Pick, per target attribute, which source layout provides it."""
    providers: Dict[str, Layout] = {}
    for attr in attrs:
        candidates = [s for s in sources if attr in s.attr_set]
        if not candidates:
            raise LayoutError(
                f"no source layout provides attribute {attr!r}"
            )
        # Prefer the narrowest provider: fewest useless bytes to read.
        providers[attr] = min(candidates, key=lambda lay: lay.width)
    return providers


def _read_bytes(providers: Dict[str, Layout]) -> int:
    """Source bytes fetched: each used layout is scanned once, fully."""
    used = {id(lay): lay for lay in providers.values()}
    return sum(lay.nbytes for lay in used.values())


def stitch_group(
    sources: Sequence[Layout],
    attrs: Sequence[str],
    schema: Schema,
    full_width: bool = False,
) -> Tuple[ColumnGroup, TransformStats]:
    """Build a new :class:`ColumnGroup` over ``attrs`` from ``sources``.

    ``attrs`` are stored in the order given (callers normally pass them
    in schema order).  The group dtype is the promoted dtype of its
    members.  Returns the new group plus the data-movement stats used by
    the cost model's transformation term (paper Eq. 1).
    """
    attrs = tuple(attrs)
    if not attrs:
        raise LayoutError("cannot stitch an empty attribute set")
    providers = _plan_sources(sources, attrs)
    rows = {lay.num_rows for lay in providers.values()}
    if len(rows) != 1:
        raise LayoutError(f"source layouts disagree on row count: {rows}")
    (num_rows,) = rows
    dtype = schema.common_dtype(attrs).numpy_dtype
    data = np.empty((num_rows, len(attrs)), dtype=dtype)
    for position, attr in enumerate(attrs):
        data[:, position] = providers[attr].column(attr)
    group = ColumnGroup(attrs, data, full_width=full_width)
    stats = TransformStats(
        bytes_read=_read_bytes(providers),
        bytes_written=group.nbytes,
        source_layouts=len({id(lay) for lay in providers.values()}),
    )
    return group, stats


def stitch_single_columns(
    sources: Sequence[Layout], attrs: Iterable[str]
) -> Tuple[List[SingleColumn], TransformStats]:
    """Decompose attributes out of ``sources`` into single columns.

    Used when the advisor decides an attribute is always accessed alone
    (splitting a group back toward the column-major extreme).
    """
    attrs = tuple(attrs)
    providers = _plan_sources(sources, attrs)
    columns: List[SingleColumn] = []
    written = 0
    for attr in attrs:
        values = np.ascontiguousarray(providers[attr].column(attr))
        column = SingleColumn(attr, values)
        columns.append(column)
        written += column.nbytes
    stats = TransformStats(
        bytes_read=_read_bytes(providers),
        bytes_written=written,
        source_layouts=len({id(lay) for lay in providers.values()}),
    )
    return columns, stats
