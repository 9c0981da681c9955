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


#: Rows stitched per sub-block: a block of a wide group stays cache-
#: resident between the reads that fill it and the writes after them.
STITCH_ROWS = 4096

#: ``(first, stop, view)``: rows of the 2-D ``view`` fill target columns
#: ``first:stop`` of a group being stitched.
Run = Tuple[int, int, np.ndarray]


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


def stitch_runs(
    providers: Dict[str, Layout], attrs: Sequence[str]
) -> List[Run]:
    """How to copy ``attrs``, in order, out of their ``providers``.

    Adjacent target columns that one 2-D source (a row layout or group)
    holds adjacently, in the same order, are one run, so a sub-block of
    them moves as one 2-D slice copy instead of one strided copy per
    column.  A single column is a run of width one.
    """
    runs: List[Tuple[int, int, Layout, int]] = []
    for position, attr in enumerate(attrs):
        layout = providers[attr]
        index = layout.index_of(attr)
        if runs:
            first, stop, last, start = runs[-1]
            if (
                last is layout
                and layout.data.ndim == 2
                and index == start + (stop - first)
            ):
                runs[-1] = (first, stop + 1, last, start)
                continue
        runs.append((position, position + 1, layout, index))
    return [
        (
            first,
            stop,
            layout.data[:, start : start + stop - first]
            if layout.data.ndim == 2
            else layout.data[:, None],
        )
        for first, stop, layout, start in runs
    ]


def stitch_rows(data: np.ndarray, runs: Sequence[Run], lo: int, hi: int) -> None:
    """Fill rows ``[lo, hi)`` of the group buffer ``data`` from ``runs``,
    :data:`STITCH_ROWS` rows at a time."""
    for start in range(lo, hi, STITCH_ROWS):
        stop = min(start + STITCH_ROWS, hi)
        block = data[start:stop]
        for first, last, view in runs:
            block[:, first:last] = view[start:stop]


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
    stitch_rows(data, stitch_runs(providers, attrs), 0, num_rows)
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
