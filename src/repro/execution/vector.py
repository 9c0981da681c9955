"""Aligned block iteration over one or more layouts.

The fused strategy processes the relation in vectors (small row ranges
sized for cache locality, paper section 3.3).  A :class:`BlockCursor`
walks all covering layouts in lockstep — row alignment across layouts
makes this sound — and each :class:`Block` resolves attribute names to
array slices for that row range.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..storage.layout import Layout
from .strategies import narrowest_providers


class Block:
    """One row range [start, stop) viewed across the covering layouts."""

    __slots__ = ("start", "stop", "_providers")

    def __init__(
        self, start: int, stop: int, providers: Dict[str, Layout]
    ) -> None:
        self.start = start
        self.stop = stop
        self._providers = providers

    @property
    def num_rows(self) -> int:
        return self.stop - self.start

    def col(self, name: str) -> np.ndarray:
        """Slice of attribute ``name`` for this row range (a view)."""
        try:
            layout = self._providers[name]
        except KeyError:
            raise ExecutionError(
                f"attribute {name!r} is not provided by this cursor"
            ) from None
        return layout.column(name)[self.start : self.stop]

    def resolver(self):
        """A ``name -> array`` callable for the expression evaluator."""
        return self.col


class BlockCursor:
    """Iterates row-aligned blocks over a set of covering layouts.

    Parameters
    ----------
    layouts:
        The layouts to read from.  When several layouts store the same
        attribute, the narrowest one wins (fewest useless bytes).
    attrs:
        The attributes the consumer will ask for; validated up front so
        execution fails fast rather than mid-scan.
    block_rows:
        Vector size in rows.
    lo, hi:
        The row range to walk (one morsel); defaults to every row.
    """

    def __init__(
        self,
        layouts: Sequence[Layout],
        attrs: Sequence[str],
        block_rows: int,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> None:
        if block_rows <= 0:
            raise ExecutionError(f"block_rows must be positive: {block_rows}")
        if not layouts:
            raise ExecutionError("BlockCursor needs at least one layout")
        rows = {layout.num_rows for layout in layouts}
        if len(rows) != 1:
            raise ExecutionError(
                f"layouts disagree on row count: {sorted(rows)}"
            )
        (self.num_rows,) = rows
        self.lo = lo
        self.hi = self.num_rows if hi is None else min(hi, self.num_rows)
        self.block_rows = block_rows
        narrowest = narrowest_providers(layouts)
        providers: Dict[str, Layout] = {}
        for attr in attrs:
            if attr not in narrowest:
                raise ExecutionError(
                    f"attribute {attr!r} is not stored in any given layout"
                )
            providers[attr] = layouts[narrowest[attr]]
        self._providers = providers

    def __iter__(self) -> Iterator[Block]:
        for start, stop in self.ranges():
            yield Block(start, stop, self._providers)

    def ranges(self) -> Iterator[Tuple[int, int]]:
        for start in range(self.lo, self.hi, self.block_rows):
            yield start, min(start + self.block_rows, self.hi)
