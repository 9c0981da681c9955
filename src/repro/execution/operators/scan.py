"""Scan operator: reads covering layouts block by block."""

from __future__ import annotations

from typing import Optional, Sequence

from ...storage.layout import Layout
from ..vector import BlockCursor
from .base import Chunk, Operator


class LayoutScan(Operator):
    """Produces chunks of the requested attributes from covering layouts.

    The scan pulls each attribute from the narrowest layout that stores
    it (delegated to :class:`~repro.execution.vector.BlockCursor`), so a
    single scan can read several coexisting groups in lockstep — the
    multi-group access pattern of Fig. 12.
    """

    def __init__(
        self,
        layouts: Sequence[Layout],
        attrs: Sequence[str],
        block_rows: int,
        lo: int = 0,
        hi: Optional[int] = None,
    ) -> None:
        self._cursor = BlockCursor(layouts, attrs, block_rows, lo, hi)
        self._attrs = tuple(attrs)
        self._iterator = None

    def open(self) -> None:
        self._iterator = iter(self._cursor)

    def next_chunk(self) -> Optional[Chunk]:
        assert self._iterator is not None, "open() was not called"
        block = next(self._iterator, None)
        if block is None:
            return None
        columns = {name: block.col(name) for name in self._attrs}
        return Chunk(num_rows=block.num_rows, columns=columns)

    def close(self) -> None:
        self._iterator = None
