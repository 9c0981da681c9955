"""Filter operator: interpreted predicate evaluation with compaction."""

from __future__ import annotations

from typing import Optional

from ...sql.expressions import Expr
from ..evaluator import evaluate_predicate
from .base import Chunk, Operator


class Filter(Operator):
    """Keeps the tuples of each chunk that satisfy the predicate.

    This is the pushed-down selection of the volcano pipeline (paper
    section 3.3, row-major strategy): the predicate is evaluated on the
    incoming vector and qualifying tuples are compacted before being
    passed upstream, so later operators only touch qualifying data.
    """

    def __init__(self, child: Operator, predicate: Expr) -> None:
        self._child = child
        self._predicate = predicate

    def open(self) -> None:
        self._child.open()

    def next_chunk(self) -> Optional[Chunk]:
        while True:
            chunk = self._child.next_chunk()
            if chunk is None:
                return None
            mask = evaluate_predicate(
                self._predicate, chunk.col, chunk.num_rows
            )
            kept = int(mask.sum())
            if kept == 0:
                continue  # fully filtered vector; pull the next one
            if kept == chunk.num_rows:
                return chunk  # nothing filtered; avoid the copy
            compacted = {
                name: array[mask] for name, array in chunk.columns.items()
            }
            return Chunk(num_rows=kept, columns=compacted)

    def close(self) -> None:
        self._child.close()
