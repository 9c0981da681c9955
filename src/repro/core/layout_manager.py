"""The Data Layout Manager (paper Fig. 3).

Owns a table's physical layouts: creates new column groups through the
stitcher, keeps a creation log (who/when/how long — the layout-creation
time that Fig. 8 reports separately), tracks per-layout usage, and can
garbage-collect unused replicated groups under a memory budget.

Thread-safety: the engine invokes the mutating paths under its own
lock, but the creation log and usage counters are also read by report
threads (``describe``, benchmarks) — so the manager guards its own
bookkeeping with an internal lock and hands out defensive copies.
The table mutations themselves (``add_layout``/``drop_layout``) are
atomic snapshot publications, independent of this lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..storage.column_group import ColumnGroup
from ..storage.layout import Layout, LayoutKind
from ..storage.relation import Table
from ..storage.stitcher import stitch_group
from ..util.timing import Timer


@dataclass
class LayoutEvent:
    """One layout-creation record."""

    attrs: Tuple[str, ...]
    seconds: float
    bytes_read: int
    bytes_written: int
    query_index: Optional[int] = None
    mode: str = "offline"  # "offline" | "online"


class LayoutManager:
    """Creates, tracks and retires physical layouts for one table."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self._log_lock = threading.Lock()
        self._creation_log: List[LayoutEvent] = []
        self._uses: Dict[int, int] = {}

    @property
    def creation_log(self) -> Tuple[LayoutEvent, ...]:
        """A consistent defensive copy of the creation records."""
        with self._log_lock:
            return tuple(self._creation_log)

    @property
    def layout_epoch(self) -> int:
        """The table's layout epoch (see :class:`Table.layout_epoch`).

        Every create/retire path of this manager goes through
        ``Table.add_layout`` / ``Table.drop_layout``, which bump the
        epoch; consumers caching layout-derived decisions (the engine's
        plan cache) validate against this counter.
        """
        return self.table.layout_epoch

    # Creation ------------------------------------------------------------------

    def build_group(
        self,
        attrs: Iterable[str],
        query_index: Optional[int] = None,
    ) -> Tuple[ColumnGroup, float]:
        """Materialize a new column group offline (stitch, then add).

        Returns the group and the creation time in seconds; the time is
        also appended to the creation log so reports can attribute it.
        """
        ordered = self.table.schema.ordered(attrs)
        existing = self.table.find_group(ordered)
        if existing is not None:
            return existing, 0.0
        sources = self.table.covering_layouts(ordered)
        full_width = len(ordered) == self.table.schema.width
        with Timer() as timer:
            group, stats = stitch_group(
                sources, ordered, self.table.schema, full_width=full_width
            )
        self.table.add_layout(group)
        with self._log_lock:
            self._creation_log.append(
                LayoutEvent(
                    attrs=ordered,
                    seconds=timer.elapsed,
                    bytes_read=stats.bytes_read,
                    bytes_written=stats.bytes_written,
                    query_index=query_index,
                    mode="offline",
                )
            )
        return group, timer.elapsed

    def register_group(
        self,
        group: ColumnGroup,
        seconds: float,
        query_index: Optional[int] = None,
        mode: str = "online",
    ) -> None:
        """Adopt a group built elsewhere (the online reorganizer)."""
        self.table.add_layout(group)
        with self._log_lock:
            self._creation_log.append(
                LayoutEvent(
                    attrs=group.attrs,
                    seconds=seconds,
                    bytes_read=0,
                    bytes_written=group.nbytes,
                    query_index=query_index,
                    mode=mode,
                )
            )

    # Usage tracking & retirement ---------------------------------------------------

    def record_use(self, layouts: Iterable[Layout]) -> None:
        with self._log_lock:
            for layout in layouts:
                self._uses[id(layout)] = self._uses.get(id(layout), 0) + 1

    def uses_of(self, layout: Layout) -> int:
        with self._log_lock:
            return self._uses.get(id(layout), 0)

    def creation_seconds(self) -> float:
        """Total time ever spent creating layouts (Fig. 8's dark bar)."""
        with self._log_lock:
            return sum(event.seconds for event in self._creation_log)

    def retire_cold_groups(self, max_bytes: int) -> List[Layout]:
        """Drop least-used *group* layouts until the table fits the
        budget, never breaking attribute coverage.  The newest group —
        the one whose creation prompted this pass — goes last, however
        few uses it has had time to collect.  Returns the dropped
        layouts (empty when the budget already holds)."""
        dropped: List[Layout] = []
        candidates = [
            layout
            for layout in self.table.layouts  # creation order
            if layout.kind is LayoutKind.GROUP
        ]
        newest = candidates[-1] if candidates else None
        with self._log_lock:
            uses = dict(self._uses)
        candidates.sort(
            key=lambda lay: (
                lay is newest, uses.get(id(lay), 0), -lay.nbytes
            )
        )
        for layout in candidates:
            if self.table.nbytes <= max_bytes:
                break
            try:
                self.table.drop_layout(layout)
            except Exception:
                continue  # would break coverage; keep it
            dropped.append(layout)
        return dropped
