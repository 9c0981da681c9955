"""Tables: a schema plus the set of row-aligned physical layouts.

A :class:`Table` does not privilege any layout: the "data" of the table
*is* whatever layouts currently exist, and the only invariant is
coverage — every attribute must be stored in at least one layout.  This
is exactly H2O's storage view (paper section 3): several formats coexist,
the same attribute may be replicated across formats, and layouts come and
go as the workload evolves.

All layouts of one table are row-aligned: tuple ``i`` means the same
logical tuple in every layout.  The stitcher preserves order, so the
invariant holds by construction; :meth:`Table.add_layout` enforces the
row-count part of it.

**Concurrency model.**  Individual layouts are immutable once built:
appends create *new* layout objects via ``Layout.extended``, which may
share the old object's backing buffer but only ever writes past the end
of every view already handed out (``layout.reserve_rows``).  The
whole physical state of a table at one instant is described by an
immutable :class:`LayoutSnapshot`: the tuple of layouts, the row count,
and two epochs — ``epoch``, bumped by every change, and
``layout_set_epoch``, bumped only when a layout is added or dropped (an
append extends every layout in place of the old one, keeping their
order).  The table holds exactly one reference to the
current snapshot; every mutation builds a complete replacement snapshot
under the writer lock and publishes it with a single attribute
assignment (atomic under the GIL).  Readers call :meth:`Table.snapshot`
to pin the state once and then plan/scan against it without further
synchronization — a concurrent reorganization can only ever publish a
*new* snapshot, never mutate a pinned one.  This is the snapshot
isolation the concurrent query service builds on.
"""

from __future__ import annotations

import heapq
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import LayoutError, StorageError
from .column_group import ColumnGroup
from .column_layout import SingleColumn
from .layout import Layout, LayoutKind
from .row_layout import build_row_layout
from .schema import Schema, popcount


class LayoutSnapshot:
    """An immutable view of one table's physical state at one epoch.

    A snapshot pins everything a reader needs to plan and execute a
    query — the layout tuple, the row count, the schema — and exposes
    the same cover-selection API as :class:`Table`, so planners work
    interchangeably against a live table (which delegates to its current
    snapshot) or a pinned snapshot.  Snapshots are never mutated after
    construction; the attribute index is built lazily, which is a benign
    race (two threads may build the same index, the last assignment
    wins, both results are identical).
    """

    __slots__ = (
        "table_name",
        "schema",
        "epoch",
        "layout_set_epoch",
        "num_rows",
        "layouts",
        "_attr_index",
        "_masks",
    )

    def __init__(
        self,
        table_name: str,
        schema: Schema,
        epoch: int,
        num_rows: int,
        layouts: Iterable[Layout],
        layout_set_epoch: int = 0,
    ) -> None:
        self.table_name = table_name
        self.schema = schema
        self.epoch = epoch
        #: Bumped only by :meth:`Table.add_layout`/:meth:`Table.drop_layout`:
        #: two snapshots with equal ``layout_set_epoch`` hold the same
        #: layouts in the same order, one possibly extended by appends.
        self.layout_set_epoch = layout_set_epoch
        self.num_rows = num_rows
        self.layouts: Tuple[Layout, ...] = tuple(layouts)
        self._attr_index: Optional[Dict[str, List[Layout]]] = None
        self._masks: Optional[
            Tuple[Dict[str, int], Tuple[Tuple[Layout, int, int], ...]]
        ] = None

    # Attribute index -----------------------------------------------------

    def _index(self) -> Dict[str, List[Layout]]:
        """attr → layouts storing it, narrowest first (lazily built)."""
        index = self._attr_index
        if index is None:
            index = {name: [] for name in self.schema.names}
            for layout in sorted(self.layouts, key=lambda l: l.width):
                for attr in layout.attrs:
                    index[attr].append(layout)
            self._attr_index = index
        return index

    def _bitmasks(
        self,
    ) -> Tuple[Dict[str, int], Tuple[Tuple[Layout, int, int], ...]]:
        """(attr → bit, (layout, mask, width) narrowest first), lazily.

        Bit ``i`` is schema position ``i``; layouts keep the attribute
        index's order (stable by width).
        """
        masks = self._masks
        if masks is None:
            bits = {name: 1 << i for i, name in enumerate(self.schema.names)}
            ordered = []
            for layout in sorted(self.layouts, key=lambda l: l.width):
                mask = 0
                for attr in layout.attrs:
                    mask |= bits[attr]
                ordered.append((layout, mask, layout.width))
            masks = self._masks = (bits, tuple(ordered))
        return masks

    # Access --------------------------------------------------------------

    def layouts_containing(self, attr: str) -> Tuple[Layout, ...]:
        """All layouts storing ``attr``, narrowest first."""
        try:
            return tuple(self._index()[attr])
        except KeyError:
            return ()

    def covering_layouts(self, attrs: Iterable[str]) -> Tuple[Layout, ...]:
        """A small set of layouts that together store ``attrs``.

        Greedy set cover preferring layouts that add the most uncovered
        attributes with the least useless width — the same preference
        order H2O's planner uses when the perfect group is absent
        (section 4.2.2: subsets of groups and multi-group access).
        Covers are attribute bitmasks, one per layout per snapshot.
        """
        bits, ordered = self._bitmasks()
        remaining = 0
        unknown = set()
        for attr in attrs:
            bit = bits.get(attr)
            if bit is None:
                unknown.add(attr)
            else:
                remaining |= bit
        if unknown:
            raise LayoutError(f"unknown attributes: {sorted(unknown)}")
        if not remaining:
            # Attribute-free queries (a bare ``SELECT count(*)``) still
            # need a row count from *some* layout; the narrowest does.
            if not self.layouts:
                return ()
            return (min(self.layouts, key=lambda l: l.width),)
        # Only layouts that store at least one needed attribute matter.
        # The greedy takes the layout covering most of what remains,
        # then the narrower, then the earlier in schema order of the
        # first needed attribute it stores (narrowest first among
        # those): ties — and the plan — never follow string-hash order.
        # A layout's coverage only shrinks as attributes are covered, so
        # a heap of (−covered, width, rank) keys needs re-scoring only
        # for the entries it pops (lazy greedy; the rank makes every
        # key distinct, so the pick is exactly the scan's).
        relevant = sorted(
            (entry for entry in ordered if entry[1] & remaining),
            key=lambda entry: (entry[1] & remaining) & -(entry[1] & remaining),
        )
        heap = [
            (-popcount(mask & remaining), width, rank, mask, layout)
            for rank, (layout, mask, width) in enumerate(relevant)
        ]
        heapq.heapify(heap)
        chosen: List[Layout] = []
        while remaining:
            if not heap:
                raise LayoutError(
                    "attributes not stored anywhere: "
                    f"{sorted(self._names_of(remaining))}"
                )
            negative, width, rank, mask, layout = heapq.heappop(heap)
            covered = popcount(mask & remaining)
            if covered == -negative:
                chosen.append(layout)
                remaining &= ~mask
            elif covered:
                heapq.heappush(heap, (-covered, width, rank, mask, layout))
        return tuple(chosen)

    def _names_of(self, mask: int) -> List[str]:
        names = self.schema.names
        return [names[i] for i in range(len(names)) if mask >> i & 1]

    def narrowest_cover(self, attrs: Iterable[str]) -> Tuple[Layout, ...]:
        """Per-attribute narrowest providers (the column-store-ish cover).

        Complements :meth:`covering_layouts` (which minimizes the number
        of layouts): this cover minimizes useless width per attribute,
        e.g. preferring single columns over a wide group that happens to
        contain everything.  The planner considers both.
        """
        chosen: List[Layout] = []
        seen: set = set()
        for attr in attrs:
            providers = self.layouts_containing(attr)
            if not providers:
                raise LayoutError(f"attribute {attr!r} is not stored")
            narrowest = providers[0]
            if id(narrowest) not in seen:
                seen.add(id(narrowest))
                chosen.append(narrowest)
        return tuple(chosen)

    def column(self, name: str) -> np.ndarray:
        """Values of one attribute, read from the narrowest layout."""
        layouts = self.layouts_containing(name)
        if not layouts:
            raise LayoutError(f"attribute {name!r} is not stored")
        return layouts[0].column(name)

    def columns(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        return {name: self.column(name) for name in names}

    def find_group(self, attrs: Iterable[str]) -> Optional[ColumnGroup]:
        """An existing group storing exactly ``attrs``, if any."""
        wanted = frozenset(attrs)
        for layout in self.layouts:
            if isinstance(layout, ColumnGroup) and layout.attr_set == wanted:
                return layout
        return None

    @property
    def nbytes(self) -> int:
        """Total bytes across all layouts (replication counts twice)."""
        return sum(layout.nbytes for layout in self.layouts)

    @property
    def reserved_bytes(self) -> int:
        """Backing capacity across all layouts (``nbytes`` + append slack)."""
        return sum(layout.reserved_bytes for layout in self.layouts)

    def __repr__(self) -> str:
        return (
            f"LayoutSnapshot({self.table_name!r}, epoch={self.epoch}, "
            f"rows={self.num_rows}, layouts={len(self.layouts)})"
        )


class Table:
    """One relation: schema, row count, and its physical layouts.

    All *reads* delegate to the current :class:`LayoutSnapshot` (pin it
    explicitly with :meth:`snapshot` for multi-step consistency); all
    *mutations* are serialized by an internal writer lock and publish a
    complete new snapshot atomically, bumping the layout epoch exactly
    once per logical change.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        layouts: Iterable[Layout],
        num_rows: Optional[int] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        layouts = list(layouts)
        if not layouts:
            raise StorageError(f"table {name!r} needs at least one layout")
        rows = {layout.num_rows for layout in layouts}
        if len(rows) != 1:
            raise LayoutError(
                f"table {name!r}: layouts disagree on row count: {rows}"
            )
        (row_count,) = rows
        if num_rows is not None and num_rows != row_count:
            raise LayoutError(
                f"table {name!r}: expected {num_rows} rows, layouts have "
                f"{row_count}"
            )
        #: Serializes writers (layout create/retire, appends).  Readers
        #: never take it — they pin the published snapshot instead.
        self._write_lock = threading.RLock()
        self._snapshot = LayoutSnapshot(name, schema, 0, row_count, layouts)
        self._check_coverage(self._snapshot.layouts)

    # Construction --------------------------------------------------------

    @classmethod
    def from_columns(
        cls,
        name: str,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        initial_layout: str = "column",
    ) -> "Table":
        """Create a table from per-attribute arrays.

        ``initial_layout`` selects how the data is physically stored at
        the start: ``"column"`` (one SingleColumn per attribute, the
        paper's preferred starting point since it is "easier to morph to
        other layouts") or ``"row"`` (one full-width group).
        """
        if initial_layout == "column":
            layouts: List[Layout] = [
                SingleColumn(attr, np.asarray(columns[attr]))
                for attr in schema.names
            ]
        elif initial_layout == "row":
            layouts = [build_row_layout(schema, columns)]
        else:
            raise StorageError(
                f"unknown initial layout {initial_layout!r}; "
                "expected 'column' or 'row'"
            )
        return cls(name, schema, layouts)

    # Snapshot publication ------------------------------------------------

    def snapshot(self) -> LayoutSnapshot:
        """Pin the current physical state (immutable, epoch-tagged).

        The returned snapshot never changes; a concurrent layout
        creation/retirement or append publishes a *new* snapshot with a
        higher epoch, leaving every pinned one intact.  Queries pin one
        snapshot at admission and plan + scan entirely against it.
        """
        return self._snapshot

    def _publish(
        self, layouts: Sequence[Layout], num_rows: int, new_set: bool
    ) -> None:
        """Replace the current snapshot (writer lock held), one epoch
        bump; ``new_set`` also bumps ``layout_set_epoch``."""
        current = self._snapshot
        self._snapshot = LayoutSnapshot(
            self.name,
            self.schema,
            current.epoch + 1,
            num_rows,
            layouts,
            current.layout_set_epoch + new_set,
        )

    # Delegating read views ----------------------------------------------

    @property
    def layouts(self) -> Tuple[Layout, ...]:
        return self._snapshot.layouts

    @property
    def num_rows(self) -> int:
        return self._snapshot.num_rows

    @property
    def layout_epoch(self) -> int:
        """Monotonic counter bumped whenever the physical state changes
        (layout added/dropped, rows appended).  A decision that depends
        only on *which* layouts exist — the engine's plan cache above
        all — validates against the snapshot's ``layout_set_epoch``
        instead, and rebinds to the current layouts when only rows
        were appended."""
        return self._snapshot.epoch

    # Layout management -----------------------------------------------------

    def add_layout(self, layout: Layout) -> None:
        """Register a new row-aligned layout (atomic publish)."""
        with self._write_lock:
            current = self._snapshot
            if layout.num_rows != current.num_rows:
                raise LayoutError(
                    f"layout has {layout.num_rows} rows, table "
                    f"{self.name!r} has {current.num_rows}"
                )
            unknown = [a for a in layout.attrs if a not in self.schema]
            if unknown:
                raise LayoutError(
                    f"layout stores attributes not in schema: {unknown}"
                )
            self._publish(
                current.layouts + (layout,), current.num_rows, True
            )

    def drop_layout(self, layout: Layout) -> None:
        """Remove a layout; refuses to break attribute coverage."""
        with self._write_lock:
            current = self._snapshot
            if layout not in current.layouts:
                raise LayoutError("layout is not part of this table")
            remaining = [
                lay for lay in current.layouts if lay is not layout
            ]
            covered: set = set()
            for lay in remaining:
                covered |= lay.attr_set
            missing = set(self.schema.names) - covered
            if missing:
                raise LayoutError(
                    f"dropping {layout.describe()} would leave attributes "
                    f"unstored: {sorted(missing)}"
                )
            self._publish(remaining, current.num_rows, True)

    def _check_coverage(self, layouts: Sequence[Layout]) -> None:
        covered: set = set()
        for layout in layouts:
            covered |= layout.attr_set
        missing = set(self.schema.names) - covered
        if missing:
            raise LayoutError(
                f"table {self.name!r}: attributes not stored in any "
                f"layout: {sorted(missing)}"
            )

    def append_rows(self, columns: Mapping[str, np.ndarray]) -> None:
        """Append new tuples, extending *every* layout consistently.

        All layouts grow by the same rows in the same order, preserving
        the row-alignment invariant (replicated attributes receive the
        same values everywhere).  Each plain layout writes the rows into
        spare capacity past its end and reallocates only when that runs
        out, so an append costs O(batch), not O(table); the values are
        copied, the caller's arrays are not retained.

        The extended layouts are built first and published as one new
        snapshot with a **single** epoch bump after *all* secondary
        layouts are updated — a concurrent reader therefore either sees
        the complete pre-append state or the complete post-append state,
        never a half-appended layout set.  The layouts keep their order
        and ``layout_set_epoch`` is unchanged, so a cached plan rebinds
        to the extended layouts by position.
        """
        missing = [n for n in self.schema.names if n not in columns]
        if missing:
            raise LayoutError(f"append is missing attributes: {missing}")
        lengths = {len(columns[n]) for n in self.schema.names}
        if len(lengths) != 1:
            raise LayoutError(
                f"appended columns differ in length: {lengths}"
            )
        (extra,) = lengths
        if extra == 0:
            return
        with self._write_lock:
            current = self._snapshot
            extended = [layout.extended(columns) for layout in current.layouts]
            self._publish(extended, current.num_rows + extra, False)

    # Access ----------------------------------------------------------------

    def layouts_containing(self, attr: str) -> Tuple[Layout, ...]:
        """All layouts storing ``attr``, narrowest first."""
        return self._snapshot.layouts_containing(attr)

    def covering_layouts(self, attrs: Iterable[str]) -> Tuple[Layout, ...]:
        """A small set of layouts that together store ``attrs``.

        See :meth:`LayoutSnapshot.covering_layouts`.
        """
        return self._snapshot.covering_layouts(attrs)

    def narrowest_cover(self, attrs: Iterable[str]) -> Tuple[Layout, ...]:
        """Per-attribute narrowest providers.

        See :meth:`LayoutSnapshot.narrowest_cover`.
        """
        return self._snapshot.narrowest_cover(attrs)

    def column(self, name: str) -> np.ndarray:
        """Values of one attribute, read from the narrowest layout."""
        return self._snapshot.column(name)

    def columns(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        return self._snapshot.columns(names)

    # Reporting ---------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Total bytes across all layouts (replication counts twice)."""
        return self._snapshot.nbytes

    def layout_summary(self) -> str:
        """One line per layout for logs and reports."""
        snapshot = self._snapshot
        lines = [
            f"table {self.name!r}: {snapshot.num_rows} rows x "
            f"{self.schema.width} attrs, {len(snapshot.layouts)} layouts, "
            f"{snapshot.nbytes / 1e6:.1f} MB"
        ]
        for layout in snapshot.layouts:
            lines.append(
                f"  - {layout.describe()} ({layout.nbytes / 1e6:.1f} MB)"
            )
        return "\n".join(lines)

    def kinds(self) -> Tuple[LayoutKind, ...]:
        """The kinds of the current layouts (for tests and reports)."""
        return tuple(layout.kind for layout in self._snapshot.layouts)

    def find_group(self, attrs: Iterable[str]) -> Optional[ColumnGroup]:
        """An existing group storing exactly ``attrs``, if any."""
        return self._snapshot.find_group(attrs)

    def __repr__(self) -> str:
        snapshot = self._snapshot
        return (
            f"Table({self.name!r}, rows={snapshot.num_rows}, "
            f"attrs={self.schema.width}, layouts={len(snapshot.layouts)})"
        )
