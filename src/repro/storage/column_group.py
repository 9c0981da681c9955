"""Column groups: the workload-aware vertical partitions at H2O's core.

A :class:`ColumnGroup` stores a subset of a table's attributes densely in
one C-contiguous 2-D array (rows × group attributes), published as a
read-only view; :meth:`ColumnGroup.extended` is the only writer.  A
group covering the entire schema *is* the row-major layout; the class
therefore reports its :class:`~repro.storage.layout.LayoutKind` as
``ROW`` when it is known to span the whole table (paper: "groups of
columns are modeled similarly to the row-major layouts").
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from ..errors import LayoutError
from .layout import Layout, LayoutKind, frozen_view, reserve_rows


class ColumnGroup(Layout):
    """A vertical partition backed by one C-contiguous 2-D array.

    Parameters
    ----------
    attrs:
        Attribute names in physical column order.
    data:
        Array of shape ``(num_rows, len(attrs))``.  It is made
        C-contiguous on construction because the whole point of a group
        is a dense, sequential tuple scan.
    full_width:
        Set when this group is known to contain every attribute of its
        table, which classifies it as the row-major layout.
    """

    __slots__ = (
        "_attrs",
        "_data",
        "_buffer",
        "_positions",
        "_full_width",
        "_attr_set_cache",
        "_zone_maps",
    )

    def __init__(
        self,
        attrs: Sequence[str],
        data: np.ndarray,
        full_width: bool = False,
    ) -> None:
        attrs = tuple(attrs)
        if not attrs:
            raise LayoutError("a column group needs at least one attribute")
        if len(set(attrs)) != len(attrs):
            raise LayoutError(f"duplicate attributes in group: {attrs}")
        if data.ndim != 2:
            raise LayoutError(
                f"group data must be 2-D, got shape {data.shape}"
            )
        if data.shape[1] != len(attrs):
            raise LayoutError(
                f"group has {len(attrs)} attributes but data has "
                f"{data.shape[1]} columns"
            )
        self._attrs = attrs
        self._data = frozen_view(np.ascontiguousarray(data))
        self._buffer = None  # set by extended(): room to append in place
        self._positions = {name: i for i, name in enumerate(attrs)}
        self._full_width = full_width

    # Layout interface ---------------------------------------------------

    @property
    def kind(self) -> LayoutKind:
        return LayoutKind.ROW if self._full_width else LayoutKind.GROUP

    @property
    def attrs(self) -> Tuple[str, ...]:
        return self._attrs

    @property
    def num_rows(self) -> int:
        return int(self._data.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self._data.nbytes)

    @property
    def data(self) -> np.ndarray:
        """The backing (rows × width) array (read-only view)."""
        return self._data

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    def column(self, name: str) -> np.ndarray:
        """Strided 1-D view of one attribute (no copy)."""
        return self._data[:, self.index_of(name)]

    def index_of(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise LayoutError(
                f"attribute {name!r} is not stored in this layout "
                f"({self.describe()})"
            ) from None

    def describe(self) -> str:
        kind = "row-major" if self._full_width else "group"
        if self.width <= 6:
            names = ",".join(self._attrs)
        else:
            names = ",".join(self._attrs[:5]) + f",...x{self.width}"
        return f"{kind}[{names}]"

    # Group-specific access ----------------------------------------------

    def block(self, start: int, stop: int) -> np.ndarray:
        """Contiguous (stop-start, width) view of a row range."""
        return self._data[start:stop]

    def project(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Strided views of the named attributes."""
        return {name: self.column(name) for name in names}

    def extended(self, columns: Dict[str, np.ndarray]) -> "ColumnGroup":
        """A new group with the given rows appended.

        The group a scan sees stays dense and contiguous (paper section
        3.1); the append slack lives past ``num_rows`` in the backing
        buffer, so this costs O(appended rows) when this group is the
        buffer's tip (see :func:`layout.reserve_rows`).
        """
        missing = [a for a in self._attrs if a not in columns]
        if missing:
            raise LayoutError(
                f"append is missing attributes for {self.describe()}: "
                f"{missing}"
            )
        lengths = {len(columns[a]) for a in self._attrs}
        if len(lengths) != 1:
            raise LayoutError(f"appended columns differ in length: {lengths}")
        (extra,) = lengths
        buffer, data = reserve_rows(self._buffer, self._data, extra)
        tail = data[self.num_rows :]
        for position, attr in enumerate(self._attrs):
            tail[:, position] = columns[attr]
        grown = ColumnGroup(self._attrs, data, full_width=self._full_width)
        grown._buffer = buffer
        maps = getattr(self, "_zone_maps", None)
        if maps is not None:
            # Incremental zone-map maintenance in O(appended rows):
            # fold the old tail's bounds with the new rows
            # (storage/zonemap).
            from .zonemap import attach_zone_maps, extend_zone_maps

            attach_zone_maps(grown, extend_zone_maps(maps, grown))
        return grown

    def __repr__(self) -> str:
        return (
            f"ColumnGroup({self.describe()}, rows={self.num_rows}, "
            f"dtype={self._data.dtype})"
        )
