"""Single-column layouts (the column-major / DSM extreme).

A column-major table is a set of :class:`SingleColumn` layouts, one per
attribute, each a 1-D contiguous array holding only the attribute values
(the paper stores no tuple IDs; positions are implicit, section 3.1).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import LayoutError
from .layout import Layout, LayoutKind, frozen_view, reserve_rows


class SingleColumn(Layout):
    """One attribute stored contiguously.

    ``data`` is published as a read-only view; appends go through
    :meth:`extended`, the only writer (see :func:`layout.reserve_rows`).
    """

    __slots__ = (
        "_name",
        "_data",
        "_buffer",
        "_attr_set_cache",
        "_zone_maps",
    )

    def __init__(self, name: str, data: np.ndarray) -> None:
        if data.ndim != 1:
            raise LayoutError(
                f"column data must be 1-D, got shape {data.shape}"
            )
        self._name = name
        self._data = frozen_view(np.ascontiguousarray(data))
        self._buffer = None  # set by extended(): room to append in place

    @property
    def kind(self) -> LayoutKind:
        return LayoutKind.COLUMN

    @property
    def name(self) -> str:
        return self._name

    @property
    def attrs(self) -> Tuple[str, ...]:
        return (self._name,)

    @property
    def num_rows(self) -> int:
        return int(self._data.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self._data.nbytes)

    @property
    def data(self) -> np.ndarray:
        """The backing 1-D array (read-only view)."""
        return self._data

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    def column(self, name: str) -> np.ndarray:
        if name != self._name:
            raise LayoutError(
                f"attribute {name!r} is not stored in this layout "
                f"({self.describe()})"
            )
        return self._data

    def extended(self, columns) -> "SingleColumn":
        """A new column with the given rows appended.

        Costs O(appended rows) when this column is the tip of its
        backing buffer; this object and every snapshot pinning it keep
        seeing exactly their own rows.
        """
        if self._name not in columns:
            raise LayoutError(
                f"append is missing attribute {self._name!r}"
            )
        new_values = np.asarray(columns[self._name], dtype=self._data.dtype)
        buffer, data = reserve_rows(
            self._buffer, self._data, len(new_values)
        )
        data[self.num_rows :] = new_values
        grown = SingleColumn(self._name, data)
        grown._buffer = buffer
        maps = getattr(self, "_zone_maps", None)
        if maps is not None:
            # Incremental zone-map maintenance in O(appended rows):
            # fold the old tail's bounds with the new rows
            # (storage/zonemap).
            from .zonemap import attach_zone_maps, extend_zone_maps

            attach_zone_maps(grown, extend_zone_maps(maps, grown))
        return grown

    def describe(self) -> str:
        return f"column[{self._name}]"

    def __repr__(self) -> str:
        return (
            f"SingleColumn({self._name!r}, rows={self.num_rows}, "
            f"dtype={self._data.dtype})"
        )
