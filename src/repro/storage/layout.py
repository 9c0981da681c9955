"""Abstract physical layout interface.

Every physical layout stores some subset of a table's attributes for all
of its rows, row-aligned with every other layout of the same table (the
layout manager only creates layouts through the stitcher, which preserves
tuple order).  Row alignment is what lets a selection vector computed
from one layout be applied to another (Fig. 6's two-group plan).
"""

from __future__ import annotations

import abc
import enum
import threading
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

import numpy as np

from ..errors import LayoutError

#: Capacity multiplier when an append outgrows its backing buffer.  The
#: slack is allocated with ``np.empty`` and never written until rows
#: land in it, so it costs address space, not resident memory.
GROWTH_FACTOR = 1.5


class LayoutKind(enum.Enum):
    """The three layout families of the paper (section 3.1)."""

    ROW = "row"
    COLUMN = "column"
    GROUP = "group"


class Layout(abc.ABC):
    """A physical materialization of some attributes of a table."""

    @property
    @abc.abstractmethod
    def kind(self) -> LayoutKind:
        """Which layout family this materialization belongs to."""

    @property
    @abc.abstractmethod
    def attrs(self) -> Tuple[str, ...]:
        """Attribute names stored here, in physical (storage) order."""

    @property
    @abc.abstractmethod
    def num_rows(self) -> int:
        """Number of tuples stored."""

    @property
    @abc.abstractmethod
    def nbytes(self) -> int:
        """Total bytes of attribute data held by this layout."""

    @property
    def reserved_bytes(self) -> int:
        """Bytes of backing capacity, append slack included (>= nbytes)."""
        buffer = getattr(self, "_buffer", None)
        return self.nbytes if buffer is None else int(buffer.array.nbytes)

    @property
    @abc.abstractmethod
    def data(self) -> np.ndarray:
        """The one backing array (read-only view) a generated kernel
        binds for this layout; a morsel ``[lo:hi]`` slices its rows."""

    @abc.abstractmethod
    def column(self, name: str) -> np.ndarray:
        """A 1-D array of attribute ``name`` (a view where possible)."""

    @property
    def width(self) -> int:
        """Number of attributes stored."""
        return len(self.attrs)

    @property
    def attr_set(self) -> FrozenSet[str]:
        cached = getattr(self, "_attr_set_cache", None)
        if cached is None:
            cached = frozenset(self.attrs)
            try:
                object.__setattr__(self, "_attr_set_cache", cached)
            except AttributeError:
                pass  # __slots__ without the cache slot; recompute
        return cached

    def contains(self, names: Iterable[str]) -> bool:
        """Whether every name in ``names`` is stored in this layout."""
        return self.attr_set.issuperset(names)

    def columns(self, names: Iterable[str]) -> Dict[str, np.ndarray]:
        """1-D arrays for each requested attribute."""
        return {name: self.column(name) for name in names}

    def index_of(self, name: str) -> int:
        """Physical position of ``name`` within this layout."""
        try:
            return self.attrs.index(name)
        except ValueError:
            raise LayoutError(
                f"attribute {name!r} is not stored in this layout "
                f"({self.describe()})"
            ) from None

    @abc.abstractmethod
    def describe(self) -> str:
        """Short human-readable identification for errors and reports."""


def frozen_view(data: np.ndarray) -> np.ndarray:
    """A read-only view of ``data``; the caller's own array keeps its flag.

    Plain layouts publish their rows only through such views, so the tip
    append through the private :class:`AppendBuffer` is the sole writer
    and no reader can scribble on rows a pinned snapshot shares.
    """
    view = data.view()
    view.flags.writeable = False
    return view


class AppendBuffer:
    """Private backing array shared by successive ``extended()`` layouts.

    ``array`` has room for more rows than any published view shows;
    ``used`` is the length of the longest view handed out so far.  Rows
    below ``used`` are never rewritten, which is what keeps every layout
    viewing this buffer immutable while a later generation appends past
    its end.
    """

    __slots__ = ("array", "used", "lock")

    def __init__(self, array: np.ndarray, used: int) -> None:
        self.array = array
        self.used = used
        self.lock = threading.Lock()


def reserve_rows(
    buffer: Optional[AppendBuffer], data: np.ndarray, extra: int
) -> Tuple[AppendBuffer, np.ndarray]:
    """Room for ``extra`` rows after ``data``, in O(extra) when possible.

    ``data`` is a layout's published view and ``buffer`` the buffer it
    views (None for layouts built from caller arrays or shared memory).
    Returns ``(buffer, grown)``: ``grown`` starts with ``data``'s rows
    and ends with ``extra`` uninitialised ones that belong to the caller
    alone — it copies the new values in, then wraps ``grown`` in the
    extended layout.

    The space comes from the buffer's spare capacity when ``data`` is
    its *tip* — ``used`` equals ``data``'s length, i.e. nobody has
    appended after this layout yet — and the rows fit.  Anything else
    (no buffer, a stale or abandoned earlier extension already claimed
    the space, capacity exhausted) copies ``data`` into a fresh buffer
    ``GROWTH_FACTOR`` times the needed size, so a full copy happens
    O(log n) times over n appends.
    """
    rows = data.shape[0]
    total = rows + extra
    if buffer is not None:
        with buffer.lock:
            if buffer.used == rows and total <= buffer.array.shape[0]:
                buffer.used = total
                return buffer, buffer.array[:total]
    capacity = max(total, int(total * GROWTH_FACTOR))
    array = np.empty((capacity,) + data.shape[1:], dtype=data.dtype)
    array[:rows] = data
    return AppendBuffer(array, total), array[:total]

