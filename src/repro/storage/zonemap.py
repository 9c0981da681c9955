"""Per-morsel zone maps (min/max pruning metadata) for every layout.

A *zone map* stores, for each aligned morsel of ``morsel_rows`` rows and
each attribute of a layout that a predicate has consulted, the minimum
and maximum value occurring in that morsel (built on first consultation
by :func:`ensure_attr_stats`).  The parallel scan subsystem consults
them before dispatch to skip morsels that provably contain no
qualifying rows, and the cost model uses the surviving fraction to
price pruned scans (the chunk-level pruning that dominates scan cost in
clustered stores).

Invariants that make the maps cheap to keep correct:

- Layouts are immutable: :meth:`Table.append_rows` replaces layout
  objects via ``extended()`` rather than mutating them (the new object
  may share the old one's backing buffer, but rows an existing object
  shows are never rewritten), so a zone map cached on a layout object
  can never go stale.  Epoch invalidation is therefore satisfied by
  construction — a new epoch publishes new layout objects, which carry
  fresh (or incrementally extended) maps.
- All layouts of one table are row-aligned, so the per-morsel stats for
  an attribute are identical no matter which layout produced them.
- Min/max use NaN-ignoring reductions (``np.fmin`` / ``np.fmax``); an
  all-NaN morsel yields NaN bounds, for which every comparison rule is
  False — correctly prunable, since predicates on NaN never qualify.

Pruning is *conservative*: any conjunct that is not a simple
``column <op> literal`` comparison contributes nothing to the mask, and
attributes without stats keep every morsel.  A pruned morsel therefore
provably contains zero qualifying rows, which is what keeps per-morsel
qualifying-row sums exact for selectivity feedback.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import LayoutError
from ..sql.expressions import ColumnRef, Comparison, ComparisonOp, Expr, Literal
from ..sql.signature import literal_count
from .layout import Layout


def num_morsels_for(num_rows: int, morsel_rows: int) -> int:
    """Number of aligned morsels covering ``num_rows`` rows."""
    if morsel_rows <= 0:
        raise LayoutError(f"morsel_rows must be positive: {morsel_rows}")
    return (num_rows + morsel_rows - 1) // morsel_rows


def morsel_ranges(num_rows: int, morsel_rows: int) -> List[Tuple[int, int]]:
    """Aligned ``(lo, hi)`` row ranges of at most ``morsel_rows`` rows."""
    return [
        (lo, min(lo + morsel_rows, num_rows))
        for lo in range(0, num_rows, morsel_rows)
    ]


class ZoneMaps:
    """Immutable per-morsel min/max stats for one layout's attributes."""

    __slots__ = ("morsel_rows", "num_rows", "mins", "maxs")

    def __init__(
        self,
        morsel_rows: int,
        num_rows: int,
        mins: Dict[str, np.ndarray],
        maxs: Dict[str, np.ndarray],
    ) -> None:
        self.morsel_rows = int(morsel_rows)
        self.num_rows = int(num_rows)
        self.mins = mins
        self.maxs = maxs

    @property
    def num_morsels(self) -> int:
        return num_morsels_for(self.num_rows, self.morsel_rows)

    @property
    def attrs(self) -> Tuple[str, ...]:
        return tuple(self.mins)

    def stats_for(self, attr: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(mins, maxs)`` arrays for ``attr`` or None if not tracked."""
        mins = self.mins.get(attr)
        if mins is None:
            return None
        return mins, self.maxs[attr]

    def __repr__(self) -> str:
        return (
            f"ZoneMaps(rows={self.num_rows}, morsel_rows={self.morsel_rows}, "
            f"attrs={list(self.mins)})"
        )


def _minmax_per_morsel(
    values: np.ndarray, morsel_rows: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-morsel (min, max) of a 1-D array, NaN-ignoring."""
    n = int(values.shape[0])
    num = num_morsels_for(n, morsel_rows)
    full = n // morsel_rows
    mins = np.empty(num, dtype=values.dtype)
    maxs = np.empty(num, dtype=values.dtype)
    if full:
        head = np.ascontiguousarray(values[: full * morsel_rows])
        head = head.reshape(full, morsel_rows)
        np.fmin.reduce(head, axis=1, out=mins[:full])
        np.fmax.reduce(head, axis=1, out=maxs[:full])
    if num > full:
        tail = values[full * morsel_rows :]
        mins[full] = np.fmin.reduce(tail)
        maxs[full] = np.fmax.reduce(tail)
    return mins, maxs


def extend_zone_maps(old: ZoneMaps, layout: Layout) -> ZoneMaps:
    """Incrementally extend ``old`` to cover the appended-to ``layout``.

    Only the attributes ``old`` tracks are extended, in O(appended
    rows): every morsel of the old map is reused, the partial tail
    morsel's bounds are folded (``np.fmin``/``np.fmax``) with the
    appended rows that land in it, and only brand-new morsels are
    reduced from scratch.  The fold gives exactly the bounds a fresh
    :func:`_minmax_per_morsel` gives (NaN-ignoring either way; of two
    equal signed zeros either may be kept).  This is what
    :meth:`Table.append_rows` relies on to keep zone maps up to date
    without a rebuild per append.
    """
    m = old.morsel_rows
    num_rows = layout.num_rows
    old_rows = old.num_rows
    if num_rows < old_rows:
        raise LayoutError(
            f"cannot extend zone maps backwards: {old_rows} -> {num_rows}"
        )
    complete = old_rows // m
    old_num = num_morsels_for(old_rows, m)
    num = num_morsels_for(num_rows, m)
    # Appended rows that fall into the old partial tail morsel.
    tail_stop = min(old_num * m, num_rows)
    mins: Dict[str, np.ndarray] = {}
    maxs: Dict[str, np.ndarray] = {}
    for attr in old.attrs:
        old_mins, old_maxs = old.stats_for(attr)
        column = layout.column(attr)
        new_mins = np.empty(num, dtype=column.dtype)
        new_maxs = np.empty(num, dtype=column.dtype)
        new_mins[:old_num] = old_mins
        new_maxs[:old_num] = old_maxs
        if tail_stop > old_rows:
            fresh = column[old_rows:tail_stop]
            new_mins[complete] = np.fmin(
                old_mins[complete], np.fmin.reduce(fresh)
            )
            new_maxs[complete] = np.fmax(
                old_maxs[complete], np.fmax.reduce(fresh)
            )
        if num > old_num:
            tail_mins, tail_maxs = _minmax_per_morsel(
                column[old_num * m :], m
            )
            new_mins[old_num:] = tail_mins
            new_maxs[old_num:] = tail_maxs
        mins[attr] = new_mins
        maxs[attr] = new_maxs
    return ZoneMaps(m, num_rows, mins, maxs)


def attach_zone_maps(layout: Layout, maps: ZoneMaps) -> None:
    """Cache ``maps`` on ``layout`` (no-op for layouts without the slot)."""
    try:
        object.__setattr__(layout, "_zone_maps", maps)
    except AttributeError:
        pass


def cached_zone_maps(layout: Layout) -> Optional[ZoneMaps]:
    """The zone maps already attached to ``layout``, if any."""
    return getattr(layout, "_zone_maps", None)


def ensure_attr_stats(
    layout: Layout, attr: str, morsel_rows: int
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Per-morsel ``(mins, maxs)`` for one attribute, lazily cached.

    This is the one zone-map builder: stats exist only for attributes
    some predicate consulted (one min/max scan the first time, then
    cached until the immutable layout is replaced, and carried across
    appends by :func:`extend_zone_maps`).  Existing cached maps are
    extended copy-on-write; a concurrent racer produces an identical
    object and the last write wins.
    """
    if attr not in layout.attr_set:
        return None
    maps = cached_zone_maps(layout)
    valid = (
        maps is not None
        and maps.morsel_rows == morsel_rows
        and maps.num_rows == layout.num_rows
    )
    if valid:
        stats = maps.stats_for(attr)
        if stats is not None:
            return stats
    mins, maxs = _minmax_per_morsel(layout.column(attr), morsel_rows)
    if valid:
        new_mins = dict(maps.mins)
        new_maxs = dict(maps.maxs)
    else:
        new_mins, new_maxs = {}, {}
    new_mins[attr] = mins
    new_maxs[attr] = maxs
    attach_zone_maps(
        layout, ZoneMaps(morsel_rows, layout.num_rows, new_mins, new_maxs)
    )
    return mins, maxs


# Pruning --------------------------------------------------------------


def conjunct_bounds(
    conjunct: Expr,
) -> Optional[Tuple[str, ComparisonOp, float]]:
    """Normalize a conjunct to ``(attr, op, literal)`` if it is a simple
    single-column comparison; None otherwise (no pruning contribution).

    Literal-on-the-left comparisons are normalized with
    :meth:`ComparisonOp.flipped` so ``5 < a`` prunes like ``a > 5``.
    """
    if not isinstance(conjunct, Comparison):
        return None
    left, right = conjunct.left, conjunct.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        return left.name, conjunct.op, float(right.value)
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        return right.name, conjunct.op.flipped(), float(left.value)
    return None


class ZoneBounds:
    """A conjunction's zone-map tests bound to one layout set.

    Binding resolves, once, everything a query shape fixes: which
    conjuncts normalize to ``column <op> literal``, where each literal
    sits in the query's canonical literal vector, and the ``(mins,
    maxs)`` rows each test reads.  :meth:`keep` then tests all literals
    of one query in one vectorised comparison per rule family.  Every
    rule is rewritten as ``row < v`` or ``row <= v`` — ``maxs > v`` is
    ``-maxs < -v`` and ``EQ`` is both ``mins <= v`` and ``-maxs <= -v``
    — over float64 rows, which is how NumPy compares an int64 or float64
    column with a Python float.  Only ``NE`` keeps its own test.
    """

    __slots__ = ("num_morsels", "_rules", "_ne")

    def __init__(
        self,
        num_morsels: int,
        tests: Sequence[Tuple[int, ComparisonOp, np.ndarray, np.ndarray]],
    ) -> None:
        self.num_morsels = num_morsels
        # (literal slot, sign, row) per family, and (slot, mins, maxs)
        # for NE.
        lt: List[Tuple[int, float, np.ndarray]] = []
        le: List[Tuple[int, float, np.ndarray]] = []
        ne: List[Tuple[int, np.ndarray, np.ndarray]] = []
        for slot, op, mins, maxs in tests:
            low = mins.astype(np.float64)
            high = maxs.astype(np.float64)
            if op is ComparisonOp.LT:
                lt.append((slot, 1.0, low))
            elif op is ComparisonOp.LE:
                le.append((slot, 1.0, low))
            elif op is ComparisonOp.GT:
                lt.append((slot, -1.0, -high))
            elif op is ComparisonOp.GE:
                le.append((slot, -1.0, -high))
            elif op is ComparisonOp.EQ:
                le += [(slot, 1.0, low), (slot, -1.0, -high)]
            else:
                ne.append((slot, low, high))
        self._rules = []
        for compare, family in ((np.less, lt), (np.less_equal, le)):
            if family:
                slots, signs, rows = zip(*family)
                signs = np.array(signs)[:, None]
                self._rules.append((compare, slots, signs, np.stack(rows)))
        self._ne = None
        if ne:
            slots, low, high = zip(*ne)
            self._ne = (slots, np.stack(low), np.stack(high))

    def __bool__(self) -> bool:
        """Whether any conjunct is bound (else nothing can prune)."""
        return bool(self._rules) or self._ne is not None

    def keep(self, literals: Sequence[object]) -> Optional[np.ndarray]:
        """Per-morsel keep mask for one query's ``literals`` (its
        canonical literal vector), or None when nothing is bound."""
        if not self:
            return None
        keep = np.ones(self.num_morsels, dtype=bool)
        for compare, slots, signs, rows in self._rules:
            values = np.array([float(literals[i]) for i in slots])[:, None]
            keep &= compare(rows, signs * values).all(axis=0)
        if self._ne is not None:
            slots, low, high = self._ne
            values = np.array([float(literals[i]) for i in slots])[:, None]
            keep &= ~((low == values) & (high == values)).any(axis=0)
        return keep


def bind_zone_bounds(
    num_morsels: int,
    conjuncts: Iterable[Expr],
    stats_for: Callable[[str], Optional[Tuple[np.ndarray, np.ndarray]]],
) -> ZoneBounds:
    """Bind a conjunctive predicate's zone-map tests.

    ``stats_for(attr)`` supplies ``(mins, maxs)`` arrays (or None when
    the attribute has no stats).  Conjuncts that cannot be normalized,
    attributes without stats and stats of another granularity (stale)
    bind nothing — pruning only ever removes morsels a simple bound
    proves empty.  Each literal's slot is its index in the canonical
    literal vector (``Query.literals``): conjuncts come first there, in
    order, each pre-order.
    """
    tests = []
    slot = 0
    for conjunct in conjuncts:
        normalized = conjunct_bounds(conjunct)
        if normalized is not None:
            attr, op, _ = normalized
            stats = stats_for(attr)
            if stats is not None and stats[0].shape[0] == num_morsels:
                tests.append((slot, op, stats[0], stats[1]))
        slot += literal_count(conjunct)
    return ZoneBounds(num_morsels, tests)
