"""The query cost model (paper section 3.5, Eq. 2).

Eq. 2 sums the cost of each access a plan makes.  Each estimate here
prices, pass by pass, the kernel :mod:`repro.codegen.templates` emits
for the plan.  A contiguous vector pass streams its words at
``io_bandwidth``; a strided pass over one attribute of a ``W``-wide
group moves ``min(W·word, line)`` bytes per value at
``random_io_bandwidth``; a gather (``col[sel]``, ``take``) pays
``miss_penalty`` per cache line it touches; gathers, reductions and
position lists pay ``cpu_per_word`` per value.  NumPy runs one pass
after another, so terms add.  ``python -m repro.bench calibrate`` fits
the constants (docs/cost_model.md).  Estimates work on abstract group
descriptors so the advisor can cost layouts that do not exist yet.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..config import MachineProfile
from ..errors import CostModelError
from ..execution.strategies import AccessPlan, ExecutionStrategy
from ..execution.strategies import (
    MIN_EINSUM_SUMS,
    narrowest_providers,
    read_whole,
)
from ..sql.analyzer import QueryInfo
from ..sql.expressions import (
    AggregateFunc,
    Arithmetic,
    BoolConnective,
    BooleanOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Not,
)

#: Default qualifying fraction assumed for a range comparison when no
#: observation is available (selinger-style magic number).
DEFAULT_COMPARISON_SELECTIVITY = 1.0 / 3.0
DEFAULT_EQUALITY_SELECTIVITY = 0.01


@dataclass(frozen=True)
class GroupSpec:
    """Abstract descriptor of one (possibly hypothetical) layout access.

    ``width`` is the layout's total attribute count; ``useful`` how many
    of them this query actually reads.  ``num_rows`` is the table size.
    """

    width: int
    useful: int
    num_rows: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.useful < 0 or self.num_rows < 0:
            raise CostModelError(f"invalid group spec: {self}")
        if self.useful > self.width:
            raise CostModelError(
                f"useful attributes ({self.useful}) exceed width "
                f"({self.width})"
            )

    _interned: ClassVar[Dict[Tuple[int, int, int], "GroupSpec"]] = {}

    @classmethod
    def of(cls, width: int, useful: int, num_rows: int) -> "GroupSpec":
        """Interned constructor — the advisor builds the same handful of
        descriptors hundreds of thousands of times per adaptation."""
        key = (width, useful, num_rows)
        spec = cls._interned.get(key)
        if spec is None:
            spec = cls(width, useful, num_rows)
            cls._interned[key] = spec
        return spec


class SpecCover:
    """The GroupSpecs of one cover, in order, with their multiplicities.

    Eq. 2 charges equal accesses once times their count, in first-seen
    order (``counted``), and a few terms walk the accesses in order
    (``specs``).  Building the pairs once per cover lets the advisor
    price one cover against many strategies without recounting it.
    """

    __slots__ = ("specs", "counted")

    def __init__(
        self,
        specs: Sequence[GroupSpec],
        counted: Optional[Tuple[Tuple[GroupSpec, int], ...]] = None,
    ) -> None:
        self.specs = tuple(specs)
        self.counted = (
            tuple(Counter(self.specs).items()) if counted is None else counted
        )

    @classmethod
    def of(cls, cover: "Sequence[GroupSpec] | SpecCover") -> "SpecCover":
        return cover if isinstance(cover, SpecCover) else cls(cover)


class SelectivityEstimator:
    """Predicate selectivity: heuristics refined by observed feedback.

    The engine reports each executed predicate's observed selectivity
    (keyed by its masked SQL, so constants don't fragment the history);
    estimates blend toward observations with an exponential moving
    average, which is how H2O's "statistics from recent queries" inform
    cost estimation without a full optimizer statistics subsystem.
    """

    def __init__(self, blend: float = 0.5) -> None:
        if not 0.0 < blend <= 1.0:
            raise CostModelError(f"blend must be in (0, 1], got {blend}")
        self._observed: Dict[str, float] = {}
        self._blend = blend
        #: Heuristic estimates by predicate key: a function of the
        #: masked predicate alone, so computed once per shape.
        self._heuristics: Dict[str, float] = {}

    def observe(self, key: str, selectivity: float) -> None:
        """Fold one observed qualifying fraction into the history."""
        selectivity = min(1.0, max(0.0, selectivity))
        previous = self._observed.get(key)
        if previous is None:
            self._observed[key] = selectivity
        else:
            self._observed[key] = (
                (1.0 - self._blend) * previous + self._blend * selectivity
            )

    def export(self) -> Dict[str, float]:
        """The learned selectivities, keyed by masked predicate SQL.

        A defensive copy suitable for JSON persistence; feed it back
        through :meth:`restore` to pre-seed a fresh estimator (the
        gateway's snapshot/recovery path does exactly this).
        """
        return dict(self._observed)

    def restore(self, observed: "Mapping[str, float]") -> None:
        """Adopt previously exported selectivities verbatim (no blend)."""
        for key, value in observed.items():
            self._observed[str(key)] = min(1.0, max(0.0, float(value)))

    def estimate(self, predicate: Optional[Expr], key: str = "") -> float:
        """Estimated qualifying fraction of ``predicate``."""
        if predicate is None:
            return 1.0
        if not key:
            return self._heuristic(predicate)
        observed = self._observed.get(key)
        if observed is not None:
            return observed
        heuristic = self._heuristics.get(key)
        if heuristic is None:
            heuristic = self._heuristics[key] = self._heuristic(predicate)
        return heuristic

    def _heuristic(self, predicate: Expr) -> float:
        if isinstance(predicate, Comparison):
            if predicate.op in (ComparisonOp.EQ,):
                return DEFAULT_EQUALITY_SELECTIVITY
            if predicate.op is ComparisonOp.NE:
                return 1.0 - DEFAULT_EQUALITY_SELECTIVITY
            return DEFAULT_COMPARISON_SELECTIVITY
        if isinstance(predicate, BooleanOp):
            left = self._heuristic(predicate.left)
            right = self._heuristic(predicate.right)
            if predicate.op is BoolConnective.AND:
                return left * right
            return min(1.0, left + right - left * right)
        if isinstance(predicate, Not):
            return 1.0 - self._heuristic(predicate.child)
        return 1.0


def _dense(spec: GroupSpec) -> bool:
    """Whether the fused kernel fetches the layout's qualifying tuples
    whole (one ``take``); a single column never is."""
    return spec.width > 1 and read_whole(spec.useful, spec.width)


def count_arithmetic_ops(expr: Expr) -> int:
    """Number of per-tuple arithmetic operations in an expression tree."""
    if isinstance(expr, Arithmetic):
        return (
            1
            + count_arithmetic_ops(expr.left)
            + count_arithmetic_ops(expr.right)
        )
    total = 0
    for child in ("left", "right", "child", "arg"):
        node = getattr(expr, child, None)
        if isinstance(node, Expr):
            total += count_arithmetic_ops(node)
    return total


class CostModel:
    """Implements Eq. 2 plus the transformation term of Eq. 1."""

    def __init__(
        self,
        machine: Optional[MachineProfile] = None,
        selectivity: Optional[SelectivityEstimator] = None,
    ) -> None:
        self.machine = machine or MachineProfile()
        self.selectivity = selectivity or SelectivityEstimator()
        # (ops, reductions, plain sums, predicate key) memoized by query
        # structure — the advisor costs the same windowed patterns
        # thousands of times.
        self._shape_cache: Dict[Tuple, Tuple[int, int, int, str]] = {}

    # Elementary access costs ------------------------------------------------

    def per_value(self, width: int) -> float:
        """One value read or written by a vector pass over one attribute
        of a ``width``-wide row-major buffer (contiguous when 1-wide)."""
        m = self.machine
        if width == 1:
            return m.word_bytes / m.io_bandwidth
        line_share = min(width * m.word_bytes, m.cache_line_bytes)
        return line_share / m.random_io_bandwidth

    def sequential_access(self, spec: GroupSpec) -> float:
        """One contiguous pass over the whole layout (an ``einsum``
        reduction or a block copy)."""
        m = self.machine
        return spec.num_rows * spec.width * m.word_bytes / m.io_bandwidth

    def column_stride_access(self, spec: GroupSpec) -> float:
        """One vector pass per useful attribute over every row: a
        compare, a reduction's read, or a copy out of the layout."""
        return spec.num_rows * spec.useful * self.per_value(spec.width)

    def gather_access(self, spec: GroupSpec, k: float) -> float:
        """Fetching ``k`` of ``num_rows`` values of each useful attribute
        through a position list (``col[sel]`` or ``take``): work per
        value plus a miss per cache line touched, saturating at every
        line of the column."""
        m = self.machine
        values_per_line = max(
            1, m.cache_line_bytes // (spec.width * m.word_bytes)
        )
        lines = min(k, math.ceil(spec.num_rows / values_per_line))
        return spec.useful * (k * m.cpu_per_word + lines * m.miss_penalty)

    def intermediate(self, values: float) -> float:
        """Writing one contiguous intermediate of ``values`` words."""
        m = self.machine
        return values * m.word_bytes / m.io_bandwidth

    # Strategy-level query costs -------------------------------------------------

    def _query_shape(self, info: QueryInfo) -> Tuple[float, int, int, int]:
        """(estimated selectivity, per-tuple arithmetic ops, reductions,
        columns under a SUM/AVG of the plain column)."""
        cache_key = info.query.signature().structure
        cached = self._shape_cache.get(cache_key)
        if cached is None:
            select = info.query.select
            ops = sum(count_arithmetic_ops(out.expr) for out in select)
            aggregates = {
                agg
                for out in select
                for agg in out.expr.aggregates()
                if agg.func is not AggregateFunc.COUNT
            }
            sums = len({
                agg.arg.name
                for agg in aggregates
                if agg.func in (AggregateFunc.SUM, AggregateFunc.AVG)
                and isinstance(agg.arg, ColumnRef)
            })
            cached = (ops, len(aggregates), sums, self._predicate_key(info))
            self._shape_cache[cache_key] = cached
        ops, reductions, sums, predicate_key = cached
        selectivity = self.selectivity.estimate(
            info.query.where, predicate_key
        )
        return selectivity, ops, reductions, sums

    @staticmethod
    def _predicate_key(info: QueryInfo) -> str:
        """The masked predicate (the shape signature's, cached on the
        query); "" without a WHERE clause."""
        return info.query.shape_signature().masked_where or ""

    def _selection(
        self,
        info: QueryInfo,
        cover: SpecCover,
        where_cover: SpecCover,
        scan_fraction: float,
        selectivity: float,
    ) -> Tuple[float, float]:
        """(cost, qualifying rows) of the selection phase both kernels
        share, over the morsels that survive zone-map pruning: one
        compare pass per predicate column, one AND (a byte per row) per
        extra conjunct, then a position per row (``flatnonzero``) — or,
        when no SELECT column is fetched (COUNT(*)), a byte per row to
        count the bitmap."""
        m = self.machine
        num_rows = where_cover.specs[0].num_rows if where_cover.specs else 0
        compares = sum(
            count * self.column_stride_access(spec)
            for spec, count in where_cover.counted
        )
        per_row = m.cpu_per_word if cover.specs else 1.0 / m.io_bandwidth
        per_row += max(0, len(info.query.predicates) - 1) / m.io_bandwidth
        return (
            scan_fraction * (compares + num_rows * per_row),
            selectivity * num_rows,
        )

    def _in_place(
        self, info: QueryInfo, cover: SpecCover, ops: int, reductions: int
    ) -> float:
        """An unfiltered kernel, either strategy: every useful column is
        read where it lies, one (strided) pass each, then consumed."""
        specs = cover.specs
        total = sum(self.column_stride_access(spec) for spec in specs)
        num_rows = specs[0].num_rows if specs else 0
        return total + self._consume(info, num_rows, ops, reductions)

    def _consume(
        self, info: QueryInfo, qualifying: float, ops: int, reductions: int
    ) -> float:
        """Work on the qualifying tuples: one intermediate per arithmetic
        operator, one pass per reduction, and a projection's column-by-
        column writes into its row-major output block."""
        total = self.intermediate(qualifying * ops)
        total += qualifying * reductions * self.machine.cpu_per_word
        if not info.is_aggregation:
            outputs = len(info.query.select)
            total += qualifying * outputs * self.per_value(outputs)
        return total

    def fused_cost(
        self,
        info: QueryInfo,
        cover: "Sequence[GroupSpec] | SpecCover",
        where_cover: "Sequence[GroupSpec] | SpecCover",
        scan_fraction: float = 1.0,
    ) -> float:
        """Eq. 2 for the generated fused kernel.

        ``cover`` describes the providers of the SELECT attributes and
        ``where_cover`` those of the predicate columns.  Filtered: the
        shared selection, then one ``take`` of the qualifying tuples per
        SELECT provider, or one per column of a provider the query reads
        little of (``_fused_bindings``'s rule).  Unfiltered: the columns
        are read in place as in :meth:`late_cost`, except that a plain
        projection out of one group is one copy (a memcpy when it takes
        the whole group, else a walk over its rows), and that the plain
        SUMs over a layout read whole share one ``einsum`` pass when there
        are at least ``MIN_EINSUM_SUMS`` of them.
        ``scan_fraction`` (morsels surviving zone-map pruning) scales the
        predicate phase only: every qualifying tuple lives in a surviving
        morsel.
        """
        cover = SpecCover.of(cover)
        selectivity, ops, reductions, sums = self._query_shape(info)
        m = self.machine
        if info.has_predicate:
            total, qualifying = self._selection(
                info, cover, SpecCover.of(where_cover), scan_fraction,
                selectivity,
            )
            for spec, count in cover.counted:
                if _dense(spec):
                    # A position per row, then the whole tuple copied.
                    cost = qualifying * (
                        m.cpu_per_word
                        + 2.0 * spec.width * m.word_bytes / m.io_bandwidth
                    )
                else:
                    # ``take`` copies a strided column view whole first.
                    cost = spec.useful * self.gather_access(
                        GroupSpec.of(1, 1, spec.num_rows), qualifying
                    )
                    if spec.width > 1:
                        cost += self.column_stride_access(spec)
                total += count * cost
            return total + self._consume(info, qualifying, ops, reductions)
        specs = cover.specs
        if (
            ops == 0
            and not info.is_aggregation
            and len(specs) == 1
            and specs[0].width > 1
        ):
            spec = specs[0]
            write = self.intermediate(spec.num_rows * len(info.query.select))
            if spec.useful == spec.width:
                return 2.0 * write
            # A strided copy gathers each row's share of the group.
            pieces = math.ceil(spec.useful * m.word_bytes / m.cache_line_bytes)
            row = GroupSpec.of(spec.width, 1, spec.num_rows)
            return pieces * self.gather_access(row, spec.num_rows) + write
        total = self._in_place(info, cover, ops, reductions)
        for spec in specs:
            if sums and _dense(spec):
                # The one pass replaces the summed columns' passes and
                # reductions; the sums are taken to read such layouts
                # first.
                summed = min(sums, spec.useful)
                sums -= summed
                if summed < MIN_EINSUM_SUMS:
                    continue
                per_column = spec.num_rows * (
                    m.cpu_per_word + self.per_value(spec.width)
                )
                total += self.sequential_access(spec) - summed * per_column
        return total

    def late_cost(
        self,
        info: QueryInfo,
        cover: "Sequence[GroupSpec] | SpecCover",
        where_cover: "Sequence[GroupSpec] | SpecCover",
        scan_fraction: float = 1.0,
    ) -> float:
        """Eq. 2 for the generated late-materialization kernel.

        ``cover`` and ``where_cover`` are as in :meth:`fused_cost`.  The
        kernel compares every predicate column over the whole morsel,
        ANDs the masks into one bitmap and takes one selection vector
        (``flatnonzero``; a COUNT(*)-only query just counts the bitmap).
        Each SELECT attribute is then gathered at the final selectivity.
        ``scan_fraction`` scales the predicate phase as in
        :meth:`fused_cost`.
        """
        cover = SpecCover.of(cover)
        selectivity, ops, reductions, _ = self._query_shape(info)
        if not info.has_predicate:
            return self._in_place(info, cover, ops, reductions)
        total, qualifying = self._selection(
            info, cover, SpecCover.of(where_cover), scan_fraction,
            selectivity,
        )
        for spec, count in cover.counted:
            total += count * self.gather_access(spec, qualifying)
        return total + self._consume(info, qualifying, ops, reductions)

    # Concrete-plan costing -------------------------------------------------------

    @staticmethod
    def _plan_specs(
        layouts, select_attrs: Iterable[str], where_attrs: Iterable[str]
    ) -> Tuple[SpecCover, SpecCover]:
        """SpecCovers of a concrete plan's SELECT and WHERE accesses, each
        attribute charged to its narrowest provider (the binding the
        generated kernels use)."""
        provider = narrowest_providers(layouts)

        def specs(attrs: Iterable[str]) -> SpecCover:
            useful = Counter(provider[attr] for attr in attrs)
            return SpecCover(
                GroupSpec.of(layouts[i].width, count, layouts[i].num_rows)
                for i, count in sorted(useful.items())
            )

        return specs(select_attrs), specs(where_attrs)

    def plan_cost(
        self,
        info: QueryInfo,
        plan: AccessPlan,
        scan_fraction: float = 1.0,
    ) -> float:
        """Estimated cost of executing ``info`` with ``plan`` (Eq. 2).

        ``scan_fraction`` is the fraction of morsels surviving zone-map
        pruning (the engine measures it against the pinned snapshot once
        per planning); it discounts the predicate phase only.
        """
        price = (
            self.fused_cost
            if plan.strategy is ExecutionStrategy.FUSED
            else self.late_cost
        )
        return price(
            info,
            *self._plan_specs(
                plan.layouts, info.select_attrs, info.where_attrs
            ),
            scan_fraction,
        )

    # Transformation cost (the T term of Eq. 1) -----------------------------------

    def transformation_cost(
        self, bytes_read: float, bytes_written: float, width: int
    ) -> float:
        """Estimated seconds to stitch a ``width``-wide layout: the
        sources streamed once, then the new layout written column by
        column, as :func:`~repro.storage.stitcher.stitch_group` does."""
        m = self.machine
        written = bytes_written / m.word_bytes
        return bytes_read / m.io_bandwidth + written * self.per_value(width)

    def build_cost_estimate(
        self, num_rows: int, new_width: int, source_width_total: int
    ) -> float:
        """Transformation cost of a hypothetical ``new_width`` group.

        ``source_width_total`` is the summed width of the layouts that
        would be scanned to provide the attributes.
        """
        word = self.machine.word_bytes
        return self.transformation_cost(
            bytes_read=num_rows * source_width_total * word,
            bytes_written=num_rows * new_width * word,
            width=new_width,
        )
