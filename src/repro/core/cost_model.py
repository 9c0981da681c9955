"""The query cost model (paper section 3.5, Eq. 2).

For a query ``q`` over a set of accessed layouts ``L``::

    q(L) = sum_i max(costIO_i, costCPU_i)

- I/O cost is data volume over scan bandwidth (all experiments are
  memory-resident, so "I/O" is memory traffic, sequential or gathered).
- CPU cost is modelled from data-cache misses (the dominant stall source
  for scan-heavy plans [Ailamaki et al., VLDB'99]) plus per-value
  processing work.  Misses are derived from the layout width, the tuple
  count, the words actually useful to the query, and the access pattern
  (sequential vs. gather at some selectivity) — the HYRISE-style model
  the paper cites.  Intermediate-result traffic is charged explicitly,
  because strategies differ exactly there (late materialization pays it,
  fused scans avoid it).

The model is used for *relative* decisions (which plan / which layout /
is a transformation amortized), matching how the paper uses it.  All
estimates work on abstract group descriptors so the advisor can cost
hypothetical layouts that do not exist yet.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import (
    ClassVar,
    Dict,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..config import MachineProfile
from ..errors import CostModelError
from ..execution.strategies import AccessPlan, ExecutionStrategy
from ..sql.analyzer import QueryInfo
from ..sql.expressions import (
    Arithmetic,
    BoolConnective,
    BooleanOp,
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
        if key and key in self._observed:
            return self._observed[key]
        return self._heuristic(predicate)

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
        # (ops count, predicate key) memoized by query structure — the
        # advisor costs the same windowed patterns thousands of times.
        self._shape_cache: Dict[Tuple, Tuple[int, str]] = {}
        # Elementary access costs are pure functions of their inputs;
        # the advisor hits the same (spec, k) points constantly.
        self._seq_cache: Dict[GroupSpec, float] = {}
        self._stride_cache: Dict[GroupSpec, float] = {}
        self._gather_cache: Dict[Tuple[GroupSpec, int], float] = {}

    # Elementary access costs ------------------------------------------------

    def sequential_access(self, spec: GroupSpec) -> float:
        """max(IO, CPU) for one full sequential scan of a layout."""
        cached = self._seq_cache.get(spec)
        if cached is not None:
            return cached
        m = self.machine
        bytes_scanned = spec.num_rows * spec.width * m.word_bytes
        io = bytes_scanned / m.io_bandwidth
        misses = bytes_scanned / m.cache_line_bytes
        work = spec.num_rows * spec.useful * m.cpu_per_word
        cpu = misses * m.miss_penalty + work
        result = max(io, cpu)
        self._seq_cache[spec] = result
        return result

    def column_stride_access(self, spec: GroupSpec) -> float:
        """max(IO, CPU) for reading ``useful`` columns *individually*
        out of a layout of ``width`` attributes (strided access).

        Every cache line containing a useful value is fetched; when the
        layout is wide, one value costs one whole line.
        """
        cached = self._stride_cache.get(spec)
        if cached is not None:
            return cached
        m = self.machine
        values_per_line = max(
            1, m.cache_line_bytes // (spec.width * m.word_bytes)
        )
        lines_per_column = math.ceil(spec.num_rows / values_per_line)
        lines = spec.useful * lines_per_column
        # A wide layout cannot require more lines than a full scan per
        # column pass, nor fewer than the useful values demand.
        bytes_touched = lines * m.cache_line_bytes
        io = bytes_touched / m.io_bandwidth
        work = spec.num_rows * spec.useful * m.cpu_per_word
        cpu = lines * m.miss_penalty + work
        result = max(io, cpu)
        self._stride_cache[spec] = result
        return result

    def gather_access(self, spec: GroupSpec, k: int) -> float:
        """max(IO, CPU) for fetching ``k`` of ``num_rows`` tuples'
        useful values through a position list (random access)."""
        cache_key = (spec, k)
        cached = self._gather_cache.get(cache_key)
        if cached is not None:
            return cached
        m = self.machine
        values_per_line = max(
            1, m.cache_line_bytes // (spec.width * m.word_bytes)
        )
        total_lines = spec.useful * math.ceil(
            spec.num_rows / values_per_line
        )
        touched = min(k * spec.useful, total_lines)
        bytes_touched = touched * m.cache_line_bytes
        io = bytes_touched / m.random_io_bandwidth
        work = k * spec.useful * m.cpu_per_word
        cpu = touched * m.miss_penalty + work
        result = max(io, cpu)
        self._gather_cache[cache_key] = result
        return result

    def intermediate(self, values: float) -> float:
        """Write + read back one intermediate of ``values`` words."""
        m = self.machine
        traffic = 2.0 * values * m.word_bytes
        io = traffic / m.io_bandwidth
        cpu = (traffic / m.cache_line_bytes) * m.miss_penalty
        return max(io, cpu)

    # Strategy-level query costs -------------------------------------------------

    def _query_shape(
        self, info: QueryInfo
    ) -> Tuple[float, int, int]:
        """(estimated selectivity, #select attrs, per-tuple ops)."""
        cache_key = info.query.signature().structure
        cached = self._shape_cache.get(cache_key)
        if cached is None:
            ops = sum(
                count_arithmetic_ops(out.expr) for out in info.query.select
            )
            cached = (ops, self._predicate_key(info))
            self._shape_cache[cache_key] = cached
        ops, predicate_key = cached
        selectivity = self.selectivity.estimate(
            info.query.where, predicate_key
        )
        return selectivity, len(info.select_attrs), ops

    @staticmethod
    def _predicate_key(info: QueryInfo) -> str:
        if info.query.where is None:
            return ""
        from ..codegen.exprc import masked_sql

        return masked_sql(info.query.where)

    def fused_cost(
        self,
        info: QueryInfo,
        cover: Sequence[GroupSpec],
        scan_fraction: float = 1.0,
    ) -> float:
        """Eq. 2 for a fused single-pass scan over ``cover``.

        ``scan_fraction`` is the fraction of morsels that survive
        zone-map pruning (1.0 when nothing prunes): pruning skips whole
        morsels before they are scanned, so only the *scan* term
        shrinks.  The qualifying-tuple terms are untouched — pruning is
        exact, every qualifying tuple lives in a surviving morsel.
        """
        selectivity, n_select, ops = self._query_shape(info)
        # Identical (interned) specs are grouped: cost is linear in the
        # number of *distinct* access shapes, not the number of layouts.
        total = scan_fraction * sum(
            count * self.sequential_access(spec)
            for spec, count in Counter(cover).items()
        )
        num_rows = cover[0].num_rows if cover else 0
        qualifying = selectivity * num_rows
        # Arithmetic on qualifying tuples only (predicate push-down).
        total += qualifying * ops * self.machine.cpu_per_word
        if info.has_predicate and n_select:
            # Compaction buffers for qualifying tuples.
            total += self.intermediate(qualifying * n_select)
        if not info.is_aggregation:
            total += self.intermediate(qualifying * len(info.query.select))
        return total

    def late_cost(
        self, info: QueryInfo, cover: Sequence[GroupSpec],
        where_cover: Optional[Sequence[GroupSpec]] = None,
        scan_fraction: float = 1.0,
    ) -> float:
        """Eq. 2 for a late-materialization plan.

        ``cover`` describes the accesses serving the SELECT clause and
        ``where_cover`` (default: derived from ``cover``) the predicate
        columns.  Predicate columns are read with strided column access;
        SELECT columns are gathered at the estimated selectivity, and
        every arithmetic operator materializes an intermediate.

        ``scan_fraction`` scales the predicate-column scan exactly as in
        :meth:`fused_cost`: zone-map pruning skips whole morsels of the
        filter scan, while the qualifying-tuple gathers are unchanged.
        """
        selectivity, n_select, ops = self._query_shape(info)
        num_rows = cover[0].num_rows if cover else 0
        total = 0.0
        if info.has_predicate:
            where_specs = where_cover if where_cover is not None else ()
            for spec, count in Counter(where_specs).items():
                total += scan_fraction * count * (
                    self.column_stride_access(spec)
                )
            qualifying = selectivity * num_rows
            # The selection vector itself is an intermediate.
            total += self.intermediate(qualifying)
            # Conjunct-by-conjunct refinement (paper section 2.1): every
            # predicate after the first fetches its qualifying values
            # into a fresh intermediate column and rewrites the position
            # list.  A fused scan evaluates the whole conjunction in one
            # pass and pays none of this.
            num_conjuncts = len(info.query.predicates)
            if num_conjuncts > 1:
                # Geometric per-conjunct selectivity; the chain gathers
                # at the running qualifying count after each conjunct.
                per_conjunct = selectivity ** (1.0 / num_conjuncts)
                running = float(num_rows)
                single = GroupSpec.of(1, 1, num_rows)
                for _ in range(num_conjuncts - 1):
                    running *= per_conjunct
                    total += self.gather_access(single, int(running))
                    total += 2.0 * self.intermediate(running)
        else:
            qualifying = float(num_rows)
        for spec, count in Counter(cover).items():
            if info.has_predicate:
                total += count * (
                    self.gather_access(spec, int(qualifying))
                    + self.intermediate(qualifying * spec.useful)
                )
            else:
                total += count * self.column_stride_access(spec)
        # Per-operator intermediates for the arithmetic pipeline.
        total += ops * self.intermediate(qualifying)
        total += qualifying * ops * self.machine.cpu_per_word
        if not info.is_aggregation:
            total += self.intermediate(qualifying * len(info.query.select))
        return total

    # Concrete-plan costing -------------------------------------------------------

    def _specs_for_layouts(
        self, layouts, attrs: Iterable[str]
    ) -> Tuple[GroupSpec, ...]:
        """GroupSpecs for concrete layouts given the needed attributes."""
        needed = set(attrs)
        specs = []
        for layout in layouts:
            useful = len(needed & layout.attr_set)
            if useful == 0:
                continue
            specs.append(GroupSpec.of(layout.width, useful, layout.num_rows))
        return tuple(specs)

    def plan_cost(
        self,
        info: QueryInfo,
        plan: AccessPlan,
        scan_fraction: float = 1.0,
    ) -> float:
        """Estimated cost of executing ``info`` with ``plan`` (Eq. 2).

        ``scan_fraction`` is the fraction of morsels surviving zone-map
        pruning (the engine measures it against the pinned snapshot once
        per planning); it discounts the scan terms only.
        """
        if plan.strategy is ExecutionStrategy.FUSED:
            cover = self._specs_for_layouts(plan.layouts, info.all_attrs)
            return self.fused_cost(info, cover, scan_fraction)
        select_specs = self._specs_for_layouts(
            plan.layouts, info.select_attrs
        )
        where_specs = self._specs_for_layouts(plan.layouts, info.where_attrs)
        return self.late_cost(
            info, select_specs, where_specs, scan_fraction
        )

    # Transformation cost (the T term of Eq. 1) -----------------------------------

    def transformation_cost(
        self, bytes_read: float, bytes_written: float
    ) -> float:
        """Estimated seconds to stitch a new layout from existing ones."""
        m = self.machine
        traffic = bytes_read + bytes_written
        io = traffic / m.io_bandwidth
        cpu = (traffic / m.cache_line_bytes) * m.miss_penalty
        return max(io, cpu)

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
        )
