"""The scan driver: every scan is a loop over morsels.

A *morsel* is an aligned ``(lo, hi)`` row range of
``EngineConfig.morsel_rows`` rows — the single unit of pruning,
scheduling and execution (paper section 3.3 processes data a
cache-sized vector at a time for every layout and strategy).  This
module turns one access plan into per-morsel work items, prunes morsels
that zone maps prove empty, runs the survivors — on the caller alone
when one morsel survives or one thread is allowed, over the shared
:class:`ScanPool` otherwise — and combines the per-morsel partial
results **in morsel-index order**, regardless of thread completion
order.  Answer bits are therefore a function of the data and
``morsel_rows`` only: never of core count, pool load, pruning or
plan-cache state.

The driver evaluates nothing itself.  A *runner* — a compiled kernel
bound to its buffers and literals, or one of the two interpreters
(:func:`~repro.execution.volcano.run_fused_interpreted`,
:func:`~repro.execution.vectorized.run_late_interpreted`) — maps a
morsel to ``(partial, intermediate_bytes)``, where the partial is a
``(qualifying_count, states)`` payload for an aggregation and a
row-major output block for a projection.

Pruning is exact — a pruned morsel provably holds zero qualifying rows
(see :mod:`repro.storage.zonemap`) — so the sum of per-morsel qualifying
counts equals the full-scan qualifying count.  That keeps the engine's
selectivity feedback (qualifying / num_rows) unskewed by pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EngineConfig
from ..sql.analyzer import QueryInfo
from ..sql.expressions import AggregateFunc
from ..storage.layout import Layout
from ..storage.zonemap import (
    conjunct_bounds,
    ensure_attr_stats,
    morsel_ranges,
    num_morsels_for,
    prune_mask,
)
from .evaluator import collect_aggregates, finalize_output
from .parallel import ScanPool
from .result import QueryResult
from .volcano import projection_dtype

#: Optional per-morsel cancellation hook (the engine passes its deadline
#: check, which raises QueryTimeoutError when the budget is exhausted).
DeadlineCheck = Optional[Callable[[], None]]

#: Maps one morsel ``(lo, hi)`` to ``(partial, intermediate_bytes)``.
MorselRunner = Callable[[int, int], Tuple[object, int]]


@dataclass(frozen=True)
class MorselPlan:
    """The dispatch decision for one query over one layout set."""

    ranges: List[Tuple[int, int]]  # surviving morsels, index order
    morsels_total: int
    morsels_pruned: int
    want_threads: int  # 1 = the loop runs on the caller alone


def keep_mask_for(
    info: QueryInfo,
    layouts: Sequence[Layout],
    num_rows: int,
    morsel_rows: int,
) -> Optional[np.ndarray]:
    """Per-morsel keep mask from zone maps, or None when nothing prunes.

    Stats are resolved per predicate attribute from its narrowest
    providing layout (all layouts are row-aligned, so any provider's
    stats are equally valid) and built lazily on first consultation.
    """
    if not info.has_predicate:
        return None
    predicates = info.query.predicates
    if not any(conjunct_bounds(c) is not None for c in predicates):
        return None
    num = num_morsels_for(num_rows, morsel_rows)
    if num == 0:
        return None

    def stats_for(attr: str):
        candidates = [lay for lay in layouts if attr in lay.attr_set]
        if not candidates:
            return None
        layout = min(candidates, key=lambda lay: lay.width)
        return ensure_attr_stats(layout, attr, morsel_rows)

    return prune_mask(num, predicates, stats_for)


def plan_morsels(
    info: QueryInfo,
    layouts: Sequence[Layout],
    num_rows: int,
    config: EngineConfig,
    pool: ScanPool,
) -> MorselPlan:
    """Which morsels an attribute-bearing query scans, on how many threads.

    An empty table has zero ranges and a small one a single range; the
    scan fans out as soon as two morsels survive pruning and both the
    pool and ``max_scan_threads`` allow a second thread.
    """
    ranges = morsel_ranges(num_rows, config.morsel_rows)
    keep = (
        keep_mask_for(info, layouts, num_rows, config.morsel_rows)
        if config.zone_maps
        else None
    )
    surviving = (
        ranges if keep is None else [ranges[i] for i in np.flatnonzero(keep)]
    )
    cap = min(config.max_scan_threads or pool.max_threads, pool.max_threads)
    return MorselPlan(
        ranges=surviving,
        morsels_total=len(ranges),
        morsels_pruned=len(ranges) - len(surviving),
        want_threads=max(1, min(cap, len(surviving))),
    )


def run_morsels(
    runner: MorselRunner,
    info: QueryInfo,
    mp: MorselPlan,
    pool: ScanPool,
    deadline_check: DeadlineCheck = None,
) -> Tuple[QueryResult, int, int, int]:
    """Run ``runner`` over the surviving morsels and combine in order.

    Returns ``(result, qualifying_rows, intermediate_bytes,
    threads_used)``.  ``deadline_check`` is invoked before every morsel.
    Pruned morsels contribute nothing — exactly what executing them
    would have contributed, since they hold zero qualifying rows.
    """
    count = len(mp.ranges)
    outcomes: List[Tuple[object, int]] = [None] * count

    def run_one(index: int) -> None:
        if deadline_check is not None:
            deadline_check()
        outcomes[index] = runner(*mp.ranges[index])

    used = 1
    if mp.want_threads <= 1:
        for index in range(count):
            run_one(index)
    else:
        with pool.acquire(mp.want_threads) as grant:
            used = grant.map_indexed(count, run_one)

    partials = [partial for partial, _ in outcomes]
    intermediate = sum(nbytes for _, nbytes in outcomes)
    names = [out.name for out in info.query.select]
    if info.is_aggregation:
        agg_values, cnt = combine_partial_aggregates(
            collect_aggregates(info.query.select), partials
        )
        values = [
            float(finalize_output(out.expr, agg_values))
            for out in info.query.select
        ]
        result = QueryResult.scalar_row(names, values)
        return result, int(cnt), intermediate, used
    blocks = [block for block in partials if block.shape[0]]
    result = QueryResult.from_blocks(names, blocks, projection_dtype(info))
    return result, result.num_rows, intermediate, used


def combine_partial_aggregates(
    aggregates: Sequence[object], payloads: Sequence[object]
) -> Tuple[dict, float]:
    """Fold ``(count, states)`` partial payloads in payload-index order.

    This is **the** combine contract shared by every partial-aggregation
    producer: the generated per-morsel kernels and the interpreters.
    State contract per slot (see codegen/templates.py): COUNT → None,
    SUM/AVG → running float sum, MIN/MAX → float or None (None = no
    qualifying rows in that partial).  Empty partials contribute
    nothing — exactly what executing them would have contributed.
    Folding happens strictly in morsel-index order, which is what makes
    parallel answers bit-identical to serial execution.

    Returns ``(agg_values, count)`` where ``agg_values`` maps each
    aggregate node to its finalized value (COUNT → count, AVG →
    sum/count or NaN, MIN/MAX → value or NaN).
    """
    cnt = 0.0
    sums = [0.0] * len(aggregates)
    mins: List[Optional[float]] = [None] * len(aggregates)
    maxs: List[Optional[float]] = [None] * len(aggregates)
    for payload in payloads:
        part_cnt, states = payload
        cnt += part_cnt
        for i, agg in enumerate(aggregates):
            state = states[i]
            if agg.func in (AggregateFunc.SUM, AggregateFunc.AVG):
                sums[i] += state
            elif agg.func is AggregateFunc.MIN and state is not None:
                mins[i] = state if mins[i] is None else min(mins[i], state)
            elif agg.func is AggregateFunc.MAX and state is not None:
                maxs[i] = state if maxs[i] is None else max(maxs[i], state)
    agg_values = {}
    for i, agg in enumerate(aggregates):
        if agg.func is AggregateFunc.COUNT:
            agg_values[agg] = float(cnt)
        elif agg.func is AggregateFunc.SUM:
            agg_values[agg] = sums[i]
        elif agg.func is AggregateFunc.AVG:
            agg_values[agg] = sums[i] / cnt if cnt else float("nan")
        elif agg.func is AggregateFunc.MIN:
            agg_values[agg] = (
                mins[i] if mins[i] is not None else float("nan")
            )
        else:
            agg_values[agg] = (
                maxs[i] if maxs[i] is not None else float("nan")
            )
    return agg_values, cnt
