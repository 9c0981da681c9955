"""The low-level plan runner.

Given an analyzed query and a concrete :class:`AccessPlan`, the executor
runs it either through the generated kernel path (default — H2O's
on-the-fly operators) or through the interpreted morsel functions (the
generic fallback and Fig. 14 baseline).  Either way the scan is the
same morsel loop (:meth:`Executor.run_scan`); only what runs per morsel
differs.
Strategy and layout decisions are *not* made here; the engine (or a
baseline) passes an explicit plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Tuple

import threading

import numpy as np

from ..config import EngineConfig
from ..errors import CodegenError
from ..sql.analyzer import QueryInfo
from ..storage.zonemap import ZoneBounds, morsel_ranges
from .evaluator import (
    AggregateAccumulator,
    collect_aggregates,
    evaluate_predicate,
    evaluate_value,
)
from .interpreted import run_fused_interpreted, run_late_interpreted
from .morsel import (
    DeadlineCheck,
    MorselPlan,
    StitchStep,
    finish,
    plan_morsels,
    run_morsels,
)
from .parallel import ScanPool, get_scan_pool
from .result import QueryResult, projection_dtype
from .strategies import AccessPlan, ExecutionStrategy


@dataclass
class ExecStats:
    """What happened while executing one plan."""

    strategy: ExecutionStrategy
    plan: str
    codegen_cache_hit: bool = False
    #: Seconds spent generating + compiling operator source (charged to
    #: the query, as in the paper).
    codegen_seconds: float = 0.0
    rows_out: int = 0
    #: Number of tuples that qualified the WHERE clause (equals
    #: ``rows_out`` for projections, but differs for aggregations whose
    #: result is a single row).
    qualifying_rows: int = 0
    #: Filled in by the engine when the query also built a layout.
    layout_created: Optional[str] = None
    #: Morsel telemetry of the scan: aligned morsels the table divides
    #: into, how many zone maps proved empty and skipped, and how many
    #: scan threads actually participated (zero/one when no scan ran:
    #: attribute-free queries).
    morsels_total: int = 0
    morsels_pruned: int = 0
    scan_threads_used: int = 1
    #: The compiled kernel that ran (``None`` when interpreted); the
    #: engine's plan cache keeps it for repeats of the shape.
    kernel: Optional[Callable] = None
    #: Degradation evidence: a compile failed and the interpreted path
    #: answered instead / the engine had quarantined the shape's
    #: compiles, so no compile was attempted.
    codegen_fallback: bool = False
    compile_blocked: bool = False

    @property
    def used_codegen(self) -> bool:
        return self.kernel is not None


class Executor:
    """Runs access plans; owns the operator cache when codegen is on."""

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        # Imported lazily-ish at construction to keep module import light
        # and one-directional (codegen only imports execution submodules).
        from ..codegen.cache import OperatorCache

        self.operator_cache = OperatorCache(
            enabled=self.config.operator_cache
        )
        #: How many times the generated path failed and the interpreted
        #: fallback answered instead (see :meth:`run_plan`).  The
        #: testkit oracle asserts this equals the number of compile
        #: faults it injected — a silently swallowed failure is caught.
        self.codegen_fallbacks = 0
        self._fallback_lock = threading.Lock()
        #: The shared scan pool; ``None`` until first used.  Tests and
        #: benchmarks may inject a dedicated :class:`ScanPool` here to
        #: control thread counts independently of the machine.
        self.scan_pool: Optional[ScanPool] = None

    def _pool(self) -> ScanPool:
        if self.scan_pool is None:
            self.scan_pool = get_scan_pool()
        return self.scan_pool

    def run_plan(
        self,
        info: QueryInfo,
        plan: AccessPlan,
        allow_codegen: bool = True,
        deadline_check: DeadlineCheck = None,
        kernel: Optional[Callable] = None,
        zone_bounds: Optional[ZoneBounds] = None,
        stitch: StitchStep = None,
    ) -> Tuple[QueryResult, ExecStats]:
        """Execute ``info`` with ``plan`` and report what happened.

        A compiled ``kernel`` (the engine's plan cache keeps one per
        query shape) runs as it is, fed ``info``'s literals.  Without
        one the operator is generated when the configuration enables
        codegen; ``allow_codegen=False`` forces the interpreted path
        instead — the engine's per-shape compile quarantine uses it to
        skip compilation for shapes whose compiles recently failed (see
        docs/resilience.md); answers are identical either way, only
        slower.

        ``zone_bounds`` is the predicate's zone-map binding when the
        caller holds one; otherwise the scan binds it.
        ``deadline_check`` is invoked before each morsel of the scan; it
        should raise to abort an over-budget query between morsels.
        ``stitch`` is online reorganization's step (see
        :meth:`run_scan`).
        """
        if not info.all_attrs:
            return self._run_attribute_free(info, plan)
        seconds, cache_hit = 0.0, kernel is not None
        fallback = False
        if kernel is None and self.config.use_codegen and allow_codegen:
            from ..codegen.generator import generate_operator

            try:
                operator, seconds, cache_hit = generate_operator(
                    info, plan, self.operator_cache
                )
                kernel = operator.kernel
            except CodegenError:
                # A failed generation/compilation must never fail the
                # query: the interpreters answer any supported
                # shape over any layout combination, just slower
                # (Fig. 14).  The fallback is counted so it can never
                # pass silently.
                with self._fallback_lock:
                    self.codegen_fallbacks += 1
                fallback = True
        result, stats = self.run_scan(
            info,
            plan,
            deadline_check,
            kernel=kernel,
            codegen_seconds=seconds,
            codegen_cache_hit=cache_hit,
            zone_bounds=zone_bounds,
            stitch=stitch,
        )
        stats.codegen_fallback = fallback
        return result, stats

    def _run_attribute_free(
        self, info: QueryInfo, plan: AccessPlan
    ) -> Tuple[QueryResult, ExecStats]:
        """Queries that read no attributes (e.g. ``SELECT count(*)``).

        Their WHERE clause, if any, reads no column either: it qualifies
        every row or none.  They finish like a one-morsel scan.
        """
        num_rows = plan.layouts[0].num_rows
        if info.query.where is not None and not evaluate_predicate(
            info.query.where, lambda _n: None
        ):
            num_rows = 0
        if info.is_aggregation:
            states = []
            for agg in collect_aggregates(info.query.select):
                state = AggregateAccumulator(agg.func)
                if agg.arg is None:
                    state.update(None, num_rows)
                else:
                    # A constant argument, carried by every tuple: a 0-d
                    # value, summed as ``value * count`` like the kernels.
                    value = evaluate_value(agg.arg, lambda _n: None)
                    state.update(np.asarray(float(value)), num_rows)
                states.append(state.state())
            partial_result = (num_rows, tuple(states))
        else:
            partial_result = np.empty(
                (num_rows, len(info.query.select)),
                dtype=projection_dtype(info),
            )
            for position, out in enumerate(info.query.select):
                partial_result[:, position] = evaluate_value(
                    out.expr, lambda _n: None
                )
        result, qualifying = finish(info, [partial_result])
        stats = ExecStats(
            strategy=plan.strategy,
            plan="attribute-free",
            rows_out=result.num_rows,
            qualifying_rows=qualifying,
        )
        return result, stats

    # The scan ----------------------------------------------------------------

    def run_scan(
        self,
        info: QueryInfo,
        plan: AccessPlan,
        deadline_check: DeadlineCheck = None,
        kernel: Optional[Callable] = None,
        codegen_seconds: float = 0.0,
        codegen_cache_hit: bool = False,
        zone_bounds: Optional[ZoneBounds] = None,
        stitch: StitchStep = None,
    ) -> Tuple[QueryResult, ExecStats]:
        """Scan ``plan``'s layouts morsel by morsel — the one scan driver.

        With a compiled ``kernel`` every surviving morsel is one kernel
        call over the ``lo:hi`` slice, fed the query's literal vector;
        without one, the interpreter of ``plan.strategy`` runs per
        morsel.  A generated, a cached and a fallen-back plan all end
        here, so they differ only in where their inputs come from.
        ``zone_bounds`` is the predicate's zone-map binding when the
        caller holds one; otherwise the scan binds it.

        ``stitch(lo, hi)`` is online reorganization's step: it fills one
        morsel of a group the plan reads before the morsel is answered.
        Such a scan runs serially on the caller and prunes nothing —
        every morsel must be stitched, and zone maps bound over a
        half-built group would cache wrong stats on it.
        """
        layouts = plan.layouts
        if kernel is not None:
            runner = partial(
                kernel,
                tuple(layout.data for layout in layouts),
                info.query.literals,
            )
        elif plan.strategy is ExecutionStrategy.FUSED:
            runner = partial(run_fused_interpreted, info, layouts)
        else:
            runner = partial(run_late_interpreted, info, layouts)
        pool = self._pool()
        num_rows = layouts[0].num_rows
        if stitch is None:
            mp = plan_morsels(
                info, layouts, num_rows, self.config, pool, zone_bounds
            )
        else:
            answer = runner

            def runner(lo: int, hi: int):
                stitch(lo, hi)
                return answer(lo, hi)

            ranges = morsel_ranges(num_rows, self.config.morsel_rows)
            mp = MorselPlan(ranges, len(ranges), 0, 1)
        result, qualifying, used = run_morsels(
            runner, info, mp, pool, deadline_check
        )
        stats = ExecStats(
            strategy=plan.strategy,
            plan=plan.describe(),
            codegen_cache_hit=codegen_cache_hit,
            codegen_seconds=codegen_seconds,
            rows_out=result.num_rows,
            qualifying_rows=qualifying,
            morsels_total=mp.morsels_total,
            morsels_pruned=mp.morsels_pruned,
            scan_threads_used=used,
            kernel=kernel,
        )
        return result, stats
