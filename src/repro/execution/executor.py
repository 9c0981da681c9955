"""The low-level plan runner.

Given an analyzed query and a concrete :class:`AccessPlan`, the executor
runs it either through the generated kernel path (default — H2O's
on-the-fly operators) or through the interpreted operators (the generic
fallback and Fig. 14 baseline).  Either way the scan is the same morsel
loop (:meth:`Executor.run_scan`); only what runs per morsel differs.
Strategy and layout decisions are *not* made here; the engine (or a
baseline) passes an explicit plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import threading

import numpy as np

from ..config import EngineConfig
from ..errors import CodegenError
from ..sql.analyzer import QueryInfo
from .evaluator import (
    AggregateAccumulator,
    collect_aggregates,
    evaluate_value,
    finalize_output,
)
from ..storage.layout import flatten_kernel_buffers
from .morsel import DeadlineCheck, plan_morsels, run_morsels
from .parallel import ScanPool, get_scan_pool
from .result import QueryResult
from .strategies import AccessPlan, ExecutionStrategy
from .vectorized import run_late_interpreted
from .volcano import run_fused_interpreted


@dataclass
class ExecStats:
    """What happened while executing one plan."""

    strategy: ExecutionStrategy
    plan: str
    codegen_cache_hit: bool = False
    #: Seconds spent generating + compiling operator source (charged to
    #: the query, as in the paper).
    codegen_seconds: float = 0.0
    #: Bytes of intermediate results materialized during execution.
    intermediate_bytes: int = 0
    rows_out: int = 0
    #: Number of tuples that qualified the WHERE clause (equals
    #: ``rows_out`` for projections, but differs for aggregations whose
    #: result is a single row).  ``None`` when the path cannot tell —
    #: the engine's selectivity feedback skips those.
    qualifying_rows: Optional[int] = None
    #: Filled in by the engine when the query also built a layout.
    reorg_seconds: float = 0.0
    layout_created: Optional[str] = None
    #: Morsel telemetry of the scan: aligned morsels the table divides
    #: into, how many zone maps proved empty and skipped, and how many
    #: scan threads actually participated (zero/one when no scan ran:
    #: attribute-free queries, online reorganization).
    morsels_total: int = 0
    morsels_pruned: int = 0
    scan_threads_used: int = 1
    #: The compiled kernel that ran (``None`` when interpreted); the
    #: engine's plan cache replays it for repeats of the shape.
    kernel: Optional[Callable] = None
    #: Degradation evidence: a compile failed and the interpreted path
    #: answered instead / the engine's circuit breaker was open, so no
    #: compile was attempted.
    codegen_fallback: bool = False
    breaker_short_circuit: bool = False

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
        #: fallback answered instead (see :meth:`_run_generated`).  The
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
    ) -> Tuple[QueryResult, ExecStats]:
        """Execute ``info`` with ``plan`` and report what happened.

        ``allow_codegen=False`` forces the interpreted path even when
        the configuration enables codegen — the engine's per-signature
        circuit breaker uses it to short-circuit compilation for shapes
        whose compiles keep failing (see docs/resilience.md); answers
        are identical either way, only slower.

        ``deadline_check`` is invoked before each morsel of the scan; it
        should raise to abort an over-budget query between morsels.
        """
        if not info.all_attrs:
            return self._run_attribute_free(info, plan)
        if self.config.use_codegen and allow_codegen:
            return self._run_generated(info, plan, deadline_check)
        return self.run_scan(info, plan, plan.describe(), deadline_check)

    def _run_attribute_free(
        self, info: QueryInfo, plan: AccessPlan
    ) -> Tuple[QueryResult, ExecStats]:
        """Queries that read no attributes (e.g. ``SELECT count(*)``)."""
        num_rows = plan.layouts[0].num_rows
        names = [out.name for out in info.query.select]
        if info.is_aggregation:
            agg_values = {}
            for agg in collect_aggregates(info.query.select):
                state = AggregateAccumulator(agg.func)
                if agg.arg is None:
                    state.update(None, num_rows)
                else:
                    # A constant argument repeated for every tuple.
                    value = evaluate_value(agg.arg, lambda _n: None)
                    state.update(
                        np.full(num_rows, float(value)), num_rows
                    )
                agg_values[agg] = state.finalize()
            values = [
                finalize_output(out.expr, agg_values)
                for out in info.query.select
            ]
            result = QueryResult.scalar_row(names, values)
        else:
            block = np.empty(
                (num_rows, len(info.query.select)), dtype=np.float64
            )
            for position, out in enumerate(info.query.select):
                block[:, position] = float(
                    evaluate_value(out.expr, lambda _n: None)
                )
            result = QueryResult(names, block)
        stats = ExecStats(
            strategy=plan.strategy,
            plan="attribute-free",
            rows_out=result.num_rows,
        )
        return result, stats

    # The scan ----------------------------------------------------------------

    def run_scan(
        self,
        info: QueryInfo,
        plan: AccessPlan,
        plan_desc: str,
        deadline_check: DeadlineCheck = None,
        kernel: Optional[Callable] = None,
        params: Tuple[object, ...] = (),
        codegen_seconds: float = 0.0,
        codegen_cache_hit: bool = False,
    ) -> Tuple[QueryResult, ExecStats]:
        """Scan ``plan``'s layouts morsel by morsel — the one scan driver.

        With a compiled ``kernel`` (and its literal vector ``params``)
        every surviving morsel is one kernel call over the ``lo:hi``
        slice; without one, the interpreter of ``plan.strategy`` runs
        per morsel.  The cold generated path, the codegen fallback and
        the engine's fast lane (cached kernel, fresh literals) all end
        here, so they differ only in where their inputs come from.
        """
        layouts = plan.layouts
        if kernel is not None:
            buffers = flatten_kernel_buffers(layouts)

            def runner(lo: int, hi: int):
                return kernel(buffers, params, lo, hi), 0

        elif plan.strategy is ExecutionStrategy.FUSED:

            def runner(lo: int, hi: int):
                return run_fused_interpreted(
                    info, layouts, lo, hi, self.config.vector_size
                )

        else:

            def runner(lo: int, hi: int):
                return run_late_interpreted(info, layouts, lo, hi)

        pool = self._pool()
        mp = plan_morsels(
            info, layouts, layouts[0].num_rows, self.config, pool
        )
        result, qualifying, intermediate, used = run_morsels(
            runner, info, mp, pool, deadline_check
        )
        stats = ExecStats(
            strategy=plan.strategy,
            plan=plan_desc,
            codegen_cache_hit=codegen_cache_hit,
            codegen_seconds=codegen_seconds,
            intermediate_bytes=intermediate,
            rows_out=result.num_rows,
            qualifying_rows=qualifying,
            morsels_total=mp.morsels_total,
            morsels_pruned=mp.morsels_pruned,
            scan_threads_used=used,
            kernel=kernel,
        )
        return result, stats

    def _run_generated(
        self,
        info: QueryInfo,
        plan: AccessPlan,
        deadline_check: DeadlineCheck = None,
    ) -> Tuple[QueryResult, ExecStats]:
        from ..codegen.generator import generate_operator

        try:
            operator, gen_seconds, cache_hit = generate_operator(
                info, plan, self.config, self.operator_cache
            )
        except CodegenError:
            # A failed generation/compilation must never fail the query:
            # the interpreted operators answer any supported shape over
            # any layout combination, just slower (Fig. 14).  The
            # fallback is counted so it can never pass silently.
            with self._fallback_lock:
                self.codegen_fallbacks += 1
            result, stats = self.run_scan(
                info, plan, plan.describe(), deadline_check
            )
            stats.codegen_fallback = True
            return result, stats
        return self.run_scan(
            info,
            plan,
            plan.describe(),
            deadline_check,
            kernel=operator.kernel,
            params=operator.params,
            codegen_seconds=gen_seconds,
            codegen_cache_hit=cache_hit,
        )
