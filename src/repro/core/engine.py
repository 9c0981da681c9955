"""The H2O engine: adaptive query processing end to end.

The engine ties the two halves of the paper's Fig. 3 together, one
query at a time (sections 3.2–3.5):

1. the adaptation half (:class:`~repro.core.layout_manager.Adaptation`)
   monitors the query, detects workload shifts, refreshes the candidate
   pool when the dynamic window elapses (Eq. 1) and ledgers the
   candidates' benefit for the switching policy;
2. the query's plan comes from the planner
   (:class:`~repro.core.planner.Planner`): a cached plan for a repeat
   shape under unchanged layouts, or enumeration, zone-map binding and
   Eq. 2 costing on the cold path;
3. every query — a plan-cache hit or a cold plan — asks the adaptation
   half whether it triggers a build; if it matches a candidate that can
   amortize its creation, the Reorganizer materializes the group
   **online**, answering the query in the same pass.  Otherwise the
   planned plan runs with an on-the-fly generated operator (cached when
   seen before);
4. observed selectivities feed back into the planner's cost model.

All adaptation overheads — advisor runs, code generation, layout
creation — are charged to the triggering query's response time, exactly
as the paper reports them.  Because the trigger question is asked on
every query, a cached plan never shortcuts past a build, and the
planner never hears about candidates: the plan cache is invalidated
only by a change of the table's layout set and by selectivity drift
(an append rebinds a cached plan to the extended layouts).

**Concurrency model.**  The engine serves many threads (the
:mod:`repro.service` worker pool).  Every query runs in three stages:

1. *prepare* (under ``engine.lock``): monitoring, shift detection,
   adaptation, snapshot pinning, the trigger check and the query's
   plan.  These touch the engine's shared mutable state (monitor,
   window, candidate pool, selectivity estimator) and are short;
2. *run* (lock **released**): the actual scan — compiled-kernel or
   interpreted execution against the layout buffers pinned by the
   query's :class:`~repro.storage.relation.LayoutSnapshot`.  NumPy
   kernels release the GIL on large blocks, so scans from different
   workers genuinely overlap; layout buffers are immutable, so no lock
   is needed;
3. *finish* (under ``engine.lock``): selectivity feedback, plan-cache
   store (or drift eviction), report append.

Online reorganization happens under the engine lock and publishes
atomically through the table's snapshot mechanism — a running scan
keeps reading its pinned snapshot and can never observe a
partially-materialized layout.  The worker that runs a triggering query
pays its advisor run and stitch while the other workers keep scanning
their snapshots.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..config import EngineConfig
from ..errors import (
    ExecutionError,
    H2OError,
    QueryTimeoutError,
    ReorganizationError,
)
from ..execution.executor import ExecStats, Executor
from ..execution.morsel import DeadlineCheck, StitchStep
from ..execution.result import QueryResult
from ..execution.strategies import AccessPlan
from ..resilience.quarantine import QuarantineList
from ..sql.analyzer import QueryInfo, analyze_query
from ..sql.parser import parse_query
from ..sql.query import Query
from ..storage.relation import LayoutSnapshot, Table
from ..storage.zonemap import ZoneBounds
from .cost_model import CostModel
from .layout_manager import Adaptation
from .monitor import Monitor
from .planner import CachedPlan, Planner

#: Most recent :class:`QueryReport` objects an engine retains (each pins
#: its query AST and result array, so a long-lived server must not keep
#: them all).  Sixteen times the 64 shapes :meth:`H2OEngine.
#: adaptation_state` scans the history for; cumulative totals are kept
#: separately and cover every query.
REPORT_HISTORY = 1024


@dataclass
class QueryReport:
    """Everything that happened while answering one query."""

    index: int
    query: Query
    result: QueryResult
    #: End-to-end response time (includes adaptation/codegen/reorg).
    seconds: float
    #: Time attribution: "adapt", "plan", "codegen", "reorg", "execute".
    phases: Dict[str, float] = field(default_factory=dict)
    plan: str = ""
    strategy: str = ""
    used_codegen: bool = False
    codegen_cache_hit: bool = False
    #: True when the query was answered through the steady-state fast
    #: lane (cached plan + kernel, no re-analysis/planning/costing).
    plan_cache_hit: bool = False
    layout_created: Optional[Tuple[str, ...]] = None
    adaptation_ran: bool = False
    shift_detected: bool = False
    window_size: int = 0
    cost_estimate: float = 0.0
    #: Layout epoch of the snapshot this query executed against.
    snapshot_epoch: int = 0
    #: Degradation-ladder evidence (docs/resilience.md): the query was
    #: answered correctly but through a fallback rung.
    #: A compile failed and the interpreted path answered instead.
    codegen_fallback: bool = False
    #: This shape's compiles were quarantined after a recent failure,
    #: so no compile was even attempted (interpreted path, by decision).
    compile_blocked: bool = False
    #: An online reorganization triggered by this query aborted; the
    #: candidate was quarantined and the query answered via planning.
    reorg_aborted: bool = False
    #: The adaptation policy deferred an otherwise-eligible online
    #: reorganization this query would have triggered (the candidate's
    #: accrued benefit has not yet covered its hedged build cost — see
    #: docs/adaptation.md).
    reorg_deferred: bool = False
    #: Scan telemetry, populated for every scan (every scan is a morsel
    #: loop, online reorganization's included; zero morsels only for
    #: attribute-free queries): how many aligned morsels the table
    #: divides into, how many zone maps proved empty and skipped, and
    #: how many scan threads actually participated.
    morsels_total: int = 0
    morsels_pruned: int = 0
    scan_threads_used: int = 1

    @property
    def parallel_scan(self) -> bool:
        """True when the scan genuinely ran on more than one thread."""
        return self.scan_threads_used > 1

    @property
    def degraded(self) -> bool:
        """True when any degradation rung absorbed a fault here."""
        return (
            self.codegen_fallback
            or self.compile_blocked
            or self.reorg_aborted
        )

    @property
    def reorg_seconds(self) -> float:
        return self.phases.get("reorg", 0.0)


def _view(half: str, name: str) -> property:
    """A read-only engine attribute that is ``engine.<half>.<name>``."""
    return property(lambda engine: getattr(getattr(engine, half), name))


@dataclass
class _Prepared:
    """The locked *prepare* stage's output, carried to run and finish.

    A cold plan derives the stage outputs (``info`` to
    ``predicate_key``); a plan-cache hit copies them from its entry,
    with its own query swapped into ``info``.  Run and finish read the
    same fields either way.
    """

    index: int
    snapshot: LayoutSnapshot
    shift: bool
    adaptation_ran: bool
    window_size: int
    #: Analyzer facts, the chosen plan and its Eq. 2 cost.
    info: Optional[QueryInfo] = None
    plan: Optional[AccessPlan] = None
    cost: float = 0.0
    #: The compiled kernel, set only from a cache entry (a cold plan
    #: generates its own in the run stage).
    kernel: Optional[Callable] = None
    #: The predicate's zone-map binding (None when zone maps are off).
    zone_bounds: Optional[ZoneBounds] = None
    #: Masked predicate key for the selectivity estimator ("" if none).
    predicate_key: str = ""
    #: The plan-cache entry whose plan this query runs (None for a
    #: cold plan or an online build).
    entry: Optional[CachedPlan] = None
    #: Already answered under the lock (online reorganization).
    result: Optional[QueryResult] = None
    stats: Optional[ExecStats] = None
    #: An online stitch triggered by this query aborted (quarantined).
    reorg_aborted: bool = False
    #: The policy deferred an otherwise-eligible materialization.
    reorg_deferred: bool = False


class H2OEngine:
    """Adaptive hybrid engine over a single table.

    >>> from repro.storage import generate_table
    >>> engine = H2OEngine(generate_table("r", 10, 1000, rng=0))
    >>> report = engine.execute("SELECT sum(a1 + a2) FROM r WHERE a3 > 0")
    >>> report.result.num_rows
    1
    """

    def __init__(
        self, table: Table, config: Optional[EngineConfig] = None
    ) -> None:
        self.table = table
        self.config = config or EngineConfig()
        #: Guards every piece of shared mutable decision state: the
        #: adaptation half (monitor, window, shift detector, candidate
        #: pool, policy), the planner's selectivity estimator (the plan
        #: cache has its own lock), and the reports list.  Query
        #: *execution* never holds it (see the module docstring).
        self.lock = threading.RLock()
        self.planner = Planner(self.config)
        self._query_counter = 0
        self.adaptation = Adaptation(
            table,
            self.config,
            self.planner.cost_model,
            self._run_plan,
            clock=self._queries,
        )
        self.executor = Executor(self.config)
        #: The last :data:`REPORT_HISTORY` reports, oldest first.
        self.reports: List[QueryReport] = []
        #: Running sums over *every* report since construction (or the
        #: last :meth:`seed_adaptation_state`), trimmed ones included.
        self._seconds_total = 0.0
        self._phase_totals: Dict[str, float] = {}
        #: Online reorganizations that aborted mid-stitch (the partial
        #: group was discarded, the query answered via plain planning).
        #: The testkit oracle matches this against its injected faults.
        self.reorg_aborts = 0
        #: Queries aborted at a stage boundary because their deadline
        #: had already passed (see :meth:`execute`'s ``deadline``).
        self.deadline_aborts = 0
        #: Per-shape codegen backoff (docs/resilience.md): a failed
        #: compile blocks compiles of its query shape for 4, 8, … up to
        #: 256 queries, during which the shape runs interpreted; a
        #: compiled run clears the block.
        self.compile_quarantine = QuarantineList(clock=self._queries)
        #: Queries that ran interpreted because their shape's compiles
        #: were quarantined.
        self.compiles_blocked = 0
        #: Cumulative morsel telemetry across every query (zone-map
        #: pruning effectiveness; exported via :meth:`stats` and the
        #: gateway's ``GET /metrics``).
        self.morsels_total = 0
        self.morsels_pruned = 0

    # Read-only views of the two halves' state.
    plan_cache = _view("planner", "cache")
    selectivity = _view("planner", "selectivity")
    monitor = _view("adaptation", "monitor")
    window = _view("adaptation", "window")
    policy = _view("adaptation", "policy")
    candidates = _view("adaptation", "candidates")
    quarantine = _view("adaptation", "quarantine")
    manager = _view("adaptation", "manager")
    advisor = _view("adaptation", "advisor")
    reorganizer = _view("adaptation", "reorganizer")

    def _queries(self) -> float:
        """The clock both quarantines count in: queries prepared so far.

        A quarantined candidate or shape is retried after N more
        queries, not after N possibly idle seconds.
        """
        return float(self._query_counter)

    # Public API ---------------------------------------------------------------

    def execute(
        self,
        query: Union[Query, str],
        deadline: Optional[float] = None,
    ) -> QueryReport:
        """Answer one query, adapting storage and strategy on the way.

        Thread-safe: any number of threads may call this concurrently.
        Decision state is updated under the engine lock; the scan itself
        runs lock-free against the query's pinned layout snapshot.

        ``deadline`` is an absolute ``time.monotonic()`` instant.  The
        engine checks it at each stage boundary (before *prepare*,
        before *run*, before *finish*) and raises
        :class:`~repro.errors.QueryTimeoutError` rather than start a
        stage it cannot finish in time — cooperative cancellation, not
        preemption: a stage already underway runs to completion.
        """
        started = time.perf_counter()
        phases: Dict[str, float] = {}
        if isinstance(query, str):
            query = parse_query(query)
        if query.table != self.table.name:
            raise ExecutionError(
                f"engine serves table {self.table.name!r}, query targets "
                f"{query.table!r}"
            )

        self._check_deadline(deadline, "prepare")
        with self.lock:
            prep = self._prepare(query, phases)

        result, stats = prep.result, prep.stats
        if result is None:
            self._check_deadline(deadline, "run")
            result, stats = self._run(
                prep, phases, self._morsel_deadline(deadline)
            )

        seconds = time.perf_counter() - started
        self._check_deadline(deadline, "finish")
        with self.lock:
            report = self._finish(
                query, prep, result, stats, phases, seconds
            )
        return report

    def _check_deadline(
        self, deadline: Optional[float], stage: str
    ) -> None:
        """Abort (with an accounted :class:`QueryTimeoutError`) when the
        query's deadline passed before ``stage`` could begin."""
        if deadline is None:
            return
        if time.monotonic() < deadline:
            return
        with self.lock:
            self.deadline_aborts += 1
        raise QueryTimeoutError(
            f"deadline passed before the {stage!r} stage could start"
        )

    def _morsel_deadline(
        self, deadline: Optional[float]
    ) -> DeadlineCheck:
        """A per-morsel cancellation hook for ``deadline``.

        Every scan invokes it before every morsel, turning the
        stage-boundary deadline into a finer-grained one: an over-budget
        scan — serial or parallel — aborts at the next morsel boundary
        instead of running to completion.  The abort is accounted
        exactly once (multiple scan threads may observe the expiry
        concurrently) and feeds the same ``deadline_aborts`` rung of the
        degradation ladder as the stage-boundary checks.
        """
        if deadline is None:
            return None
        once = threading.Lock()

        def check() -> None:
            if time.monotonic() < deadline:
                return
            if once.acquire(blocking=False):
                with self.lock:
                    self.deadline_aborts += 1
            raise QueryTimeoutError(
                "deadline passed mid-scan (aborted at a morsel boundary)"
            )

        return check

    def run_sequence(self, queries) -> List[QueryReport]:
        """Execute a sequence of queries, returning all reports."""
        return [self.execute(q) for q in queries]

    # Stage 1: prepare (engine lock held) ----------------------------------------

    def _prepare(self, query: Query, phases: Dict[str, float]) -> _Prepared:
        index = self._query_counter
        self._query_counter += 1
        # Monitoring, shift detection, the periodic adaptation phase and
        # the switching policy's ledger (costs charged to this query).
        shift, adaptation_ran = self.adaptation.observe(query, index, phases)
        # Pin the physical state this query will plan and scan against.
        snapshot = self.table.snapshot()
        prep = _Prepared(
            index=index,
            snapshot=snapshot,
            shift=shift,
            adaptation_ran=adaptation_ran,
            window_size=self.window.size,
        )

        # A repeat query shape under an unchanged layout set takes its
        # analyzer facts from the plan cache; a cold one is analyzed.
        entry = self.planner.lookup(query, snapshot)
        if entry is not None:
            info = entry.info.for_query(query)
            prep.predicate_key = entry.predicate_key
        else:
            info = analyze_query(query, self.table.schema)
            prep.predicate_key = CostModel._predicate_key(info)
        prep.info = info

        # Every query, hit or cold, asks whether it triggers a build.
        # Online reorganization mutates the layouts, so it runs
        # entirely under the lock and publishes atomically.
        candidate, prep.reorg_deferred = self.adaptation.triggered(
            info, index
        )
        if candidate is not None:
            try:
                prep.result, prep.stats = self.adaptation.materialize(
                    info, candidate, index, phases
                )
                return prep
            except ReorganizationError:
                # The stitch aborted mid-build.  Nothing was published
                # (the partial group only ever lived in a local buffer),
                # the candidate stays in the pool so a later query can
                # retry the stitch, and *this* query is answered through
                # its plan — degraded, never wrong.  The candidate is
                # quarantined under exponential backoff
                # (docs/resilience.md) so the engine does not re-stitch
                # a poisoned group on every matching query.
                self.reorg_aborts += 1
                self.quarantine.note_failure(candidate.ledger_key)
                prep.reorg_aborted = True

        # Nothing triggered: the cached plan runs as it is (its
        # costing, zone-map binding and kernel are skipped), or the
        # planner enumerates and costs the cold query's plans.
        if entry is not None:
            prep.entry = entry
            prep.plan = entry.plan
            prep.cost = entry.cost_estimate
            prep.kernel = entry.kernel
            prep.zone_bounds = entry.zone_bounds
        else:
            prep.plan, prep.cost, prep.zone_bounds = self.planner.choose(
                snapshot, info, phases
            )
        return prep

    # Stage 3: finish (engine lock held) -----------------------------------------

    def _finish(
        self,
        query: Query,
        prep: _Prepared,
        result: QueryResult,
        stats: ExecStats,
        phases: Dict[str, float],
        seconds: float,
    ) -> QueryReport:
        self.planner.learn(query, prep, stats)

        report = QueryReport(
            index=prep.index,
            query=query,
            result=result,
            seconds=seconds,
            phases=phases,
            plan=stats.plan,
            strategy=stats.strategy.value,
            used_codegen=stats.used_codegen,
            codegen_cache_hit=stats.codegen_cache_hit,
            plan_cache_hit=prep.entry is not None,
            layout_created=(
                tuple(stats.layout_created.split(","))
                if stats.layout_created
                else None
            ),
            adaptation_ran=prep.adaptation_ran,
            shift_detected=prep.shift,
            window_size=prep.window_size,
            cost_estimate=prep.cost,
            snapshot_epoch=prep.snapshot.epoch,
            codegen_fallback=stats.codegen_fallback,
            compile_blocked=stats.compile_blocked,
            reorg_aborted=prep.reorg_aborted,
            reorg_deferred=prep.reorg_deferred,
            morsels_total=stats.morsels_total,
            morsels_pruned=stats.morsels_pruned,
            scan_threads_used=stats.scan_threads_used,
        )
        self.morsels_total += report.morsels_total
        self.morsels_pruned += report.morsels_pruned
        self.compiles_blocked += report.compile_blocked
        self.reports.append(report)
        if len(self.reports) > REPORT_HISTORY:
            del self.reports[0]
        self._seconds_total += seconds
        for phase, spent in phases.items():
            self._phase_totals[phase] = (
                self._phase_totals.get(phase, 0.0) + spent
            )
        return report

    # Stage 2: run (lock released) ----------------------------------------------

    def _run(
        self,
        prep: _Prepared,
        phases: Dict[str, float],
        deadline_check: DeadlineCheck = None,
    ) -> Tuple[QueryResult, ExecStats]:
        """Execute the prepared plan (no engine lock held).

        The plan's layouts belong to the pinned snapshot and are
        immutable; codegen goes through the (internally locked)
        operator cache.
        """
        t1 = time.perf_counter()
        result, stats = self._run_plan(
            prep.info,
            prep.plan,
            deadline_check=deadline_check,
            kernel=prep.kernel,
            zone_bounds=prep.zone_bounds,
        )
        elapsed = time.perf_counter() - t1
        if prep.entry is None:
            # A cold plan charges its generation (zero when interpreted
            # or served by the operator cache); a hit generated nothing.
            phases["codegen"] = (
                phases.get("codegen", 0.0) + stats.codegen_seconds
            )
        phases["execute"] = phases.get("execute", 0.0) + (
            elapsed - stats.codegen_seconds
        )
        return result, stats

    def _run_plan(
        self,
        info: QueryInfo,
        plan: AccessPlan,
        stitch: StitchStep = None,
        deadline_check: DeadlineCheck = None,
        kernel: Optional[Callable] = None,
        zone_bounds: Optional[ZoneBounds] = None,
    ) -> Tuple[QueryResult, ExecStats]:
        """Run one plan through the executor, codegen-quarantine-gated.

        A cached kernel runs as it is.  Otherwise a shape whose compiles
        are quarantined runs interpreted without a compile attempt, a
        failed compile quarantines its shape, and a compiled run clears
        the quarantine.  Online reorganization runs its stitching scan
        through here too (``stitch``).
        """
        allow_codegen = True
        signature = None
        if kernel is None and self.config.use_codegen and info.all_attrs:
            signature = info.query.shape_signature()
            allow_codegen = not self.compile_quarantine.blocked(signature)
        result, stats = self.executor.run_plan(
            info,
            plan,
            allow_codegen=allow_codegen,
            deadline_check=deadline_check,
            kernel=kernel,
            zone_bounds=zone_bounds,
            stitch=stitch,
        )
        if signature is not None:
            if not allow_codegen:
                stats.compile_blocked = True
            elif stats.codegen_fallback:
                self.compile_quarantine.note_failure(signature)
            elif stats.used_codegen:
                self.compile_quarantine.note_success(signature)
        return result, stats

    # Learned-state persistence ---------------------------------------------

    def adaptation_state(self, warmup_limit: int = 64) -> Dict[str, object]:
        """A JSON-serializable snapshot of everything this engine learned.

        Captured under the engine lock, so it is consistent with one
        instant of query processing.  The affinity matrices are *not*
        serialized directly: they are an exact function of the windowed
        queries (integer co-access counts derived from the window's
        pattern counts), so persisting the window's SQL and replaying it
        through a fresh :class:`Monitor` reproduces them bit-for-bit.
        ``warmup_sql`` carries one representative query per recently
        executed shape so recovery can re-populate the plan and operator
        caches (cache entries hold compiled kernels and epoch tags and
        cannot be serialized; re-executing the shape rebuilds them).
        """
        with self.lock:
            warmup: Dict[object, str] = {}
            for report in reversed(self.reports):
                shape = report.query.shape_signature()
                if shape not in warmup:
                    warmup[shape] = report.query.to_sql()
                if len(warmup) >= warmup_limit:
                    break
            return {
                "window_sql": [q.to_sql() for q in self.monitor.window],
                "window_size": self.window.size,
                "since_adaptation": self.window.since_adaptation,
                "shrink_events": self.window.shrink_events,
                "grow_events": self.window.grow_events,
                "queries_seen": self.monitor.queries_seen,
                "query_counter": self._query_counter,
                "selectivities": self.selectivity.export(),
                # The switching policy's debt ledger: recovery must not
                # silently reset accrued benefit/deferral history, or a
                # restarted hedged store would re-thrash from scratch.
                "policy": self.policy.export(),
                # Oldest-shape-last iteration above; reverse so warmup
                # replays in roughly original execution order.
                "warmup_sql": list(reversed(list(warmup.values()))),
            }

    def seed_adaptation_state(self, state: Dict[str, object]) -> None:
        """Restore a state captured by :meth:`adaptation_state`.

        Meant for a freshly constructed engine whose table already holds
        the recovered layouts (see repro/gateway/persist.py).  Warmup
        queries are executed through the ordinary path to re-populate
        the plan/operator caches, then the monitor/window/counters are
        reset to the persisted values so the warmup itself leaves no
        trace in the learned statistics.

        Crash-safe: the window is pinned open only for the duration of
        the warmup and is restored in a ``finally`` block, so neither a
        non-H2O exception escaping a warmup query nor a malformed
        persisted state (e.g. a missing ``window_size``) can leave the
        engine permanently unable to adapt.
        """

        def _intval(key: str, default: int = 0) -> int:
            try:
                return int(state.get(key, default))
            except (TypeError, ValueError):
                return default

        with self.lock:
            self.selectivity.restore(state.get("selectivities", {}))
            # Malformed state keeps the current window size rather than
            # poisoning it.
            window_size = _intval("window_size", self.window.size)
            # Hold adaptation (and window bookkeeping) while warming up:
            # an adaptation phase mid-warmup would propose candidates
            # from warmup-polluted statistics, and a warmup query could
            # then build one.
            self.window.size = 1 << 30
        try:
            for sql in state.get("warmup_sql", []):
                try:
                    self.execute(parse_query(sql))
                except H2OError:
                    # Warmup is best-effort: a shape that no longer
                    # parses or analyzes (schema drifted) stays cold.
                    pass
        finally:
            with self.lock:
                self.window.size = window_size
                monitor = Monitor(self.table.schema, window_size)
                for sql in state.get("window_sql", []):
                    try:
                        monitor.observe(parse_query(sql))
                    except H2OError:
                        # A window shape that no longer parses stays
                        # out of the recovered window.
                        pass
                monitor.queries_seen = _intval("queries_seen")
                self.adaptation.resume(monitor)
                self.window.since_adaptation = _intval("since_adaptation")
                self.window.shrink_events = _intval("shrink_events")
                self.window.grow_events = _intval("grow_events")
                self._query_counter = max(
                    self._query_counter, _intval("query_counter")
                )
                self.reports.clear()
                self._seconds_total = 0.0
                self._phase_totals = {}
                # Restore the switching policy's ledger *after* warmup:
                # warmup executions must not pollute the persisted
                # accrual/deferral history (any switch the warmup itself
                # performed re-built a layout that already existed in
                # the recovered table, so it is not re-ledgered either).
                policy_state = state.get("policy")
                if isinstance(policy_state, dict):
                    self.policy.restore(policy_state)

    # Reporting -----------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """One-call telemetry summary (thread-safe, JSON-serializable).

        ``policy`` is the switching policy's bounded snapshot: the debt
        ledger's hottest entries, switch/deferral totals, and invested
        reorganization cost — the observability surface the hedge's
        thrash resistance is judged by (docs/adaptation.md).
        """
        with self.lock:
            snapshot = self.table.snapshot()
            return {
                "table": self.table.name,
                "queries": self._query_counter,
                "policy": self.policy.snapshot(),
                "layouts_created": len(self.manager.creation_log),
                "layout_creation_seconds": (
                    self.manager.creation_seconds()
                ),
                "reorg_aborts": self.reorg_aborts,
                "deadline_aborts": self.deadline_aborts,
                "candidates_pending": len(self.candidates),
                "window_size": self.window.size,
                "plan_cache": self.plan_cache.stats(),
                "morsels_total": self.morsels_total,
                "morsels_pruned": self.morsels_pruned,
                "pruned_fraction": (
                    self.morsels_pruned / self.morsels_total
                    if self.morsels_total
                    else 0.0
                ),
                "layout_bytes": snapshot.nbytes,
                "reserved_bytes": snapshot.reserved_bytes,
            }

    def cumulative_seconds(self) -> float:
        with self.lock:
            return self._seconds_total

    def phase_totals(self) -> Dict[str, float]:
        with self.lock:
            return dict(self._phase_totals)

    def layout_creation_seconds(self) -> float:
        with self.lock:
            return self.manager.creation_seconds()

    def describe(self) -> str:
        """Multi-line status summary for logs and examples."""
        with self.lock:
            lines = [
                f"H2O engine over {self.table!r}",
                f"  window size: {self.window.size} "
                f"(shrinks={self.window.shrink_events}, "
                f"grows={self.window.grow_events})",
                f"  candidates pending: {len(self.candidates)} "
                f"(reorg aborts: {self.reorg_aborts}, "
                f"quarantined: {len(self.quarantine.blocked_keys())})",
                "  policy: hedging_factor={:g} switches={} deferrals={} "
                "invested={:.4f}s-cost".format(
                    self.policy.hedging_factor,
                    self.policy.switch_count,
                    self.policy.deferrals,
                    self.policy.invested_cost,
                ),
                "  codegen: quarantined shapes={} blocked={} "
                "fallbacks={}".format(
                    len(self.compile_quarantine.blocked_keys()),
                    self.compiles_blocked,
                    self.executor.codegen_fallbacks,
                ),
                f"  layouts created: {len(self.manager.creation_log)} "
                f"({self.manager.creation_seconds():.3f}s)",
                "  operator cache: size={} hits={} misses={} "
                "evictions={}".format(
                    *self.executor.operator_cache.stats()
                ),
                f"  plan cache: {self.plan_cache.stats()}",
            ]
            lines.append(self.table.layout_summary())
            return "\n".join(lines)
