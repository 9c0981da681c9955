"""The H2O engine: adaptive query processing end to end.

Per query (paper Fig. 3 and sections 3.2–3.5):

1. the Monitor records the query's access pattern (affinity matrices,
   pattern frequencies) and the ShiftDetector checks for novelty —
   shifts shrink the dynamic adaptation window;
2. when the adaptation window elapses, the LayoutAdvisor evaluates the
   windowed workload (Eq. 1) and refreshes the *candidate pool* of
   proposed column groups — nothing is materialized yet;
3. if the incoming query matches a candidate that can amortize its
   creation, the Reorganizer materializes it **online**, answering the
   query in the same pass, and the layout joins the table;
4. otherwise the Query Processor enumerates (layout cover × strategy)
   access plans, costs them (Eq. 2), and executes the cheapest with an
   on-the-fly generated operator (cached when seen before);
5. observed selectivities feed back into the cost model.

All adaptation overheads — advisor runs, code generation, layout
creation — are charged to the triggering query's response time, exactly
as the paper reports them.

**One pipeline, with cached stage outputs.**  Once the store has
adapted (the tail of Fig. 7), a recurring workload repeats the same
query *shapes* with fresh literals, and analysis, plan enumeration,
Eq. 2 costing, zone-map binding and code generation all re-derive
outputs that are functions of (query shape, layouts, candidate pool,
learned selectivities).  The engine keeps those outputs in a
:class:`~repro.core.plan_cache.PlanCache` keyed by the query's masked
shape signature.  A hit fills the prepare stage's output
(:class:`_Prepared`) from its entry instead of deriving it, then runs
the same run and finish stages as a cold plan: the cached kernel gets
the repeat's own literals, and so does the cached zone-map binding.
Entries are invalidated by the table's layout epoch (any
create/retire/append), by candidate-pool refreshes (a cached plan must
not shortcut past a query that should trigger online materialization),
and by learned-selectivity drift beyond
:data:`SELECTIVITY_DRIFT_BAND`.  Monitoring and shift
detection still run for every query — adaptivity is never bypassed,
only re-derivation of unchanged decisions.

**Concurrency model.**  The engine serves many threads (the
:mod:`repro.service` worker pool).  Every query runs in three stages:

1. *prepare* (under ``engine.lock``): monitoring, shift detection,
   adaptation, snapshot pinning, then the query's plan — from the plan
   cache, or by analysis, zone-map binding and Eq. 2 costing.  These
   touch the engine's shared mutable state (monitor, window, candidate
   pool, plan cache, selectivity estimator) and are short;
2. *run* (lock **released**): the actual scan — compiled-kernel or
   interpreted execution against the layout buffers pinned by the
   query's :class:`~repro.storage.relation.LayoutSnapshot`.  NumPy
   kernels release the GIL on large blocks, so scans from different
   workers genuinely overlap; layout buffers are immutable, so no lock
   is needed;
3. *finish* (under ``engine.lock``): selectivity feedback, usage
   accounting, plan-cache store (or drift eviction), report append.

Layout mutations (online reorganization, budget retirement) happen
under the engine lock and publish atomically through the table's
snapshot mechanism — a running scan keeps reading its pinned snapshot
and can never observe a partially-materialized layout.  Adaptation is
always charged to the query that triggers it, also under concurrent
traffic: the worker that runs a triggering query pays its advisor run
and stitch while the other workers keep scanning their snapshots.
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
    LayoutError,
    QueryTimeoutError,
    ReorganizationError,
)
from ..execution.executor import ExecStats, Executor
from ..execution.morsel import DeadlineCheck, StitchStep, zone_bounds_for
from ..resilience.breaker import CircuitBreaker
from ..resilience.quarantine import QuarantineList
from ..execution.result import QueryResult
from ..execution.strategies import AccessPlan, enumerate_plans
from ..sql.analyzer import QueryInfo, analyze_query
from ..sql.parser import parse_query
from ..sql.query import Query
from ..storage.relation import LayoutSnapshot, Table
from ..storage.zonemap import ZoneBounds
from .adaptation_policy import AdaptationPolicy
from .advisor import MAX_CANDIDATES, CandidateLayout, LayoutAdvisor
from .cost_model import CostModel, SelectivityEstimator
from .history import ShiftDetector
from .layout_manager import LayoutManager
from .monitor import Monitor
from .plan_cache import CachedPlan, PlanCache
from .reorganizer import Reorganizer
from .window import DynamicWindow

#: How far (absolute qualifying-fraction difference) the learned
#: selectivity of a predicate may drift from the estimate its cached
#: plan was costed with before the fast-lane entry is evicted and the
#: next repeat re-plans on the cold path.
SELECTIVITY_DRIFT_BAND = 0.2

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
    #: The codegen circuit breaker was open for this shape, so no
    #: compile was even attempted (interpreted path, by decision).
    breaker_short_circuit: bool = False
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
            or self.breaker_short_circuit
            or self.reorg_aborted
        )

    @property
    def reorg_seconds(self) -> float:
        return self.phases.get("reorg", 0.0)


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
    #: The plan-cache entry this query hit (None for a cold plan).
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
        self,
        table: Table,
        config: Optional[EngineConfig] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.table = table
        self.config = config or EngineConfig()
        #: Injectable time source consumed by the codegen circuit
        #: breaker (tests drive it with a fake clock; production uses
        #: ``time.monotonic``).  The quarantine list deliberately does
        #: *not* use it — its clock is the engine's query counter, so
        #: backoff spans are measured in queries, not seconds.
        self.clock: Callable[[], float] = clock or time.monotonic
        #: Guards every piece of shared mutable decision state: monitor,
        #: window, shift detector, candidate pool, selectivity
        #: estimator, plan-cache *policy* (the cache itself has its own
        #: lock), layout manager bookkeeping, and the reports list.
        #: Query *execution* never holds it (see the module docstring).
        self.lock = threading.RLock()
        self.selectivity = SelectivityEstimator()
        self.cost_model = CostModel(self.config.machine, self.selectivity)
        self.monitor = Monitor(table.schema, self.config.window_size)
        self.window = DynamicWindow(self.config)
        self.shift_detector = ShiftDetector()
        self.advisor = LayoutAdvisor(table, self.cost_model, self.config)
        self.manager = LayoutManager(table)
        self.reorganizer = Reorganizer(self._run_plan)
        self.executor = Executor(self.config)
        self.plan_cache = PlanCache()
        #: The layout-switching policy (docs/adaptation.md); every gate
        #: is open at the default ``hedging_factor`` of 0 (the paper's
        #: greedy H2O).  Mutated only under the engine lock.
        self.policy = AdaptationPolicy(self.config)
        self.candidates: List[CandidateLayout] = []
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
        #: Per-signature codegen circuit breaker (docs/resilience.md):
        #: after the breaker's threshold of consecutive compile failures
        #: for one query shape the engine serves that shape interpreted
        #: without touching the compiler, half-open-probing once per
        #: cooldown on :attr:`clock`.
        self.breaker = CircuitBreaker(clock=self.clock)
        #: Exponential-backoff quarantine for candidate layouts whose
        #: stitches keep aborting.  Its clock is the query counter, so
        #: spans are "skip for the next N queries".
        self.quarantine = QuarantineList(
            clock=lambda: float(self._query_counter)
        )
        self._query_counter = 0
        #: Cumulative morsel telemetry across every query (zone-map
        #: pruning effectiveness; exported via :meth:`stats` and the
        #: gateway's ``GET /metrics``).
        self.morsels_total = 0
        self.morsels_pruned = 0
        self._shift_since_adaptation = False
        self._last_adaptation_snapshot: Optional[tuple] = None
        #: Distinct access sets as of the last adaptation phase.
        self._reference_patterns: List = []

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

        # 1. Monitoring + shift detection.  Novelty is judged against the
        # patterns known as of the *previous adaptation* ("H2O detects
        # workload shifts by comparing new queries with queries observed
        # in the previous query window") — a rolling reference would make
        # a shifted workload familiar to itself within a few queries.
        if not self._reference_patterns and len(self.monitor) >= (
            self.shift_detector.warmup
        ):
            self._reference_patterns = [
                attrs for attrs, _ in self.monitor.distinct_access_sets()
            ]
        known = self._reference_patterns or [
            attrs for attrs, _ in self.monitor.distinct_access_sets()
        ]
        self.monitor.observe(query)
        self.window.note_query()
        shift = self.shift_detector.assess(query.attributes, known)
        if shift:
            self._shift_since_adaptation = True
            self.window.note_shift()
            self.monitor.resize(self.window.size)

        # 2. Periodic adaptation: refresh the candidate pool (cost
        # charged to this query).
        adaptation_ran = False
        if self.window.due():
            self._adapt(index, phases)
            adaptation_ran = True

        # Feed the switching policy's benefit ledger: every candidate
        # that could have served this query accrues its Eq. 2 per-use
        # delta.  ``ripe`` asks for a fast-lane bypass — a previously
        # deferred candidate now clears its hedged threshold, and only
        # the cold path below can trigger its materialization (the
        # shape's cached plan would otherwise shortcut past it forever).
        # Eager builds happen in adaptation phases, so only the lazy
        # discipline needs the bypass.
        ripe = self.policy.observe(
            query.select_attributes,
            query.where_attributes,
            self.candidates,
            index,
        ) and self.config.materialization == "lazy"

        # Pin the physical state this query will plan and scan against.
        snapshot = self.table.snapshot()
        prep = _Prepared(
            index=index,
            snapshot=snapshot,
            shift=shift,
            adaptation_ran=adaptation_ran,
            window_size=self.window.size,
        )

        # 3. A repeat query shape under unchanged layouts takes its
        # stage outputs from the plan cache: analysis, planning,
        # costing, zone-map binding and code generation are skipped.
        if self.config.plan_cache and not ripe:
            entry = self.plan_cache.lookup(
                query.shape_signature(), snapshot.epoch
            )
            if entry is not None:
                prep.entry = entry
                prep.info = entry.info.for_query(query)
                prep.plan = entry.plan
                prep.cost = entry.cost_estimate
                prep.kernel = entry.kernel
                prep.zone_bounds = entry.zone_bounds
                prep.predicate_key = entry.predicate_key
                return prep

        # Cold path: full analysis, lazy materialization check, plan
        # enumeration + Eq. 2 costing.  Online reorganization mutates
        # the layouts, so it runs entirely under the lock and publishes
        # atomically; plain planning just records the decision and
        # executes after the lock is released.
        info = analyze_query(query, self.table.schema)
        prep.info = info
        prep.predicate_key = CostModel._predicate_key(info)
        candidate, deferred = self._triggered_candidate(info, index)
        prep.reorg_deferred = deferred
        if candidate is not None:
            try:
                prep.result, prep.stats = self._materialize_and_execute(
                    info, candidate, index, phases
                )
                return prep
            except ReorganizationError:
                # The stitch aborted mid-build.  Nothing was published
                # (the partial group only ever lived in a local buffer),
                # the candidate stays in the pool so a later query can
                # retry the stitch, and *this* query is answered through
                # ordinary cost-based planning — degraded, never wrong.
                # The candidate is quarantined under exponential backoff
                # (docs/resilience.md) so the engine does not re-stitch
                # a poisoned group on every matching query.
                self.reorg_aborts += 1
                self.quarantine.note_failure(candidate.ledger_key)
                prep.reorg_aborted = True
        prep.plan, prep.cost, prep.zone_bounds = self._choose_plan(
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
        # Feedback first: a plan cached below stores the selectivity
        # estimate that already includes this query's observation.
        self._feedback(query, prep, stats)
        if prep.plan is not None:
            # Planned, not answered by online reorganization (which did
            # its own accounting inside ``_materialize_and_execute``).
            self.manager.record_use(prep.plan.layouts)
            self._keep_plan(query, prep, stats)

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
            breaker_short_circuit=stats.breaker_short_circuit,
            reorg_aborted=prep.reorg_aborted,
            reorg_deferred=prep.reorg_deferred,
            morsels_total=stats.morsels_total,
            morsels_pruned=stats.morsels_pruned,
            scan_threads_used=stats.scan_threads_used,
        )
        self.morsels_total += report.morsels_total
        self.morsels_pruned += report.morsels_pruned
        self.reports.append(report)
        if len(self.reports) > REPORT_HISTORY:
            del self.reports[0]
        self._seconds_total += seconds
        for phase, spent in phases.items():
            self._phase_totals[phase] = (
                self._phase_totals.get(phase, 0.0) + spent
            )
        return report

    # Decision steps -------------------------------------------------------------

    def _adapt(self, index: int, phases: Dict[str, float]) -> None:
        """Refresh the candidate pool (the periodic adaptation phase).

        Two cheap checks avoid re-running the full advisor when it could
        not change anything: (a) the window's pattern population and the
        layouts are exactly as last time; (b) most of the windowed
        demand is already served by existing column groups (the stable,
        fully-adapted state where the paper grows the window).  When the
        candidate pool does change, every cached plan is dropped — a
        fast-lane hit must never shortcut past a query that should now
        trigger online materialization.

        Callers must hold ``self.lock``.
        """
        t0 = time.perf_counter()
        population = frozenset(
            attrs for attrs, _ in self.monitor.distinct_access_sets()
        )
        layouts_key = tuple(
            layout.attrs for layout in self.table.layouts
        )
        snapshot = (population, layouts_key)
        # The served-demand skip only applies in the stable regime
        # (no recent shift, window back at its initial size or
        # larger): after drift, new patterns must reach the advisor
        # even if the hot ones are already served.
        stable = (
            not self._shift_since_adaptation
            and self.window.size >= self.config.window_size
        )
        if snapshot != self._last_adaptation_snapshot and not (
            stable and self._served_fraction() >= 0.8
        ):
            pool_before = {
                c.ledger_key: (c.frequency, c.expected_gain)
                for c in self.candidates
            }
            proposals = self.advisor.propose(self.monitor)
            # Accumulate: earlier proposals stay in the pool until a
            # query materializes them or fresher analysis supersedes
            # them — a candidate's pattern may recur only after the
            # window that proposed it has rolled on.
            pool = {c.ledger_key: c for c in self.candidates}
            for candidate in proposals:
                pool[candidate.ledger_key] = candidate
            ranked = sorted(
                pool.values(), key=lambda c: -c.expected_gain
            )
            self.candidates = ranked[: 2 * MAX_CANDIDATES]
            self._last_adaptation_snapshot = snapshot
            if self.config.materialization == "eager":
                # The ablation discipline: build every proposal now,
                # offline, instead of fusing creation with a query.
                # Builds pass the switching policy's gate and are
                # ledgered like online ones; a deferred proposal stays
                # pooled, accruing benefit, until a later phase builds
                # it (at hedge 0 the gate is always open).
                deferred = []
                for candidate in self.candidates:
                    if candidate.expected_gain <= 0:
                        continue
                    if self.table.find_group(candidate.attrs) is not None:
                        continue
                    if not self.policy.allow_materialization(
                        candidate, index
                    ):
                        deferred.append(candidate)
                        continue
                    self.manager.build_group(
                        candidate.attrs, query_index=index
                    )
                    self.policy.note_materialized(candidate, index)
                self.candidates = deferred
            pool_after = {
                c.ledger_key: (c.frequency, c.expected_gain)
                for c in self.candidates
            }
            if pool_after != pool_before:
                self.plan_cache.invalidate_all("candidates")
        self.window.adapted()
        if not self._shift_since_adaptation:
            self.window.note_stable()
        self._shift_since_adaptation = False
        self.monitor.resize(self.window.size)
        self._reference_patterns = [
            attrs for attrs, _ in self.monitor.distinct_access_sets()
        ]
        phases["adapt"] = phases.get("adapt", 0.0) + (
            time.perf_counter() - t0
        )

    def _served_fraction(self) -> float:
        """Fraction of windowed queries already served by a group.

        A query counts as served when some existing multi-attribute
        layout contains its whole access set or its whole SELECT clause
        — exactly the situations where planning finds a fused-group (or
        Fig. 6 split) plan and the advisor would propose nothing new.
        """
        window = self.monitor.window
        if not window:
            return 1.0
        groups = [
            layout.attr_set
            for layout in self.table.layouts
            # Workload-specific groups only: the full-width (row-major)
            # layout contains everything without serving anything.
            if 2 <= layout.width < self.table.schema.width
        ]
        if not groups:
            return 0.0
        served = 0
        for query in window:
            attrs = query.attributes
            select_attrs = query.select_attributes
            for group in groups:
                if attrs <= group or (
                    select_attrs and select_attrs <= group
                ):
                    served += 1
                    break
        return served / len(window)

    def _triggered_candidate(
        self, info: QueryInfo, index: int
    ) -> Tuple[Optional[CandidateLayout], bool]:
        """The best candidate this query both matches and amortizes.

        Returns ``(candidate, deferred)``: the winning candidate (or
        None), and whether the switching policy refused an otherwise
        eligible build (hedged threshold not yet met — the refusal is
        recorded in the policy's debt ledger).
        """
        if self.config.materialization != "lazy":
            return None, False
        select_attrs = frozenset(info.select_attrs)
        where_attrs = frozenset(info.where_attrs)
        best: Optional[CandidateLayout] = None
        for candidate in self.candidates:
            if not candidate.serves(select_attrs, where_attrs):
                continue
            if self.table.find_group(candidate.attrs) is not None:
                continue  # the table already embodies this candidate
            if self.quarantine.blocked(candidate.ledger_key):
                # A recent stitch of this group aborted; its backoff
                # span (in queries) has not elapsed yet.
                continue
            if candidate.expected_gain <= 0:
                continue
            if best is None or candidate.expected_gain > best.expected_gain:
                best = candidate
        if best is not None and not self.policy.allow_materialization(
            best, index
        ):
            # The paper's amortization test passed but the switching
            # policy's hedged-benefit gate did not: the build is
            # deferred, the deferral ledgered, and this query answered
            # through ordinary planning.  The candidate stays in the
            # pool accruing benefit until the gate opens.
            return None, True
        return best, False

    def _materialize_and_execute(
        self,
        info: QueryInfo,
        candidate: CandidateLayout,
        index: int,
        phases: Dict[str, float],
    ) -> Tuple[QueryResult, ExecStats]:
        """Online reorganization: build the layout while answering.

        Runs under the engine lock (it mutates the layout set); the new
        group is published atomically through the table's snapshot
        mechanism, so concurrent readers keep their pinned state.
        """
        outcome = self.reorganizer.online(self.table, candidate.attrs, info)
        stats = outcome.stats
        # The stitch completed: clear any earlier-failure backoff state
        # so a future re-proposal of the same group starts fresh.  The
        # switch is ledgered now — the reorganization cost was paid
        # even if a concurrent append discards the group below.
        self.quarantine.note_success(candidate.ledger_key)
        self.policy.note_materialized(candidate, index)
        registered = True
        try:
            self.manager.register_group(
                outcome.group,
                outcome.seconds,
                query_index=index,
                mode="online",
            )
        except LayoutError:
            # A concurrent append changed the row count while the group
            # was being stitched; the query result (computed from the
            # pinned pre-append state) is still correct — only the new
            # layout is discarded and will be re-proposed later.
            registered = False
        self.candidates = [
            c
            for c in self.candidates
            if c.ledger_key != candidate.ledger_key
        ]
        if registered and self.config.max_table_bytes:
            # Enforce the storage budget by retiring cold groups (the
            # one just built goes last).
            dropped = self.manager.retire_cold_groups(
                self.config.max_table_bytes
            )
            if dropped:
                self._last_adaptation_snapshot = None  # layouts changed
        phases["codegen"] = (
            phases.get("codegen", 0.0) + stats.codegen_seconds
        )
        phases["reorg"] = outcome.seconds
        stats.plan = f"online-reorg(group[{','.join(candidate.attrs)}])"
        if registered:
            stats.layout_created = ",".join(candidate.attrs)
        return outcome.result, stats

    def _choose_plan(
        self,
        snapshot: LayoutSnapshot,
        info: QueryInfo,
        phases: Dict[str, float],
    ) -> Tuple[AccessPlan, float, Optional[ZoneBounds]]:
        """Cost-based choice among (layout cover × strategy) plans.

        Returns the plan, its Eq. 2 cost and the predicate's zone-map
        binding.  Planning runs against the pinned snapshot, so a
        concurrent layout publication cannot change the candidate
        covers mid-enumeration.

        When zone maps are on, Eq. 2's scan terms are discounted by the
        fraction of morsels the query's predicate would actually touch
        — the pruning-aware scan term — so a selective query's
        amortization and plan choice reflect the scan it will really
        pay for.  The predicate is bound once, over the snapshot, and
        that one binding prices every plan, prunes the chosen plan's
        scan and is cached with the plan: zone-map stats are
        row-aligned, so any layout providing an attribute yields the
        same keep mask.
        """
        t0 = time.perf_counter()
        plans = enumerate_plans(snapshot, info)
        bounds = None
        scan_fraction = 1.0
        if self.config.zone_maps:
            bounds = zone_bounds_for(
                info,
                snapshot.layouts,
                snapshot.num_rows,
                self.config.morsel_rows,
            )
            keep = bounds.keep(info.query.literals)
            if keep is not None and keep.size:
                scan_fraction = float(keep.sum()) / keep.size
        costed = [
            (
                self.cost_model.plan_cost(info, plan, scan_fraction),
                i,
                plan,
            )
            for i, plan in enumerate(plans)
        ]
        cost, _, plan = min(costed)
        phases["plan"] = time.perf_counter() - t0
        return plan, cost, bounds

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
        """Run one plan through the executor, breaker-gated.

        A cached kernel runs as it is.  Otherwise the per-signature
        circuit breaker gates code generation: an open breaker
        short-circuits straight to the interpreted operators (no
        compile attempted), and every compile outcome is reported back
        so the breaker's state machine advances.  Online reorganization
        runs its stitching scan through here too (``stitch``).
        """
        allow_codegen = True
        signature = None
        if kernel is None and self.config.use_codegen and info.all_attrs:
            signature = info.query.shape_signature()
            allow_codegen = self.breaker.allow(signature)
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
                stats.breaker_short_circuit = True
            elif stats.codegen_fallback:
                self.breaker.record_failure(signature)
            elif stats.used_codegen:
                self.breaker.record_success(signature)
        return result, stats

    # The plan cache -------------------------------------------------------------

    def _keep_plan(
        self, query: Query, prep: _Prepared, stats: ExecStats
    ) -> None:
        """Keep a cold plan's stage outputs for its shape's repeats, or
        evict a hit's entry whose selectivity drifted.

        Only plans chosen by cost-based planning are cached (online
        reorganization changes the layouts, so its epoch is stale by
        construction; attribute-free queries have nothing to reuse).
        The entry is tagged with the epoch of the snapshot the plan was
        *derived against* — if another worker's stitch or an append
        raced this query, the entry is stale immediately and the next
        lookup drops it, never serving a plan across an epoch boundary.

        A hit's entry is evicted when the learned selectivity of its
        predicate drifts beyond :data:`SELECTIVITY_DRIFT_BAND` from the
        estimate the plan was stored with, so the next repeat re-plans
        (and re-caches) cold — bounding the regret of a stale plan
        decision.
        """
        entry = prep.entry
        if entry is not None:
            learned = self.selectivity.estimate(
                query.where, prep.predicate_key
            )
            if abs(learned - entry.selectivity) > SELECTIVITY_DRIFT_BAND:
                self.plan_cache.invalidate(entry.signature, "drift")
            return
        if not self.config.plan_cache or not prep.info.all_attrs:
            return
        if stats.codegen_fallback or stats.breaker_short_circuit:
            # Never cache a degraded execution: a hit would pin this
            # shape to the interpreted plan (or replay a decision made
            # while its breaker was open) and bypass the breaker's
            # half-open probe on every future repeat.  Cold-path repeats
            # keep probing until the shape compiles again.
            return
        self.plan_cache.store(
            CachedPlan(
                signature=query.shape_signature(),
                epoch=prep.snapshot.epoch,
                info=prep.info,
                plan=prep.plan,
                cost_estimate=prep.cost,
                kernel=stats.kernel,
                zone_bounds=prep.zone_bounds,
                predicate_key=prep.predicate_key,
                selectivity=self.selectivity.estimate(
                    query.where, prep.predicate_key
                ),
            )
        )

    # Selectivity feedback -------------------------------------------------------

    def _feedback(
        self, query: Query, prep: _Prepared, stats: ExecStats
    ) -> None:
        """Report observed selectivity back to the estimator.

        Aggregation queries are included through the qualifying-row
        count every scan reports (the combined per-morsel counts),
        online reorganization's scan included.  The denominator is the
        row count of the snapshot the query actually scanned, not the
        table's possibly newer state.

        Zone-map pruning does not skew this feedback: a pruned morsel
        provably holds zero qualifying rows, so the sum of per-morsel
        qualifying counts equals the full-scan count, and the
        denominator deliberately stays the snapshot's *total* row count
        (not the rows actually scanned) — selectivity remains
        "qualifying fraction of the table", the quantity Eq. 2
        estimates with.
        """
        num_rows = prep.snapshot.num_rows
        if query.where is None or num_rows == 0:
            return
        self.selectivity.observe(
            prep.predicate_key, stats.qualifying_rows / num_rows
        )

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
            # from warmup-polluted statistics and invalidate the very
            # plan-cache entries the warmup is building.
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
                self.monitor = monitor
                self.window.since_adaptation = _intval("since_adaptation")
                self.window.shrink_events = _intval("shrink_events")
                self.window.grow_events = _intval("grow_events")
                self._query_counter = max(
                    self._query_counter, _intval("query_counter")
                )
                self._reference_patterns = [
                    attrs for attrs, _ in monitor.distinct_access_sets()
                ]
                self.reports.clear()
                self._seconds_total = 0.0
                self._phase_totals = {}
                self.candidates = []
                self._last_adaptation_snapshot = None
                self._shift_since_adaptation = False
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
                "  codegen breaker: open={} short_circuits={} "
                "fallbacks={}".format(
                    len(self.breaker.open_keys()),
                    self.breaker.short_circuits,
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
