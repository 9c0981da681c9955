"""The Data Layout Manager and the adaptation loop around it (Fig. 3).

:class:`LayoutManager` creates a table's column groups through the
stitcher and keeps a creation log (who, when, how long — the
layout-creation time Fig. 8 reports separately).

:class:`Adaptation` decides *whether a query builds a layout*: monitor
and shift detection, the dynamic window, the advisor's candidate pool
(Eq. 1), the switching policy's ledger, and online builds through the
Reorganizer.  How a query runs over the layouts there are is the
planner's decision (:mod:`repro.core.planner`); neither calls the other.
Every query — a plan-cache hit or a cold plan — asks
:meth:`Adaptation.triggered` first, and its plan runs only when nothing
triggers.

Thread-safety: the engine calls :class:`Adaptation` only under its
lock.  Report threads also read the creation log, so the manager guards
it with its own lock and hands out copies.  Table mutations are atomic
snapshot publications.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..config import EngineConfig
from ..errors import LayoutError
from ..execution.executor import ExecStats
from ..execution.result import QueryResult
from ..resilience.quarantine import QuarantineList
from ..sql.analyzer import QueryInfo
from ..sql.query import Query
from ..storage.column_group import ColumnGroup
from ..storage.relation import Table
from ..storage.stitcher import stitch_group
from ..util.timing import Timer
from .adaptation_policy import AdaptationPolicy
from .advisor import MAX_CANDIDATES, CandidateLayout, LayoutAdvisor
from .cost_model import CostModel
from .history import ShiftDetector
from .monitor import Monitor
from .reorganizer import PlanRunner, Reorganizer
from .window import DynamicWindow


@dataclass
class LayoutEvent:
    """One layout-creation record."""

    attrs: Tuple[str, ...]
    seconds: float
    bytes_read: int
    bytes_written: int
    query_index: Optional[int] = None
    mode: str = "offline"  # "offline" | "online"


class LayoutManager:
    """Creates and tracks physical layouts for one table."""

    def __init__(self, table: Table) -> None:
        self.table = table
        self._log_lock = threading.Lock()
        self._creation_log: List[LayoutEvent] = []

    @property
    def creation_log(self) -> Tuple[LayoutEvent, ...]:
        """A consistent defensive copy of the creation records."""
        with self._log_lock:
            return tuple(self._creation_log)

    def _log(self, event: LayoutEvent) -> None:
        with self._log_lock:
            self._creation_log.append(event)

    def build_group(
        self,
        attrs: Iterable[str],
        query_index: Optional[int] = None,
    ) -> Tuple[ColumnGroup, float]:
        """Materialize a new column group offline (stitch, then add).

        Returns the group and the creation time in seconds; the time is
        also appended to the creation log so reports can attribute it.
        """
        ordered = self.table.schema.ordered(attrs)
        existing = self.table.find_group(ordered)
        if existing is not None:
            return existing, 0.0
        sources = self.table.covering_layouts(ordered)
        full_width = len(ordered) == self.table.schema.width
        with Timer() as timer:
            group, stats = stitch_group(
                sources, ordered, self.table.schema, full_width=full_width
            )
        self.table.add_layout(group)
        self._log(
            LayoutEvent(
                attrs=ordered,
                seconds=timer.elapsed,
                bytes_read=stats.bytes_read,
                bytes_written=stats.bytes_written,
                query_index=query_index,
                mode="offline",
            )
        )
        return group, timer.elapsed

    def register_group(
        self,
        group: ColumnGroup,
        seconds: float,
        query_index: Optional[int] = None,
        mode: str = "online",
    ) -> None:
        """Adopt a group built elsewhere (the online reorganizer)."""
        self.table.add_layout(group)
        self._log(
            LayoutEvent(
                attrs=group.attrs,
                seconds=seconds,
                bytes_read=0,
                bytes_written=group.nbytes,
                query_index=query_index,
                mode=mode,
            )
        )

    def creation_seconds(self) -> float:
        """Total time ever spent creating layouts (Fig. 8's dark bar)."""
        with self._log_lock:
            return sum(event.seconds for event in self._creation_log)


def _access_sets(monitor: Monitor) -> List[FrozenSet[str]]:
    return [attrs for attrs, _ in monitor.distinct_access_sets()]


class Adaptation:
    """Monitor → window → advisor → switching policy → online builds.

    All adaptation overheads — advisor runs, layout creation — are
    charged to the triggering query, exactly as the paper reports them.
    """

    def __init__(
        self,
        table: Table,
        config: EngineConfig,
        cost_model: CostModel,
        run_plan: PlanRunner,
        clock: Callable[[], float],
    ) -> None:
        self.table = table
        self.config = config
        self.monitor = Monitor(table.schema, config.window_size)
        self.window = DynamicWindow(config)
        self.shift_detector = ShiftDetector()
        self.advisor = LayoutAdvisor(table, cost_model, config)
        self.manager = LayoutManager(table)
        self.reorganizer = Reorganizer(run_plan)
        #: The layout-switching policy (docs/adaptation.md); every gate
        #: is open at the default ``hedging_factor`` of 0 (the paper's
        #: greedy H2O).
        self.policy = AdaptationPolicy(config)
        #: Exponential-backoff quarantine for candidate layouts whose
        #: stitches keep aborting.  ``clock`` is the engine's query
        #: counter, so spans are "skip for the next N queries".
        self.quarantine = QuarantineList(clock=clock)
        self.candidates: List[CandidateLayout] = []
        self._shift_since_adaptation = False
        self._last_adaptation_snapshot: Optional[tuple] = None
        #: Distinct access sets as of the last adaptation phase.
        self._reference_patterns: List[FrozenSet[str]] = []

    def observe(
        self, query: Query, index: int, phases: Dict[str, float]
    ) -> Tuple[bool, bool]:
        """Monitor ``query``, run the adaptation phase when the window
        is due, and ledger the candidates' benefit for it; returns
        ``(shift detected, adaptation phase ran)``.

        Novelty is judged against the patterns known as of the
        *previous adaptation* ("H2O detects workload shifts by comparing
        new queries with queries observed in the previous query
        window"): a rolling reference would make a shifted workload
        familiar to itself within a few queries.
        """
        if not self._reference_patterns and len(self.monitor) >= (
            self.shift_detector.warmup
        ):
            self._reference_patterns = _access_sets(self.monitor)
        known = self._reference_patterns or _access_sets(self.monitor)
        self.monitor.observe(query)
        self.window.note_query()
        shift = self.shift_detector.assess(query.attributes, known)
        if shift:
            self._shift_since_adaptation = True
            self.window.note_shift()
            self.monitor.resize(self.window.size)
        adaptation_ran = self.window.due()
        if adaptation_ran:
            self._adapt(index, phases)
        # Every candidate that could have served this query accrues its
        # Eq. 2 per-use delta on the switching policy's ledger.
        self.policy.observe(
            query.select_attributes,
            query.where_attributes,
            self.candidates,
            index,
        )
        return shift, adaptation_ran

    def _adapt(self, index: int, phases: Dict[str, float]) -> None:
        """Refresh the candidate pool (the periodic adaptation phase).

        Two cheap checks avoid re-running the full advisor when it could
        not change anything: (a) the window's pattern population and the
        layouts are exactly as last time; (b) most of the windowed
        demand is already served by existing column groups (the stable,
        fully-adapted state where the paper grows the window).
        """
        t0 = time.perf_counter()
        population = frozenset(_access_sets(self.monitor))
        layouts_key = tuple(layout.attrs for layout in self.table.layouts)
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
            stable and self.served_fraction() >= 0.8
        ):
            proposals = self.advisor.propose(self.monitor)
            # Accumulate: earlier proposals stay in the pool until a
            # query materializes them or fresher analysis supersedes
            # them — a candidate's pattern may recur only after the
            # window that proposed it has rolled on.
            pool = {c.ledger_key: c for c in self.candidates}
            for candidate in proposals:
                pool[candidate.ledger_key] = candidate
            ranked = sorted(pool.values(), key=lambda c: -c.expected_gain)
            self.candidates = ranked[: 2 * MAX_CANDIDATES]
            self._last_adaptation_snapshot = snapshot
            if self.config.materialization == "eager":
                self._build_eagerly(index)
        self.window.adapted()
        if not self._shift_since_adaptation:
            self.window.note_stable()
        self._shift_since_adaptation = False
        self.monitor.resize(self.window.size)
        self._reference_patterns = _access_sets(self.monitor)
        phases["adapt"] = phases.get("adapt", 0.0) + (
            time.perf_counter() - t0
        )

    def _build_eagerly(self, index: int) -> None:
        """The ablation discipline: build every proposal now, offline,
        instead of fusing creation with a query.  Builds pass the
        switching policy's gate and are ledgered like online ones; a
        deferred proposal stays pooled, accruing benefit, until a later
        phase builds it (at hedge 0 the gate is always open)."""
        deferred = []
        for candidate in self.candidates:
            if candidate.expected_gain <= 0:
                continue
            if self.table.find_group(candidate.attrs) is not None:
                continue
            if not self.policy.allow_materialization(candidate, index):
                deferred.append(candidate)
                continue
            self.manager.build_group(candidate.attrs, query_index=index)
            self.policy.note_materialized(candidate, index)
        self.candidates = deferred

    def served_fraction(self) -> float:
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
                if attrs <= group or (select_attrs and select_attrs <= group):
                    served += 1
                    break
        return served / len(window)

    def triggered(
        self, info: QueryInfo, index: int
    ) -> Tuple[Optional[CandidateLayout], bool]:
        """``(candidate, deferred)``: the best candidate this query both
        matches and amortizes (or None), and whether the switching
        policy refused an otherwise eligible build (the refusal is
        ledgered as a deferral)."""
        if self.config.materialization != "lazy" or not self.candidates:
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

    def materialize(
        self,
        info: QueryInfo,
        candidate: CandidateLayout,
        index: int,
        phases: Dict[str, float],
    ) -> Tuple[QueryResult, ExecStats]:
        """Online reorganization: build the layout while answering.

        The group is published atomically through the table's snapshot
        mechanism; a stitch that aborts raises
        :class:`~repro.errors.ReorganizationError` before publishing.
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
                outcome.group, outcome.seconds, query_index=index
            )
        except LayoutError:
            # A concurrent append changed the row count while the group
            # was being stitched; the query result (computed from the
            # pinned pre-append state) is still correct — only the new
            # layout is discarded and will be re-proposed later.
            registered = False
        self.candidates = [
            c for c in self.candidates if c.ledger_key != candidate.ledger_key
        ]
        phases["codegen"] = phases.get("codegen", 0.0) + stats.codegen_seconds
        phases["reorg"] = outcome.seconds
        stats.plan = f"online-reorg(group[{','.join(candidate.attrs)}])"
        if registered:
            stats.layout_created = ",".join(candidate.attrs)
        return outcome.result, stats

    def resume(self, monitor: Monitor) -> None:
        """Adopt a recovered ``monitor`` and start the next adaptation
        phase from it, with an empty candidate pool."""
        self.monitor = monitor
        self.candidates = []
        self._last_adaptation_snapshot = None
        self._shift_since_adaptation = False
        self._reference_patterns = _access_sets(monitor)
