"""The planner: how a query runs over the layouts the table has.

The planner is the paper's Query Processor half of Fig. 3: it
enumerates (layout cover × strategy) access plans, costs each with
Eq. 2, binds the predicate's zone maps and picks the cheapest.  It
never decides whether a layout should be *built* — that is the
adaptation half (:class:`~repro.core.layout_manager.Adaptation`), which
every query consults before the planner's plan runs.

H2O's adaptation overhead is designed to be paid once and amortized
over a recurring query stream (paper section 3.4 caches generated
operators for exactly this reason).  In the fully-adapted steady
state — the tail of Fig. 7 — none of a plan's stage outputs can change
between two structurally identical queries unless the physical layouts
or the learned selectivities changed.  The planner keeps them: a
:class:`~repro.sql.signature.QueryShapeSignature` maps to the shape's
analyzer facts, the chosen :class:`AccessPlan` and its cost, the
compiled kernel, and the predicate's zone-map binding.  The engine runs
a hit through the same run and finish stages as a cold plan, with the
repeat's own query (and so its own literals) in place of the cached
one.  A cached plan is a *decision*, not a second executor.

An entry is invalidated by

- **layout set** — every entry is tagged with its snapshot's
  ``layout_set_epoch``; a layout creation or retirement bumps it and a
  later lookup drops the stale entry;
- **selectivity drift** — an entry is dropped when the learned
  selectivity of its predicate drifts beyond
  :data:`SELECTIVITY_DRIFT_BAND` from the estimate the plan was costed
  with (Rong et al. frame this as bounding the regret of stale
  layout/plan decisions).

An append bumps only the snapshot's ``epoch``: it extends every layout
and keeps their order, so neither the plan choice, the kernel (its
operator key is buffer slot, position, dtype and width) nor the shape's
analysis changes.  A hit on an entry cached at another ``epoch`` is
rebound instead of re-planned: its plan's layouts are taken from the
query's snapshot by position, its zone bounds are bound again over that
snapshot (the appended layouts carry extended zone maps), and the
rebound entry is stored under the new epoch.  A writer appending
between every two reads therefore costs each read one rebind, not a
cold plan and a codegen lookup.

The cache is a bounded LRU over signatures, so a drifting workload
cannot grow it without bound.

**Thread safety.**  The cache is shared by every worker of the
concurrent query service, so all its operations (including the LRU
bookkeeping a lookup performs) run under an internal lock, and
:meth:`PlanCache.stats` returns a defensive deep copy.  The planner's
other state (the selectivity estimator) is mutated only under the
engine lock.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Tuple

from ..config import EngineConfig
from ..execution.executor import ExecStats
from ..execution.morsel import zone_bounds_for
from ..execution.strategies import AccessPlan, enumerate_plans
from ..sql.analyzer import QueryInfo
from ..sql.query import Query
from ..sql.signature import QueryShapeSignature
from ..storage.relation import LayoutSnapshot
from ..storage.zonemap import ZoneBounds
from .cost_model import CostModel, SelectivityEstimator

#: How far (absolute qualifying-fraction difference) the learned
#: selectivity of a predicate may drift from the estimate its cached
#: plan was costed with before the entry is evicted and the next repeat
#: re-plans on the cold path.
SELECTIVITY_DRIFT_BAND = 0.2


@dataclass
class CachedPlan:
    """Everything needed to answer a repeat query without re-planning."""

    signature: QueryShapeSignature
    #: Snapshot ``epoch`` the plan's layouts and zone bounds belong to.
    epoch: int
    #: Snapshot ``layout_set_epoch`` the plan was chosen under.
    layout_set_epoch: int
    #: Index of each of the plan's layouts in its snapshot's layouts
    #: (the rebind after an append).
    positions: Tuple[int, ...]
    #: Analyzer facts of the query that cached the entry; valid for
    #: every query of this shape once a hit swaps in its own query.
    info: QueryInfo
    plan: AccessPlan
    #: Compiled kernel (``None`` when the engine runs interpreted; a
    #: hit then reuses the cached plan but executes generically).
    kernel: Optional[Callable] = None
    #: The predicate's zone-map tests (``None`` when zone maps are
    #: off); a repeat tests its own literals against them.
    zone_bounds: Optional[ZoneBounds] = None
    #: Eq. 2 estimate the plan was chosen with.
    cost_estimate: float = 0.0
    #: Masked predicate key for the selectivity estimator ("" if none).
    predicate_key: str = ""
    #: Selectivity estimate at caching time (drift reference).
    selectivity: float = 1.0
    hits: int = 0


@dataclass
class PlanCache:
    """Signature-keyed LRU of :class:`CachedPlan` entries (thread-safe)."""

    capacity: int = 256
    _entries: "OrderedDict[QueryShapeSignature, CachedPlan]" = field(
        default_factory=OrderedDict
    )
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries dropped because they went stale (layout set changed,
    #: selectivity drift), keyed by reason.
    invalidations: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def lookup(
        self, signature: QueryShapeSignature, layout_set_epoch: int
    ) -> Optional[CachedPlan]:
        """The live entry for ``signature`` under ``layout_set_epoch``,
        or None.

        An entry cached under another layout set is dropped on sight
        (counted as an ``epoch`` invalidation) and reported as a miss —
        the cold path will re-plan against the current layouts and
        re-cache.
        """
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self.misses += 1
                return None
            if entry.layout_set_epoch != layout_set_epoch:
                del self._entries[signature]
                self._count_invalidation("epoch")
                self.misses += 1
                return None
            self._entries.move_to_end(signature)
            self.hits += 1
            entry.hits += 1
            return entry

    def store(self, entry: CachedPlan) -> None:
        with self._lock:
            self._entries[entry.signature] = entry
            self._entries.move_to_end(entry.signature)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate(
        self, signature: QueryShapeSignature, reason: str
    ) -> bool:
        """Drop one entry (e.g. on selectivity drift)."""
        with self._lock:
            if signature in self._entries:
                del self._entries[signature]
                self._count_invalidation(reason)
                return True
            return False

    def _count_invalidation(self, reason: str) -> None:
        # Caller holds ``_lock``.
        self.invalidations[reason] = self.invalidations.get(reason, 0) + 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Counters for ``engine.describe()`` and the bench reports: a
        consistent copy taken under the lock (``invalidations`` is a
        fresh dict, never the live mapping)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": dict(self.invalidations),
            }


class Planner:
    """Eq. 2 plan choice, the plan cache and selectivity feedback."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.selectivity = SelectivityEstimator()
        self.cost_model = CostModel(config.machine, self.selectivity)
        self.cache = PlanCache()

    def lookup(
        self, query: Query, snapshot: LayoutSnapshot
    ) -> Optional[CachedPlan]:
        """The cached stage outputs of ``query``'s shape over
        ``snapshot`` (None on a miss or with the plan cache off); an
        entry cached before an append is rebound to ``snapshot``."""
        if not self.config.plan_cache:
            return None
        entry = self.cache.lookup(
            query.shape_signature(), snapshot.layout_set_epoch
        )
        if entry is not None and entry.epoch != snapshot.epoch:
            entry = self._rebind(entry, snapshot)
            self.cache.store(entry)
        return entry

    def _rebind(
        self, entry: CachedPlan, snapshot: LayoutSnapshot
    ) -> CachedPlan:
        """``entry`` over ``snapshot``, which holds the same layouts in
        the same order with rows appended: same plan choice and kernel,
        the snapshot's layouts and zone bounds."""
        layouts = snapshot.layouts
        plan = AccessPlan(
            entry.plan.strategy, tuple(layouts[i] for i in entry.positions)
        )
        bounds = None
        if self.config.zone_maps:
            bounds = zone_bounds_for(
                entry.info, layouts, snapshot.num_rows, self.config.morsel_rows
            )
        return replace(
            entry, epoch=snapshot.epoch, plan=plan, zone_bounds=bounds
        )

    def choose(
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
        — the pruning-aware scan term — so a selective query's plan
        choice reflects the scan it will really pay for.  The predicate
        is bound once, over the snapshot, and that one binding prices
        every plan, prunes the chosen plan's scan and is cached with
        the plan: zone-map stats are row-aligned, so any layout
        providing an attribute yields the same keep mask.
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

    def learn(self, query: Query, prep, stats: ExecStats) -> None:
        """Feed back the scan's selectivity, then keep a cold plan's
        stage outputs for its shape's repeats or evict a hit's entry
        whose selectivity drifted.

        ``prep`` is the engine's prepared query: its snapshot,
        ``predicate_key``, the plan-cache ``entry`` it ran (if any) and
        the plan stage's outputs (no ``plan`` when online
        reorganization answered it).

        Feedback comes first, so a plan cached here stores the estimate
        that already includes this query's observation.  The
        denominator is the row count of the snapshot the query scanned.
        Zone-map pruning does not skew it: a pruned morsel provably
        holds zero qualifying rows, and the denominator stays the
        snapshot's *total* row count — the quantity Eq. 2 estimates
        with.  A kept entry is tagged with the epochs of the snapshot
        the plan was *derived against*, so a stitch that raced this
        query makes it stale at once and an append that raced it makes
        the next hit rebind.
        """
        num_rows = prep.snapshot.num_rows
        if query.where is not None and num_rows:
            self.selectivity.observe(
                prep.predicate_key, stats.qualifying_rows / num_rows
            )
        learned = self.selectivity.estimate(query.where, prep.predicate_key)
        entry = prep.entry
        if entry is not None:
            if abs(learned - entry.selectivity) > SELECTIVITY_DRIFT_BAND:
                self.cache.invalidate(entry.signature, "drift")
            return
        if prep.plan is None or not self.config.plan_cache:
            return
        if not prep.info.all_attrs:
            return
        if stats.codegen_fallback or stats.compile_blocked:
            # Never cache a degraded execution: a hit would pin this
            # shape to the interpreted plan and skip the compile retry
            # its quarantine schedules on every future repeat.
            return
        snapshot = prep.snapshot
        index = {id(layout): i for i, layout in enumerate(snapshot.layouts)}
        self.cache.store(
            CachedPlan(
                signature=query.shape_signature(),
                epoch=snapshot.epoch,
                layout_set_epoch=snapshot.layout_set_epoch,
                positions=tuple(index[id(l)] for l in prep.plan.layouts),
                info=prep.info,
                plan=prep.plan,
                cost_estimate=prep.cost,
                kernel=stats.kernel,
                zone_bounds=prep.zone_bounds,
                predicate_key=prep.predicate_key,
                selectivity=learned,
            )
        )
