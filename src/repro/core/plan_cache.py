"""The plan cache: a query shape's cached stage outputs.

H2O's adaptation overhead is designed to be paid once and amortized
over a recurring query stream (paper section 3.4 caches generated
operators for exactly this reason).  A cold query derives its plan
stage by stage: analyze the parse tree, bind the predicate's zone maps,
enumerate (layout cover × strategy) plans, cost each with Eq. 2, and
generate the operator.  In the fully-adapted steady state — the tail of
Fig. 7 — none of those outputs can change between two structurally
identical queries unless the physical layouts, the candidate pool, or
the learned selectivities changed.

This module keeps them: a
:class:`~repro.sql.signature.QueryShapeSignature` maps to the shape's
analyzer facts, the chosen :class:`AccessPlan` and its cost, the
compiled kernel, and the predicate's zone-map binding.  The engine runs
a hit through the same run and finish stages as a cold plan, with the
repeat's own query (and so its own literals) in place of the cached
one.  A cached plan is a *decision*, not a second executor.

Invalidation is layered:

- **layout epoch** — every entry is tagged with the table's
  ``layout_epoch`` at caching time; any layout creation, retirement or
  row append bumps the epoch and a later lookup drops the stale entry;
- **candidate pool** — the engine calls :meth:`PlanCache.invalidate_all`
  whenever the advisor refreshes candidates, because a cached plan must
  not shortcut past a query that should trigger online materialization;
- **selectivity drift** — the engine drops an entry when the learned
  selectivity of its predicate drifts beyond the configured band from
  the estimate the plan was costed with (Rong et al. frame this as
  bounding the regret of stale layout/plan decisions).

The cache is a bounded LRU over signatures, so a drifting workload
cannot grow it without bound.

**Thread safety.**  The cache is shared by every worker of the
concurrent query service, so all operations (including the LRU
bookkeeping a lookup performs) run under an internal lock, and
:meth:`stats` returns a defensive deep copy — callers can never observe
or mutate live internal state.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..execution.strategies import AccessPlan
from ..sql.analyzer import QueryInfo
from ..sql.signature import QueryShapeSignature
from ..storage.zonemap import ZoneBounds


@dataclass
class CachedPlan:
    """Everything needed to answer a repeat query without re-planning."""

    signature: QueryShapeSignature
    #: Table layout epoch this entry was created under.
    epoch: int
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
    #: Entries dropped because they went stale (epoch mismatch,
    #: candidate refresh, selectivity drift), keyed by reason.
    invalidations: Dict[str, int] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def lookup(
        self, signature: QueryShapeSignature, epoch: int
    ) -> Optional[CachedPlan]:
        """The live entry for ``signature`` under ``epoch``, or None.

        An entry cached under an older layout epoch is dropped on sight
        (counted as an ``epoch`` invalidation) and reported as a miss —
        the cold path will re-plan against the current layouts and
        re-cache.
        """
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self.misses += 1
                return None
            if entry.epoch != epoch:
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

    def invalidate_all(self, reason: str) -> int:
        """Drop every entry (e.g. after a candidate-pool refresh)."""
        with self._lock:
            dropped = len(self._entries)
            if dropped:
                self._entries.clear()
                self._count_invalidation(reason, dropped)
            return dropped

    def _count_invalidation(self, reason: str, count: int = 1) -> None:
        # Caller holds ``_lock``.
        self.invalidations[reason] = (
            self.invalidations.get(reason, 0) + count
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Counters for ``engine.describe()`` and the bench reports.

        Returns a consistent defensive copy taken under the lock: the
        ``invalidations`` dict is a fresh copy, never the live internal
        mapping, so callers cannot observe later mutations (or corrupt
        the cache by editing the returned value).
        """
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": dict(self.invalidations),
            }
