"""Workload monitoring over a window of recent queries.

H2O "uses a dynamic window of N queries to monitor the access patterns
of the incoming queries" and keeps "statistics about attribute usage and
frequency of attributes accessed together" in two affinity matrices
(paper section 3.2).  The monitor maintains exactly that: a bounded
deque of queries and per-clause pattern counts updated on
entry/eviction.  The two matrices are derived from those counts when
adaptation reads them: every query moves a counter, and only the
advisor, once per phase, pays for a matrix.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, FrozenSet, List, Tuple

from ..sql.query import Query, QuerySignature
from ..storage.schema import Schema
from .affinity import AffinityMatrix


@dataclass(frozen=True)
class AccessPattern:
    """One observed clause-level access set with its frequency."""

    attrs: FrozenSet[str]
    clause: str  # "select" | "where"
    count: int


class Monitor:
    """Sliding-window access statistics."""

    def __init__(self, schema: Schema, capacity: int) -> None:
        self.schema = schema
        self.capacity = capacity
        self._window: Deque[Query] = deque()
        self._select_patterns: Counter = Counter()
        self._where_patterns: Counter = Counter()
        #: Whole-query attribute sets, maintained incrementally so that
        #: :meth:`distinct_access_sets` and :meth:`pattern_frequency` are
        #: O(distinct patterns) rather than O(window) — both run on the
        #: engine's per-query path and would otherwise dominate the
        #: steady state the plan cache is built to accelerate.
        self._access_sets: Counter = Counter()
        self._distinct_cache: "List[Tuple[FrozenSet[str], int]] | None" = None
        self.queries_seen = 0

    # Window maintenance ----------------------------------------------------

    def observe(self, query: Query) -> None:
        """Record one query; evicts the oldest beyond the capacity."""
        signature = query.signature()
        self.queries_seen += 1
        self._window.append(query)
        if signature.select_attrs:
            self._select_patterns[signature.select_attrs] += 1
        if signature.where_attrs:
            self._where_patterns[signature.where_attrs] += 1
        if query.attributes:
            self._access_sets[query.attributes] += 1
            self._distinct_cache = None
        while len(self._window) > self.capacity:
            self._evict()

    def _evict(self) -> None:
        evicted_query = self._window.popleft()
        evicted = evicted_query.signature()
        if evicted.select_attrs:
            self._select_patterns[evicted.select_attrs] -= 1
            if self._select_patterns[evicted.select_attrs] <= 0:
                del self._select_patterns[evicted.select_attrs]
        if evicted.where_attrs:
            self._where_patterns[evicted.where_attrs] -= 1
            if self._where_patterns[evicted.where_attrs] <= 0:
                del self._where_patterns[evicted.where_attrs]
        if evicted_query.attributes:
            self._access_sets[evicted_query.attributes] -= 1
            if self._access_sets[evicted_query.attributes] <= 0:
                del self._access_sets[evicted_query.attributes]
            self._distinct_cache = None

    def resize(self, capacity: int) -> None:
        """Adjust the window capacity (the dynamic-window mechanism)."""
        self.capacity = capacity
        while len(self._window) > self.capacity:
            self._evict()

    # Views for the advisor ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._window)

    @property
    def select_affinity(self) -> AffinityMatrix:
        """SELECT-clause co-access over the window (derived on read)."""
        return AffinityMatrix(self.schema, self._select_patterns)

    @property
    def where_affinity(self) -> AffinityMatrix:
        """WHERE-clause co-access over the window (derived on read)."""
        return AffinityMatrix(self.schema, self._where_patterns)

    @property
    def window(self) -> Tuple[Query, ...]:
        """The windowed queries, oldest first."""
        return tuple(self._window)

    def patterns(self) -> List[AccessPattern]:
        """Distinct clause-level access sets with frequencies,
        most frequent first — the advisor's initial candidate pool."""
        result: List[AccessPattern] = []
        for attrs, count in self._select_patterns.items():
            result.append(AccessPattern(attrs, "select", count))
        for attrs, count in self._where_patterns.items():
            result.append(AccessPattern(attrs, "where", count))
        result.sort(key=lambda p: (-p.count, -len(p.attrs), sorted(p.attrs)))
        return result

    def pattern_frequency(self, attrs: FrozenSet[str]) -> int:
        """How many windowed queries' full access set is ⊆ ``attrs``.

        Answered from the incrementally-maintained distinct-set counter:
        O(distinct patterns) instead of O(window size).
        """
        return sum(
            count
            for pattern, count in self._access_sets.items()
            if pattern <= attrs
        )

    def distinct_access_sets(self) -> List[Tuple[FrozenSet[str], int]]:
        """Distinct whole-query attribute sets with frequencies.

        The sorted view is cached between window mutations; the engine
        consults it several times per query (shift reference, adaptation
        snapshot) and repeated calls in the steady state are O(1).
        """
        if self._distinct_cache is None:
            self._distinct_cache = sorted(
                self._access_sets.items(),
                key=lambda item: (-item[1], sorted(item[0])),
            )
        return self._distinct_cache
