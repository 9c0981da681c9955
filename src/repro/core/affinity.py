"""Attribute affinity matrices (paper section 3.2, citing Navathe [38]).

Affinity between two attributes is how often they are accessed together
within one clause.  H2O keeps two matrices — one for SELECT-clause
co-access, one for WHERE-clause co-access — so that, e.g., predicates
that are evaluated together can get their own column group driving a
selection vector, independently of the projection groups.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from ..storage.schema import Schema


class AffinityMatrix:
    """Symmetric co-access counts over a schema's attributes."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._index = {name: i for i, name in enumerate(schema.names)}
        self._matrix = np.zeros((schema.width, schema.width), dtype=np.float64)
        #: Per-pattern fancy-index cache: a recurring workload updates
        #: the matrix with the same handful of attribute sets on every
        #: query, so the ``np.ix_`` grids are memoized per frozenset.
        self._ix_cache: Dict[FrozenSet[str], tuple] = {}
        #: Whether a removal may have driven cells below zero (float
        #: drift).  Clamping is deferred to the next *read* — the write
        #: path runs once per query, the read paths run at adaptation
        #: time only.
        self._dirty = False

    def _clamped(self) -> np.ndarray:
        if self._dirty:
            np.maximum(self._matrix, 0.0, out=self._matrix)
            self._dirty = False
        return self._matrix

    @property
    def matrix(self) -> np.ndarray:
        """The raw (width × width) count matrix (diagonal = frequency)."""
        return self._clamped()

    def add(self, attrs: Iterable[str], weight: float = 1.0) -> None:
        """Record one access touching ``attrs`` together."""
        grid = None
        if isinstance(attrs, frozenset):
            grid = self._ix_cache.get(attrs)
        if grid is None:
            positions = [
                self._index[name] for name in attrs if name in self._index
            ]
            if not positions:
                return
            idx = np.array(positions, dtype=np.intp)
            grid = np.ix_(idx, idx)
            if isinstance(attrs, frozenset):
                self._ix_cache[attrs] = grid
        self._matrix[grid] += weight

    def remove(self, attrs: Iterable[str], weight: float = 1.0) -> None:
        """Forget one previously recorded access (window eviction)."""
        self.add(attrs, -weight)
        self._dirty = True

    def affinity(self, first: str, second: str) -> float:
        """Co-access count of two attributes."""
        return float(
            self._clamped()[self._index[first], self._index[second]]
        )

    def frequency(self, attr: str) -> float:
        """How often ``attr`` was accessed at all."""
        position = self._index[attr]
        return float(self._clamped()[position, position])

    def hot_attributes(self, limit: int = 0) -> List[Tuple[str, float]]:
        """Attributes by access frequency, hottest first."""
        matrix = self._clamped()
        pairs = [
            (name, float(matrix[i, i]))
            for name, i in self._index.items()
            if matrix[i, i] > 0
        ]
        pairs.sort(key=lambda pair: (-pair[1], pair[0]))
        return pairs[:limit] if limit else pairs

    def clusters(self, min_affinity: float = 1.0) -> List[FrozenSet[str]]:
        """Connected components of the affinity graph above a threshold.

        A cheap clustering used for reporting and as a sanity input to
        the advisor: attributes whose pairwise affinity clears the
        threshold land in the same cluster.  Components are listed in
        schema order of their first accessed attribute (the advisor's
        seed order, which breaks its ties).
        """
        names = self.schema.names
        matrix = self._clamped()
        # Edges come from the upper triangle, mirrored: an undirected
        # graph even if float drift left the matrix slightly asymmetric.
        upper = np.triu(matrix >= min_affinity, k=1)
        linked = upper | upper.T
        seen = np.zeros(len(names), dtype=bool)
        components: List[FrozenSet[str]] = []
        for start in np.flatnonzero(np.diagonal(matrix) > 0):
            if seen[start]:
                continue
            member = np.zeros(len(names), dtype=bool)
            member[start] = True
            frontier = member.copy()
            while frontier.any():
                frontier = linked[frontier].any(axis=0) & ~member
                member |= frontier
            seen |= member
            components.append(
                frozenset(names[k] for k in np.flatnonzero(member))
            )
        return components

    def reset(self) -> None:
        self._matrix[:] = 0.0
        self._dirty = False
