"""Attribute affinity matrices (paper section 3.2, citing Navathe [38]).

Affinity between two attributes is how often they are accessed together
within one clause.  H2O keeps two matrices — one for SELECT-clause
co-access, one for WHERE-clause co-access — so that, e.g., predicates
that are evaluated together can get their own column group driving a
selection vector, independently of the projection groups.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..storage.schema import Schema


class AffinityMatrix:
    """Symmetric co-access counts over a schema's attributes.

    ``patterns`` maps attribute sets to how often they were accessed
    together; the matrix is their weighted sum of outer products, built
    in one product (counts are integers, so the sum is exact in any
    order).  The monitor derives both of its matrices this way when
    adaptation reads them, instead of updating a grid per query.
    """

    def __init__(
        self,
        schema: Schema,
        patterns: Optional[Mapping[FrozenSet[str], int]] = None,
    ) -> None:
        self.schema = schema
        self._index = {name: i for i, name in enumerate(schema.names)}
        self.matrix = np.zeros((schema.width, schema.width), dtype=np.float64)
        if patterns:
            incidence = np.zeros(
                (len(patterns), schema.width), dtype=np.float64
            )
            counts = np.empty(len(patterns), dtype=np.float64)
            for row, (attrs, count) in enumerate(patterns.items()):
                for name in attrs:
                    position = self._index.get(name)
                    if position is not None:
                        incidence[row, position] = 1.0
                counts[row] = count
            self.matrix = incidence.T @ (incidence * counts[:, None])

    def affinity(self, first: str, second: str) -> float:
        """Co-access count of two attributes."""
        return float(self.matrix[self._index[first], self._index[second]])

    def frequency(self, attr: str) -> float:
        """How often ``attr`` was accessed at all."""
        position = self._index[attr]
        return float(self.matrix[position, position])

    def hot_attributes(self, limit: int = 0) -> List[Tuple[str, float]]:
        """Attributes by access frequency, hottest first."""
        matrix = self.matrix
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
        seed order, which breaks its ties).  The search runs on one
        integer adjacency mask per attribute.
        """
        names = self.schema.names
        matrix = self.matrix
        # Edges come from the upper triangle, mirrored: an undirected
        # graph even if the matrix was written asymmetric.
        upper = np.triu(matrix >= min_affinity, k=1)
        packed = np.packbits(upper | upper.T, axis=1, bitorder="little")
        adjacency: Dict[int, int] = {}

        def neighbours(node: int) -> int:
            mask = adjacency.get(node)
            if mask is None:
                mask = adjacency[node] = int.from_bytes(
                    packed[node].tobytes(), "little"
                )
            return mask

        seen = 0
        components: List[FrozenSet[str]] = []
        for start in np.flatnonzero(np.diagonal(matrix) > 0).tolist():
            if seen >> start & 1:
                continue
            member = frontier = 1 << start
            while frontier:
                reach = 0
                while frontier:
                    bit = frontier & -frontier
                    reach |= neighbours(bit.bit_length() - 1)
                    frontier ^= bit
                frontier = reach & ~member
                member |= frontier
            seen |= member
            components.append(frozenset(_names_of(member, names)))
        return components


def _names_of(mask: int, names: Sequence[str]) -> List[str]:
    """The names whose positions are set in ``mask``."""
    out = []
    while mask:
        bit = mask & -mask
        out.append(names[bit.bit_length() - 1])
        mask ^= bit
    return out
