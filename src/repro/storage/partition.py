"""Abstract vertical partitionings.

A :class:`Partitioning` is the *logical* description of a layout
configuration: an ordered collection of attribute groups.  The advisor
(paper section 3.2) searches over partitionings; the layout manager turns
chosen groups into physical :class:`~repro.storage.column_group.ColumnGroup`
objects.  By default a partitioning must cover the schema exactly once,
but H2O also keeps *replicated* groups ("the same piece of data may be
stored in more than one format"), so overlapping configurations can be
represented with ``allow_overlap=True``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Tuple

from ..errors import LayoutError
from .schema import Schema

Group = FrozenSet[str]


class Partitioning:
    """An ordered set of attribute groups over one schema."""

    __slots__ = ("_schema", "_groups", "_allow_overlap")

    def __init__(
        self,
        schema: Schema,
        groups: Iterable[Iterable[str]],
        allow_overlap: bool = False,
        require_cover: bool = True,
    ) -> None:
        normalized: List[Group] = []
        seen: set = set()
        for group in groups:
            frozen = frozenset(group)
            if not frozen:
                raise LayoutError("empty group in partitioning")
            unknown = [n for n in frozen if n not in schema]
            if unknown:
                raise LayoutError(
                    f"partitioning references unknown attributes: {unknown}"
                )
            if frozen in seen:
                continue  # identical duplicate groups collapse
            if not allow_overlap and seen & {frozenset({n}) for n in frozen}:
                pass  # cheap pre-check is not sufficient; real check below
            normalized.append(frozen)
            seen.add(frozen)
        if not allow_overlap:
            counted: set = set()
            for group in normalized:
                overlap = counted & group
                if overlap:
                    raise LayoutError(
                        f"overlapping attributes across groups: "
                        f"{sorted(overlap)}"
                    )
                counted |= group
        if require_cover:
            covered = frozenset().union(*normalized) if normalized else frozenset()
            missing = set(schema.names) - covered
            if missing:
                raise LayoutError(
                    f"partitioning does not cover attributes: "
                    f"{sorted(missing)}"
                )
        self._schema = schema
        self._groups = tuple(normalized)
        self._allow_overlap = allow_overlap

    # Introspection --------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def groups(self) -> Tuple[Group, ...]:
        return self._groups

    def __len__(self) -> int:
        return len(self._groups)

    def __iter__(self) -> Iterator[Group]:
        return iter(self._groups)

    def __contains__(self, group: Iterable[str]) -> bool:
        return frozenset(group) in set(self._groups)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partitioning):
            return NotImplemented
        return (
            self._schema == other._schema
            and frozenset(self._groups) == frozenset(other._groups)
        )

    def __hash__(self) -> int:
        return hash((self._schema, frozenset(self._groups)))

    def __repr__(self) -> str:
        shown = ", ".join(
            "{" + ",".join(sorted(g)) + "}" for g in self._groups[:4]
        )
        if len(self._groups) > 4:
            shown += f", ... ({len(self._groups)} groups)"
        return f"Partitioning({shown})"

    def group_of(self, attr: str) -> Group:
        """The first group containing ``attr`` (raises if uncovered)."""
        for group in self._groups:
            if attr in group:
                return group
        raise LayoutError(f"attribute {attr!r} is not in any group")

    def groups_covering(self, attrs: Iterable[str]) -> Tuple[Group, ...]:
        """A minimal-ish set of groups that together contain ``attrs``.

        Greedy set cover: repeatedly pick the group covering the most
        still-uncovered attributes, breaking ties toward narrower groups
        (less useless width to scan).
        """
        needed = set(attrs)
        chosen: List[Group] = []
        while needed:
            best: "Group | None" = None
            best_key = (-1, 0)
            for group in self._groups:
                covered = len(needed & group)
                if covered == 0:
                    continue
                key = (covered, -len(group))
                if key > best_key:
                    best_key = key
                    best = group
            if best is None:
                raise LayoutError(
                    f"attributes not covered by any group: {sorted(needed)}"
                )
            chosen.append(best)
            needed -= best
        return tuple(chosen)

    def merge(self, first: Iterable[str], second: Iterable[str]) -> "Partitioning":
        """A new partitioning with two groups replaced by their union."""
        a, b = frozenset(first), frozenset(second)
        current = list(self._groups)
        if a not in current or b not in current:
            raise LayoutError("merge: both groups must exist")
        if a == b:
            return self
        merged = a | b
        new_groups = [g for g in current if g not in (a, b)]
        new_groups.append(merged)
        return Partitioning(
            self._schema,
            new_groups,
            allow_overlap=self._allow_overlap,
            require_cover=False,
        )

    def signature(self) -> FrozenSet[Group]:
        """Order-independent identity of this configuration."""
        return frozenset(self._groups)


def row_partitioning(schema: Schema) -> Partitioning:
    """The row-major configuration: one group with every attribute."""
    return Partitioning(schema, [schema.names])


def column_partitioning(schema: Schema) -> Partitioning:
    """The column-major configuration: one singleton group per attribute."""
    return Partitioning(schema, [[name] for name in schema.names])
