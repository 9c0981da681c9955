"""Access plans: which layouts to read and with which strategy.

H2O evaluates alternative access plans for the available data layouts
(paper section 3, architecture; section 3.5 cost model) and picks the
cheapest.  :func:`enumerate_plans` produces the candidate
(layout-cover, strategy) pairs for one query; the engine costs them with
:mod:`repro.core.cost_model`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

from typing import TYPE_CHECKING, Union

from ..errors import ExecutionError
from ..sql.analyzer import QueryInfo
from ..storage.layout import Layout

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storage.relation import LayoutSnapshot, Table


class ExecutionStrategy(enum.Enum):
    """The two execution-strategy families (paper section 3.3)."""

    #: Volcano-style single pass with predicate push-down; the natural
    #: strategy for row-major and group layouts (Fig. 5).
    FUSED = "fused"
    #: Column-store style: selection vectors + late materialization of
    #: intermediates (Fig. 6).
    LATE = "late"


#: A fused (volcano-style) operator processes whole tuples per vector;
#: that only makes sense over tuple-bearing layouts.  Single columns are
#: processed column-at-a-time with late materialization (paper section
#: 3.3 binds strategies to layout kinds), and stitching too many
#: independent streams into one fused loop stops resembling a tuple scan
#: (Fig. 12 fuses up to 5 groups).
MAX_FUSED_STREAMS = 8


#: A fused plan tolerates a couple of stray single-column streams next
#: to its tuple-bearing groups (a query slightly wider than its hot
#: group); beyond that the cover is column-major in character.
MAX_FUSED_SINGLES = 2


def fused_allowed(layouts: Sequence[Layout]) -> bool:
    """Whether a fused single-pass scan is a legal strategy for a cover.

    True when the cover is anchored by at least one (multi-attribute)
    group or row layout, carries at most :data:`MAX_FUSED_SINGLES`
    single columns, and the number of parallel streams stays small.
    Covers that are mostly single columns execute column-at-a-time
    (LATE), as a column-store does.
    """
    if len(layouts) > MAX_FUSED_STREAMS:
        return False
    singles = sum(1 for layout in layouts if layout.width == 1)
    if singles > MAX_FUSED_SINGLES:
        return False
    return singles < len(layouts)  # at least one tuple-bearing layout


def narrowest_providers(layouts: Sequence[Layout]) -> Dict[str, int]:
    """Attribute → index of the layout the kernels read it from: its
    narrowest provider, the first on ties.  One pass per plan; the code
    generator binds attributes with it and the cost model prices the
    same binding."""
    providers: Dict[str, int] = {}
    for index, layout in enumerate(layouts):
        width = layout.width
        for attr in layout.attrs:
            best = providers.get(attr)
            if best is None or width < layouts[best].width:
                providers[attr] = index
    return providers


def read_whole(useful: int, width: int) -> bool:
    """Whether kernels handle a 2-D buffer whole (one ``einsum``, one
    whole-tuple ``take``) rather than column by column: the query reads
    at least half of its attributes."""
    return 2 * useful >= width


#: Fewest plain-column SUMs over one buffer read whole that share one
#: ``einsum('ij->j')`` pass.  ``einsum`` pays a fixed cost per row: on
#: 50 000 int64 rows it takes 0.15 ms for 2 columns against 0.12 ms for
#: 2 strided column sums, and 0.25 against 0.35 ms for 4.
MIN_EINSUM_SUMS = 4


@dataclass(frozen=True)
class AccessPlan:
    """One concrete way to execute a query over existing layouts."""

    strategy: ExecutionStrategy
    layouts: Tuple[Layout, ...]

    def describe(self) -> str:
        return self._description

    @cached_property
    def _description(self) -> str:
        # Once per plan: a cached plan describes itself on every hit.
        parts = ", ".join(layout.describe() for layout in self.layouts)
        return f"{self.strategy.value}({parts})"

    @property
    def layout_key(self) -> Tuple[Tuple[str, Tuple[str, ...]], ...]:
        """Hashable identity of the layout combination."""
        return tuple(
            (layout.kind.value, layout.attrs) for layout in self.layouts
        )


def enumerate_plans(
    table: "Union[Table, LayoutSnapshot]", info: QueryInfo
) -> List[AccessPlan]:
    """All distinct candidate plans for ``info`` over ``table``.

    ``table`` may be a live :class:`~repro.storage.relation.Table` or a
    pinned :class:`~repro.storage.relation.LayoutSnapshot` — the engine
    plans against snapshots so a concurrent reorganization cannot
    change the covers mid-enumeration.

    Candidates come from two covering choices — one greedy cover of all
    accessed attributes, and (when a predicate exists) the union of
    separate covers for the WHERE and SELECT attribute sets, which lets
    a predicate group drive a selection vector while a different group
    serves the select clause (the two-group plan of Fig. 6) — crossed
    with the execution strategies legal for each cover (see
    :func:`fused_allowed`).
    """
    if not info.all_attrs:
        # e.g. SELECT count(*) FROM r — any layout answers it from its
        # row count alone; the executor short-circuits such plans.
        return [
            AccessPlan(
                strategy=ExecutionStrategy.FUSED,
                layouts=(table.layouts[0],),
            )
        ]
    covers = []
    cover_all = table.covering_layouts(info.all_attrs)
    covers.append(cover_all)
    covers.append(table.narrowest_cover(info.all_attrs))
    if info.has_predicate and info.select_attrs:
        split = tuple(
            dict.fromkeys(
                table.covering_layouts(info.where_attrs)
                + table.covering_layouts(info.select_attrs)
            )
        )
        covers.append(split)

    plans: List[AccessPlan] = []
    seen = set()
    for cover in covers:
        strategies = [ExecutionStrategy.LATE]
        if fused_allowed(cover):
            strategies.insert(0, ExecutionStrategy.FUSED)
        for strategy in strategies:
            plan = AccessPlan(strategy=strategy, layouts=tuple(cover))
            key = (strategy, plan.layout_key)
            if key not in seen:
                seen.add(key)
                plans.append(plan)
    return plans
