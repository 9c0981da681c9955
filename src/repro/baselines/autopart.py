"""AutoPart: offline vertical partitioning [Papadomanolakis & Ailamaki,
SSDBM 2004], re-implemented from scratch as the Fig. 8 comparator.

AutoPart assumes the entire workload is known up front.  Its two phases:

1. **Atomic fragments** — partition the schema's attributes into
   equivalence classes by *query-access signature*: attributes
   referenced by exactly the same subset of workload queries always
   travel together, so they form the indivisible fragments.
2. **Composite fragments** — greedily merge fragment pairs while the
   estimated workload cost improves, using the same cost model H2O uses
   online (the paper notes H2O "extends AutoPart ... to work for
   dynamic scenarios", so sharing the cost model is faithful).

The resulting partitioning is non-overlapping and covers the schema.
:class:`AutoPartEngine` applies it to a table — layout-creation time is
measured and reported separately, reproducing Fig. 8's stacked bars.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from ..config import EngineConfig
from ..core.cost_model import CostModel, GroupSpec
from ..errors import WorkloadError
from ..execution.strategies import AccessPlan, ExecutionStrategy
from ..sql.analyzer import QueryInfo, analyze_query
from ..sql.parser import parse_query
from ..sql.query import Query
from ..storage.partition import Partitioning
from ..storage.relation import Table
from ..storage.schema import Schema
from ..storage.stitcher import stitch_group
from .base import StaticEngine


class AutoPartPartitioner:
    """Computes an offline partitioning for a known workload."""

    def __init__(
        self,
        schema: Schema,
        cost_model: Optional[CostModel] = None,
        max_iterations: int = 200,
    ) -> None:
        self.schema = schema
        self.cost_model = cost_model or CostModel()
        self.max_iterations = max_iterations

    # Phase 1 -------------------------------------------------------------------

    def atomic_fragments(
        self, queries: Sequence[Query]
    ) -> List[FrozenSet[str]]:
        """Equivalence classes of attributes by query-access signature."""
        signatures: Dict[str, FrozenSet[int]] = {}
        for name in self.schema.names:
            accessed_by = frozenset(
                index
                for index, query in enumerate(queries)
                if name in query.attributes
            )
            signatures[name] = accessed_by
        classes: Dict[FrozenSet[int], List[str]] = {}
        for name, signature in signatures.items():
            classes.setdefault(signature, []).append(name)
        fragments = [frozenset(names) for names in classes.values()]
        fragments.sort(key=lambda f: sorted(f))
        return fragments

    # Phase 2 -------------------------------------------------------------------

    def _workload_cost(
        self,
        infos: Sequence[QueryInfo],
        fragments: Sequence[FrozenSet[str]],
        num_rows: int,
    ) -> float:
        total = 0.0
        for info in infos:
            needed = frozenset(info.all_attrs)
            cover = [f for f in fragments if f & needed]
            select_set = frozenset(info.select_attrs)
            where_set = frozenset(info.where_attrs)
            select_specs = tuple(
                GroupSpec.of(len(f), len(f & select_set), num_rows)
                for f in cover
                if f & select_set
            )
            where_specs = tuple(
                GroupSpec.of(len(f), len(f & where_set), num_rows)
                for f in cover
                if f & where_set
            )
            fused = self.cost_model.fused_cost(info, select_specs, where_specs)
            late = self.cost_model.late_cost(info, select_specs, where_specs)
            total += min(fused, late)
        return total

    def fit(
        self, queries: Sequence[Query], num_rows: int
    ) -> Partitioning:
        """Compute the partitioning for the full (known) workload."""
        if not queries:
            raise WorkloadError("AutoPart needs a non-empty workload")
        infos = [analyze_query(q, self.schema) for q in queries]
        fragments = self.atomic_fragments(queries)
        current_cost = self._workload_cost(infos, fragments, num_rows)
        for _ in range(self.max_iterations):
            best: Optional[Tuple[int, int]] = None
            best_cost = current_cost
            for i in range(len(fragments)):
                for j in range(i + 1, len(fragments)):
                    merged = list(fragments)
                    merged[i] = fragments[i] | fragments[j]
                    del merged[j]
                    cost = self._workload_cost(infos, merged, num_rows)
                    if cost < best_cost - 1e-15:
                        best_cost = cost
                        best = (i, j)
            if best is None:
                break
            i, j = best
            fragments[i] = fragments[i] | fragments[j]
            del fragments[j]
            current_cost = best_cost
        return Partitioning(self.schema, fragments)


class AutoPartEngine(StaticEngine):
    """A static engine whose layouts come from an AutoPart run.

    Layout creation happens at :meth:`prepare` and its duration is
    recorded in :attr:`layout_creation_seconds` — the dark segment of
    Fig. 8's AutoPart bar.  Queries then run with cost-model strategy
    selection over the fixed groups (AutoPart picks layouts offline but
    the executor is H2O's, keeping the comparison about *adaptivity*).
    """

    name = "autopart"

    def __init__(
        self,
        table: Table,
        workload: Sequence[Union[Query, str]],
        config: Optional[EngineConfig] = None,
    ) -> None:
        super().__init__(table, config)
        self.cost_model = CostModel(self.config.machine)
        self.workload = [
            parse_query(q) if isinstance(q, str) else q for q in workload
        ]
        self.partitioning: Optional[Partitioning] = None
        self.layout_creation_seconds = 0.0

    def prepare(self) -> Partitioning:
        """Run the offline tool and physically apply its recommendation."""
        partitioner = AutoPartPartitioner(self.table.schema, self.cost_model)
        self.partitioning = partitioner.fit(
            self.workload, self.table.num_rows
        )
        started = time.perf_counter()
        old_layouts = list(self.table.layouts)
        for group_attrs in self.partitioning.groups:
            ordered = self.table.schema.ordered(group_attrs)
            group, _stats = stitch_group(
                old_layouts,
                ordered,
                self.table.schema,
                full_width=len(ordered) == self.table.schema.width,
            )
            self.table.add_layout(group)
        for layout in old_layouts:
            self.table.drop_layout(layout)
        self.layout_creation_seconds = time.perf_counter() - started
        return self.partitioning

    def plan_for(self, info) -> AccessPlan:
        """Pick fused vs. late per query with the shared cost model."""
        layouts = self.table.covering_layouts(info.all_attrs)
        fused = AccessPlan(ExecutionStrategy.FUSED, layouts)
        late = AccessPlan(ExecutionStrategy.LATE, layouts)
        if self.cost_model.plan_cost(info, fused) <= self.cost_model.plan_cost(
            info, late
        ):
            return fused
        return late
