"""Online data reorganization (paper section 3.2, Fig. 13).

H2O builds a new column group *while* answering the query that
triggered it: one physical operator stitches the group and computes the
result, so the relation is scanned once for both tasks ("the early
materialization strategy allows H2O to generate the data layout and
compute the query result without scanning the relation twice").

That operator is an ordinary FUSED scan.  The group's buffer is
allocated and wrapped as a :class:`ColumnGroup` up front, the query is
planned over the group plus the narrowest providers of its other
attributes, and the plan runs through the executor's own path — code
generation or the interpreter, the operator cache, the in-order morsel
combine — with one extra step per morsel: stitch that morsel of the
group, one cache-resident sub-block of rows at a time (adjacent source
columns of a row layout move as one 2-D slice), then answer the morsel
while it is hot.  The answer is therefore bit-identical to a
fused scan over the finished group.

The offline alternative — stitch the whole group, then query it — is
:meth:`repro.core.layout_manager.LayoutManager.build_group`.

The reorganizer accepts either a live :class:`~repro.storage.relation.
Table` or a pinned :class:`~repro.storage.relation.LayoutSnapshot` and
only reads it.  A stitch raced by an append yields a group whose row
count no longer matches the table; the layout manager refuses to
register it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple, Union

import numpy as np

from ..execution.executor import ExecStats, Executor
from ..execution.morsel import StitchStep
from ..execution.result import QueryResult
from ..execution.strategies import AccessPlan, ExecutionStrategy
from ..sql.analyzer import QueryInfo
from ..storage.column_group import ColumnGroup
from ..storage.relation import LayoutSnapshot, Table
from ..storage.stitcher import stitch_rows, stitch_runs
from ..util.faultpoints import fault_point
from ..util.timing import Timer

#: Anything the reorganizer can read layouts from: a live table or an
#: immutable snapshot pinned by the caller.
LayoutSource = Union[Table, LayoutSnapshot]

#: Runs a plan with a per-morsel stitch step; the engine passes its own
#: run (quarantine-gated code generation), a bare reorganizer an
#: :class:`Executor`'s.
PlanRunner = Callable[
    [QueryInfo, AccessPlan, StitchStep], Tuple[QueryResult, ExecStats]
]


@dataclass
class ReorgOutcome:
    """The new group, the query's answer and the scan's stats.

    ``seconds`` is the fused pass — stitching and answering — without
    the operator's code generation (``stats.codegen_seconds``).
    """

    group: ColumnGroup
    result: QueryResult
    stats: ExecStats
    seconds: float


class Reorganizer:
    """Builds a new column group while answering a query over it."""

    def __init__(self, run: Optional[PlanRunner] = None) -> None:
        if run is None:
            executor = Executor()

            def run(info, plan, stitch):
                return executor.run_plan(info, plan, stitch=stitch)

        self._run = run

    def online(
        self, source: LayoutSource, attrs: Iterable[str], info: QueryInfo
    ) -> ReorgOutcome:
        """One pass: build the group over ``attrs`` *and* answer ``info``.

        The query need not be contained in the new group: a
        select-clause group can be built while the predicate reads
        attributes from the existing layouts (and vice versa for a
        where-clause group).
        """
        schema = source.schema
        ordered = schema.ordered(attrs)
        data = np.empty(
            (source.num_rows, len(ordered)),
            dtype=schema.common_dtype(ordered).numpy_dtype,
        )
        group = ColumnGroup(
            ordered, data, full_width=len(ordered) == schema.width
        )
        runs = stitch_runs(
            {attr: source.layouts_containing(attr)[0] for attr in ordered},
            ordered,
        )
        others = [a for a in info.all_attrs if a not in group.attr_set]
        plan = AccessPlan(
            ExecutionStrategy.FUSED,
            (group,) + source.narrowest_cover(others),
        )

        def stitch(lo: int, hi: int) -> None:
            # Injectable failure site: the stitch aborting *mid*-
            # reorganization, with earlier morsels already written into
            # ``data``.  Raises ReorganizationError; the engine discards
            # the partial group (it was never published) and answers the
            # query through ordinary planning instead.
            fault_point("reorg.online", attrs=ordered, offset=lo)
            stitch_rows(data, runs, lo, hi)

        with Timer() as timer:
            result, stats = self._run(info, plan, stitch)
        return ReorgOutcome(
            group, result, stats, timer.elapsed - stats.codegen_seconds
        )
