"""Fig. 13 — online vs offline data reorganization.

Two new column groups (10 and 25 attributes) are created from a
100-attribute relation while answering aggregation queries (10 and 20
aggregations, no WHERE).  Offline = stitch the layout, then execute the
query as two separate passes; online = H2O's fused operator that
stitches the new layout morsel by morsel and answers each morsel while
it is cache-hot.  Both arms run the same generated fused kernel, so
their answers are bit-identical.

Q1/Q2 start from a row-major relation, Q3/Q4 from a column-major one.
Expected: online wins all four cases, with a larger margin from
row-major sources (paper: 38–61% vs 22–37%).
"""

from __future__ import annotations

from ...core.reorganizer import Reorganizer
from ...execution.executor import Executor
from ...execution.strategies import AccessPlan, ExecutionStrategy
from ...storage.generator import generate_table
from ...storage.stitcher import stitch_group
from ...util.timing import Timer
from ...workloads.microbench import aggregation_query
from ..harness import ExperimentResult, register, warm_table
from .common import analyze, default_config, rows

CASES = (
    # (label, initial layout, group width, number of aggregations)
    ("Q1", "row", 10, 10),
    ("Q2", "row", 25, 20),
    ("Q3", "column", 10, 10),
    ("Q4", "column", 25, 20),
)

#: Timed runs per arm; each arm reports its best.
REPEATS = 3


@register("fig13", "online vs offline reorganization (Q1-Q4)")
def fig13() -> ExperimentResult:
    num_rows = rows(100_000)
    result = ExperimentResult(
        experiment_id="fig13",
        title="create a group + answer the query: two passes vs one",
        headers=["case", "initial", "offline (s)", "online (s)",
                 "improvement"],
    )
    executor = Executor(default_config())
    reorganizer = Reorganizer(
        lambda info, plan, stitch: executor.run_plan(
            info, plan, stitch=stitch
        )
    )
    for label, initial, width, num_aggs in CASES:
        table = generate_table(
            "r", 100, num_rows, rng=41, initial_layout=initial
        )
        warm_table(table)
        attrs = table.schema.ordered(f"a{i}" for i in range(1, width + 1))
        query = aggregation_query(attrs[:num_aggs], func="sum")
        info = analyze(query, table)

        def offline():
            """Stitch the whole group, then scan it: two passes."""
            group, _stats = stitch_group(
                table.covering_layouts(attrs), attrs, table.schema
            )
            plan = AccessPlan(ExecutionStrategy.FUSED, (group,))
            return executor.run_plan(info, plan)[0]

        def online():
            """Stitch each morsel, then answer it while hot: one pass."""
            return reorganizer.online(table, attrs, info).result

        # Both arms run the same generated kernel over the same group
        # shape; one untimed offline run compiles it for both, so the
        # timings compare the passes, not the compiler.
        answer = offline()
        times = {offline: [], online: []}
        for _ in range(REPEATS):
            for arm in (offline, online):
                with Timer() as timer:
                    got = arm()
                times[arm].append(timer.elapsed)
                if got.data.tobytes() != answer.data.tobytes():
                    raise AssertionError(
                        f"{label}: offline and online answers differ"
                    )
        offline_s, online_s = min(times[offline]), min(times[online])
        improvement = (offline_s - online_s) / offline_s * 100.0
        result.rows.append(
            [
                label,
                initial,
                round(offline_s, 4),
                round(online_s, 4),
                f"{improvement:.0f}%",
            ]
        )
    result.notes.append(
        "improvement = how much faster the fused (online) operator "
        f"finishes both tasks; best of {REPEATS} runs per arm, the "
        "shared kernel compiled before timing"
    )
    result.series["cases"] = result.rows
    return result
