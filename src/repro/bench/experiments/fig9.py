"""Fig. 9 — static vs dynamic adaptation window.

A 60-query arithmetic-expression sequence over a row-major relation
shifts its 20-attribute focus set after query 15.  The dynamic window
detects the shift, shrinks, and re-adapts early (paper: around query
25); the static window must wait for its full 30-query period, serving
the new focus set suboptimally in the meantime.
"""

from __future__ import annotations

from ...config import EngineConfig
from ...core.engine import H2OEngine
from ...workloads.sequences import fig9_sequence
from ..harness import ExperimentResult, register
from .common import rows, run_engine_on_sequence

WINDOW = 30


@register("fig9", "static vs dynamic adaptation window under a shift")
def fig9() -> ExperimentResult:
    workload = fig9_sequence(
        num_attrs=150, num_rows=rows(100_000), rng=5
    )

    def static_engine(table):
        return H2OEngine(
            table,
            EngineConfig(
                window_size=WINDOW,
                min_window=WINDOW,
                max_window=WINDOW,
            ),
        )

    def dynamic_engine(table):
        return H2OEngine(
            table,
            EngineConfig(window_size=WINDOW, min_window=8, max_window=60),
        )

    static_seconds, static_eng = run_engine_on_sequence(
        static_engine, lambda: workload.make_table(rng=3), workload.queries
    )
    dynamic_seconds, dynamic_eng = run_engine_on_sequence(
        dynamic_engine, lambda: workload.make_table(rng=3), workload.queries
    )

    result = ExperimentResult(
        experiment_id="fig9",
        title="execution time per query, shift after query 15",
        headers=["query", "static (s)", "dynamic (s)", "dynamic event"],
        series={"static": static_seconds, "dynamic": dynamic_seconds},
    )
    dyn_reorgs = {
        e.query_index for e in dynamic_eng.manager.creation_log
    }
    for index in range(len(workload.queries)):
        report = dynamic_eng.reports[index]
        event = []
        if report.shift_detected:
            event.append("shift!")
        if index in dyn_reorgs:
            event.append("builds layout")
        result.rows.append(
            [
                index,
                round(static_seconds[index], 4),
                round(dynamic_seconds[index], 4),
                " ".join(event),
            ]
        )
    first_static = min(
        (e.query_index for e in static_eng.manager.creation_log
         if e.query_index is not None and e.query_index >= 15),
        default=None,
    )
    first_dynamic = min(
        (e.query_index for e in dynamic_eng.manager.creation_log
         if e.query_index is not None and e.query_index >= 15),
        default=None,
    )
    result.notes.append(
        f"first post-shift layout: dynamic at query {first_dynamic}, "
        f"static at query {first_static}"
    )
    result.notes.append(
        f"cumulative: static {sum(static_seconds):.2f}s, dynamic "
        f"{sum(dynamic_seconds):.2f}s (dynamic window shrank "
        f"{dynamic_eng.window.shrink_events}x)"
    )
    result.series["first_adaptation"] = (first_dynamic, first_static)
    return result
