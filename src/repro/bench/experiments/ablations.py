"""Ablations of H2O's design choices (DESIGN.md section 5).

Not figures from the paper — these isolate the contribution of each
mechanism on the Fig. 7 workload:

- ``operator cache`` off → every query pays code generation again,
- ``codegen`` off → the generic interpreted operators run instead,
- ``lazy materialization`` off → the engine never builds candidate
  layouts (pure strategy adaptation),
- ``dynamic window`` off → Fig. 9's static-window behaviour.
"""

from __future__ import annotations

from typing import Dict

from ...config import EngineConfig
from ...core.engine import H2OEngine
from ...workloads.sequences import fig7_sequence
from ..harness import ExperimentResult, register
from .common import rows, run_engine_on_sequence

VARIANTS: Dict[str, dict] = {
    "full H2O": {},
    "no operator cache": {"operator_cache": False},
    "no codegen (generic ops)": {"use_codegen": False},
    "eager materialization": {"materialization": "eager"},
    "no materialization": {"materialization": "never"},
    "static window": {
        "min_window": EngineConfig.window_size,
        "max_window": EngineConfig.window_size,
    },
}


@register("ablation", "H2O design-choice ablations on the Fig. 7 workload")
def ablation() -> ExperimentResult:
    workload = fig7_sequence(
        num_attrs=150, num_rows=rows(100_000), num_queries=60, rng=7
    )
    result = ExperimentResult(
        experiment_id="ablation",
        title="cumulative seconds per disabled mechanism",
        headers=["variant", "cumulative (s)", "layouts built",
                 "vs full H2O"],
    )
    baseline = None
    for label, overrides in VARIANTS.items():
        config = EngineConfig(**overrides)

        def make_engine(table, _config=config):
            return H2OEngine(table, _config)

        seconds, engine = run_engine_on_sequence(
            make_engine, lambda: workload.make_table(rng=1),
            workload.queries,
        )
        total = sum(seconds)
        if baseline is None:
            baseline = total
        result.rows.append(
            [
                label,
                round(total, 3),
                len(engine.manager.creation_log),
                f"{total / baseline:.2f}x",
            ]
        )
        result.series[label] = total
    result.notes.append(
        "each variant runs the same 60-query sequence on its own warmed "
        "table copy"
    )
    return result
