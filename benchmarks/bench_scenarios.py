"""Hedge 0 vs a hedged switching policy on the adversarial scenario pack.

Replays every scenario in ``repro.workloads.scenarios`` through the
inline engine at two hedging factors — 0 (the paper's greedy gate, the
shipped default) and ``HEDGING_FACTOR`` — and records, per (scenario,
factor): total runtime, reorganization count, and worst-window latency
(the slowest sliding window of ``WINDOW`` consecutive queries — the
thrash a client actually feels when a reorganization lands mid-phase).

The acceptance gates ride on the two scenarios built to punish greedy:

- on **ping-pong** and **periodic-shift**, the hedged side performs at
  most *half* of hedge 0's reorganizations;
- while total runtime stays within 1.10x of hedge 0's.

Methodology notes. The engine runs with ``max_scan_threads=1``: the
scan pool's thread scheduling adds tens-of-ms noise per query, which at
this scale swamps the policy effect being measured (reorganization
spend).  Each (scenario, factor) cell is the best of ``TRIALS``
fresh-table replays — min, not mean, because the contamination is
strictly additive (GC, CPU contention).  The artifact is written to
``BENCH_scenarios.json`` (or ``$BENCH_SCENARIOS_JSON``) with a
provenance block (git sha, usable cores, Python and NumPy versions) so
CI records the trend.

Run directly (``python benchmarks/bench_scenarios.py``) or via pytest.
"""

import json
import os

from bench_parallel import provenance
from repro.config import EngineConfig, scaled_rows
from repro.core.engine import H2OEngine
from repro.sql.parser import parse_query
from repro.workloads.scenarios import SCENARIOS, build_scenario

#: Sliding-window width (queries) for worst-window latency.
WINDOW = 8

#: Fresh-table replays per (scenario, factor); best trial is recorded.
TRIALS = 2

#: The two scenarios the acceptance gates apply to.
GATED = ("ping-pong", "periodic-shift")

#: Scenario-pack shapes at benchmark scale.  The gated adversaries run
#: long (12 phases) so greedy's thrash has room to compound; the other
#: three ride along at their default shapes for the record.
SCENARIO_KWARGS = {
    "periodic-shift": dict(phases=12, phase_len=8),
    "ping-pong": dict(phases=12, phase_len=8),
    "flash-crowd": {},
    "mixed-olap-point": {},
    "trickle-append": {},
}

ENGINE_KNOBS = dict(
    window_size=4,
    min_window=2,
    max_window=12,
    max_scan_threads=1,
)

#: Hedging factor for the hedged side.  High enough that a phase of
#: the gated adversaries cannot pay a hot trio's hedged build cost by
#: itself — only genuinely recurring groups clear the gate.
HEDGING_FACTOR = 6.0

#: Row labels of the two sides.
GREEDY, HEDGED = "hedge_0", f"hedge_{HEDGING_FACTOR:g}"
FACTORS = {GREEDY: 0.0, HEDGED: HEDGING_FACTOR}


def _artifact_path() -> str:
    return os.environ.get("BENCH_SCENARIOS_JSON", "BENCH_scenarios.json")


def _replay_once(scenario, factor: float) -> dict:
    engine = H2OEngine(
        scenario.make_table(),
        EngineConfig(hedging_factor=factor, **ENGINE_KNOBS),
    )
    seconds = []
    for op in scenario.ops:
        if op[0] == "query":
            seconds.append(engine.execute(parse_query(op[1])).seconds)
        else:
            engine.table.append_rows(
                scenario.append_batch(op[1], op[2])
            )
    worst = max(
        sum(seconds[i : i + WINDOW])
        for i in range(max(1, len(seconds) - WINDOW + 1))
    )
    return {
        "hedging_factor": factor,
        "queries": len(seconds),
        "runtime_seconds": sum(seconds),
        "worst_window_seconds": worst,
        "reorgs": len(engine.manager.creation_log),
        "deferrals": engine.policy.deferrals,
        "switches": engine.policy.switch_count,
    }


def _measure_cell(scenario, factor: float) -> dict:
    trials = [_replay_once(scenario, factor) for _ in range(TRIALS)]
    best = min(trials, key=lambda t: t["runtime_seconds"])
    # Reorg/deferral counts are deterministic across trials (same seed,
    # same stream, serial engine); timing is the only noisy column.
    return best


def measure() -> dict:
    num_rows = scaled_rows(262_144)
    data = {
        "num_rows": num_rows,
        "trials": TRIALS,
        "window": WINDOW,
        "hedging_factor": HEDGING_FACTOR,
        "provenance": provenance(),
        "scenarios": {},
    }
    for name in SCENARIOS:
        scenario = build_scenario(
            name, 0, num_rows=num_rows, **SCENARIO_KWARGS[name]
        )
        cell = {
            label: _measure_cell(scenario, factor)
            for label, factor in FACTORS.items()
        }
        greedy, hedged = cell[GREEDY], cell[HEDGED]
        cell["runtime_ratio"] = (
            hedged["runtime_seconds"] / greedy["runtime_seconds"]
            if greedy["runtime_seconds"]
            else 0.0
        )
        data["scenarios"][name] = cell
    with open(_artifact_path(), "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
    return data


def test_guarded_halves_reorgs_within_runtime_budget():
    data = measure()
    for name in GATED:
        cell = data["scenarios"][name]
        greedy, hedged = cell[GREEDY], cell[HEDGED]
        # Halving zero reorgs is vacuous: hedge 0 must build something.
        assert greedy["reorgs"] > 0, f"{name}: hedge 0 never reorganized"
        assert 2 * hedged["reorgs"] <= greedy["reorgs"], (
            f"{name}: hedge {HEDGING_FACTOR:g} performed "
            f"{hedged['reorgs']} reorgs vs hedge 0's {greedy['reorgs']} "
            f"— not at most half"
        )
        assert cell["runtime_ratio"] <= 1.10, (
            f"{name}: hedged runtime {hedged['runtime_seconds']:.3f}s "
            f"exceeded 1.10x hedge 0's {greedy['runtime_seconds']:.3f}s "
            f"({cell['runtime_ratio']:.2f}x)"
        )


if __name__ == "__main__":
    result = measure()
    print(json.dumps(result, indent=2, sort_keys=True))
    for name, cell in result["scenarios"].items():
        greedy, hedged = cell[GREEDY], cell[HEDGED]
        print(
            f"{name}: reorgs {greedy['reorgs']} -> {hedged['reorgs']}, "
            f"runtime ratio {cell['runtime_ratio']:.2f}x, worst window "
            f"{greedy['worst_window_seconds']:.3f}s -> "
            f"{hedged['worst_window_seconds']:.3f}s"
        )
