"""Workload shift and the dynamic adaptation window (paper Fig. 9).

A 60-query sequence abruptly changes its focus attributes after query
15.  With a static 30-query window, the engine cannot re-adapt until the
scheduled boundary; the dynamic window notices the novel access patterns,
shrinks, and re-adapts early.

Run:  python examples/dynamic_window.py
"""

from repro import EngineConfig, H2OEngine
from repro.bench.harness import warm_table
from repro.workloads import fig9_sequence

workload = fig9_sequence(num_attrs=100, num_rows=80_000, rng=5)
print(f"workload: {workload.description}\n")

configs = {
    "static": EngineConfig(window_size=30, min_window=30, max_window=30),
    "dynamic": EngineConfig(window_size=30, min_window=8, max_window=60),
}

engines = {}
for name, config in configs.items():
    table = workload.make_table(rng=3)
    warm_table(table)
    engine = H2OEngine(table, config)
    for query in workload.queries:
        engine.execute(query)
    engines[name] = engine

print(f"{'query':>5s} {'static(ms)':>11s} {'dynamic(ms)':>12s}  events")
for index in range(len(workload.queries)):
    static_report = engines["static"].reports[index]
    dynamic_report = engines["dynamic"].reports[index]
    events = []
    if index == 15:
        events.append("<<< workload shifts here")
    if dynamic_report.shift_detected:
        events.append("dynamic: shift detected")
    if dynamic_report.layout_created:
        events.append("dynamic: builds layout")
    if static_report.layout_created:
        events.append("static: builds layout")
    print(
        f"{index:5d} {static_report.seconds * 1e3:11.2f} "
        f"{dynamic_report.seconds * 1e3:12.2f}  {' | '.join(events)}"
    )

print()
for name, engine in engines.items():
    first_post_shift = min(
        (
            e.query_index
            for e in engine.manager.creation_log
            if e.query_index is not None and e.query_index >= 15
        ),
        default=None,
    )
    print(
        f"{name:8s} total {engine.cumulative_seconds():6.3f}s, window "
        f"ended at {engine.window.size}, first post-shift layout at "
        f"query {first_post_shift}"
    )
