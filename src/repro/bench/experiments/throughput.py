"""Steady-state throughput: the plan-cache fast lane on vs off.

The paper's adaptation story (Fig. 7) ends in a steady state: the store
has converged on a layout set and the workload keeps repeating the same
query shapes with fresh constants.  From then on H2O's remaining
per-query overhead is pure *re-derivation* — analysis, plan
enumeration, Eq. 2 costing, operator-cache key construction — and the
engine's signature-keyed plan cache exists to eliminate exactly that.

This experiment measures post-adaptation throughput (queries/second)
of the very same engine with the fast lane enabled and disabled.  The
query stream is pre-parsed (prepared-statement style), so both
configurations pay identical frontend cost and the ratio isolates the
engine's decision overhead.  Following the repo's measurement idiom
(see fig7), each configuration keeps its best trial — on shared
machines noise only ever slows a run down.
"""

from __future__ import annotations

import gc
import random
import time
from typing import Dict, List, Tuple

from ...config import EngineConfig
from ...core.engine import H2OEngine
from ...sql.parser import parse_query
from ...sql.query import Query
from ...storage.generator import generate_table
from ..harness import ExperimentResult, register, warm_table
from .common import rows

#: Recurring query shapes (literals vary per instance).  Sized so the
#: cold path exercises real planning: multi-attribute covers, mixed
#: aggregations/projections, one- and two-conjunct predicates.
SHAPES: Tuple[str, ...] = (
    "SELECT sum(a1 + a2), max(a3), min(a4) FROM r WHERE a5 > {v} AND a6 < {w}",
    "SELECT a1, a2, a7, a8 FROM r WHERE a9 > {v}",
    "SELECT min(a10), count(*), sum(a2 * a3) FROM r WHERE a1 > {v} AND a4 < {w}",
    "SELECT avg(a5 + a6), max(a8) FROM r WHERE a2 > {v}",
    "SELECT a11, a12, a13 FROM r WHERE a14 > {v} AND a15 < {w}",
    "SELECT sum(a16 * a1), min(a12) FROM r WHERE a13 > {v}",
    "SELECT a3, a5, a9, a16 FROM r WHERE a7 > {v}",
    "SELECT max(a14 + a15), count(*) FROM r WHERE a11 > {v} AND a2 < {w}",
)


def make_stream(num_queries: int, seed: int) -> List[Query]:
    """A pre-parsed stream cycling the shapes with fresh literals."""
    rng = random.Random(seed)
    stream: List[Query] = []
    for index in range(num_queries):
        sql = SHAPES[index % len(SHAPES)].format(
            v=rng.randint(0, 100), w=rng.randint(100, 200)
        )
        stream.append(parse_query(sql))
    return stream


def run_throughput(
    base_rows: int = 5_000,
    num_attrs: int = 16,
    warmup_queries: int = 160,
    measured_queries: int = 600,
    trials: int = 3,
) -> Dict[str, object]:
    """Best-trial steady-state QPS with the fast lane on and off.

    Trials are interleaved (on, off, on, off, ...) so slow machine
    phases hit both configurations.  Returns the per-config best QPS,
    the speedup, and the winning engine's cache statistics.
    """
    qps: Dict[str, List[float]] = {"on": [], "off": []}
    best_engine: Dict[str, H2OEngine] = {}
    num_rows = rows(base_rows)
    for _trial in range(max(1, trials)):
        for label, enabled in (("on", True), ("off", False)):
            gc.collect()
            table = generate_table("r", num_attrs, num_rows, rng=0)
            warm_table(table)
            engine = H2OEngine(
                table, EngineConfig(plan_cache=enabled)
            )
            for query in make_stream(warmup_queries, seed=5):
                engine.execute(query)
            stream = make_stream(measured_queries, seed=1)
            started = time.perf_counter()
            for query in stream:
                engine.execute(query)
            elapsed = time.perf_counter() - started
            rate = measured_queries / elapsed
            if not qps[label] or rate > max(qps[label]):
                best_engine[label] = engine
            qps[label].append(rate)
    best_on = max(qps["on"])
    best_off = max(qps["off"])
    engine_on = best_engine["on"]
    return {
        "num_rows": num_rows,
        "num_attrs": num_attrs,
        "measured_queries": measured_queries,
        "trials": max(1, trials),
        "qps_on": best_on,
        "qps_off": best_off,
        "qps_on_trials": qps["on"],
        "qps_off_trials": qps["off"],
        "speedup": best_on / best_off,
        "plan_cache": engine_on.plan_cache.stats(),
        "operator_cache": dict(
            zip(
                ("size", "hits", "misses", "evictions"),
                engine_on.executor.operator_cache.stats(),
            )
        ),
        "fast_lane_hits": engine_on.plan_cache.stats()["hits"],
        "total_queries": engine_on.stats()["queries"],
    }


@register(
    "throughput",
    "steady-state queries/second: plan-cache fast lane on vs off",
)
def throughput() -> ExperimentResult:
    data = run_throughput()
    result = ExperimentResult(
        experiment_id="throughput",
        title=(
            "steady-state throughput after adaptation "
            f"({data['num_rows']} rows x {data['num_attrs']} attrs, "
            f"{len(SHAPES)} recurring shapes)"
        ),
        headers=["configuration", "best QPS", "vs fast lane off"],
        series={
            "on": data["qps_on_trials"],
            "off": data["qps_off_trials"],
        },
    )
    result.rows.append(
        [
            "fast lane on",
            round(data["qps_on"], 1),
            f"{data['speedup']:.2f}x",
        ]
    )
    result.rows.append(
        ["fast lane off", round(data["qps_off"], 1), "1.00x"]
    )
    result.notes.append(
        f"fast-lane hits: {data['fast_lane_hits']}/"
        f"{data['total_queries']} queries; plan cache "
        f"{data['plan_cache']}; operator cache {data['operator_cache']}"
    )
    result.notes.append(
        "expected: >= 2x QPS with the fast lane on — "
        + ("HOLDS" if data["speedup"] >= 2.0 else "BELOW")
    )
    return result
