"""Per-stream SHA-256 digests of everything a query's report decides.

``python -m repro.testkit digest --seqs 20 --seed 0`` prints one hash per
stream: each of the oracle's ``random_case`` streams under
``ORACLE_CONFIG``, then the same stream with the oracle's
``REFERENCE_CONFIG`` knobs on top (codegen off, no zone maps, one
thread: only the interpreters answer, over the columns and groups the
engine adapts to), and adaptive-seq's drifting sequence (Fig. 7
segments over a cold 150-wide column store at the default config).
Two trees that print the same lines chose the same plans, built the
same layouts at the same queries and returned the same bytes — the
check a refactor must pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from typing import Iterable, Iterator, Tuple

from ..config import EngineConfig
from ..core.engine import H2OEngine
from ..storage import Table, uniform_columns, wide_schema
from ..workloads.sequences import fig7_sequence
from .generate import random_case
from .oracle import ORACLE_CONFIG, REFERENCE_CONFIG

#: adaptive-seq's shape: 10 segments of 100 queries over 50 000 × 150.
ADAPTIVE_SEGMENTS, ADAPTIVE_ROWS, ADAPTIVE_ATTRS = 10, 50_000, 150


def stream_digest(engine: H2OEngine, queries: Iterable[object]) -> str:
    sha = hashlib.sha256()
    for query in queries:
        r = engine.execute(query)
        fields = (r.plan, r.strategy, r.plan_cache_hit, r.layout_created,
                  r.adaptation_ran, r.reorg_deferred, r.morsels_pruned,
                  sorted(r.phases), r.result.column_names,
                  str(r.result.data.dtype))
        sha.update(repr(fields).encode())
        sha.update(r.result.data.tobytes())
    return sha.hexdigest()


def digests(seqs: int, seed: int) -> Iterator[Tuple[str, str]]:
    """``(stream name, hex digest)`` for every stream, in order."""
    interpreted = replace(REFERENCE_CONFIG, **ORACLE_CONFIG)
    for case_seed in range(seed, seed + seqs):
        spec = random_case(case_seed)
        engine = H2OEngine(spec.build_table(), EngineConfig(**ORACLE_CONFIG))
        yield f"oracle seed={case_seed}", stream_digest(engine, spec.queries)
        engine = H2OEngine(spec.build_table(), interpreted)
        yield f"reference seed={case_seed}", stream_digest(
            engine, spec.queries
        )
    schema = wide_schema(ADAPTIVE_ATTRS)
    columns = uniform_columns(schema, ADAPTIVE_ROWS, rng=seed)
    table = Table.from_columns("t", schema, columns, initial_layout="column")
    queries = [
        q
        for i in range(ADAPTIVE_SEGMENTS)
        for q in fig7_sequence(rng=7000 + i, table="t").queries
    ]
    yield f"adaptive-seq seed={seed}", stream_digest(
        H2OEngine(table, EngineConfig()), queries
    )
