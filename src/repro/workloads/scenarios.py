"""The adversarial scenario pack: workloads built to punish greedy
adaptation.

Each scenario is a deterministic, seed-driven generator of one table
plus an operation stream (queries interleaved with appends) that the
differential oracle (repro/testkit/oracle.py), the service stress suite
(tests/test_service_stress.py) and the policy benchmark
(benchmarks/bench_scenarios.py) can all replay bit-identically:

- **periodic-shift** — the workload alternates between two query
  classes every phase ("Automatic Clustering in Hyrise"'s shifting
  tenants): greedy re-optimizes for each phase, paying reorganizations
  the next phase abandons;
- **ping-pong** — the hot attribute trio *rotates* every (short)
  phase, so each phase proposes a brand-new column group: the
  worst case for up-front investment;
- **flash-crowd** — uniform background traffic, then one hot-key
  shape bursts to dominance and vanishes again: the burst must not
  buy layouts the steady state never uses;
- **mixed-olap-point** — wide aggregations interleaved with point
  lookups, the classic hybrid tension: neither class alone justifies
  the other's layout;
- **trickle-append** — a recurring analytical workload with small
  appends between rounds: every append bumps the epoch, so every
  cached plan is rebound to the extended layouts and the zone maps
  grow with each batch.

Values are integers in ``[-VALUE_BOUND, VALUE_BOUND]`` (the testkit's
exactness discipline: float64 arithmetic on sums of such values is
exact, so results compare bit-for-bit across engines and policies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..storage.generator import generate_table
from ..storage.relation import Table

#: Largest absolute attribute value generated (exact float64 discipline,
#: mirrors repro/testkit/generate.py).
VALUE_BOUND = 1000

#: One operation of a scenario stream:
#: ``("query", sql)`` or ``("append", batch_seed, num_rows)``.
Op = Tuple[object, ...]


@dataclass(frozen=True)
class Scenario:
    """A deterministic adversarial workload over one generated table."""

    name: str
    seed: int
    num_attrs: int
    num_rows: int
    ops: Tuple[Op, ...]
    description: str = ""
    table_name: str = "s"

    def make_table(self) -> Table:
        """A fresh instance of the scenario's table (deterministic)."""
        return generate_table(
            self.table_name,
            self.num_attrs,
            self.num_rows,
            rng=self.seed,
            low=-VALUE_BOUND,
            high=VALUE_BOUND,
        )

    def append_batch(self, batch_seed: int, rows: int) -> Dict[str, np.ndarray]:
        """The deterministic rows of one ``("append", ...)`` op."""
        rng = np.random.default_rng(batch_seed)
        names = [f"a{i + 1}" for i in range(self.num_attrs)]
        return {
            name: rng.integers(
                -VALUE_BOUND, VALUE_BOUND + 1, size=rows, dtype=np.int64
            )
            for name in names
        }

    # Convenience views ----------------------------------------------------

    @property
    def queries(self) -> List[str]:
        return [op[1] for op in self.ops if op[0] == "query"]

    @property
    def append_count(self) -> int:
        return sum(1 for op in self.ops if op[0] == "append")

    def describe(self) -> str:
        return (
            f"{self.name} (seed {self.seed}): {len(self.queries)} queries"
            f" + {self.append_count} appends over "
            f"{self.num_attrs}x{self.num_rows} table — {self.description}"
        )


def _literal(rng: np.random.Generator) -> int:
    """A predicate literal inside the generated value range."""
    return int(rng.integers(-VALUE_BOUND // 2, VALUE_BOUND // 2 + 1))


def _phase_queries(
    rng: np.random.Generator,
    attrs: Tuple[str, ...],
    count: int,
    table: str,
) -> List[str]:
    """``count`` queries cycling 3 recurring shapes over one hot set.

    Recurrence is the point: the monitor must see the same access
    pattern often enough for the advisor to propose the group covering
    ``attrs``.
    """
    a, b, c = attrs[0], attrs[1], attrs[2 % len(attrs)]
    queries = []
    for i in range(count):
        shape = i % 3
        lit = _literal(rng)
        if shape == 0:
            queries.append(f"SELECT {a}, {b} FROM {table} WHERE {c} > {lit}")
        elif shape == 1:
            queries.append(
                f"SELECT sum({a} + {b}) FROM {table} WHERE {c} < {lit}"
            )
        else:
            queries.append(
                f"SELECT {a}, {c} FROM {table} WHERE {b} >= {lit}"
            )
    return queries


def periodic_shift(
    seed: int = 0,
    *,
    phases: int = 6,
    phase_len: int = 18,
    num_attrs: int = 10,
    num_rows: int = 4096,
) -> Scenario:
    """Alternate between two query classes every ``phase_len`` queries.

    The hot trio also *drifts* by one attribute on every revisit of a
    class (region A: the low attributes, region B: the high ones), so
    each phase proposes a fresh column group — a returning class never
    finds its old layout still a perfect fit, exactly the pattern that
    makes greedy re-pay a reorganization per phase.
    """
    rng = np.random.default_rng(seed * 7919 + 11)
    names = [f"a{i + 1}" for i in range(num_attrs)]
    half = num_attrs // 2
    regions = (names[:half], names[half:])
    ops: List[Op] = []
    for p in range(phases):
        region = regions[p % 2]
        drift = p // 2  # advances once per revisit of this class
        hot = tuple(
            region[(drift + k) % len(region)] for k in range(3)
        )
        for sql in _phase_queries(rng, hot, phase_len, "s"):
            ops.append(("query", sql))
    return Scenario(
        name="periodic-shift",
        seed=seed,
        num_attrs=num_attrs,
        num_rows=num_rows,
        ops=tuple(ops),
        description="two query classes alternating per phase",
    )


def ping_pong(
    seed: int = 0,
    *,
    phases: int = 8,
    phase_len: int = 12,
    num_attrs: int = 12,
    num_rows: int = 4096,
) -> Scenario:
    """The hot attribute trio rotates every phase — each phase proposes
    a brand-new column group, the worst case for greedy investment."""
    rng = np.random.default_rng(seed * 7919 + 23)
    names = [f"a{i + 1}" for i in range(num_attrs)]
    ops: List[Op] = []
    for p in range(phases):
        hot = tuple(
            names[(p + k * 2) % num_attrs] for k in range(3)
        )
        for sql in _phase_queries(rng, hot, phase_len, "s"):
            ops.append(("query", sql))
    return Scenario(
        name="ping-pong",
        seed=seed,
        num_attrs=num_attrs,
        num_rows=num_rows,
        ops=tuple(ops),
        description="hot attribute trio rotating every short phase",
    )


def flash_crowd(
    seed: int = 0,
    *,
    background: int = 30,
    burst: int = 40,
    cooldown: int = 30,
    num_attrs: int = 10,
    num_rows: int = 4096,
) -> Scenario:
    """Uniform background traffic, one hot-key shape bursts, then
    vanishes — the burst must not buy layouts the steady state never
    uses."""
    rng = np.random.default_rng(seed * 7919 + 37)
    names = [f"a{i + 1}" for i in range(num_attrs)]
    ops: List[Op] = []

    def background_query() -> str:
        picked = rng.choice(len(names), size=3, replace=False)
        a, b, c = (names[int(i)] for i in picked)
        return f"SELECT {a}, {b} FROM s WHERE {c} > {_literal(rng)}"

    for _ in range(background):
        ops.append(("query", background_query()))
    # The flash crowd: one shape, hot-key literals from a narrow band.
    for i in range(burst):
        key = int(rng.integers(0, 40)) - 20
        if i % 2 == 0:
            sql = f"SELECT a1, a2 FROM s WHERE a3 > {key}"
        else:
            sql = f"SELECT sum(a1 + a2) FROM s WHERE a3 < {key}"
        ops.append(("query", sql))
    for _ in range(cooldown):
        ops.append(("query", background_query()))
    return Scenario(
        name="flash-crowd",
        seed=seed,
        num_attrs=num_attrs,
        num_rows=num_rows,
        ops=tuple(ops),
        description="hot-key burst inside uniform background traffic",
    )


def mixed_olap_point(
    seed: int = 0,
    *,
    rounds: int = 40,
    num_attrs: int = 12,
    num_rows: int = 4096,
) -> Scenario:
    """Wide aggregations interleaved with point lookups — neither class
    alone justifies the other's layout."""
    rng = np.random.default_rng(seed * 7919 + 53)
    names = [f"a{i + 1}" for i in range(num_attrs)]
    ops: List[Op] = []
    for i in range(rounds):
        wide = names[0:4] if i % 2 == 0 else names[2:6]
        expr = " + ".join(wide)
        ops.append(
            (
                "query",
                f"SELECT sum({expr}) FROM s WHERE {names[6]} > "
                f"{_literal(rng)}",
            )
        )
        ops.append(
            (
                "query",
                f"SELECT {names[8]} FROM s WHERE {names[9]} = "
                f"{_literal(rng)}",
            )
        )
        if i % 5 == 4:
            ops.append(
                (
                    "query",
                    f"SELECT {names[8]}, {names[10]} FROM s WHERE "
                    f"{names[9]} > {_literal(rng)}",
                )
            )
    return Scenario(
        name="mixed-olap-point",
        seed=seed,
        num_attrs=num_attrs,
        num_rows=num_rows,
        ops=tuple(ops),
        description="wide aggregations interleaved with point lookups",
    )


def trickle_append(
    seed: int = 0,
    *,
    rounds: int = 8,
    queries_per_round: int = 12,
    append_rows: int = 64,
    num_attrs: int = 8,
    num_rows: int = 4096,
) -> Scenario:
    """A recurring analytical workload with a small append between
    rounds: every append bumps the epoch, and every cached plan is
    rebound to the extended layouts."""
    rng = np.random.default_rng(seed * 7919 + 71)
    names = [f"a{i + 1}" for i in range(num_attrs)]
    hot = tuple(names[0:3])
    ops: List[Op] = []
    for r in range(rounds):
        for sql in _phase_queries(rng, hot, queries_per_round, "s"):
            ops.append(("query", sql))
        if r < rounds - 1:
            # Batch seed is a pure function of (seed, round): the same
            # rows regardless of who replays, engine or oracle.
            ops.append(("append", seed * 100003 + r * 17 + 5, append_rows))
    return Scenario(
        name="trickle-append",
        seed=seed,
        num_attrs=num_attrs,
        num_rows=num_rows,
        ops=tuple(ops),
        description="recurring analytics under steady small appends",
    )


#: The registry every replayer iterates (insertion order is the
#: canonical replay order).
SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "periodic-shift": periodic_shift,
    "ping-pong": ping_pong,
    "flash-crowd": flash_crowd,
    "mixed-olap-point": mixed_olap_point,
    "trickle-append": trickle_append,
}


def build_scenario(name: str, seed: int = 0, **kwargs: object) -> Scenario:
    """Instantiate a registered scenario by name."""
    try:
        factory = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})")
    return factory(seed, **kwargs)
