"""Plans are a function of the data and the query sequence only.

Attribute names are strings, and Python salts string hashes per process
(``PYTHONHASHSEED``), so any planner step that iterates a set of names
and keeps the first of equal-cost options makes the chosen plan differ
from one process to the next.  The check runs one seeded Fig. 7
sequence in two interpreters with different hash seeds and compares
every plan string.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
from repro.config import EngineConfig
from repro.core.engine import H2OEngine
from repro.workloads.sequences import fig7_sequence

workload = fig7_sequence(num_rows=2_000, num_queries=200, rng=7000)
engine = H2OEngine(workload.make_table(rng=1), EngineConfig())
for query in workload.queries:
    print(engine.execute(query).plan)
"""


def plans_under_hash_seed(seed: int):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout.splitlines()


def test_plans_do_not_depend_on_string_hash_seed():
    first = plans_under_hash_seed(0)
    second = plans_under_hash_seed(7)
    assert len(first) == len(second) == 200
    differing = [i for i, (a, b) in enumerate(zip(first, second)) if a != b]
    assert not differing, (
        f"{len(differing)} plans differ between hash seeds 0 and 7, "
        f"first at query {differing[0]}:\n{first[differing[0]]}\n"
        f"{second[differing[0]]}"
    )
