"""End-to-end benchmark of the adaptive store (see README.md here).

Four workloads, each run in a fresh process against the shipped default
``EngineConfig()``/``GatewayConfig()``; end-to-end metrics are taken with
tracing off, per-layer metrics in a second run that records spans from
these files around calls into each layer's public functions.  Nothing
under ``src/`` is edited or monkeypatched.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Everything a run leaves behind (trace files, results, temp data dirs)
#: lands here; the directory is git-ignored.
OUT = HERE / "out"


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions, bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def require_repro() -> None:
    """Put ``src/`` on ``sys.path``; exit 2 when the program is absent.

    The benchmark measures the program in this checkout, so a directory
    holding only the benchmark's own files has nothing to run.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"benchmarks/e2e: no program to measure ({SRC}/repro is missing)\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
