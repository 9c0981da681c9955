"""Experiment registry, measurement helpers, result formatting."""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from ..errors import BenchmarkError
from ..storage.relation import Table
from ..util.tables import format_table


@dataclass
class ExperimentResult:
    """One reproduced table/figure: a titled text table plus notes."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Free-form payload for tests (series keyed by name, etc.).
    series: Dict[str, object] = field(default_factory=dict)
    seconds: float = 0.0

    def render(self) -> str:
        text = format_table(
            self.headers,
            self.rows,
            title=f"== {self.experiment_id}: {self.title} ==",
        )
        if self.notes:
            text += "\n" + "\n".join(f"   note: {n}" for n in self.notes)
        text += f"\n   (experiment wall time: {self.seconds:.1f}s)"
        return text


ExperimentFn = Callable[[], ExperimentResult]

_REGISTRY: Dict[str, ExperimentFn] = {}
_DESCRIPTIONS: Dict[str, str] = {}


def register(experiment_id: str, description: str):
    """Decorator registering an experiment under its paper id."""

    def wrap(fn: ExperimentFn) -> ExperimentFn:
        if experiment_id in _REGISTRY:
            raise BenchmarkError(
                f"experiment {experiment_id!r} registered twice"
            )
        _REGISTRY[experiment_id] = fn
        _DESCRIPTIONS[experiment_id] = description
        return fn

    return wrap


def _ensure_loaded() -> None:
    # Experiment modules self-register on import.
    from . import experiments  # noqa: F401


def available_experiments() -> List[str]:
    """Registered experiment ids with their descriptions."""
    _ensure_loaded()
    return [f"{k}: {_DESCRIPTIONS[k]}" for k in sorted(_REGISTRY)]


def get_experiment(experiment_id: str) -> ExperimentFn:
    _ensure_loaded()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise BenchmarkError(
            f"unknown experiment {experiment_id!r} (known: {known})"
        ) from None


def run_experiment(experiment_id: str) -> ExperimentResult:
    """Run one experiment and stamp its wall time."""
    fn = get_experiment(experiment_id)
    gc.collect()
    started = time.perf_counter()
    result = fn()
    result.seconds = time.perf_counter() - started
    return result


def run_experiment_isolated(experiment_id: str) -> ExperimentResult:
    """Run one experiment in a fresh Python subprocess.

    Experiments allocate and free hundreds of megabytes; running twenty
    of them in one process leaves each subsequent experiment a
    different heap, page-cache and allocator state than the first got.
    A fresh interpreter per experiment makes multi-experiment runs
    (``python -m repro.bench all``) measure what single-experiment runs
    measure.
    """
    import pickle
    import subprocess
    import sys
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".pkl", delete=False) as handle:
        out_path = handle.name
    code = (
        "import pickle\n"
        "from repro.bench.harness import run_experiment\n"
        f"result = run_experiment({experiment_id!r})\n"
        f"pickle.dump(result, open({out_path!r}, 'wb'))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    if completed.returncode != 0:
        raise BenchmarkError(
            f"experiment {experiment_id!r} failed in its subprocess:\n"
            f"{completed.stderr[-2000:]}"
        )
    with open(out_path, "rb") as handle:
        result = pickle.load(handle)
    import os

    os.unlink(out_path)
    return result


# Measurement helpers ---------------------------------------------------------


def warm_table(table: Table) -> int:
    """Touch every layout's data once (fault pages in before timing).

    A freshly generated table pays first-touch page faults on its first
    scan; warming keeps engine comparisons order-independent.
    """
    checksum = 0
    for layout in table.layouts:
        data = layout.data  # both concrete layouts expose the buffer
        checksum ^= int(data.ravel()[:: max(1, data.size // 4096)].sum())
    return checksum


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])
