"""Small shared pieces: percentiles and the result record."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (the sample count is reported next to
    it, so a reader can see how many samples lie beyond)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(share * len(ordered)) - 1)])


def p95(values: Sequence[float]) -> float:
    return percentile(values, 0.95)


def p99(values: Sequence[float]) -> float:
    return percentile(values, 0.99)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


@dataclass
class RunResult:
    """What one workload run reports."""

    #: metric name -> (value, number of samples behind it)
    metrics: Dict[str, Tuple[float, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    warnings: List[str] = field(default_factory=list)

    def put(self, name: str, value: float, samples: int = 1) -> None:
        self.metrics[name] = (float(value), int(samples))
