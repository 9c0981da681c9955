"""Compare two result files, workload by workload, metric by metric.

::

    python -m benchmarks.e2e.compare BASE.json NEW.json

Both files come from ``python -m benchmarks.e2e.run`` (one or more
repeats).  For every workload × end-to-end metric this prints the
base's median, the new median, their ratio with its base, the spread of
the base's own repeats (interquartile distance ÷ median) and a verdict
against the bound fixed in ``BENCHMARK.json``:

- ``unresolved``: the base's own spread is wider than the bound, so the
  pair cannot be told apart — reported as such, never as unchanged;
- ``regressed``: the new median is worse than the base's by more than
  the bound;
- ``ok`` otherwise.

Exit code 1 if anything regressed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from . import load_spec


def spread(values: Sequence[float]) -> Optional[float]:
    """Interquartile distance as a share of the median (None below two
    values, where no spread can be taken)."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / abs(centre) if centre else 0.0


def values_by_workload(results: dict, trace: int = 0) -> Dict[str, Dict[str, List[float]]]:
    """workload → metric → the value of every repeat."""
    table: Dict[str, Dict[str, List[float]]] = {}
    for run in results["runs"]:
        if run["trace"] != trace:
            continue
        metrics = table.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return table


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float):
    """(base median, new median, worsening as a share of base, base
    spread, verdict)."""
    base_median = statistics.median(base)
    new_median = statistics.median(new)
    change = (new_median - base_median) / abs(base_median) if base_median else 0.0
    worse = change if better == "lower" else -change
    base_spread = spread(base)
    if base_spread is not None and base_spread > bound:
        word = "unresolved"
    elif worse > bound:
        word = "regressed"
    else:
        word = "ok"
    return base_median, new_median, worse, base_spread, word


def compare(base: dict, new: dict, spec: dict) -> List[dict]:
    base_values = values_by_workload(base)
    new_values = values_by_workload(new)
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for entry in spec["end_to_end"]:
            name = entry["name"]
            old = base_values.get(workload, {}).get(name)
            cur = new_values.get(workload, {}).get(name)
            if not old or not cur:
                continue
            b, n, worse, base_spread, word = verdict(
                old, cur, entry["better"], entry["bound"]
            )
            rows.append(
                dict(
                    workload=workload,
                    metric=name,
                    unit=entry["unit"],
                    base=b,
                    new=n,
                    ratio=n / b if b else 0.0,
                    worse=worse,
                    spread=base_spread,
                    bound=entry["bound"],
                    repeats=(len(old), len(cur)),
                    verdict=word,
                )
            )
    return rows


def render(rows: Sequence[dict]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<17} {'base':>12} {'new':>12} "
        f"{'new/base':>8} {'spread':>7} {'bound':>6} {'n':>5}  verdict"
    ]
    for row in rows:
        spread_text = "-" if row["spread"] is None else f"{row['spread']:.3f}"
        lines.append(
            f"{row['workload']:<13} {row['metric']:<17} {row['base']:>12.4f} "
            f"{row['new']:>12.4f} {row['ratio']:>8.3f} {spread_text:>7} "
            f"{row['bound']:>6.2f} {row['repeats'][0]:>2}/{row['repeats'][1]:<2}  "
            f"{row['verdict']}"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(path).read_text()) for path in argv)
    rows = compare(base, new, load_spec())
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
