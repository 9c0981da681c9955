"""Run the benchmark: one workload (the gate's contract) or the full set.

One workload, one mode — what ``BENCHMARK.json``'s command is given::

    python3 benchmarks/e2e/run.py --workload steady-serve --seed 3 \\
        --seconds 20 --trace 0

prints a ``detail`` line (sample counts, warnings) and, last, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.  Exit code 1 when any op failed or was answered wrongly.

The full set — every workload, untraced then traced, each in a fresh
process::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 0 [--smoke]

prints every metric by name with unit, sample count and regression
bound, and writes ``out/results-seed<k>.json`` for ``compare``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

if __package__ in (None, ""):  # run as a script, as BENCHMARK.json does
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    import benchmarks.e2e  # noqa: F401  (makes the relative imports work)

    __package__ = "benchmarks.e2e"

from . import OUT, ROOT, load_spec, require_repro
from .measure import RunResult

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
SMOKE_SECONDS = 2.0
DETAIL_PREFIX = "detail: "


def _terminate(signum, frame):
    """Turn SIGTERM into an exception so children and temp dirs are
    cleaned up by the ``with`` blocks on the way out."""
    raise SystemExit(128 + signum)


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool
) -> RunResult:
    require_repro()
    from . import adaptive, serve

    setups = 1 if smoke else SETUPS
    trace_path = OUT / f"trace-{workload}.json"
    if workload == "adaptive-seq":
        if trace:
            return adaptive.run_traced(seed, seconds, smoke, trace_path)
        return adaptive.run_e2e(seed, seconds, smoke, setups)
    if trace:
        return serve.run_traced(workload, seed, seconds, smoke, trace_path)
    return serve.run_e2e(workload, seed, seconds, smoke, setups)


def contract_line(result: RunResult, spec: dict, trace: bool) -> dict:
    """The one JSON object the gate reads: every metric of the mode's
    list.  A per-layer metric a workload has no use for reads 0 with 0
    samples; an end-to-end metric may not be missing."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in result.metrics and not trace:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        value, _ = result.metrics.get(name, (0.0, 0))
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def main_one(args: argparse.Namespace, spec: dict) -> int:
    started = time.perf_counter()
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    line = contract_line(result, spec, bool(args.trace))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": int(bool(args.trace)),
        "seconds": args.seconds,
        "wall_s": time.perf_counter() - started,
        "samples": {name: n for name, (_, n) in result.metrics.items()},
        "warnings": result.warnings,
    }
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(line), flush=True)
    return 0 if result.failed == 0 else 1


# The full set -------------------------------------------------------------


def provenance(args: argparse.Namespace) -> dict:
    require_repro()
    import numpy

    from .procs import git_sha

    return {
        "seed": args.seed,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One workload run in a fresh process, so no run inherits another's
    memory high-water mark, caches or threads."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines or done.returncode not in (0, 1):
        raise RuntimeError(
            f"{workload} (trace {trace}) exited {done.returncode} without a result"
        )
    run = json.loads(lines[-1])
    for line in lines:
        if line.startswith(DETAIL_PREFIX):
            run.update(json.loads(line[len(DETAIL_PREFIX):]))
    return run


def print_run(run: dict, spec: dict) -> None:
    entries = {
        e["name"]: e for e in spec["end_to_end"] + spec["per_layer"]
    }
    mode = "per-layer (traced)" if run["trace"] else "end-to-end (untraced)"
    print(
        f"\n== {run['workload']} · seed {run['seed']} · {mode} · "
        f"{run['attempted']} ops, {run['failed']} failed · {run['wall_s']:.1f} s"
    )
    for name, metric in run["metrics"].items():
        samples = run["samples"].get(name, 0)
        if run["trace"] and samples == 0:
            continue  # not applicable on this workload
        bound = entries[name].get("bound")
        gate = f"bound {bound:g}" if bound is not None else "no bound"
        print(
            f"  {name:<34} {metric['value']:>16.4f} {metric['unit']:<7}"
            f" n={samples:<7} {entries[name]['better']:<6} {gate}"
        )


def main_all(args: argparse.Namespace, spec: dict) -> int:
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    results = {"provenance": provenance(args), "runs": []}
    failed = 0
    for repeat in range(args.repeats):
        for entry in spec["workloads"]:
            # The traced run is the shorter one: it only attributes.
            for trace, length in ((0, seconds), (1, seconds / 2)):
                run = _child(
                    entry["name"], args.seed + repeat, length, trace, args.smoke
                )
                print_run(run, spec)
                results["runs"].append(run)
                failed += run["failed"]
    out = Path(args.out) if args.out else OUT / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"\nwrote {out}")
    return 0 if failed == 0 else 1


def build_parser(spec: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.run")
    parser.add_argument(
        "--workload",
        choices=[w["name"] for w in spec["workloads"]],
        help="run this one workload and print the gate's JSON line",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        nargs="?",
        const=1,
        default=0,
        help="with --workload: 1 records spans and reports per-layer metrics",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="1/20-size tables, seconds-long runs"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="full set only: run it this many times, seeds seed..seed+n-1",
    )
    parser.add_argument("--out", help="full set only: where to write the results")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    args = build_parser(spec).parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if args.workload:
        return main_one(args, spec)
    return main_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
