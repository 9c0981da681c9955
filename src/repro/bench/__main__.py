"""Command-line entry point: ``python -m repro.bench [ids... | all]``,
or ``python -m repro.bench calibrate`` (see :mod:`.calibrate`)."""

from __future__ import annotations

import argparse
import sys

from .harness import (
    available_experiments,
    get_experiment,
    run_experiment,
    run_experiment_isolated,
)


def _chart_for(result):
    """An ASCII chart for experiments with plottable series, else None."""
    from ..util.chart import line_chart

    numeric = {
        name: values
        for name, values in result.series.items()
        if isinstance(values, (list, tuple))
        and values
        and all(isinstance(v, (int, float)) for v in values)
    }
    if not numeric:
        return None
    return line_chart(
        numeric,
        title=f"{result.experiment_id} (y: seconds, x: sweep index)",
        log_y=True,
    )


def _write_csv(result, path) -> None:
    """One experiment's headers+rows as a plotting-friendly CSV file."""
    import csv

    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.headers)
        writer.writerows(result.rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description=(
            "Regenerate the tables and figures of 'H2O: A Hands-free "
            "Adaptive Store' (SIGMOD 2014). Scale with H2O_SCALE. "
            "'calibrate' fits the cost model instead (calibrate --help)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (e.g. fig7 table1), or 'all'",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--record",
        metavar="PATH",
        help="also write a Markdown paper-vs-measured report to PATH",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="render experiments with numeric series as ASCII charts",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="write each experiment's rows to DIR/<id>.csv",
    )
    parser.add_argument(
        "--no-isolate",
        action="store_true",
        help=(
            "run multiple experiments in this process instead of one "
            "fresh subprocess each (faster, but heap/page-cache state "
            "leaks between experiments)"
        ),
    )
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["calibrate"]:
        from .calibrate import main as calibrate

        return calibrate(argv[1:])
    args = parser.parse_args(argv)

    if args.list or not args.experiments:
        print("Available experiments:")
        for line in available_experiments():
            print("  " + line)
        return 0

    ids = args.experiments
    if ids == ["all"]:
        ids = [line.split(":")[0] for line in available_experiments()]

    for experiment_id in ids:
        get_experiment(experiment_id)  # fail fast on typos
    isolate = len(ids) > 1 and not args.no_isolate
    results = []
    for experiment_id in ids:
        runner = run_experiment_isolated if isolate else run_experiment
        result = runner(experiment_id)
        results.append(result)
        print(result.render())
        if args.chart:
            chart = _chart_for(result)
            if chart:
                print()
                print(chart)
        print()
    if args.csv:
        from pathlib import Path

        directory = Path(args.csv)
        directory.mkdir(parents=True, exist_ok=True)
        for result in results:
            _write_csv(result, directory / f"{result.experiment_id}.csv")
        print(f"wrote {len(results)} csv files to {directory}")
    if args.record:
        from pathlib import Path

        from .report import record

        record(results, Path(args.record))
        print(f"recorded {len(results)} experiments to {args.record}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
