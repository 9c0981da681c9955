"""Interactive SQL shell over an adaptive H2O engine.

Run::

    python -m repro.shell                 # demo table (50 attrs, 100k rows)
    python -m repro.shell --table t.npz   # a table saved with save_table
    python -m repro.shell --attrs 200 --rows 500000 --seed 3

Inside the shell, any ``SELECT`` statement of the supported subset runs
against the engine.  Meta-commands:

- ``\\layouts``  — the table's current physical layouts,
- ``\\status``   — engine state (window, candidates, operator cache),
- ``\\plan SQL`` — the costed access plans for a query, without running,
- ``\\source SQL`` — the generated operator source for the best plan,
- ``\\history``  — per-query response times so far,
- ``\\help``, ``\\quit``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import EngineConfig
from .core.engine import H2OEngine
from .errors import H2OError
from .execution.strategies import enumerate_plans
from .sql.analyzer import analyze_query
from .sql.parser import parse_query
from .storage.generator import generate_table
from .storage.io import load_table
from .util.timing import format_seconds

HELP = """\
Enter a SELECT statement, or one of:
  \\layouts        show the table's physical layouts
  \\status         show engine adaptation state
  \\plan SQL       show costed access plans for SQL (does not execute)
  \\source SQL     show the generated operator for SQL's best plan
  \\history        show response times of the session's queries
  \\help           this message
  \\quit           exit"""

MAX_PRINTED_ROWS = 20


def _print_result(report) -> None:
    result = report.result
    print(" | ".join(result.column_names))
    for row in result.rows()[:MAX_PRINTED_ROWS]:
        print(" | ".join(f"{v:g}" if isinstance(v, float) else str(v) for v in row))
    if result.num_rows > MAX_PRINTED_ROWS:
        print(f"... ({result.num_rows} rows total)")
    extras = []
    if report.layout_created:
        extras.append(
            f"built a {len(report.layout_created)}-attribute group online"
        )
    if report.adaptation_ran:
        extras.append("adaptation phase ran")
    print(
        f"-- {format_seconds(report.seconds)} "
        f"[{report.strategy}] {' '.join(extras)}"
    )


def _show_plans(engine: H2OEngine, sql: str) -> None:
    info = analyze_query(parse_query(sql), engine.table.schema)
    plans = enumerate_plans(engine.table, info)
    costed = sorted(
        ((engine.planner.cost_model.plan_cost(info, plan), i, plan)
         for i, plan in enumerate(plans))
    )
    for rank, (cost, _i, plan) in enumerate(costed):
        marker = "->" if rank == 0 else "  "
        print(f"{marker} est {cost * 1e3:9.3f} ms  {plan.describe()}")


def _show_source(engine: H2OEngine, sql: str) -> None:
    from .codegen.generator import operator_source

    info = analyze_query(parse_query(sql), engine.table.schema)
    plans = enumerate_plans(engine.table, info)
    _cost, _i, plan = min(
        (engine.planner.cost_model.plan_cost(info, plan), i, plan)
        for i, plan in enumerate(plans)
    )
    print(f"# plan: {plan.describe()}")
    print(operator_source(info, plan))


def run_shell(engine: H2OEngine, stream=None) -> None:
    """The REPL loop (``stream`` overrides stdin for tests)."""
    lines = stream if stream is not None else sys.stdin
    interactive = stream is None and sys.stdin.isatty()
    if interactive:
        print(
            f"H2O shell — table {engine.table.name!r} "
            f"({engine.table.num_rows} rows x "
            f"{engine.table.schema.width} attrs). \\help for commands."
        )
    while True:
        if interactive:
            print("h2o> ", end="", flush=True)
        line = lines.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        try:
            if line in ("\\quit", "\\q", "exit"):
                break
            elif line == "\\help":
                print(HELP)
            elif line == "\\layouts":
                print(engine.table.layout_summary())
            elif line == "\\status":
                print(engine.describe())
            elif line == "\\history":
                for report in engine.reports:
                    print(
                        f"  q{report.index:3d} "
                        f"{format_seconds(report.seconds):>10s} "
                        f"[{report.strategy}] {report.query.to_sql()[:60]}"
                    )
            elif line.startswith("\\plan "):
                _show_plans(engine, line[len("\\plan "):])
            elif line.startswith("\\source "):
                _show_source(engine, line[len("\\source "):])
            elif line.startswith("\\"):
                print(f"unknown command {line.split()[0]!r}; \\help lists them")
            else:
                _print_result(engine.execute(line))
        except H2OError as exc:
            print(f"error: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.shell",
        description="Interactive SQL shell over an adaptive H2O engine.",
    )
    parser.add_argument("--table", help="path of a table saved via save_table")
    parser.add_argument("--attrs", type=int, default=50)
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--window", type=int, default=None, help="adaptation window size"
    )
    args = parser.parse_args(argv)

    if args.table:
        table = load_table(Path(args.table))
    else:
        table = generate_table(
            "r", args.attrs, args.rows, rng=args.seed
        )
    config = EngineConfig()
    if args.window:
        config = config.with_overrides(window_size=args.window)
    run_shell(H2OEngine(table, config))
    return 0


if __name__ == "__main__":
    sys.exit(main())
