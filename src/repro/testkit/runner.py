"""The testkit CLI.

Green path::

    PYTHONPATH=src python -m repro.testkit run --seqs 50 --seed 0

runs 50 seeded oracle sequences (seeds ``seed .. seed+seqs-1``), each
through the nine oracle paths plus the two fault passes, and prints a
one-line summary.  Red path: the first failing sequence is shrunk to a
minimal spec and printed as a ≤10-line repro (seed + schema + SQL), and
the process exits 1.

Chaos mode::

    PYTHONPATH=src python -m repro.testkit chaos --seqs 20 --seed 0

runs seeded *chaos* sequences: faults scheduled at every registered
injection point (compile, online + offline stitch, worker death,
transient execute failure), asserting zero crashes, bit-identical
answers, a healed worker pool and an exact degradation-evidence audit
(see :meth:`repro.testkit.oracle.DifferentialOracle.chaos_case`).  It
also reports cumulative fault-point coverage and fails if any point
never fired across the run.

Restart oracle::

    PYTHONPATH=src python -m repro.testkit restart --seqs 10 --seed 0

abandons the durable store at a seeded cut, recovers it from disk and
asserts bit-identical answers and preserved adaptation state (see
:mod:`repro.testkit.restart`).

Scenario replay::

    PYTHONPATH=src python -m repro.testkit scenarios

replays the adversarial scenario pack (repro/workloads/scenarios.py)
under both switching policies (greedy-paper and guarded) against the
row reference: every answer bit-identical, every engine invariant held,
the guarded regret ledger balanced, and guarded never reorganizing more
than greedy.  Name scenarios to replay a subset; ``--seed`` reseeds the
pack.

Reproducing a printed case::

    PYTHONPATH=src python -m repro.testkit repro --seed S --attrs A \
        --rows R 'SELECT ...' 'SELECT ...'

re-runs exactly that spec (same bytes, same faults) once, verbosely.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from .generate import CaseSpec, random_case
from .oracle import DifferentialOracle, OracleFailure
from .shrink import format_repro, shrink_case


def _build_oracle(args: argparse.Namespace) -> DifferentialOracle:
    return DifferentialOracle(
        workers=args.workers,
        with_faults=not args.no_faults,
        faults_per_point=args.faults_per_point,
    )


def _fails_predicate(oracle: DifferentialOracle):
    def fails(spec: CaseSpec) -> bool:
        try:
            oracle.run_case(spec)
        except OracleFailure:
            return True
        return False

    return fails


def _cmd_run(args: argparse.Namespace) -> int:
    oracle = _build_oracle(args)
    started = time.perf_counter()
    total_queries = 0
    for index in range(args.seqs):
        seed = args.seed + index
        spec = random_case(seed)
        total_queries += len(spec.queries)
        try:
            result = oracle.run_case(spec)
        except OracleFailure as failure:
            print(f"FAIL seq {index} ({spec.describe()}):", file=sys.stderr)
            print(f"  {failure}", file=sys.stderr)
            print("shrinking...", file=sys.stderr)
            small = shrink_case(
                spec, _fails_predicate(oracle), max_checks=args.shrink_budget
            )
            print("minimal repro:", file=sys.stderr)
            print(format_repro(small), file=sys.stderr)
            return 1
        if args.verbose:
            print(f"ok   seq {index}: {result.describe()}")
    elapsed = time.perf_counter() - started
    print(
        f"oracle: {args.seqs} sequences, {total_queries} queries, "
        f"all modes identical ({elapsed:.1f}s)"
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import ALL_POINTS

    oracle = DifferentialOracle(
        workers=args.workers, faults_per_point=args.faults_per_point
    )
    started = time.perf_counter()
    total_queries = 0
    coverage: dict = {point: 0 for point in ALL_POINTS}
    for index in range(args.seqs):
        seed = args.seed + index
        spec = random_case(seed)
        total_queries += len(spec.queries)
        try:
            result = oracle.chaos_case(spec)
        except OracleFailure as failure:
            print(
                f"CHAOS FAIL seq {index} ({spec.describe()}):",
                file=sys.stderr,
            )
            print(f"  {failure}", file=sys.stderr)
            print(format_repro(spec), file=sys.stderr)
            return 1
        for point, count in result.fired_faults.items():
            coverage[point] = coverage.get(point, 0) + count
        if args.verbose:
            print(f"ok   seq {index}: {result.describe()}")
    elapsed = time.perf_counter() - started
    rendered = ", ".join(
        f"{point}={coverage[point]}" for point in sorted(coverage)
    )
    print(
        f"chaos: {args.seqs} sequences, {total_queries} queries, zero "
        f"crashes/divergence ({elapsed:.1f}s)\n  faults fired: {rendered}"
    )
    uncovered = [point for point, count in sorted(coverage.items()) if not count]
    if uncovered:
        print(
            f"chaos: fault point(s) never fired: {', '.join(uncovered)} — "
            f"increase --seqs or --faults-per-point",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_restart(args: argparse.Namespace) -> int:
    from .restart import RestartOracleFailure, restart_case

    started = time.perf_counter()
    compared = 0
    torn = 0
    for index in range(args.seqs):
        seed = args.seed + index
        try:
            evidence = restart_case(seed)
        except RestartOracleFailure as failure:
            print(f"RESTART FAIL seq {index} (seed {seed}):", file=sys.stderr)
            print(f"  {failure}", file=sys.stderr)
            return 1
        compared += evidence.queries_compared
        torn += int(evidence.torn_tail_injected)
        if args.verbose:
            print(f"ok   seq {index}: {evidence.describe()}")
    elapsed = time.perf_counter() - started
    print(
        f"restart: {args.seqs} kill/recover sequences, {compared} "
        f"post-recovery answers bit-identical, {torn} torn tails "
        f"discarded, adaptation state preserved ({elapsed:.1f}s)"
    )
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from ..workloads.scenarios import SCENARIOS
    from .oracle import scenario_case

    names = args.names or list(SCENARIOS)
    started = time.perf_counter()
    answers = 0
    for name in names:
        try:
            outcome = scenario_case(
                name, args.seed, hedging_factor=args.hedging_factor
            )
        except OracleFailure as failure:
            print(
                f"SCENARIO FAIL {name} (seed {args.seed}):",
                file=sys.stderr,
            )
            print(f"  {failure}", file=sys.stderr)
            return 1
        answers += outcome.queries_checked
        if args.verbose:
            print(f"ok   {outcome.describe()}")
    elapsed = time.perf_counter() - started
    print(
        f"scenarios: {len(names)} scenario(s) x both policies, {answers} "
        f"answers bit-identical, regret ledger balanced ({elapsed:.1f}s)"
    )
    return 0


def _cmd_repro(args: argparse.Namespace) -> int:
    spec = CaseSpec(
        seed=args.seed,
        num_attrs=args.attrs,
        num_rows=args.rows,
        queries=tuple(args.queries),
    )
    oracle = _build_oracle(args)
    try:
        result = oracle.run_case(spec)
    except OracleFailure as failure:
        print(f"FAIL: {failure}", file=sys.stderr)
        print(format_repro(spec), file=sys.stderr)
        return 1
    print(f"ok: {result.describe()}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=3,
        help="service worker threads in the concurrent mode (default 3)",
    )
    parser.add_argument(
        "--no-faults",
        action="store_true",
        help="skip the fault-injection passes (differential modes only)",
    )
    parser.add_argument(
        "--faults-per-point",
        type=int,
        default=2,
        help="max scheduled faults per injection point (default 2)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testkit",
        description="H2O differential oracle + fault-injection harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run N seeded oracle sequences")
    run.add_argument("--seqs", type=int, default=50)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--shrink-budget", type=int, default=60)
    run.add_argument("-v", "--verbose", action="store_true")
    _add_common(run)
    run.set_defaults(func=_cmd_run)

    chaos = sub.add_parser(
        "chaos",
        help="run N chaos sequences (faults at every injection point)",
    )
    chaos.add_argument("--seqs", type=int, default=20)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("-v", "--verbose", action="store_true")
    _add_common(chaos)
    chaos.set_defaults(func=_cmd_chaos)

    restart = sub.add_parser(
        "restart",
        help="run N kill/recover sequences against the durable store",
    )
    restart.add_argument("--seqs", type=int, default=10)
    restart.add_argument("--seed", type=int, default=0)
    restart.add_argument("-v", "--verbose", action="store_true")
    restart.set_defaults(func=_cmd_restart)

    scenarios = sub.add_parser(
        "scenarios",
        help="replay the adversarial scenario pack under both policies",
    )
    scenarios.add_argument(
        "names",
        nargs="*",
        help="scenario names to replay (default: the whole pack)",
    )
    scenarios.add_argument("--seed", type=int, default=0)
    scenarios.add_argument(
        "--hedging-factor",
        type=float,
        default=2.0,
        help="hedging factor for the guarded replay (default 2.0)",
    )
    scenarios.add_argument("-v", "--verbose", action="store_true")
    scenarios.set_defaults(func=_cmd_scenarios)

    repro = sub.add_parser("repro", help="re-run one explicit case spec")
    repro.add_argument("--seed", type=int, required=True)
    repro.add_argument("--attrs", type=int, required=True)
    repro.add_argument("--rows", type=int, required=True)
    repro.add_argument("queries", nargs="+", help="SQL text, one per query")
    _add_common(repro)
    repro.set_defaults(func=_cmd_repro)

    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":
    sys.exit(main())
