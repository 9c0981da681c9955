"""Fit :class:`~repro.config.MachineProfile` to the kernels that run.

``python -m repro.bench calibrate [--check] [--json PATH]``

Each case is one (query shape, layout, strategy) plan over a synthetic
one-morsel table: the generated kernel is compiled, warmed, and timed
(best of :data:`REPEATS`).  Eq. 2 is linear in four per-unit constants —
``1/io_bandwidth``, ``1/random_io_bandwidth``, ``miss_penalty`` and
``cpu_per_word`` — so each case's estimate is a dot product of those
constants with the estimates under four unit profiles.  The constants
are solved by non-negative least squares on relative error, so a
0.1 ms kernel weighs as much as a 10 ms one.

Cases fall into kernel families (late/fused × aggregate/project, and
the stitch that builds a group).  Per family the report gives Spearman's
rank correlation of estimate vs measurement, for the shipped defaults
and for the fitted constants.  ``--check`` exits 1 when the defaults
rank any family below :data:`MIN_RANK_CORRELATION`.  Ranks pooled over
a family say that bigger queries cost more, not which plan is cheaper
for one query, so the report also gives the plan regret per query
shape: the measured time of the plan the estimates pick over that of
the fastest plan (reported, not gated).  Row count scales with
``H2O_SCALE`` (capped at one morsel).
"""

from __future__ import annotations

import argparse
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..codegen.cache import OperatorCache
from ..codegen.exprc import masked_sql
from ..codegen.generator import generate_operator
from ..config import EngineConfig, MachineProfile, scaled_rows
from ..core.cost_model import CostModel, SelectivityEstimator
from ..execution.strategies import AccessPlan, ExecutionStrategy
from ..sql.analyzer import analyze_query
from ..sql.parser import parse_query
from ..storage.generator import generate_table
from ..storage.stitcher import stitch_group

#: The ROADMAP item 1 gate: estimate and stopwatch agree on the order.
MIN_RANK_CORRELATION = 0.8
BASE_ROWS = 50_000
TABLE_ATTRS = 64
VALUE_HIGH = 1_000_000
REPEATS = 5

#: The fitted fields, in the order of the solved vector.
FITTED = ("io_bandwidth", "random_io_bandwidth", "miss_penalty",
          "cpu_per_word")


@dataclass
class Case:
    family: str
    plan: str
    seconds: float
    #: Estimates under the four unit profiles (the regression row).
    basis: np.ndarray


def _unit_profiles() -> List[MachineProfile]:
    """One profile per fitted constant: that constant's per-unit term is
    1 (a bandwidth of 1 byte/s), every other term 0."""
    zero = MachineProfile(
        io_bandwidth=float("inf"), random_io_bandwidth=float("inf"),
        miss_penalty=0.0, cpu_per_word=0.0,
    )
    return [
        replace(zero, io_bandwidth=1.0),
        replace(zero, random_io_bandwidth=1.0),
        replace(zero, miss_penalty=1.0),
        replace(zero, cpu_per_word=1.0),
    ]


def _theta(profile: MachineProfile) -> np.ndarray:
    return np.array([
        1.0 / profile.io_bandwidth, 1.0 / profile.random_io_bandwidth,
        profile.miss_penalty, profile.cpu_per_word,
    ])


def _best_of(fn, repeats: int = REPEATS) -> float:
    fn()
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _predicate(attrs: Sequence[str], selectivity: float) -> str:
    """AND of ``attr < literal`` with ``selectivity`` over uniform data."""
    each = selectivity ** (1.0 / len(attrs))
    return " AND ".join(
        f"{attr} < {int(each * VALUE_HIGH)}" for attr in attrs
    )


def _shapes() -> List[Tuple[str, str]]:
    """(family kind, SQL) for every query shape."""
    shapes = []
    for width, conjuncts, selectivity in itertools.product(
        (2, 4, 8, 16), (0, 1, 4), (0.05, 0.5)
    ):
        if conjuncts > width or (conjuncts == 0 and selectivity != 0.5):
            continue
        attrs = tuple(f"a{i}" for i in range(1, width + 1))
        where = (
            f" WHERE {_predicate(attrs[:conjuncts], selectivity)}"
            if conjuncts else ""
        )
        sums = ", ".join(f"sum({a})" for a in attrs)
        shapes.append(("aggregate", f"SELECT {sums} FROM t{where}"))
        shapes.append(("project", f"SELECT {', '.join(attrs)} FROM t{where}"))
    for conjuncts in (1, 4, 8):
        attrs = tuple(f"a{i}" for i in range(1, conjuncts + 1))
        shapes.append((
            "aggregate",
            f"SELECT count(*) FROM t WHERE {_predicate(attrs, 0.5)}",
        ))
    shapes.append((
        "aggregate",
        f"SELECT sum(a1 * a2 + a3) FROM t WHERE {_predicate(('a4',), 0.5)}",
    ))
    # MIN/MAX reduce one column each, whatever the layout: price them
    # next to the sums, alone and mixed with an expression.
    for width, selectivity in itertools.product((2, 4, 8), (None, 0.05, 0.5)):
        attrs = tuple(f"a{i}" for i in range(1, width + 1))
        calls = ", ".join(
            f"{('min', 'max')[i % 2]}({a})" for i, a in enumerate(attrs)
        )
        where = (
            f" WHERE {_predicate(attrs[:1], selectivity)}"
            if selectivity else ""
        )
        shapes.append(("aggregate", f"SELECT {calls} FROM t{where}"))
    for where in ("", f" WHERE {_predicate(('a4',), 0.5)}"):
        shapes.append((
            "aggregate", f"SELECT sum(a1 + a2), max(a3) FROM t{where}"
        ))
    return shapes


def measure(num_rows: int, seed: int = 0) -> List[Case]:
    """Time every calibration case on a fresh synthetic table."""
    table = generate_table(
        "t", TABLE_ATTRS, num_rows, rng=seed, low=0, high=VALUE_HIGH
    )
    names = table.schema.names
    groups: Dict[Tuple[str, ...], object] = {}

    def group(attrs: Tuple[str, ...]):
        if attrs not in groups:
            groups[attrs] = stitch_group(
                table.layouts, attrs, table.schema,
                full_width=len(attrs) == len(names),
            )[0]
        return groups[attrs]

    cache = OperatorCache()
    estimators = [
        CostModel(profile, SelectivityEstimator(blend=1.0))
        for profile in _unit_profiles()
    ]
    cases: List[Case] = []
    for kind, sql in _shapes():
        info = analyze_query(parse_query(sql), table.schema)
        if info.has_predicate:
            mask = np.ones(num_rows, dtype=bool)
            for pred in info.query.predicates:
                column = table.column(pred.left.name)
                mask &= column < pred.right.value
            for model in estimators:
                model.selectivity.observe(
                    masked_sql(info.query.where), float(mask.mean())
                )
        layouts = {
            "columns": table.covering_layouts(info.all_attrs),
            "group": (group(info.all_attrs),),
            "wide": (group(tuple(names[:48])),),
            "row": (group(names),),
        }
        for strategy, (layout_name, plan_layouts) in itertools.product(
            ExecutionStrategy, layouts.items()
        ):
            if (
                strategy is ExecutionStrategy.FUSED
                and layout_name == "columns"
            ):
                continue  # fused plans need a tuple-bearing layout
            plan = AccessPlan(strategy, plan_layouts)
            operator, _, _ = generate_operator(info, plan, cache)
            bufs = tuple(layout.data for layout in plan_layouts)
            seconds = _best_of(
                lambda: operator.kernel(bufs, operator.params, 0, num_rows)
            )
            cases.append(Case(
                family=f"{strategy.value}-{kind}",
                plan=f"{layout_name}: {sql}",
                seconds=seconds,
                basis=np.array([m.plan_cost(info, plan) for m in estimators]),
            ))
    for width in (2, 4, 8, 16, 32, 64):
        attrs = tuple(names[:width])
        seconds = _best_of(lambda: stitch_group(
            table.layouts, attrs, table.schema
        ), repeats=3)
        cases.append(Case(
            family="stitch",
            plan=f"stitch {width} columns",
            seconds=seconds,
            basis=np.array([
                m.build_cost_estimate(num_rows, width, width)
                for m in estimators
            ]),
        ))
    return cases


def fit(cases: Sequence[Case]) -> MachineProfile:
    """Non-negative least squares on relative error.

    Four unknowns, so every support set is tried: the best feasible
    unconstrained solution on a subset is the NNLS optimum.
    """
    basis = np.array([case.basis for case in cases])
    seconds = np.array([case.seconds for case in cases])
    a = basis / seconds[:, None]
    b = np.ones(len(cases))
    best, best_error = np.zeros(len(FITTED)), float("inf")
    for size in range(1, len(FITTED) + 1):
        for support in itertools.combinations(range(len(FITTED)), size):
            sub, *_ = np.linalg.lstsq(a[:, support], b, rcond=None)
            if (sub <= 0).any():
                continue
            theta = np.zeros(len(FITTED))
            theta[list(support)] = sub
            error = float(np.sum((a @ theta - b) ** 2))
            if error < best_error:
                best, best_error = theta, error
    inverse = lambda x: 1.0 / x if x > 0 else float("inf")  # noqa: E731
    return replace(
        MachineProfile(),
        io_bandwidth=inverse(best[0]),
        random_io_bandwidth=inverse(best[1]),
        miss_penalty=float(best[2]),
        cpu_per_word=float(best[3]),
    )


def _ranks(values: np.ndarray) -> np.ndarray:
    """Ranks with ties averaged."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    ranks[order] = np.arange(len(values))
    _, inverse = np.unique(values, return_inverse=True)
    return (np.bincount(inverse, ranks) / np.bincount(inverse))[inverse]


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman's rank correlation of ``x`` and ``y``."""
    rx, ry = _ranks(np.asarray(x)), _ranks(np.asarray(y))
    if rx.std() == 0 or ry.std() == 0:
        return 0.0
    return float(np.corrcoef(rx, ry)[0, 1])


def report(
    cases: Sequence[Case], profiles: Dict[str, MachineProfile]
) -> Dict[str, Dict[str, float]]:
    """Per family and profile: cases, rank correlation, and the median
    estimate ÷ measurement."""
    out: Dict[str, Dict[str, float]] = {}
    for family in sorted({case.family for case in cases}):
        members = [case for case in cases if case.family == family]
        measured = [case.seconds for case in members]
        row: Dict[str, float] = {"cases": len(members)}
        for name, profile in profiles.items():
            theta = _theta(profile)
            estimates = [float(case.basis @ theta) for case in members]
            row[f"{name}_rank_corr"] = spearman(estimates, measured)
            row[f"{name}_est_over_measured"] = float(np.median(
                np.array(estimates) / np.array(measured)
            ))
        out[family] = row
    return out


def plan_regret(
    cases: Sequence[Case], profile: MachineProfile
) -> Dict[str, float]:
    """Over the query shapes: how much slower the plan with the lowest
    estimate ran than the fastest plan (1.0 when it is the fastest)."""
    theta = _theta(profile)
    shapes: Dict[str, List[Case]] = defaultdict(list)
    for case in cases:
        if case.family != "stitch":
            shapes[case.plan.split(": ", 1)[1]].append(case)
    regrets = [
        min(plans, key=lambda case: float(case.basis @ theta)).seconds
        / min(case.seconds for case in plans)
        for plans in shapes.values()
    ]
    return {
        "shapes": len(regrets),
        "median": float(np.median(regrets)),
        "worst": float(max(regrets)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench calibrate",
        description="Fit MachineProfile's constants to the generated "
        "kernels on this host and rank-check Eq. 2 per kernel family.",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=f"exit 1 when the default profile's rank correlation is "
        f"below {MIN_RANK_CORRELATION} in any family",
    )
    parser.add_argument("--json", metavar="PATH",
                        help="write the fit and the per-family report")
    args = parser.parse_args(argv)

    num_rows = min(scaled_rows(BASE_ROWS), EngineConfig().morsel_rows)
    cases = measure(num_rows)
    fitted = fit(cases)
    profiles = {"default": MachineProfile(), "fitted": fitted}
    families = report(cases, profiles)
    regret = {name: plan_regret(cases, p) for name, p in profiles.items()}
    print(f"calibration: {len(cases)} kernels, {num_rows} rows, "
          f"best of {REPEATS}")
    print(f"{'family':<16}{'cases':>6}{'rho default':>13}"
          f"{'rho fitted':>12}{'est/meas':>10}")
    for family, row in families.items():
        print(f"{family:<16}{row['cases']:>6}"
              f"{row['default_rank_corr']:>13.3f}"
              f"{row['fitted_rank_corr']:>12.3f}"
              f"{row['fitted_est_over_measured']:>10.2f}")
    for name, row in regret.items():
        print(f"plan regret ({name}) over {row['shapes']} shapes: "
              f"median {row['median']:.2f}x, worst {row['worst']:.2f}x")
    print("fitted MachineProfile:")
    for field in fields(MachineProfile):
        if field.name in FITTED:
            print(f"  {field.name} = {getattr(fitted, field.name):.4g}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({
                "rows": num_rows,
                "fitted": {n: getattr(fitted, n) for n in FITTED},
                "families": families,
                "plan_regret": regret,
                "cases": [
                    {
                        "family": case.family,
                        "plan": case.plan,
                        "seconds": case.seconds,
                        "default_estimate": float(
                            case.basis @ _theta(MachineProfile())
                        ),
                    }
                    for case in cases
                ],
            }, handle, indent=2)
    failing = [
        family for family, row in families.items()
        if row["default_rank_corr"] < MIN_RANK_CORRELATION
    ]
    if args.check and failing:
        print(f"FAIL: rank correlation below {MIN_RANK_CORRELATION} in "
              f"{', '.join(failing)}")
        return 1
    return 0
