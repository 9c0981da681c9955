"""The calibration driver: Eq. 2's constants fitted to measured kernels."""

import numpy as np
import pytest

from repro.bench import calibrate
from repro.config import MachineProfile


def test_fit_recovers_the_constants_that_generated_the_times():
    truth = MachineProfile(
        io_bandwidth=2e10, random_io_bandwidth=5e9,
        miss_penalty=3e-9, cpu_per_word=7e-10,
    )
    rng = np.random.default_rng(0)
    cases = [
        calibrate.Case("f", str(i), 0.0, basis)
        for i, basis in enumerate(rng.uniform(1e2, 1e6, size=(40, 4)))
    ]
    for case in cases:
        case.seconds = float(case.basis @ calibrate._theta(truth))
    fitted = calibrate.fit(cases)
    for name in calibrate.FITTED:
        assert getattr(fitted, name) == pytest.approx(getattr(truth, name))


def test_spearman_ranks_with_ties():
    assert calibrate.spearman([1, 2, 3], [10, 20, 30]) == pytest.approx(1)
    assert calibrate.spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1)
    assert calibrate.spearman([1, 1, 2], [5, 5, 9]) == pytest.approx(1)
    assert calibrate.spearman([1, 1, 1], [1, 2, 3]) == 0.0


def test_measure_covers_every_kernel_family():
    cases = calibrate.measure(num_rows=1000)
    families = {case.family for case in cases}
    assert families == {
        "late-aggregate", "late-project", "fused-aggregate",
        "fused-project", "stitch",
    }
    for case in cases:
        assert case.seconds > 0
        assert np.all(np.isfinite(case.basis)) and case.basis.sum() > 0


def test_plan_regret_measures_the_estimates_pick_per_shape():
    unit = MachineProfile(
        io_bandwidth=1.0, random_io_bandwidth=float("inf"),
        miss_penalty=0.0, cpu_per_word=0.0,
    )
    estimate = lambda seconds: np.array([seconds, 0.0, 0.0, 0.0])  # noqa: E731
    cases = [
        # Shape q1: the estimates pick the plan that ran fastest.
        calibrate.Case("late-aggregate", "columns: q1", 1.0, estimate(1)),
        calibrate.Case("fused-aggregate", "group: q1", 2.0, estimate(2)),
        # Shape q2: they pick a plan that ran 3x slower than the best.
        calibrate.Case("late-project", "columns: q2", 3.0, estimate(1)),
        calibrate.Case("fused-project", "group: q2", 1.0, estimate(2)),
        calibrate.Case("stitch", "stitch 2 columns", 1.0, estimate(9)),
    ]
    regret = calibrate.plan_regret(cases, unit)
    assert regret == {"shapes": 2, "median": 2.0, "worst": 3.0}
