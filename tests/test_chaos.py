"""The chaos acceptance gate: faults everywhere, answers identical.

Runs seeded chaos sequences through :func:`repro.testkit.run_chaos_sequence`:
every registered fault point (compile failures, online stitch aborts,
worker deaths, transient execute failures) fires on a
seeded schedule while the engine and the service keep returning
bit-identical answers, the worker pool heals, and every absorbed fault
is matched against its degradation-evidence counter — a silently
swallowed fault fails the run (docs/resilience.md, docs/testing.md).

The default tier runs a quick smoke; the ``chaos`` marker tier (its own
CI job) runs the full 20-sequence acceptance gate with cumulative
coverage of all four fault points.
"""

from __future__ import annotations

import pytest

from repro.testkit import run_chaos_sequence
from repro.testkit.faults import ALL_POINTS


@pytest.mark.oracle
def test_chaos_smoke_single_sequence():
    result = run_chaos_sequence(0, workers=3, faults_per_point=2)
    assert result.modes == ("chaos-inline", "chaos-service")
    assert result.queries_checked > 0
    assert sum(result.fired_faults.values()) > 0


@pytest.mark.oracle
@pytest.mark.chaos
def test_chaos_twenty_sequences_cover_every_fault_point():
    coverage = {point: 0 for point in ALL_POINTS}
    total_queries = 0
    for seed in range(20):
        result = run_chaos_sequence(seed, workers=3, faults_per_point=2)
        total_queries += result.queries_checked
        for point, count in result.fired_faults.items():
            coverage[point] += count
    assert total_queries > 0
    missing = [point for point, count in coverage.items() if count == 0]
    assert not missing, (
        f"fault point(s) never fired across 20 chaos sequences: {missing}"
    )
