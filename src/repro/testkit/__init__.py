"""The H2O testkit: differential oracle + deterministic fault injection.

H2O's value proposition is that continuous physical change — lazy
materialization fused with execution, background stitching, JiT
operator swaps, plan caching — is *invisible* in query answers.  This
package is the standing correctness gate for that property:

- :mod:`~repro.testkit.generate` — a seeded random workload generator:
  schemas, integer data distributions, and query ASTs (SELECT / WHERE /
  aggregates built through :mod:`repro.sql.builder`), fully determined
  by one seed;
- :mod:`~repro.testkit.oracle` — the differential oracle: every
  generated sequence runs through nine paths — the row reference, the
  interpreted Volcano evaluator, the column baseline, and the adaptive
  engine inline, interpreted, in the background behind the service
  with N workers, on morsel-parallel scan threads, under the guarded
  switching policy, and with clustering + encoded layouts — asserting
  bit-identical results and engine invariants (epoch monotonicity,
  snapshot row-count consistency, schema coverage, operator-cache
  key/source agreement) after every step;
- :mod:`~repro.testkit.faults` — the deterministic fault-injection
  driver: a seeded schedule of compile failures, mid-stitch aborts,
  worker deaths and forced timeouts, installed into the production
  fault points of :mod:`repro.util.faultpoints`, with the oracle
  asserting that every injected fault surfaces as the documented
  :mod:`repro.errors` exception or a counted clean fallback — never a
  wrong answer or a torn snapshot;
- :mod:`~repro.testkit.shrink` — shrinking of failing cases to a
  minimal schema + query repro (printed in ≤10 lines with the seed);
- the **scenario replay oracle** (also in
  :mod:`~repro.testkit.oracle`) — the adversarial scenario pack of
  :mod:`repro.workloads.scenarios` replayed under both layout-switching
  policies (greedy-paper and regret-bounded guarded) against the row
  reference: bit-identical answers, engine invariants after every
  query, and the guarded policy's regret ledger balanced at the end;
- :mod:`~repro.testkit.runner` — the CLI:
  ``python -m repro.testkit run --seqs 50 --seed 0`` /
  ``chaos`` / ``restart`` / ``scenarios`` / ``repro``.

See ``docs/testing.md`` for the architecture, how to reproduce a
failure from a printed seed, and how to add a new injection point.
"""

from .generate import CaseSpec, random_case, random_query
from .faults import FaultInjector, FiredFault, random_schedule
from .oracle import (
    DifferentialOracle,
    OracleFailure,
    ScenarioOutcome,
    SequenceResult,
    run_all_scenarios,
    run_chaos_sequence,
    run_sequence,
    scenario_case,
)
from .shrink import format_repro, shrink_case

__all__ = [
    "CaseSpec",
    "DifferentialOracle",
    "FaultInjector",
    "FiredFault",
    "OracleFailure",
    "ScenarioOutcome",
    "SequenceResult",
    "format_repro",
    "random_case",
    "random_query",
    "random_schedule",
    "run_all_scenarios",
    "run_chaos_sequence",
    "run_sequence",
    "scenario_case",
    "shrink_case",
]
