"""The H2O testkit: differential oracle + deterministic fault injection.

H2O's value proposition is that continuous physical change — lazy
materialization fused with execution, online stitching, JiT
operator swaps, plan caching — is *invisible* in query answers.  This
package is the standing correctness gate for that property:

- :mod:`~repro.testkit.generate` — a seeded random workload generator:
  schemas, integer data distributions, and query ASTs (SELECT / WHERE /
  aggregates built through :mod:`repro.sql.builder`), fully determined
  by one seed;
- :mod:`~repro.testkit.oracle` — the differential oracle: one replay
  loop and one table of paths (``PATHS``).  Every generated sequence
  runs through ten paths:

  ====================  ============================================
  row reference         static row store, interpreted: ground truth
  volcano               generic interpreted evaluator
  column                late-materialization column store
  adaptive-inline       H2O with a small adaptation window
  adaptive-interpreted  … codegen off
  adaptive-service      … behind the concurrent service, N workers
  adaptive-parallel     … 4 scan threads vs a 1-thread twin
  adaptive-guarded      … hedged switching policy
  adaptive-lean         … plan cache, operator cache, zone maps and
                        dynamic window off
  adaptive-eager        … eager (offline) materialization
  ====================  ============================================

  asserting bit-identical results and engine invariants (epoch
  monotonicity, snapshot row-count consistency, schema coverage,
  operator-cache key/source agreement) after every step, plus each
  row's end checks (exact zone maps, the policy ledger);
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
  :mod:`repro.workloads.scenarios` replayed at hedging factor 0 (the
  paper's greedy gate) and at a hedged factor against the row
  reference: bit-identical answers, engine invariants after every
  query, and the regret ledger balanced at the end;
- :mod:`~repro.testkit.runner` — the CLI:
  ``python -m repro.testkit run --seqs 50 --seed 0`` /
  ``chaos`` / ``restart`` / ``scenarios`` / ``repro``.

See ``docs/testing.md`` for the architecture, how to reproduce a
failure from a printed seed, and how to add a new injection point.
"""

from ..config import MachineProfile
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

#: Test-only cost profile for tests of the adaptation machinery (the
#: advisor search, the switching policy, stitching, budgets): strided
#: access is priced like contiguous access, as on the paper's C++
#: substrate, where a tuple-at-a-time scan over a group reads each cache
#: line once for all of its attributes.  Under it a tailored group wins
#: filtered aggregations, so those tests get layouts to build.  The
#: shipped default prices NumPy's strided loops, under which a group
#: wins only projections and unfiltered dense aggregations.
PAPER_SUBSTRATE = MachineProfile(
    random_io_bandwidth=MachineProfile().io_bandwidth
    * MachineProfile().words_per_line
)

__all__ = [
    "PAPER_SUBSTRATE",
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
