"""Tests for the testkit itself: generator, injector, oracle, shrinker.

Three layers:

1. **unit** — generator determinism, injector bookkeeping, shrinker
   minimality on synthetic predicates;
2. **per-fault** — each injection point fired in isolation surfaces as
   exactly its documented exception/counter (the contract table in
   ``repro/testkit/faults.py``);
3. **mutation** — patching any fault handler to swallow its fault
   silently must turn the oracle red (the acceptance criterion from
   docs/testing.md).  Three representative mutations are automated
   here; the manual procedure for the rest is documented.  Three more
   break what the end checks and the parallel twin guard: zone maps
   after appends, pruning independent of threads, and the policy
   ledger.
"""

from __future__ import annotations

import pytest

from repro.config import EngineConfig
from repro.core.engine import H2OEngine
from repro.errors import (
    QueryTimeoutError,
    ServiceError,
)
from repro.service.service import H2OService
from repro.service.stats import ServiceStats
from repro.storage.generator import generate_table
from repro.testkit import (
    CaseSpec,
    DifferentialOracle,
    FaultInjector,
    OracleFailure,
    format_repro,
    random_case,
    run_sequence,
    scenario_case,
    shrink_case,
)
from repro.testkit.oracle import ORACLE_CONFIG, results_identical
from repro.testkit.runner import main as run_testkit_cli
from repro.util import faultpoints

pytestmark = pytest.mark.oracle


def small_table(name="t", rng=11):
    return generate_table(
        name, num_attrs=6, num_rows=512, rng=rng, initial_layout="column"
    )


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def test_random_case_is_deterministic():
    assert random_case(42) == random_case(42)
    assert random_case(42) != random_case(43)


def test_generated_queries_roundtrip_through_parser():
    spec = random_case(7)
    for sql, query in zip(spec.queries, spec.parsed()):
        assert query.to_sql() == sql


def test_case_tables_are_reproducible_and_independent():
    spec = random_case(3)
    a, b = spec.build_table(), spec.build_table()
    assert a is not b
    for name in a.schema.names:
        assert (a.column(name) == b.column(name)).all()


# ---------------------------------------------------------------------------
# Fault injector
# ---------------------------------------------------------------------------


def test_injector_rejects_unknown_points():
    with pytest.raises(ValueError):
        FaultInjector({"no.such.point": frozenset({0})})


def test_injector_counts_and_fires_at_scheduled_occurrences():
    injector = FaultInjector({"codegen.compile": frozenset({1})})
    with injector:
        faultpoints.fault_point("codegen.compile")  # occurrence 0: no fire
        with pytest.raises(Exception):
            faultpoints.fault_point("codegen.compile")  # occurrence 1
        faultpoints.fault_point("codegen.compile")  # occurrence 2: no fire
    assert injector.occurrences("codegen.compile") == 3
    assert injector.fired_count("codegen.compile") == 1
    # Uninstalled: the point is a no-op again.
    faultpoints.fault_point("codegen.compile")
    assert injector.occurrences("codegen.compile") == 3


def test_injectors_cannot_overlap():
    a = FaultInjector({})
    b = FaultInjector({})
    with a:
        with pytest.raises(RuntimeError):
            b.__enter__()


# ---------------------------------------------------------------------------
# Per-fault contracts (the table in repro/testkit/faults.py)
# ---------------------------------------------------------------------------


def test_compile_fault_falls_back_to_interpreted_identically():
    sql = "SELECT sum(a1 + a2) FROM t WHERE a3 > 0"
    clean = (
        H2OEngine(small_table(), EngineConfig(use_codegen=False))
        .execute(sql)
        .result
    )
    # Fresh engine: the first execution must actually compile (a cached
    # kernel would bypass the injection point).
    engine = H2OEngine(small_table(), EngineConfig(**ORACLE_CONFIG))
    with FaultInjector({"codegen.compile": frozenset({0})}) as inj:
        faulted = engine.execute(sql).result
    assert inj.fired_count("codegen.compile") == 1
    assert engine.executor.codegen_fallbacks == 1
    assert faulted.rows() == clean.rows()


def test_online_stitch_abort_still_answers_and_is_counted():
    table = small_table()
    engine = H2OEngine(table, EngineConfig(**ORACLE_CONFIG))
    sql = "SELECT sum(a1 + a2) FROM t WHERE a3 > 0"
    reference = H2OEngine(
        small_table(), EngineConfig(use_codegen=False)
    ).execute(sql).result
    # Schedule every early online-stitch occurrence to abort; the hot
    # shape below triggers an online reorganization within the window.
    with FaultInjector({"reorg.online": frozenset(range(8))}) as inj:
        for _ in range(12):
            got = engine.execute(sql).result
            assert got.rows() == reference.rows()
    assert inj.fired_count("reorg.online") >= 1
    assert engine.reorg_aborts == inj.fired_count("reorg.online")


def test_worker_death_is_absorbed_and_pool_heals():
    """PR 4 semantics: a death requeues the ticket — the waiter still
    gets the answer — and the watchdog restores pool strength."""
    import time as _time

    service = H2OService(config=EngineConfig(), num_workers=1, max_pending=8)
    service.register(small_table("r", rng=2))
    try:
        with FaultInjector({"service.worker": frozenset({0})}) as inj:
            report = service.execute("SELECT sum(a1) FROM r", timeout=30.0)
            assert report.result.num_rows == 1
        assert inj.fired_count("service.worker") == 1
        snap = service.stats.snapshot()
        assert snap["worker_deaths"] == 1
        assert snap["requeued_deaths"] == 1
        assert snap["failed"] == 0
        deadline = _time.monotonic() + 5.0
        while service.alive_workers() < 1 and _time.monotonic() < deadline:
            _time.sleep(0.01)
        assert service.alive_workers() == 1
    finally:
        service.close()


def test_worker_death_surfaces_once_attempt_budget_is_exhausted():
    """With a budget of one attempt the documented ServiceError still
    reaches the waiter — the retry ladder is bounded, not infinite."""
    service = H2OService(
        config=EngineConfig(),
        num_workers=1,
        max_pending=8,
        max_query_attempts=1,
    )
    service.register(small_table("r", rng=2))
    try:
        with FaultInjector({"service.worker": frozenset({0})}) as inj:
            with pytest.raises(ServiceError, match="worker died"):
                service.execute("SELECT sum(a1) FROM r", timeout=30.0)
            # The watchdog-respawned worker serves the next query.
            report = service.execute("SELECT count(*) FROM r", timeout=30.0)
            assert report.result.scalars() == (512,)
        assert inj.fired_count("service.worker") == 1
        assert service.stats.snapshot()["worker_deaths"] == 1
    finally:
        service.close()


def test_transient_execute_failure_is_retried_and_absorbed():
    """An injected (retryable) execution failure is requeued within the
    attempt budget; the waiter never sees it."""
    service = H2OService(config=EngineConfig(), num_workers=1, max_pending=8)
    service.register(small_table("r", rng=2))
    try:
        with FaultInjector({"service.execute": frozenset({0})}) as inj:
            report = service.execute("SELECT sum(a1) FROM r", timeout=30.0)
            assert report.result.num_rows == 1
        assert inj.fired_count("service.execute") == 1
        snap = service.stats.snapshot()
        assert snap["retried_failures"] == 1
        assert snap["failed"] == 0
    finally:
        service.close()


def test_transient_failure_exhausting_budget_surfaces_to_waiter():
    """Every attempt failing transiently still surfaces the error once
    the budget runs out."""
    service = H2OService(
        config=EngineConfig(),
        num_workers=1,
        max_pending=8,
        max_query_attempts=2,
    )
    service.register(small_table("r", rng=2))
    try:
        with FaultInjector({"service.execute": frozenset({0, 1})}) as inj:
            with pytest.raises(QueryTimeoutError):
                service.execute("SELECT sum(a1) FROM r", timeout=30.0)
        assert inj.fired_count("service.execute") == 2
        snap = service.stats.snapshot()
        assert snap["retried_failures"] == 1
        assert snap["failed"] == 1
    finally:
        service.close()


# ---------------------------------------------------------------------------
# The oracle end to end
# ---------------------------------------------------------------------------


def test_oracle_smoke_three_sequences():
    for seed in (0, 1, 2):
        result = run_sequence(seed)
        assert result.queries_checked > 0


def test_oracle_detects_a_wrong_answer():
    """A query the reference answers differently must go red."""
    spec = random_case(0)
    oracle = DifferentialOracle(with_faults=False)

    class LyingOracle(DifferentialOracle):
        def reference_results(self, case):
            results = super().reference_results(case)
            results[0].data[...] = results[0].data + 1  # corrupt truth
            return results

    with pytest.raises(OracleFailure, match="diverged"):
        LyingOracle(with_faults=False).run_case(spec)
    oracle.run_case(spec)  # sanity: the honest oracle stays green


def test_mutation_broken_pruning_blames_the_engine_not_the_reference(
    monkeypatch,
):
    """The ground truth must not prune with the zone maps under test: a
    zone-map test that wrongly drops morsel 0 leaves the reference
    answers untouched, and the oracle still catches the engines that
    consulted it."""
    from repro.storage.zonemap import ZoneBounds

    spec = random_case(0)
    oracle = DifferentialOracle(with_faults=False)
    honest = oracle.reference_results(spec)
    real = ZoneBounds.keep

    def drops_morsel_zero(bounds, literals):
        keep = real(bounds, literals)
        if keep is not None:
            keep[0] = False
        return keep

    monkeypatch.setattr(ZoneBounds, "keep", drops_morsel_zero)
    mutated = oracle.reference_results(spec)
    assert len(mutated) == len(honest)
    for got, want in zip(mutated, honest):
        assert results_identical(got, want)
    with pytest.raises(OracleFailure, match="diverged"):
        oracle.run_case(spec)


# ---------------------------------------------------------------------------
# Mutation checks: swallowing any fault silently turns the oracle red
# ---------------------------------------------------------------------------


def test_mutation_erased_codegen_fallback_counter_fails_oracle(monkeypatch):
    """Seed 0 fires compile faults in the inline pass; erasing the
    fallback evidence must fail the evidence audit."""
    from repro.execution.executor import Executor

    orig = Executor.run_plan

    def swallowing(self, info, plan, **kwargs):
        before = self.codegen_fallbacks
        outcome = orig(self, info, plan, **kwargs)
        self.codegen_fallbacks = before  # the mutation: evidence erased
        return outcome

    monkeypatch.setattr(Executor, "run_plan", swallowing)
    with pytest.raises(OracleFailure, match="swallowed silently"):
        run_sequence(0)


def test_mutation_uncounted_worker_death_fails_oracle(monkeypatch):
    """Seed 0 kills a worker in the service pass; a death the stats
    never count must fail the evidence audit."""
    monkeypatch.setattr(
        ServiceStats, "note_worker_death", lambda self: None
    )
    with pytest.raises(OracleFailure, match="worker_deaths"):
        run_sequence(0)


def test_mutation_uncounted_online_abort_fails_oracle(monkeypatch):
    """Seed 13 aborts an online stitch in the inline pass; erasing the
    engine's abort counter must fail the evidence audit."""
    orig = H2OEngine.execute

    def swallowing(self, query, **kwargs):
        report = orig(self, query, **kwargs)
        self.reorg_aborts = 0  # the mutation: evidence erased
        return report

    monkeypatch.setattr(H2OEngine, "execute", swallowing)
    with pytest.raises(OracleFailure, match="swallowed silently"):
        run_sequence(13)


# ---------------------------------------------------------------------------
# Mutation checks: breaking what the end checks and the twin guard
# ---------------------------------------------------------------------------


def test_mutation_stale_tail_zone_map_fails_scenario_replay(monkeypatch):
    """Appends extend zone maps incrementally; an ``extend_zone_maps``
    that drops the rows appended into the old tail morsel must fail the
    trickle-append replay's exactness check."""
    from repro.storage import zonemap

    real = zonemap.extend_zone_maps

    def drops_tail_appends(old, layout):
        grown = real(old, layout)
        kept = -(-old.num_rows // old.morsel_rows)  # incl. the old tail
        for attr in old.attrs:
            old_stats, new_stats = old.stats_for(attr), grown.stats_for(attr)
            for stale, fresh in zip(old_stats, new_stats):
                fresh[:kept] = stale[:kept]
        return grown

    monkeypatch.setattr(zonemap, "extend_zone_maps", drops_tail_appends)
    with pytest.raises(OracleFailure, match="not exact"):
        scenario_case("trickle-append")


def test_mutation_thread_dependent_pruning_fails_parallel_twin(monkeypatch):
    """Skipping zone-map pruning whenever a scan may fan out keeps every
    answer right, but ``adaptive-parallel`` and its one-thread twin then
    prune different morsels."""
    from dataclasses import replace

    from repro.execution import executor

    real = executor.plan_morsels

    def prunes_only_serial(info, layouts, num_rows, config, pool, bounds):
        if config.max_scan_threads != 1:
            config = replace(config, zone_maps=False)
        return real(info, layouts, num_rows, config, pool, bounds)

    monkeypatch.setattr(executor, "plan_morsels", prunes_only_serial)
    with pytest.raises(
        OracleFailure, match=r"\[adaptive-parallel\].*pruning diverged"
    ):
        DifferentialOracle(with_faults=False).run_case(random_case(0))


def test_mutation_unledgered_build_fails_guarded_row(monkeypatch):
    """Seed 0 builds a layout on the hedged path; a policy that forgets
    to ledger it must fail the policy end check."""
    from repro.core.adaptation_policy import AdaptationPolicy

    monkeypatch.setattr(
        AdaptationPolicy,
        "note_materialized",
        lambda self, candidate, query_index: None,
    )
    with pytest.raises(
        OracleFailure,
        match=r"\[adaptive-guarded\].*unledgered reorganization",
    ):
        DifferentialOracle(with_faults=False).run_case(random_case(0))


# ---------------------------------------------------------------------------
# Shrinking + repro formatting
# ---------------------------------------------------------------------------


def test_shrinker_minimizes_queries_and_rows():
    spec = random_case(9)
    assert len(spec.queries) > 1

    def fails(candidate: CaseSpec) -> bool:
        return any("sum" in sql for sql in candidate.queries)

    small = shrink_case(spec, fails)
    assert len(small.queries) == 1
    assert "sum" in small.queries[0]
    assert small.num_rows == 1
    assert fails(small)


def test_shrinker_returns_original_when_not_reproducible():
    spec = random_case(9)
    assert shrink_case(spec, lambda _c: False) == spec


def test_format_repro_is_at_most_ten_lines():
    for seed in (0, 1, 9):
        text = format_repro(random_case(seed))
        assert len(text.splitlines()) <= 10
        assert f"--seed {seed}" in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_run_green(capsys):
    assert run_testkit_cli(["run", "--seqs", "2", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "2 sequences" in out


def test_cli_repro_single_case(capsys):
    assert (
        run_testkit_cli(
            [
                "repro",
                "--seed",
                "1",
                "--attrs",
                "4",
                "--rows",
                "64",
                "SELECT sum(a1) FROM t",
            ]
        )
        == 0
    )
    assert "ok:" in capsys.readouterr().out


def test_attribute_free_query_covering_layouts():
    """Regression: ``SELECT count(*)`` needs a row count from a layout."""
    table = small_table()
    cover = table.covering_layouts(())
    assert len(cover) == 1
    engine = H2OEngine(table, EngineConfig())
    assert engine.execute("SELECT count(*) FROM t").result.scalars() == (
        512,
    )


# ---------------------------------------------------------------------------
# Eager builds go through the switching policy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_hedged_eager_builds_keep_the_policy_invariants(seed):
    """Offline (eager) builds pass the hedged gate and are ledgered, so
    the regret invariant and the switch/build count hold as they do for
    online stitches."""
    from repro.config import EngineConfig
    from repro.core.engine import H2OEngine
    from repro.testkit.oracle import check_policy_invariants

    spec = random_case(seed)
    engine = H2OEngine(
        spec.build_table(),
        EngineConfig(materialization="eager", hedging_factor=2.0),
    )
    for query in spec.parsed():
        engine.execute(query)
    check_policy_invariants(engine, f"eager-hedged seed {seed}")
