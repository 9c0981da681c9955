"""Unit + acceptance tests for the self-healing runtime (docs/resilience.md).

Covers every rung of the degradation ladder in isolation with fake
clocks (no sleeps in the state-machine tests) and then end to end:

- the exponential-backoff quarantine list;
- the watchdog's token-bucket respawn budget;
- the engine acceptance test: with a permanently failing compiler a
  query shape's compile attempts follow the 4/8/16-query backoff
  (asserted via the fault-point occurrence counter) while its queries
  keep answering a codegen-off engine's answers, and one compiled run
  clears the quarantine once the compiler heals;
- error-taxonomy retryability, per-waiter exception clones, deadline
  propagation, the overload ladder, worker respawn, degraded-query
  accounting, and the service health report.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro import H2OService, generate_table
from repro.config import EngineConfig
from repro.core.engine import H2OEngine
from repro.core.system import H2OSystem
from repro.errors import (
    CodegenError,
    ExecutionError,
    H2OError,
    QueryTimeoutError,
    ReorganizationError,
    ServiceError,
    ServiceOverloadedError,
    ServiceClosedError,
)
from repro.resilience import HealthReport, QuarantineList, TokenBucket
from repro.testkit.faults import FaultInjector


@pytest.fixture()
def table():
    return generate_table("r", num_attrs=8, num_rows=2000, rng=7)


def expected_sum(table, value_attr, where_attr):
    values = np.asarray(table.column(value_attr), dtype=np.float64)
    mask = np.asarray(table.column(where_attr)) > 0
    return float(values[mask].sum())


# ---------------------------------------------------------------------------
# Quarantine list (query-counter clock)
# ---------------------------------------------------------------------------


class TestQuarantine:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuarantineList(base=0.0)
        with pytest.raises(ValueError):
            QuarantineList(base=8.0, cap=4.0)

    def test_exponential_backoff_caps_and_resets(self):
        now = [0.0]
        quarantine = QuarantineList(base=4.0, cap=16.0, clock=lambda: now[0])
        key = frozenset({"a1", "a2"})
        assert quarantine.note_failure(key) == 4.0
        assert quarantine.note_failure(key) == 8.0
        assert quarantine.note_failure(key) == 16.0
        assert quarantine.note_failure(key) == 16.0  # capped
        assert quarantine.events == 4
        assert quarantine.blocked(key)
        assert not quarantine.blocked(frozenset({"a3"}))  # keys independent
        now[0] = 15.0
        assert quarantine.blocked(key)
        now[0] = 16.0
        assert not quarantine.blocked(key)
        # One success clears the history entirely: backoff restarts.
        quarantine.note_failure(key)
        quarantine.note_success(key)
        assert quarantine.note_failure(key) == 4.0

    def test_keys_failure_free_past_their_backoff_are_forgotten(self):
        now = [0.0]
        quarantine = QuarantineList(base=4.0, cap=16.0, clock=lambda: now[0])
        for key in range(300):
            quarantine.note_failure(key)
        now[0] = 10.0
        # Inside cap past the backoff: kept, so a repeat backs off longer.
        assert quarantine.note_failure(0) == 8.0
        assert quarantine.snapshot()["tracked"] == 300
        now[0] = 4.0 + 16.0
        assert quarantine.snapshot()["tracked"] == 1  # key 0 is younger
        now[0] = 18.0 + 16.0
        assert not quarantine.blocked("other")
        assert quarantine.snapshot()["tracked"] == 0
        assert quarantine.note_failure(0) == 4.0  # a fresh history

    def test_snapshot_renders_frozensets_stably(self):
        quarantine = QuarantineList(base=4.0, clock=lambda: 0.0)
        quarantine.note_failure(frozenset({"b", "a"}))
        snap = quarantine.snapshot()
        assert snap["blocked"] == ("a,b",)
        assert snap["tracked"] == 1


# ---------------------------------------------------------------------------
# Token bucket (the respawn budget)
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(burst=0)
        with pytest.raises(ValueError):
            TokenBucket(burst=1, window=0.0)

    def test_burst_then_continuous_refill(self):
        now = [0.0]
        bucket = TokenBucket(burst=2, window=1.0, clock=lambda: now[0])
        assert bucket.try_take() and bucket.try_take()
        assert not bucket.try_take()  # dry: the action is deferred
        now[0] = 0.5  # refills burst/window * 0.5 = 1 token
        assert bucket.try_take()
        assert not bucket.try_take()
        assert bucket.granted == 3 and bucket.deferred == 2
        now[0] = 100.0  # refill clamps at the burst size
        assert bucket.available() == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------


class TestRetryability:
    def test_transient_errors_are_retryable(self):
        assert ReorganizationError("x").is_retryable
        assert QueryTimeoutError("x").is_retryable
        assert ServiceOverloadedError("x").is_retryable

    def test_permanent_errors_are_not(self):
        for exc in (
            H2OError("x"),
            CodegenError("x"),
            ExecutionError("x"),
            ServiceError("x"),
            ServiceClosedError("x"),
        ):
            assert not exc.is_retryable


# ---------------------------------------------------------------------------
# Engine acceptance: failed compiles back off in queries, answers stay right
# ---------------------------------------------------------------------------


class TestCodegenQuarantine:
    SQL = "SELECT sum(a1) FROM r WHERE a2 > 0"

    def test_compile_attempts_back_off_in_queries_and_clear(self, table):
        engine = H2OEngine(table, EngineConfig(use_codegen=True))
        reference = H2OEngine(table, EngineConfig(use_codegen=False))
        want = reference.execute(self.SQL).result.scalars()

        injector = FaultInjector({"codegen.compile": frozenset(range(1000))})
        attempted = []
        with injector:
            for index in range(30):
                before = injector.occurrences("codegen.compile")
                report = engine.execute(self.SQL)
                assert report.result.scalars() == want
                assert report.degraded
                if injector.occurrences("codegen.compile") > before:
                    attempted.append(index)
                    assert report.codegen_fallback
                else:
                    assert report.compile_blocked
        # A failed compile blocks its shape for 4, then 8, then 16
        # queries: only these four queries tried the compiler.
        assert attempted == [0, 4, 12, 28]
        assert engine.executor.codegen_fallbacks == 4
        assert engine.compiles_blocked == 26
        assert engine.compile_quarantine.blocked_keys()
        # Other shapes still compile.
        assert engine.execute("SELECT sum(a3) FROM r").used_codegen

        # The compiler heals.  The shape stays interpreted until its
        # 32-query span ends; then one compiled run clears the history.
        for _ in range(40):
            report = engine.execute(self.SQL)
            assert report.result.scalars() == want
            if report.used_codegen:
                break
        assert report.used_codegen and not report.degraded
        assert engine.compile_quarantine.blocked_keys() == []

    def test_shapes_that_failed_once_are_forgotten(self):
        """300 shapes fail to compile once each and never recur; after
        1 000 other queries the quarantine tracks none of them."""
        table = generate_table("r", num_attrs=12, num_rows=500, rng=7)
        engine = H2OEngine(table, EngineConfig(use_codegen=True))
        names = table.schema.names
        shapes = [
            f"SELECT sum({a}), max({b}) FROM r WHERE {c} > 0"
            for a in names
            for b in names
            for c in names[:3]
        ][:300]
        assert len(shapes) == 300
        with FaultInjector({"codegen.compile": frozenset(range(300))}):
            for sql in shapes:
                assert engine.execute(sql).codegen_fallback
        assert engine.compile_quarantine.events == 300
        for index in range(1000):
            engine.execute(f"SELECT sum(a1) FROM r WHERE a2 > {index}")
        assert engine.compile_quarantine.snapshot()["tracked"] == 0

    def test_degraded_plans_are_never_cached(self, table):
        engine = H2OEngine(table, EngineConfig(use_codegen=True))
        with FaultInjector({"codegen.compile": frozenset(range(1000))}):
            engine.execute(self.SQL)
            engine.execute(self.SQL)
        # The compiler heals, but the shape is still quarantined.  Were
        # a degraded plan cached, this repeat would be a plan-cache hit
        # and never come back to the compiler.
        report = engine.execute(self.SQL)
        assert report.compile_blocked and not report.plan_cache_hit
        assert not any(r.plan_cache_hit for r in engine.reports)
        assert engine.executor.codegen_fallbacks == 1


# ---------------------------------------------------------------------------
# Deadline propagation
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_expired_deadline_aborts_at_stage_boundary(self, table):
        system = H2OSystem(config=EngineConfig())
        system.register(table)
        engine = system.engine_for("r")
        with pytest.raises(QueryTimeoutError, match="deadline passed"):
            system.execute(
                "SELECT sum(a1) FROM r", deadline=time.monotonic() - 1.0
            )
        assert engine.deadline_aborts == 1

    def test_far_deadline_is_harmless(self, table):
        system = H2OSystem(config=EngineConfig())
        system.register(table)
        report = system.execute(
            "SELECT sum(a1) FROM r", deadline=time.monotonic() + 60.0
        )
        assert report.result.scalars()
        assert system.engine_for("r").deadline_aborts == 0


# ---------------------------------------------------------------------------
# Service: waiter isolation, overload ladder, respawn, health
# ---------------------------------------------------------------------------


def make_service(table, **kwargs):
    kwargs.setdefault("config", EngineConfig())
    service = H2OService(**kwargs)
    service.register(table)
    return service


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestWaiterIsolation:
    def test_each_waiter_gets_a_fresh_exception_clone(self, table):
        service = make_service(
            table, num_workers=1, max_query_attempts=1
        )
        try:
            with FaultInjector({"service.worker": frozenset({0})}):
                future = service.submit("SELECT sum(a1) FROM r")
                with pytest.raises(ServiceError, match="worker died") as one:
                    future.result(timeout=30.0)
            with pytest.raises(ServiceError, match="worker died") as two:
                future.result(timeout=30.0)
            # Distinct instances (no shared mutating __traceback__) ...
            assert one.value is not two.value
            assert type(one.value) is type(two.value)
            # ... chained to the SAME stored original, which still
            # carries the worker-side cause.
            assert one.value.__cause__ is two.value.__cause__
            assert isinstance(one.value.__cause__.__cause__, RuntimeError)
        finally:
            service.close()


class TestWorkerRespawn:
    def test_watchdog_restores_full_strength_after_deaths(self, table):
        service = make_service(table, num_workers=3)
        try:
            with FaultInjector({"service.worker": frozenset({0, 1})}):
                report = service.execute(
                    "SELECT sum(a1) FROM r", timeout=60.0
                )
            assert report.result.scalars()
            snap = service.stats.snapshot()
            assert snap["worker_deaths"] == 2
            assert snap["requeued_deaths"] == 2
            assert snap["failed"] == 0
            assert wait_until(lambda: service.alive_workers() == 3)
            assert service.stats.snapshot()["worker_respawns"] >= 2
            # The pool still serves queries after healing.
            report = service.execute("SELECT sum(a2) FROM r", timeout=60.0)
            assert report.result.scalars()
        finally:
            service.close()


class TestDegradedAccounting:
    def test_codegen_fallback_counts_as_degraded_not_failed(self, table):
        service = make_service(
            table, config=EngineConfig(use_codegen=True), num_workers=1
        )
        try:
            with FaultInjector({"codegen.compile": frozenset({0})}):
                report = service.execute(
                    "SELECT sum(a1) FROM r WHERE a2 > 0", timeout=60.0
                )
            assert report.result.scalars()[0] == pytest.approx(
                expected_sum(table, "a1", "a2")
            )
            assert report.codegen_fallback and report.degraded
            snap = service.stats.snapshot()
            assert snap["degraded"] == 1
            assert snap["failed"] == 0 and snap["completed"] == 1
        finally:
            service.close()


class TestHealthReport:
    SQL = "SELECT sum(a1) FROM r WHERE a2 > 0"

    def test_healthy_then_degraded_then_closed(self, table):
        service = make_service(
            table, config=EngineConfig(use_codegen=True), num_workers=2
        )
        try:
            service.execute("SELECT sum(a1) FROM r", timeout=60.0)
            health = service.health()
            assert isinstance(health, HealthReport)
            assert health.status == "healthy"
            assert health.workers_alive == 2

            # A failed compile quarantines the shape: the service
            # reports degraded while still answering every query.
            with FaultInjector(
                {"codegen.compile": frozenset(range(1000))}
            ):
                for _ in range(2):
                    report = service.execute(self.SQL, timeout=60.0)
                    assert report.result.scalars()
            health = service.health()
            assert health.status == "degraded"
            assert health.codegen_fallbacks == 1
            assert health.compiles_blocked == 1
            assert health.degraded_queries == 2

            # The fault clears: once the span ends the shape compiles
            # again and the service is healthy.
            for _ in range(8):
                report = service.execute(self.SQL, timeout=60.0)
                if report.used_codegen:
                    break
            assert report.used_codegen
            assert service.health().status == "healthy"
        finally:
            service.close()
        assert service.health().status == "closed"

    def test_counters_cover_every_ladder_rung(self, table):
        with make_service(table, num_workers=1) as service:
            counters = dataclasses.asdict(service.health())
        for key in (
            "worker_deaths",
            "worker_respawns",
            "requeued_deaths",
            "retried_failures",
            "degraded_queries",
            "codegen_fallbacks",
            "compiles_blocked",
            "reorg_aborts",
            "deadline_aborts",
        ):
            assert key in counters
