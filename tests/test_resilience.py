"""Unit + acceptance tests for the self-healing runtime (docs/resilience.md).

Covers every rung of the degradation ladder in isolation with fake
clocks (no sleeps in the state-machine tests) and then end to end:

- the per-signature codegen circuit breaker FSM;
- the exponential-backoff quarantine list;
- the watchdog's token-bucket respawn budget;
- the engine acceptance test: with a permanently failing compiler the
  breaker *stops compile attempts* (asserted via the fault-point
  occurrence counter) while queries keep answering correctly through
  the interpreted path, and a half-open probe re-closes the breaker
  once the compiler heals;
- error-taxonomy retryability, per-waiter exception clones, deadline
  propagation, the overload ladder, worker respawn, degraded-query
  accounting, and the service health report.
"""

from __future__ import annotations

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
from repro.resilience import (
    CircuitBreaker,
    HealthReport,
    QuarantineList,
    TokenBucket,
)
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.testkit.faults import FaultInjector


@pytest.fixture()
def table():
    return generate_table("r", num_attrs=8, num_rows=2000, rng=7)


def expected_sum(table, value_attr, where_attr):
    values = np.asarray(table.column(value_attr), dtype=np.float64)
    mask = np.asarray(table.column(where_attr)) > 0
    return float(values[mask].sum())


# ---------------------------------------------------------------------------
# Circuit breaker state machine (fake clock, zero sleeps)
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, threshold=2, cooldown=10.0):
        now = [0.0]
        breaker = CircuitBreaker(
            threshold=threshold, cooldown=cooldown, clock=lambda: now[0]
        )
        return breaker, now

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown=0.0)

    def test_opens_after_consecutive_failures_only(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure("sig")
        breaker.record_success("sig")  # resets the consecutive count
        breaker.record_failure("sig")
        assert breaker.state("sig") == CLOSED
        breaker.record_failure("sig")
        assert breaker.state("sig") == OPEN
        assert breaker.opens == 1

    def test_open_short_circuits_until_cooldown(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure("sig")
        assert not breaker.allow("sig")
        assert not breaker.allow("sig")
        assert breaker.short_circuits == 2
        now[0] = 9.999
        assert not breaker.allow("sig")
        now[0] = 10.0
        assert breaker.allow("sig")  # the half-open probe
        assert breaker.state("sig") == HALF_OPEN
        assert breaker.probes == 1

    def test_single_probe_failed_probe_reopens(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure("sig")
        now[0] = 10.0
        assert breaker.allow("sig")
        # Only one probe at a time: a second caller is short-circuited.
        assert not breaker.allow("sig")
        breaker.record_failure("sig")  # the probe failed
        assert breaker.state("sig") == OPEN
        assert breaker.opens == 2
        now[0] = 15.0
        assert not breaker.allow("sig")  # a fresh full cooldown applies
        now[0] = 20.0
        assert breaker.allow("sig")
        breaker.record_success("sig")
        assert breaker.state("sig") == CLOSED
        assert breaker.closes == 1
        assert breaker.open_keys() == []

    def test_lost_probe_expires_instead_of_wedging(self):
        breaker, now = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure("sig")
        now[0] = 10.0
        assert breaker.allow("sig")  # probe granted ... and never reports
        now[0] = 19.0
        assert not breaker.allow("sig")
        now[0] = 20.0
        assert breaker.allow("sig")  # probe slot expired: a fresh probe
        assert breaker.probes == 2

    def test_keys_are_independent(self):
        breaker, _ = self.make(threshold=1)
        breaker.record_failure("a")
        assert not breaker.allow("a")
        assert breaker.allow("b")
        snap = breaker.snapshot()
        assert snap["tracked"] == 1 and snap["open"] == ("a",)


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
        now[0] = 15.0
        assert quarantine.blocked(key)
        now[0] = 16.0
        assert not quarantine.blocked(key)
        # One success clears the history entirely: backoff restarts.
        quarantine.note_failure(key)
        quarantine.note_success(key)
        assert quarantine.note_failure(key) == 4.0

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
# Engine acceptance: the breaker stops compile attempts, answers stay right
# ---------------------------------------------------------------------------


class TestEngineBreaker:
    SQL = "SELECT sum(a1) FROM r WHERE a2 > 0"

    def test_breaker_stops_compile_attempts_and_probe_recloses(self, table):
        now = [0.0]
        engine = H2OEngine(
            table, EngineConfig(use_codegen=True), clock=lambda: now[0]
        )
        threshold = engine.breaker.threshold
        cooldown = engine.breaker.cooldown
        want = expected_sum(table, "a1", "a2")

        injector = FaultInjector({"codegen.compile": frozenset(range(1000))})
        with injector:
            # Every compile fails; the first `threshold` queries fall
            # back per-query, then the breaker opens.
            for index in range(threshold + 4):
                report = engine.execute(self.SQL)
                assert report.result.scalars()[0] == pytest.approx(want)
                assert report.degraded
                if index < threshold:
                    assert report.codegen_fallback
                else:
                    assert report.breaker_short_circuit
            attempts_after_open = injector.occurrences("codegen.compile")
            # The acceptance criterion: attempts STOP once the breaker
            # opens — repeats are served interpreted without touching
            # the compiler at all.
            for _ in range(4):
                engine.execute(self.SQL)
            assert (
                injector.occurrences("codegen.compile")
                == attempts_after_open
            )
            assert engine.breaker.open_keys()
            assert engine.breaker.short_circuits >= 8

            # After the cooldown exactly one probe goes through — and
            # fails again, re-opening the breaker.
            now[0] = cooldown
            report = engine.execute(self.SQL)
            assert report.codegen_fallback
            assert (
                injector.occurrences("codegen.compile")
                == attempts_after_open + 1
            )

        # The compiler heals (injector uninstalled).  After another
        # cooldown the next probe succeeds and the breaker closes.
        now[0] = 2 * cooldown
        report = engine.execute(self.SQL)
        assert report.result.scalars()[0] == pytest.approx(want)
        assert not report.degraded
        assert engine.breaker.open_keys() == []
        assert engine.breaker.closes == 1

    def test_degraded_plans_are_never_cached(self, table):
        engine = H2OEngine(table, EngineConfig(use_codegen=True))
        with FaultInjector({"codegen.compile": frozenset(range(1000))}):
            engine.execute(self.SQL)
            engine.execute(self.SQL)
        # Were a degraded plan cached, the repeat would bypass _run_plan's
        # breaker bookkeeping; the breaker saw both failures.
        assert engine.breaker.state(
            engine.reports[0].query.shape_signature()
        ) in (OPEN, CLOSED)
        assert engine.executor.codegen_fallbacks == 2


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


class TestOverloadLadder:
    def test_load_pauses_then_resumes_background_adaptation(self, table):
        service = make_service(
            table,
            config=EngineConfig(adaptation_mode="background"),
            num_workers=0,
            max_pending=8,
        )
        try:
            scheduler = service.scheduler
            assert scheduler is not None and not scheduler.paused
            service.admission._in_flight = 6  # 75% of capacity
            service._note_load()
            assert scheduler.paused
            service.admission._in_flight = 6
            service._note_load()
            assert scheduler.pauses == 1  # pause is idempotent
            service.admission._in_flight = 5  # inside the hysteresis gap
            service._note_load()
            assert scheduler.paused
            service.admission._in_flight = 2  # 25%: resume
            service._note_load()
            assert not scheduler.paused
        finally:
            service.admission._in_flight = 0
            service.close()

    def test_paused_scheduler_does_no_work(self, table):
        service = make_service(
            table,
            config=EngineConfig(adaptation_mode="background"),
            num_workers=0,
        )
        try:
            scheduler = service.scheduler
            scheduler.pause()
            assert scheduler.run_cycle() == 0
            stats = scheduler.stats()
            assert stats["paused"] and stats["pauses"] == 1
            scheduler.resume()
            assert not scheduler.paused
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
            assert health.open_breakers == ()
            assert "health: healthy" in health.describe()

            # Open a breaker: the service reports degraded while still
            # answering every query.
            threshold = service.system.engines()[0].breaker.threshold
            with FaultInjector(
                {"codegen.compile": frozenset(range(1000))}
            ):
                for _ in range(threshold + 1):
                    report = service.execute(
                        "SELECT sum(a1) FROM r WHERE a2 > 0", timeout=60.0
                    )
                    assert report.result.scalars()
            health = service.health()
            assert health.status == "degraded"
            assert health.open_breakers
            assert health.codegen_fallbacks == threshold
            assert health.breaker_short_circuits >= 1
            counters = health.counters()
            assert counters["degraded_queries"] >= threshold + 1
            assert "open breakers" in health.describe()
        finally:
            service.close()
        assert service.health().status == "closed"

    def test_counters_cover_every_ladder_rung(self, table):
        with make_service(table, num_workers=1) as service:
            counters = service.health().counters()
        for key in (
            "worker_deaths",
            "worker_respawns",
            "requeued_deaths",
            "retried_failures",
            "degraded_queries",
            "scheduler_pauses",
            "stitch_failures",
            "codegen_fallbacks",
            "breaker_short_circuits",
            "reorg_aborts",
            "deadline_aborts",
        ):
            assert key in counters
