"""The differential oracle: adaptation must be invisible in answers.

One replay loop (:func:`_replay`) and one table of paths
(:data:`PATHS`).  A generated :class:`~repro.testkit.generate.CaseSpec`
is a stream of queries; an adversarial scenario of
:mod:`repro.workloads.scenarios` is a stream of queries *and* appends.
Each path replays the stream over its *own* copy of the same
deterministic data, and every answer must be **bit-identical** to the
row reference (the generator bounds values so all float64 arithmetic is
exact).  After every answer the physical invariants must hold
(:func:`check_engine_invariants`); at the end of the stream each row
runs its end checks: exact zone maps (:func:`check_zone_map_exactness`)
and the switching policy's ledger, regret invariant included
(:func:`check_policy_invariants`).  docs/testing.md §2 shows the table.

:func:`scenario_case` (``python -m repro.testkit scenarios``) replays
each scenario at hedging factor 0 and at a hedged factor with both end
checks; the hedged replay must not build more layouts than hedge 0.

The **fault passes** replay a sequence again under a seeded
:class:`~repro.testkit.faults.FaultInjector` — inline, then through the
service — and audit that every fired fault shows up, with exact
equality, in the counter that documents its clean fallback, while every
query still answers identically to the reference.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional
from typing import Sequence, Tuple

import numpy as np

from ..baselines.base import StaticEngine
from ..baselines.column_engine import ColumnStoreEngine
from ..baselines.row_engine import RowStoreEngine
from ..config import EngineConfig
from ..core.engine import H2OEngine
from ..execution.parallel import ScanPool
from ..execution.result import QueryResult
from ..service.service import H2OService
from ..storage.relation import Table
from ..storage.zonemap import _minmax_per_morsel, cached_zone_maps
from ..util.rng import derive_rng
from .faults import FaultInjector, random_schedule
from .generate import CaseSpec, random_case

#: Adaptation knobs used by the oracle's adaptive paths: a small window
#: so short sequences still exercise advisor runs, reorganizations and
#: the plan cache.
ORACLE_CONFIG = dict(window_size=4, min_window=2, max_window=12)

#: The ground truth must not depend on what it judges: no zone-map
#: pruning (the paths under test are checked against those very
#: statistics) and no thread fan-out — a plain interpreted morsel loop.
REFERENCE_CONFIG = EngineConfig(
    use_codegen=False, zone_maps=False, max_scan_threads=1
)

#: One step of a replayed stream: ``("query", sql)`` or
#: ``("append", {attr: values})``.
Op = Tuple[str, object]


class OracleFailure(AssertionError):
    """A divergence, invariant violation, or unaccounted fault."""


@dataclass
class SequenceResult:
    """What one oracle sequence executed and observed."""

    spec: CaseSpec
    modes: Tuple[str, ...]
    queries_checked: int = 0
    #: point → number of injected faults that actually fired.
    fired_faults: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    def describe(self) -> str:
        fired = sum(self.fired_faults.values())
        return (
            f"{self.spec.describe()} — {self.queries_checked} answers "
            f"checked, {fired} fault(s) fired, {self.seconds:.2f}s"
        )


# Result comparison ----------------------------------------------------------


def _same_values(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = (np.asarray(x, dtype=np.float64) for x in (a, b))
    return bool(np.array_equal(a, b, equal_nan=True))


def results_identical(a: QueryResult, b: QueryResult) -> bool:
    """Bit-identical modulo float64 widening (NaN compares equal).

    The generator bounds values so every sum/product is exactly
    representable in float64; engines may carry int64 or float64
    internally, but the *values* must match exactly.
    """
    return (
        a.column_names == b.column_names
        and a.data.shape == b.data.shape
        and _same_values(a.data, b.data)
    )


def _describe_divergence(
    index: int, sql: str, got: QueryResult, want: QueryResult, mode: str
) -> str:
    return (
        f"[{mode}] query #{index} diverged\n"
        f"  sql:  {sql}\n"
        f"  want: shape={want.data.shape} {want.rows()[:3]}\n"
        f"  got:  shape={got.data.shape} {got.rows()[:3]}"
    )


def _check_answer(
    index: int, sql: str, got: QueryResult, want: QueryResult, label: str
) -> None:
    if not results_identical(got, want):
        raise OracleFailure(
            _describe_divergence(index, sql, got, want, label)
        )


# Invariant checks -----------------------------------------------------------


def check_engine_invariants(
    engine: H2OEngine, last_epoch: int, label: str
) -> int:
    """Assert the physical invariants; returns the current epoch."""
    snapshot = engine.table.snapshot()
    if snapshot.epoch < last_epoch:
        raise OracleFailure(
            f"[{label}] layout epoch regressed: {snapshot.epoch} < "
            f"{last_epoch}"
        )
    for layout in snapshot.layouts:
        if layout.num_rows != snapshot.num_rows:
            raise OracleFailure(
                f"[{label}] torn snapshot: layout {layout.describe()} has "
                f"{layout.num_rows} rows, snapshot has {snapshot.num_rows}"
            )
    covered: set = set()
    for layout in snapshot.layouts:
        covered |= layout.attr_set
    missing = set(engine.table.schema.names) - covered
    if missing:
        raise OracleFailure(
            f"[{label}] layouts no longer cover the schema; missing "
            f"{sorted(missing)}"
        )
    for key, entry in engine.executor.operator_cache.entries():
        source = getattr(entry.kernel, "__h2o_source__", None)
        if source != entry.source:
            raise OracleFailure(
                f"[{label}] operator-cache key/source disagreement for "
                f"key {key!r}: the cached kernel was not compiled from "
                f"the cached source"
            )
    return snapshot.epoch


def _check_step(engine, report, last_epoch: int, label: str) -> int:
    """The invariants after one answer, plus: the snapshot the answer
    pinned is not newer than the table's (static baselines pin none)."""
    epoch = check_engine_invariants(engine, last_epoch, label)
    pinned = getattr(report, "snapshot_epoch", epoch)
    if pinned > epoch:
        raise OracleFailure(
            f"[{label}] report pinned epoch {pinned} newer than the "
            f"table's {epoch}"
        )
    return epoch


def check_zone_map_exactness(engine: H2OEngine, label: str) -> None:
    """Every cached zone map must match a from-scratch recompute exactly.

    Stats are built per attribute on a predicate's first consultation
    (``ensure_attr_stats``) and extended incrementally by appends;
    either path leaving stale or merely-conservative bounds behind
    would silently weaken pruning (or worse, prune a qualifying
    morsel).  Recomputing per-morsel min/max from
    ``layout.column(attr)`` and demanding exact equality catches both
    directions.
    """
    snapshot = engine.table.snapshot()
    for layout in snapshot.layouts:
        maps = cached_zone_maps(layout)
        if maps is None:
            continue
        if maps.num_rows != layout.num_rows:
            raise OracleFailure(
                f"[{label}] stale zone map on {layout.describe()}: maps "
                f"cover {maps.num_rows} rows, layout has {layout.num_rows}"
            )
        for attr in maps.attrs:
            truth = _minmax_per_morsel(layout.column(attr), maps.morsel_rows)
            if not all(map(_same_values, maps.stats_for(attr), truth)):
                raise OracleFailure(
                    f"[{label}] zone map for {attr!r} on "
                    f"{layout.describe()} is not exact after adaptation"
                )


def check_policy_invariants(engine: H2OEngine, label: str) -> None:
    """The switching policy's own bookkeeping must be sound.

    - the **regret invariant**: ``hedging_factor * invested_cost <=
      accrued_at_switch`` (every granted switch had already accrued its
      hedged build cost);
    - every switch record individually carries enough accrued benefit
      for its hedged cost;
    - in a serial replay, the ledgered switch count equals the layouts
      the manager actually built (no unledgered reorganization).
    """
    policy = engine.policy
    if not policy.regret_bound_satisfied():
        raise OracleFailure(
            f"[{label}] regret invariant violated: "
            f"{policy.hedging_factor} * {policy.invested_cost} > "
            f"{policy.accrued_at_switch}"
        )
    for record in policy.switches:
        if record.accrued + 1e-9 < record.hedging_factor * record.build_cost:
            raise OracleFailure(
                f"[{label}] switch to {record.attrs} granted with "
                f"accrued {record.accrued} < hedged cost "
                f"{record.hedging_factor} * {record.build_cost}"
            )
    built = len(engine.manager.creation_log)
    if policy.switch_count != built:
        raise OracleFailure(
            f"[{label}] policy ledgered {policy.switch_count} "
            f"switch(es) but the layout manager built {built} — "
            f"an unledgered reorganization"
        )


# The replay -----------------------------------------------------------------


def _answers(engine, ops: Sequence[Op]) -> Iterator[Tuple[str, object]]:
    """Apply ``ops`` to ``engine`` in order; yield ``(sql, report)`` per
    query."""
    for kind, arg in ops:
        if kind == "query":
            yield arg, engine.execute(arg)
        else:
            engine.table.append_rows(arg)


def reference(table: Table, ops: Sequence[Op]) -> List[QueryResult]:
    """Ground truth for ``ops`` over ``table``: the interpreted row
    baseline, with appends applied at the same stream positions."""
    engine = RowStoreEngine(table, REFERENCE_CONFIG)
    return [report.result for _, report in _answers(engine, ops)]


def _replay(
    engine,
    ops: Sequence[Op],
    expected: Sequence[QueryResult],
    label: str,
    *,
    twin: Optional[H2OEngine] = None,
) -> None:
    """Replay ``ops`` on ``engine``, checking every answer against
    ``expected`` and the invariants after it.

    A ``twin`` replays the same ops in lockstep and must answer
    bit-identically *and* prune the same morsels: adaptation is blind to
    the thread count, so the two evolve identical layouts, and zone-map
    pruning must be a pure function of data + predicate, never of
    scheduling.
    """
    twin_answers = _answers(twin, ops) if twin is not None else None
    twin_label = f"{label} (vs morsel-serial twin)"
    epoch = 0
    for index, (sql, report) in enumerate(_answers(engine, ops)):
        _check_answer(index, sql, report.result, expected[index], label)
        if twin_answers is not None:
            _, mirror = next(twin_answers)
            _check_answer(index, sql, report.result, mirror.result, twin_label)
            if report.morsels_pruned != mirror.morsels_pruned:
                raise OracleFailure(
                    f"[{label}] query #{index} pruning diverged between "
                    f"parallel ({report.morsels_pruned}/"
                    f"{report.morsels_total}) and serial "
                    f"({mirror.morsels_pruned}/{mirror.morsels_total}) "
                    f"execution\n  sql: {sql}"
                )
        epoch = _check_step(engine, report, epoch, label)


def _serve(
    service: H2OService,
    spec: CaseSpec,
    expected: Sequence[QueryResult],
    label: str,
    *,
    concurrent: bool,
) -> H2OEngine:
    """Serve ``spec`` through ``service``, checking like :func:`_replay`.

    ``concurrent`` submits the whole sequence at once, so workers
    interleave shapes while triggering queries stitch layouts online;
    otherwise one at a time, so each fault hits a deterministic query.
    An exception reaching a waiter is a failure.
    """
    service.register(spec.build_table())
    engine = service.system.engine_for(spec.table_name)
    submit = functools.partial(service.submit, timeout=120.0)
    pending = [submit(sql) for sql in spec.queries] if concurrent else []
    epoch = 0
    for index, sql in enumerate(spec.queries):
        try:
            future = pending[index] if concurrent else submit(sql)
            report = future.result(120.0)
        except Exception as exc:  # noqa: BLE001
            raise OracleFailure(
                f"[{label}] query #{index} surfaced an exception the "
                f"degradation ladder should have absorbed: {exc!r}\n"
                f"  sql: {sql}"
            ) from exc
        _check_answer(index, sql, report.result, expected[index], label)
        epoch = _check_step(engine, report, epoch, label)
    return engine


# The paths ------------------------------------------------------------------


def _config(**overrides: object) -> EngineConfig:
    return EngineConfig(**{**ORACLE_CONFIG, **overrides})


def _adaptive_engine(table: Table, **overrides: object) -> H2OEngine:
    """H2O over ``table`` with ``ORACLE_CONFIG`` plus ``overrides``.

    An engine allowed more than one scan thread gets a dedicated pool of
    that many, so the check does not depend on the host's core count.
    """
    engine = H2OEngine(table, _config(**overrides))
    threads = engine.config.max_scan_threads
    if threads > 1:
        engine.executor.scan_pool = _scan_pool(threads)
    return engine


@functools.lru_cache(maxsize=None)
def _scan_pool(threads: int) -> ScanPool:
    # One pool per width for the whole process: idle pool threads never
    # exit, so a pool per engine would leak them sequence after sequence.
    return ScanPool(max_threads=threads)


@dataclass(frozen=True)
class OraclePath:
    """One row of the oracle: an engine and its end-of-stream checks."""

    name: str
    #: ``ORACLE_CONFIG`` overrides of the adaptive engine under test.
    overrides: Mapping[str, object] = field(default_factory=dict)
    #: A non-adaptive engine over the path's table, in place of H2O.
    static: Optional[Callable[[Table], object]] = None
    #: Overrides of a twin replayed in lockstep (see :func:`_replay`).
    twin: Optional[Mapping[str, object]] = None
    end_checks: Tuple[Callable[[H2OEngine, str], None], ...] = ()
    #: Serve the sequence through :class:`H2OService`, all at once.
    served: bool = False

    def engine(self, table: Table):
        if self.static is not None:
            return self.static(table)
        return _adaptive_engine(table, **self.overrides)

    def replay(
        self,
        make_table: Callable[[], Table],
        ops: Sequence[Op],
        expected: Sequence[QueryResult],
    ):
        """Replay ``ops`` on a fresh engine, then run the end checks."""
        engine = self.engine(make_table())
        twin = (
            _adaptive_engine(make_table(), **self.twin)
            if self.twin is not None
            else None
        )
        _replay(engine, ops, expected, self.name, twin=twin)
        self.check_end(engine)
        return engine

    def check_end(self, engine) -> None:
        for check in self.end_checks:
            check(engine, self.name)


_ZONES = check_zone_map_exactness
_POLICY = check_policy_invariants

#: Every clean path of :meth:`DifferentialOracle.run_case`, in run order.
PATHS: Tuple[OraclePath, ...] = (
    OraclePath(
        "volcano",
        static=lambda table: StaticEngine(
            table, EngineConfig(use_codegen=False)
        ),
    ),
    OraclePath("column", static=ColumnStoreEngine),
    OraclePath("adaptive-inline", end_checks=(_ZONES,)),
    OraclePath(
        "adaptive-interpreted", dict(use_codegen=False), end_checks=(_ZONES,)
    ),
    OraclePath("adaptive-service", served=True),
    OraclePath(
        "adaptive-parallel",
        dict(max_scan_threads=4, morsel_rows=128),
        twin=dict(max_scan_threads=1, morsel_rows=128),
        end_checks=(_ZONES,),
    ),
    OraclePath(
        "adaptive-guarded", dict(hedging_factor=2.0), end_checks=(_POLICY,)
    ),
    OraclePath(
        "adaptive-lean",
        dict(
            plan_cache=False,
            operator_cache=False,
            zone_maps=False,
            min_window=ORACLE_CONFIG["window_size"],
            max_window=ORACLE_CONFIG["window_size"],
        ),
        end_checks=(_ZONES, _POLICY),
    ),
    OraclePath(
        "adaptive-eager",
        dict(materialization="eager"),
        end_checks=(_ZONES, _POLICY),
    ),
)

CLEAN_MODES = tuple(path.name for path in PATHS)

#: Answers checked per query: one per path, one more per twin.
_ANSWERS_PER_QUERY = sum(1 if p.twin is None else 2 for p in PATHS)


# The oracle -----------------------------------------------------------------


class DifferentialOracle:
    """Runs one spec through every path and the fault passes."""

    def __init__(
        self,
        *,
        workers: int = 3,
        with_faults: bool = True,
        faults_per_point: int = 2,
    ) -> None:
        self.workers = workers
        self.with_faults = with_faults
        self.faults_per_point = faults_per_point

    def reference_results(self, spec: CaseSpec) -> List[QueryResult]:
        """Ground truth: the interpreted row baseline."""
        return reference(spec.build_table(), spec.ops)

    @contextmanager
    def _service(
        self,
        spec: CaseSpec,
        name: str,
        overrides: Optional[Mapping[str, object]] = None,
        **kwargs: object,
    ) -> Iterator[H2OService]:
        service = H2OService(
            config=_config(**(overrides or {})),
            num_workers=self.workers,
            max_pending=4 * max(1, len(spec.queries)),
            name=name,
            **kwargs,
        )
        try:
            yield service
        finally:
            service.close()

    def run_case(self, spec: CaseSpec) -> SequenceResult:
        """Run every path + the fault passes; raises OracleFailure."""
        started = time.perf_counter()
        expected = self.reference_results(spec)
        for path in PATHS:
            if not path.served:
                path.replay(spec.build_table, spec.ops, expected)
                continue
            with self._service(spec, "oracle-service", path.overrides) as sv:
                engine = _serve(sv, spec, expected, path.name, concurrent=True)
            path.check_end(engine)
        outcome = SequenceResult(
            spec=spec,
            modes=CLEAN_MODES,
            queries_checked=len(expected) * _ANSWERS_PER_QUERY,
        )
        if self.with_faults:
            outcome.fired_faults = self._fault_passes(spec, expected, "")
        outcome.seconds = time.perf_counter() - started
        return outcome

    def chaos_case(self, spec: CaseSpec) -> SequenceResult:
        """One chaos sequence: faults at *every* registered point.

        The two fault passes of :meth:`run_case` under their own
        schedules.  Acceptance is strict: zero crashes, zero wrong
        answers, the worker pool healed, and every fired fault accounted
        for in the degradation evidence with exact equality.
        """
        started = time.perf_counter()
        expected = self.reference_results(spec)
        outcome = SequenceResult(
            spec=spec,
            modes=("chaos-inline", "chaos-service"),
            queries_checked=2 * len(expected),
            fired_faults=self._fault_passes(spec, expected, "chaos-"),
        )
        outcome.seconds = time.perf_counter() - started
        return outcome

    # Fault passes ---------------------------------------------------------

    def _fault_passes(
        self, spec: CaseSpec, expected: Sequence[QueryResult], prefix: str
    ) -> Dict[str, int]:
        """Both fault passes; returns the merged point → fired count."""
        fired = Counter(self._faulted_inline(spec, expected, prefix))
        fired.update(self._faulted_service(spec, expected, prefix))
        return dict(fired)

    def _injector(
        self, spec: CaseSpec, tag: str, horizon: int, points: Sequence[str]
    ) -> FaultInjector:
        return FaultInjector(
            random_schedule(
                derive_rng(spec.seed, "faults", tag),
                horizon=max(4, horizon),
                faults_per_point=self.faults_per_point,
                points=tuple(points),
            )
        )

    def _faulted_inline(
        self, spec: CaseSpec, expected: Sequence[QueryResult], prefix: str
    ) -> Dict[str, int]:
        """Inline engine under compile + online-stitch faults.

        Both fault kinds have *fallback* semantics: every query must
        still be answered, identically, and every fired fault must be
        visible in the engine's counters afterwards.
        """
        tag = f"{prefix}inline"
        engine = _adaptive_engine(spec.build_table())
        injector = self._injector(
            spec, tag, 2 * len(spec.queries), _ENGINE_FAULTS
        )
        with injector:
            _replay(engine, spec.ops, expected, f"faults-{tag}")
        fired = injector.fired_by_point()
        _audit(f"faults-{tag}", fired, _engine_evidence(engine))
        return fired

    def _faulted_service(
        self, spec: CaseSpec, expected: Sequence[QueryResult], prefix: str
    ) -> Dict[str, int]:
        """Service under compile, online-stitch, worker-death and
        transient-execute faults — every one *absorbed* by the
        self-healing ladder (docs/resilience.md), and the pool healed.

        ``max_query_attempts`` exceeds the worst case a schedule can
        stack on one ticket (``faults_per_point`` worker deaths + as
        many transient failures), so absorption is a guarantee.
        """
        tag = f"{prefix}service"
        label = f"faults-{tag}"
        injector = self._injector(
            spec,
            tag,
            len(spec.queries),
            _ENGINE_FAULTS + ("service.worker", "service.execute"),
        )
        attempts = 2 * self.faults_per_point + 2
        with self._service(
            spec, "oracle-fault-service", max_query_attempts=attempts
        ) as service, injector:
            engine = _serve(service, spec, expected, label, concurrent=False)
            deadline = time.monotonic() + 10.0  # respawns are budgeted
            alive = service.alive_workers()
            while alive < self.workers and time.monotonic() < deadline:
                time.sleep(0.01)
                alive = service.alive_workers()
            if alive < self.workers:
                raise OracleFailure(
                    f"[{label}] watchdog failed to heal the pool: "
                    f"{alive}/{self.workers} workers alive after "
                    f"{service.stats.snapshot()['worker_deaths']:.0f} "
                    f"death(s)"
                )
        fired = injector.fired_by_point()
        stats = service.stats.snapshot()
        evidence = _engine_evidence(engine)
        for point, counter in (
            ("service.worker", "worker_deaths"),
            ("service.worker", "requeued_deaths"),
            ("service.execute", "retried_failures"),
        ):
            evidence[f"{point} → stats.{counter}"] = stats[counter]
        evidence["no waiter saw a failure"] = stats["failed"]
        evidence["no waiter saw a timeout"] = stats["timeouts"]
        _audit(label, fired, evidence)
        return fired


#: The fault points both fault passes schedule.
_ENGINE_FAULTS = ("codegen.compile", "reorg.online")


def _engine_evidence(engine: H2OEngine) -> Dict[str, float]:
    return {
        "codegen.compile → executor.codegen_fallbacks": (
            engine.executor.codegen_fallbacks
        ),
        "reorg.online → engine.reorg_aborts": engine.reorg_aborts,
    }


def _audit(
    label: str, fired: Mapping[str, int], evidence: Mapping[str, float]
) -> None:
    """Each counter must equal the faults fired at the point its key
    names (``"point → counter"``); a key naming no point must read 0."""
    for description, observed in evidence.items():
        injected = fired.get(description.split(" → ")[0], 0)
        if injected != int(observed):
            raise OracleFailure(
                f"[{label}] fault evidence mismatch ({description}): "
                f"expected {injected} but observed {int(observed)} — a "
                f"fault was swallowed silently or surfaced wrongly"
            )


def run_sequence(
    seed: int,
    *,
    workers: int = 3,
    with_faults: bool = True,
    spec: Optional[CaseSpec] = None,
) -> SequenceResult:
    """Convenience wrapper: generate (or accept) a spec and run it."""
    oracle = DifferentialOracle(workers=workers, with_faults=with_faults)
    return oracle.run_case(spec if spec is not None else random_case(seed))


def run_chaos_sequence(
    seed: int,
    *,
    workers: int = 3,
    faults_per_point: int = 2,
    spec: Optional[CaseSpec] = None,
) -> SequenceResult:
    """One chaos sequence (see :meth:`DifferentialOracle.chaos_case`)."""
    oracle = DifferentialOracle(
        workers=workers, faults_per_point=faults_per_point
    )
    return oracle.chaos_case(spec if spec is not None else random_case(seed))


# Scenario replay oracle ------------------------------------------------------


@dataclass
class ScenarioOutcome:
    """What one scenario replay executed and observed."""

    name: str
    seed: int
    queries_checked: int = 0
    appends_replayed: int = 0
    #: hedging factor → layouts the manager built during the replay.
    reorgs: Dict[float, int] = field(default_factory=dict)
    #: hedging factor → materializations the policy deferred.
    deferrals: Dict[float, int] = field(default_factory=dict)
    seconds: float = 0.0

    def describe(self) -> str:
        reorgs = " ".join(
            f"hedge {factor:g}={count}"
            for factor, count in self.reorgs.items()
        )
        return (
            f"{self.name} (seed {self.seed}) — {self.queries_checked} "
            f"answers checked, {self.appends_replayed} appends, "
            f"reorgs: {reorgs}, {self.seconds:.2f}s"
        )


def scenario_case(
    name: str,
    seed: int = 0,
    *,
    hedging_factor: float = 2.0,
    **kwargs: object,
) -> ScenarioOutcome:
    """Replay one named scenario at hedging factors 0 and
    ``hedging_factor`` against the row reference; raises
    :class:`OracleFailure` on any divergence."""
    from ..workloads.scenarios import build_scenario

    started = time.perf_counter()
    scenario = build_scenario(name, seed, **kwargs)
    ops = [
        op if op[0] == "query" else ("append", scenario.append_batch(*op[1:]))
        for op in scenario.ops
    ]
    expected = reference(scenario.make_table(), ops)
    outcome = ScenarioOutcome(name=scenario.name, seed=seed)
    factors = (0.0, hedging_factor)
    for factor in factors:
        path = OraclePath(
            f"scenario:{scenario.name}:hedge-{factor:g}",
            dict(hedging_factor=factor),
            end_checks=(_ZONES, _POLICY),
        )
        engine = path.replay(scenario.make_table, ops, expected)
        outcome.reorgs[factor] = len(engine.manager.creation_log)
        outcome.deferrals[factor] = engine.policy.deferrals
    hedged, greedy = outcome.reorgs[hedging_factor], outcome.reorgs[0.0]
    if hedged > greedy:
        raise OracleFailure(
            f"[scenario:{scenario.name}] hedge {hedging_factor:g} built "
            f"{hedged} layout(s), more than hedge 0's {greedy} — hedging "
            f"must never reorganize more than the greedy gate it hedges"
        )
    outcome.queries_checked = len(expected) * len(factors)
    outcome.appends_replayed = scenario.append_count * len(factors)
    outcome.seconds = time.perf_counter() - started
    return outcome


def run_all_scenarios(
    seed: int = 0,
    *,
    hedging_factor: float = 2.0,
    **kwargs: object,
) -> List[ScenarioOutcome]:
    """Replay the whole registered pack (canonical order)."""
    from ..workloads.scenarios import SCENARIOS

    return [
        scenario_case(name, seed, hedging_factor=hedging_factor, **kwargs)
        for name in SCENARIOS
    ]
