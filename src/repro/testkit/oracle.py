"""The differential oracle: adaptation must be invisible in answers.

One generated :class:`~repro.testkit.generate.CaseSpec` is executed
through nine independent paths, each over its *own* copy of the same
deterministic data:

1. **row reference** — the static row-store baseline, interpreted
   (no codegen, no zone-map pruning, one scan thread): the ground
   truth, sharing as little machinery with the adaptive paths as
   possible;
2. **volcano** — the generic interpreted Volcano evaluator over the
   initial column layouts (a :class:`~repro.baselines.base.StaticEngine`
   with codegen off);
3. **column baseline** — the late-materialization column store;
4. **adaptive inline** — the full H2O engine, paper defaults with a
   small adaptation window so advisor runs, online reorganizations and
   plan-cache hits all happen inside a short sequence;
5. **adaptive interpreted** — the same engine with codegen disabled;
6. **adaptive background** — the engine behind the concurrent service
   with N workers and the background adaptation scheduler;
7. **adaptive parallel** — the full engine with morsel-driven parallel
   scans on a dedicated 4-thread :class:`~repro.execution.parallel.
   ScanPool` and tiny morsels (so even small cases split into many),
   checked both against the row reference and against a morsel-serial
   twin: answers bit-identical *and* ``morsels_pruned`` equal — the
   zone-map pruning decision must not depend on the thread count;
8. **adaptive guarded** — the full engine under the regret-bounded
   switching policy (``adaptation_policy="guarded"``, see
   docs/adaptation.md): materializations may be *deferred* but answers
   must stay bit-identical, and the policy's regret invariant
   (hedged reorganization spend never exceeds accrued benefit at
   switch) must hold at the end of the sequence;
9. **adaptive clustered+encoded** — the full engine with adaptive
   clustering *and* encoded column layouts enabled
   (``adaptive_clustering=True, encoded_layouts=True`` with tiny
   row minimums so even small cases cluster and encode): the
   reorganizer may permute the table's physical row order and add
   dictionary/bit-packed replicas mid-sequence.  Aggregations must
   stay bit-identical; projections are compared as *multisets*
   (canonical row sort on both sides — SQL semantics don't fix row
   order, and clustering legitimately changes it).  After the
   sequence the oracle re-derives every cached zone map from the
   layout's decoded values and asserts **exact** equality (clustering
   must never leave stale or merely-conservative bounds behind), and
   the physical + policy-ledger invariants must hold throughout.

The module also hosts the **scenario-replay oracle**
(:func:`scenario_case` / :func:`run_all_scenarios`, exposed as
``python -m repro.testkit scenarios``): every adversarial scenario in
:mod:`repro.workloads.scenarios` — queries *and* appends — is replayed
under both switching policies against the row reference, asserting
bit-identical answers, the physical invariants after every query, and
the guarded policy's regret invariant.

Every mode must produce **bit-identical** :class:`~repro.execution.
result.QueryResult` data (the generator bounds values so all float64
arithmetic is exact), and after every step the adaptive engines must
satisfy the physical invariants:

- layout **epoch monotonicity** (a snapshot's epoch never regresses);
- **snapshot row-count consistency** (every layout in a snapshot has
  exactly the snapshot's row count — no torn layout set);
- **coverage** (the union of layout attribute sets covers the schema);
- **operator-cache key/source agreement** (every cached kernel still
  carries the exact source it was compiled from).

The fault pass then re-runs the sequence with a seeded
:class:`~repro.testkit.faults.FaultInjector` installed and asserts that
every fired fault surfaces as the documented exception or a *counted*
clean fallback — and that every query that did answer still answered
identically to the reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.base import StaticEngine
from ..baselines.column_engine import ColumnStoreEngine
from ..baselines.row_engine import RowStoreEngine
from ..config import EngineConfig
from ..core.engine import H2OEngine
from ..execution.result import QueryResult
from ..service.service import H2OService
from ..sql.parser import parse_query
from ..util.rng import derive_rng
from .faults import FaultInjector, random_schedule
from .generate import CaseSpec

#: Adaptation knobs used by the oracle's adaptive modes: a small window
#: so short sequences still exercise advisor runs, reorganizations and
#: the plan cache.
ORACLE_CONFIG = dict(
    window_size=4,
    min_window=2,
    max_window=12,
    amortization_threshold=1.0,
)

#: The ground truth must not depend on what it judges: no zone-map
#: pruning (the paths under test are checked against those very
#: statistics) and no thread fan-out — a plain interpreted morsel loop.
REFERENCE_CONFIG = EngineConfig(
    use_codegen=False, zone_maps=False, max_scan_threads=1
)

CLEAN_MODES = (
    "volcano",
    "column",
    "adaptive-inline",
    "adaptive-interpreted",
    "adaptive-background",
    "adaptive-parallel",
    "adaptive-guarded",
    "adaptive-clustered-encoded",
)


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


def results_identical(a: QueryResult, b: QueryResult) -> bool:
    """Bit-identical modulo float64 widening (NaN compares equal).

    The generator bounds values so every sum/product is exactly
    representable in float64; engines may carry int64 or float64
    internally, but the *values* must match exactly.
    """
    if a.column_names != b.column_names:
        return False
    if a.data.shape != b.data.shape:
        return False
    mine = np.asarray(a.data, dtype=np.float64)
    theirs = np.asarray(b.data, dtype=np.float64)
    return bool(np.array_equal(mine, theirs, equal_nan=True))


def _canonical_rows(data: np.ndarray) -> np.ndarray:
    """Rows sorted into a canonical order for multiset comparison.

    Sorts on the float64 *bit patterns* (last column least significant)
    so NaN payloads and -0.0 vs +0.0 land deterministically — two
    multiset-equal results canonicalize to bit-identical arrays.
    """
    rows = np.ascontiguousarray(data, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    bits = rows.view(np.int64)
    if bits.shape[0] <= 1:
        return bits
    order = np.lexsort(tuple(bits[:, j] for j in range(bits.shape[1] - 1, -1, -1)))
    return bits[order]


def results_multiset_identical(a: QueryResult, b: QueryResult) -> bool:
    """Bit-identical as *row multisets* (SQL semantics for projections).

    Adaptive clustering permutes the table's physical row order, so a
    projection's rows may come back in a different — equally valid —
    order.  Both sides are canonically sorted before the bit-exact
    compare, which keeps the check as strong as
    :func:`results_identical` on everything except row order.
    """
    if a.column_names != b.column_names:
        return False
    if a.data.shape != b.data.shape:
        return False
    # Canonical rows are int64 bit views: plain equality is bit-exact
    # (each NaN payload only equals itself, -0.0 never equals +0.0).
    mine = _canonical_rows(a.data)
    theirs = _canonical_rows(b.data)
    return bool(np.array_equal(mine, theirs))


def _describe_divergence(
    index: int, sql: str, got: QueryResult, want: QueryResult, mode: str
) -> str:
    return (
        f"[{mode}] query #{index} diverged from the row reference\n"
        f"  sql:  {sql}\n"
        f"  want: shape={want.data.shape} {want.rows()[:3]}\n"
        f"  got:  shape={got.data.shape} {got.rows()[:3]}"
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


def check_zone_map_exactness(engine: H2OEngine, label: str) -> None:
    """Every cached zone map must match a from-scratch recompute exactly.

    Clustering rebuilds zone maps eagerly after permuting rows and
    encoded replicas build theirs over *decoded* values; either path
    leaving stale or merely-conservative bounds behind would silently
    weaken pruning (or worse, prune a qualifying morsel).  Recomputing
    per-morsel min/max from ``layout.column(attr)`` and demanding exact
    equality catches both directions.
    """
    from ..storage.zonemap import _minmax_per_morsel, cached_zone_maps

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
            mins, maxs = maps.stats_for(attr)
            true_mins, true_maxs = _minmax_per_morsel(
                layout.column(attr), maps.morsel_rows
            )
            if not (
                np.array_equal(
                    np.asarray(mins, dtype=np.float64),
                    np.asarray(true_mins, dtype=np.float64),
                    equal_nan=True,
                )
                and np.array_equal(
                    np.asarray(maxs, dtype=np.float64),
                    np.asarray(true_maxs, dtype=np.float64),
                    equal_nan=True,
                )
            ):
                raise OracleFailure(
                    f"[{label}] zone map for {attr!r} on "
                    f"{layout.describe()} is not exact after adaptation"
                )


def check_cluster_telemetry(engine: H2OEngine, label: str) -> None:
    """``clustered_fraction`` must be honest bookkeeping."""
    table = engine.table
    fraction = table.clustered_fraction
    if not (0.0 <= fraction <= 1.0):
        raise OracleFailure(
            f"[{label}] clustered_fraction out of range: {fraction}"
        )
    if table.cluster_key is None and fraction != 0.0:
        raise OracleFailure(
            f"[{label}] no cluster key but clustered_fraction={fraction}"
        )
    if table.clustered_rows > table.num_rows:
        raise OracleFailure(
            f"[{label}] clustered_rows {table.clustered_rows} exceeds "
            f"table rows {table.num_rows}"
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
        if record.accrued + 1e-9 < (
            record.hedging_factor * record.build_cost
        ):
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


# The oracle -----------------------------------------------------------------


class DifferentialOracle:
    """Runs one spec through every mode and the fault pass."""

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

    # Engine/config factories ---------------------------------------------

    def _adaptive_config(self, **overrides: object) -> EngineConfig:
        merged = dict(ORACLE_CONFIG)
        merged.update(overrides)
        return EngineConfig(**merged)

    # Reference ------------------------------------------------------------

    def reference_results(self, spec: CaseSpec) -> List[QueryResult]:
        """Ground truth: the interpreted row baseline."""
        engine = RowStoreEngine(spec.build_table(), REFERENCE_CONFIG)
        return [engine.execute(q).result for q in spec.parsed()]

    # Clean differential modes ---------------------------------------------

    def run_case(self, spec: CaseSpec) -> SequenceResult:
        """Run every mode + the fault pass; raises OracleFailure."""
        started = time.perf_counter()
        expected = self.reference_results(spec)
        outcome = SequenceResult(spec=spec, modes=CLEAN_MODES)
        self._run_static(
            spec,
            expected,
            StaticEngine(spec.build_table(), EngineConfig(use_codegen=False)),
            "volcano",
        )
        self._run_static(
            spec, expected, ColumnStoreEngine(spec.build_table()), "column"
        )
        self._run_adaptive(spec, expected, use_codegen=True)
        self._run_adaptive(spec, expected, use_codegen=False)
        self._run_service(spec, expected)
        self._run_adaptive_parallel(spec, expected)
        self._run_adaptive_guarded(spec, expected)
        self._run_adaptive_clustered_encoded(spec, expected)
        outcome.queries_checked = len(expected) * (len(CLEAN_MODES) + 1)
        if self.with_faults:
            fired_inline = self._run_faulted_inline(spec, expected)
            fired_service = self._run_faulted_service(spec, expected)
            for point, count in {**fired_inline, **fired_service}.items():
                outcome.fired_faults[point] = (
                    fired_inline.get(point, 0) + fired_service.get(point, 0)
                )
        outcome.seconds = time.perf_counter() - started
        return outcome

    def _run_static(
        self,
        spec: CaseSpec,
        expected: Sequence[QueryResult],
        engine,
        mode: str,
    ) -> None:
        for index, query in enumerate(spec.parsed()):
            got = engine.execute(query).result
            if not results_identical(got, expected[index]):
                raise OracleFailure(
                    _describe_divergence(
                        index, spec.queries[index], got, expected[index], mode
                    )
                )

    def _run_adaptive(
        self,
        spec: CaseSpec,
        expected: Sequence[QueryResult],
        use_codegen: bool,
    ) -> None:
        mode = "adaptive-inline" if use_codegen else "adaptive-interpreted"
        engine = H2OEngine(
            spec.build_table(),
            self._adaptive_config(use_codegen=use_codegen),
        )
        epoch = 0
        for index, query in enumerate(spec.parsed()):
            report = engine.execute(query)
            if not results_identical(report.result, expected[index]):
                raise OracleFailure(
                    _describe_divergence(
                        index,
                        spec.queries[index],
                        report.result,
                        expected[index],
                        mode,
                    )
                )
            epoch = check_engine_invariants(engine, epoch, mode)
            if report.snapshot_epoch > epoch:
                raise OracleFailure(
                    f"[{mode}] report pinned epoch {report.snapshot_epoch} "
                    f"newer than the table's {epoch}"
                )

    def _run_adaptive_parallel(
        self, spec: CaseSpec, expected: Sequence[QueryResult]
    ) -> None:
        """Parallel morsel path vs a morsel-serial twin of itself.

        Both engines share every adaptive knob (tiny morsels so even a
        small case splits into many); only ``max_scan_threads`` differs
        (4 vs 1), and the parallel engine gets a dedicated 4-thread pool
        so the check is independent of the host's core count.  Adaptation is
        deterministic and blind to the thread count, so the two engines
        evolve identical layouts — which lets the oracle assert the
        *stronger* property: per query, answers are bit-identical to
        the row reference **and** ``morsels_pruned`` matches between
        parallel and serial execution (zone-map pruning must be a pure
        function of data + predicate, never of scheduling).
        """
        from ..execution.parallel import ScanPool

        mode = "adaptive-parallel"
        morsel_knobs = dict(vector_size=64, morsel_rows=128)
        engine = H2OEngine(
            spec.build_table(),
            self._adaptive_config(max_scan_threads=4, **morsel_knobs),
        )
        engine.executor.scan_pool = ScanPool(max_threads=4)
        twin = H2OEngine(
            spec.build_table(),
            self._adaptive_config(max_scan_threads=1, **morsel_knobs),
        )
        epoch = 0
        for index, query in enumerate(spec.parsed()):
            report = engine.execute(query)
            twin_report = twin.execute(query)
            if not results_identical(report.result, expected[index]):
                raise OracleFailure(
                    _describe_divergence(
                        index,
                        spec.queries[index],
                        report.result,
                        expected[index],
                        mode,
                    )
                )
            if not results_identical(report.result, twin_report.result):
                raise OracleFailure(
                    _describe_divergence(
                        index,
                        spec.queries[index],
                        report.result,
                        twin_report.result,
                        f"{mode} (vs morsel-serial twin)",
                    )
                )
            if report.morsels_pruned != twin_report.morsels_pruned:
                raise OracleFailure(
                    f"[{mode}] query #{index} pruning diverged between "
                    f"parallel ({report.morsels_pruned}/"
                    f"{report.morsels_total}) and serial "
                    f"({twin_report.morsels_pruned}/"
                    f"{twin_report.morsels_total}) execution\n"
                    f"  sql: {spec.queries[index]}"
                )
            epoch = check_engine_invariants(engine, epoch, mode)

    def _run_adaptive_guarded(
        self, spec: CaseSpec, expected: Sequence[QueryResult]
    ) -> None:
        """The eighth path: the regret-bounded switching policy.

        Same adaptive knobs as ``adaptive-inline`` but with
        ``adaptation_policy="guarded"`` — materializations the greedy
        engine performs immediately may be deferred or skipped here,
        which must be invisible in answers.  Beyond bit-identity and
        the physical invariants, the oracle asserts the policy's own
        regret invariant and that its deferral/switch ledger is
        consistent with the layouts actually built.
        """
        mode = "adaptive-guarded"
        engine = H2OEngine(
            spec.build_table(),
            self._adaptive_config(
                adaptation_policy="guarded", hedging_factor=2.0
            ),
        )
        epoch = 0
        for index, query in enumerate(spec.parsed()):
            report = engine.execute(query)
            if not results_identical(report.result, expected[index]):
                raise OracleFailure(
                    _describe_divergence(
                        index,
                        spec.queries[index],
                        report.result,
                        expected[index],
                        mode,
                    )
                )
            epoch = check_engine_invariants(engine, epoch, mode)
        check_policy_invariants(engine, mode)

    def _run_adaptive_clustered_encoded(
        self, spec: CaseSpec, expected: Sequence[QueryResult]
    ) -> None:
        """The ninth path: adaptive clustering + encoded layouts.

        Same adaptive knobs as ``adaptive-inline`` plus
        ``adaptive_clustering`` and ``encoded_layouts`` with tiny row
        minimums, so even small oracle cases trigger physical
        transforms that *permute row order* and add dictionary /
        bit-packed replicas mid-sequence.  Aggregations must stay
        bit-identical to the row reference; projections are compared
        as canonical-sorted multisets (row order is not part of SQL
        semantics, and clustering legitimately changes it).  After the
        sequence: zone maps must recompute exactly, clustering
        telemetry must be honest, and the switch ledger must balance
        against the layouts/transforms actually built.
        """
        mode = "adaptive-clustered-encoded"
        engine = H2OEngine(
            spec.build_table(),
            self._adaptive_config(
                adaptive_clustering=True,
                encoded_layouts=True,
                cluster_rows_min=64,
                encoding_min_rows=64,
            ),
        )
        epoch = 0
        queries = spec.parsed()
        for index, query in enumerate(queries):
            report = engine.execute(query)
            same = (
                results_identical(report.result, expected[index])
                if query.is_aggregation
                else results_multiset_identical(
                    report.result, expected[index]
                )
            )
            if not same:
                raise OracleFailure(
                    _describe_divergence(
                        index,
                        spec.queries[index],
                        report.result,
                        expected[index],
                        mode,
                    )
                )
            epoch = check_engine_invariants(engine, epoch, mode)
        check_zone_map_exactness(engine, mode)
        check_cluster_telemetry(engine, mode)
        check_policy_invariants(engine, mode)

    def _run_service(
        self, spec: CaseSpec, expected: Sequence[QueryResult]
    ) -> None:
        mode = "adaptive-background"
        service = H2OService(
            config=self._adaptive_config(adaptation_mode="background"),
            num_workers=self.workers,
            max_pending=4 * max(1, len(spec.queries)),
            name="oracle-service",
        )
        try:
            service.register(spec.build_table())
            engine = service.system.engine_for(spec.table_name)
            epoch = 0
            # Submit the whole sequence concurrently — workers interleave
            # shapes while the background scheduler publishes layouts.
            futures = [
                service.submit(sql, timeout=120.0) for sql in spec.queries
            ]
            for index, future in enumerate(futures):
                report = future.result(120.0)
                if not results_identical(report.result, expected[index]):
                    raise OracleFailure(
                        _describe_divergence(
                            index,
                            spec.queries[index],
                            report.result,
                            expected[index],
                            mode,
                        )
                    )
                epoch = check_engine_invariants(engine, epoch, mode)
        finally:
            service.close()

    # Fault passes ---------------------------------------------------------

    def _run_faulted_inline(
        self,
        spec: CaseSpec,
        expected: Sequence[QueryResult],
        rng_tag: str = "inline",
    ) -> Dict[str, int]:
        """Inline engine under compile + online-stitch faults.

        Both fault kinds have *fallback* semantics: every query must
        still be answered, identically, and every fired fault must be
        visible in the engine's counters afterwards.
        """
        mode = f"faults-{rng_tag}"
        engine = H2OEngine(spec.build_table(), self._adaptive_config())
        schedule = random_schedule(
            derive_rng(spec.seed, "faults", rng_tag),
            horizon=max(4, 2 * len(spec.queries)),
            faults_per_point=self.faults_per_point,
            points=("codegen.compile", "reorg.online"),
        )
        injector = FaultInjector(schedule)
        epoch = 0
        with injector:
            for index, query in enumerate(spec.parsed()):
                report = engine.execute(query)
                if not results_identical(report.result, expected[index]):
                    raise OracleFailure(
                        _describe_divergence(
                            index,
                            spec.queries[index],
                            report.result,
                            expected[index],
                            mode,
                        )
                    )
                epoch = check_engine_invariants(engine, epoch, mode)
        fired = injector.fired_by_point()
        if engine.executor.codegen_fallbacks != fired.get(
            "codegen.compile", 0
        ):
            raise OracleFailure(
                f"[{mode}] {fired.get('codegen.compile', 0)} compile "
                f"fault(s) fired but the executor recorded "
                f"{engine.executor.codegen_fallbacks} interpreted "
                f"fallback(s) — a fault was swallowed silently"
            )
        if engine.reorg_aborts != fired.get("reorg.online", 0):
            raise OracleFailure(
                f"[{mode}] {fired.get('reorg.online', 0)} online-stitch "
                f"abort(s) fired but the engine recorded "
                f"{engine.reorg_aborts} — a fault was swallowed silently"
            )
        return fired

    def _run_faulted_service(
        self,
        spec: CaseSpec,
        expected: Sequence[QueryResult],
        rng_tag: str = "service",
    ) -> Dict[str, int]:
        """Service under compile, offline-stitch, worker-death and
        transient-execute faults — every one *absorbed*.

        The self-healing ladder (docs/resilience.md) means none of
        these may reach a waiter: a worker death requeues the ticket
        (the watchdog heals the pool), a transient execute failure is
        retried under the attempt budget, a compile failure falls back
        interpreted, an offline stitch abort is counted and the
        candidate quarantined.  Every query must therefore be answered
        **bit-identically** — a surfaced exception is an oracle
        failure — and every absorbed fault must show up in the evidence
        counters with *exact* equality, so a silently swallowed fault
        fails the run just as loudly as a crash.

        ``max_query_attempts`` is set above the worst case a schedule
        can stack on one ticket (``faults_per_point`` worker deaths +
        ``faults_per_point`` transient failures), so absorption is a
        guarantee, not luck.
        """
        mode = f"faults-{rng_tag}"
        service = H2OService(
            config=self._adaptive_config(adaptation_mode="background"),
            num_workers=self.workers,
            max_pending=4 * max(1, len(spec.queries)),
            max_query_attempts=2 * self.faults_per_point + 2,
            name="oracle-fault-service",
        )
        schedule = random_schedule(
            derive_rng(spec.seed, "faults", rng_tag),
            horizon=max(4, len(spec.queries)),
            faults_per_point=self.faults_per_point,
            points=(
                "codegen.compile",
                "reorg.offline",
                "service.worker",
                "service.execute",
            ),
        )
        injector = FaultInjector(schedule)
        try:
            with injector:
                service.register(spec.build_table())
                engine = service.system.engine_for(spec.table_name)
                epoch = 0
                # Serial submission keeps occurrence indices (and thus
                # which query each fault hits) deterministic.
                for index, sql in enumerate(spec.queries):
                    try:
                        report = service.execute(sql, timeout=120.0)
                    except Exception as exc:  # noqa: BLE001
                        raise OracleFailure(
                            f"[{mode}] query #{index} surfaced an "
                            f"exception the degradation ladder should "
                            f"have absorbed: {exc!r}\n  sql: {sql}"
                        )
                    if not results_identical(report.result, expected[index]):
                        raise OracleFailure(
                            _describe_divergence(
                                index,
                                sql,
                                report.result,
                                expected[index],
                                mode,
                            )
                        )
                    epoch = check_engine_invariants(engine, epoch, mode)
                # Let the background scheduler drain its candidates (and
                # hit any scheduled offline-stitch faults) before the
                # evidence audit; bounded wait, no fixed sleeps.
                deadline = time.monotonic() + 10.0
                while (
                    engine.background_candidates()
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                check_engine_invariants(engine, epoch, mode)
                # The watchdog must have healed the pool back to full
                # strength (bounded wait — respawns are budgeted).
                heal_deadline = time.monotonic() + 10.0
                while (
                    service.alive_workers() < self.workers
                    and time.monotonic() < heal_deadline
                ):
                    time.sleep(0.01)
                alive = service.alive_workers()
                if alive < self.workers:
                    raise OracleFailure(
                        f"[{mode}] watchdog failed to heal the pool: "
                        f"{alive}/{self.workers} workers alive after "
                        f"{service.stats.snapshot()['worker_deaths']:.0f} "
                        f"death(s)"
                    )
        finally:
            service.close()
        fired = injector.fired_by_point()
        stats = service.stats.snapshot()
        scheduler_stats = (
            service.scheduler.stats() if service.scheduler else {}
        )
        audits: List[Tuple[str, int, int]] = [
            (
                "codegen.compile → executor.codegen_fallbacks",
                fired.get("codegen.compile", 0),
                engine.executor.codegen_fallbacks,
            ),
            (
                "reorg.offline → scheduler.stitch_failures",
                fired.get("reorg.offline", 0),
                int(scheduler_stats.get("stitch_failures", 0)),
            ),
            (
                "service.worker → stats.worker_deaths",
                fired.get("service.worker", 0),
                int(stats["worker_deaths"]),
            ),
            (
                "service.worker → stats.requeued_deaths",
                fired.get("service.worker", 0),
                int(stats["requeued_deaths"]),
            ),
            (
                "service.execute → stats.retried_failures",
                fired.get("service.execute", 0),
                int(stats["retried_failures"]),
            ),
            ("no waiter saw a failure", 0, int(stats["failed"])),
            ("no waiter saw a timeout", 0, int(stats["timeouts"])),
        ]
        for description, injected, observed in audits:
            if injected != observed:
                raise OracleFailure(
                    f"[{mode}] fault evidence mismatch ({description}): "
                    f"expected {injected} but observed {observed} — a "
                    f"fault was swallowed silently or surfaced wrongly"
                )
        return fired

    # Chaos mode ------------------------------------------------------------

    def chaos_case(self, spec: CaseSpec) -> SequenceResult:
        """One chaos sequence: faults at *every* registered point.

        Two sub-passes cover the five fault points end to end (online
        stitches only happen on the inline path by design — background
        mode routes materialization through the scheduler):

        1. **inline** — ``codegen.compile`` + ``reorg.online`` against
           the inline engine;
        2. **service** — ``codegen.compile``, ``reorg.offline``,
           ``service.worker``, ``service.execute`` against the full
           background service.

        Acceptance is strict: zero crashes, zero wrong answers, the
        worker pool healed, and every fired fault accounted for in the
        degradation evidence with exact equality.
        """
        started = time.perf_counter()
        expected = self.reference_results(spec)
        outcome = SequenceResult(
            spec=spec, modes=("chaos-inline", "chaos-service")
        )
        fired_inline = self._run_faulted_inline(
            spec, expected, rng_tag="chaos-inline"
        )
        fired_service = self._run_faulted_service(
            spec, expected, rng_tag="chaos-service"
        )
        for point in set(fired_inline) | set(fired_service):
            outcome.fired_faults[point] = fired_inline.get(
                point, 0
            ) + fired_service.get(point, 0)
        outcome.queries_checked = 2 * len(expected)
        outcome.seconds = time.perf_counter() - started
        return outcome


def run_sequence(
    seed: int,
    *,
    workers: int = 3,
    with_faults: bool = True,
    spec: Optional[CaseSpec] = None,
) -> SequenceResult:
    """Convenience wrapper: generate (or accept) a spec and run it."""
    from .generate import random_case

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
    from .generate import random_case

    oracle = DifferentialOracle(
        workers=workers, faults_per_point=faults_per_point
    )
    return oracle.chaos_case(
        spec if spec is not None else random_case(seed)
    )


# Scenario replay oracle ------------------------------------------------------
#
# The adversarial scenario pack (repro/workloads/scenarios.py) replayed
# under BOTH switching policies against the row reference: the policies
# may reorganize differently, but every answer must stay bit-identical,
# every engine invariant must hold after every query, and the guarded
# policy's regret ledger must balance at the end of the stream.

#: Every scenario replays under each of these policies.
SCENARIO_POLICIES = ("greedy-paper", "guarded")


@dataclass
class ScenarioOutcome:
    """What one scenario replay executed and observed."""

    name: str
    seed: int
    queries_checked: int = 0
    appends_replayed: int = 0
    #: policy → layouts the manager built during the replay.
    reorgs: Dict[str, int] = field(default_factory=dict)
    #: policy → materializations the policy deferred.
    deferrals: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    def describe(self) -> str:
        reorgs = " ".join(
            f"{policy}={count}" for policy, count in self.reorgs.items()
        )
        return (
            f"{self.name} (seed {self.seed}) — {self.queries_checked} "
            f"answers checked, {self.appends_replayed} appends, "
            f"reorgs: {reorgs}, {self.seconds:.2f}s"
        )


def _scenario_reference(scenario: "Scenario") -> List[QueryResult]:
    """Ground truth for a scenario stream: the interpreted row baseline,
    with the scenario's appends applied at the same stream positions."""
    engine = RowStoreEngine(scenario.make_table(), REFERENCE_CONFIG)
    expected: List[QueryResult] = []
    for op in scenario.ops:
        if op[0] == "query":
            expected.append(engine.execute(parse_query(op[1])).result)
        else:
            engine.table.append_rows(
                scenario.append_batch(op[1], op[2])
            )
    return expected


def _replay_scenario(
    scenario: "Scenario",
    expected: Sequence[QueryResult],
    policy: str,
    hedging_factor: float,
) -> H2OEngine:
    """Replay one scenario under one policy, checking every answer."""
    label = f"scenario:{scenario.name}:{policy}"
    engine = H2OEngine(
        scenario.make_table(),
        EngineConfig(
            adaptation_policy=policy,
            hedging_factor=hedging_factor,
            **ORACLE_CONFIG,
        ),
    )
    epoch = 0
    index = 0
    for op in scenario.ops:
        if op[0] == "query":
            report = engine.execute(parse_query(op[1]))
            if not results_identical(report.result, expected[index]):
                raise OracleFailure(
                    _describe_divergence(
                        index, op[1], report.result, expected[index], label
                    )
                )
            epoch = check_engine_invariants(engine, epoch, label)
            index += 1
        else:
            engine.table.append_rows(
                scenario.append_batch(op[1], op[2])
            )
    check_policy_invariants(engine, label)
    return engine


def scenario_case(
    name: str,
    seed: int = 0,
    *,
    hedging_factor: float = 2.0,
    **kwargs: object,
) -> ScenarioOutcome:
    """Replay one named scenario under both policies against the row
    reference; raises :class:`OracleFailure` on any divergence."""
    from ..workloads.scenarios import build_scenario

    started = time.perf_counter()
    scenario = build_scenario(name, seed, **kwargs)
    expected = _scenario_reference(scenario)
    outcome = ScenarioOutcome(name=scenario.name, seed=seed)
    for policy in SCENARIO_POLICIES:
        engine = _replay_scenario(
            scenario, expected, policy, hedging_factor
        )
        outcome.reorgs[policy] = len(engine.manager.creation_log)
        outcome.deferrals[policy] = engine.policy.deferrals
    guarded = outcome.reorgs.get("guarded", 0)
    greedy = outcome.reorgs.get("greedy-paper", 0)
    if guarded > greedy:
        raise OracleFailure(
            f"[scenario:{scenario.name}] guarded built {guarded} "
            f"layout(s), more than greedy's {greedy} — hedging must "
            f"never reorganize more than the policy it hedges"
        )
    outcome.queries_checked = len(expected) * len(SCENARIO_POLICIES)
    outcome.appends_replayed = (
        scenario.append_count * len(SCENARIO_POLICIES)
    )
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
        scenario_case(
            name, seed, hedging_factor=hedging_factor, **kwargs
        )
        for name in SCENARIOS
    ]
