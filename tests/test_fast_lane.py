"""The steady-state fast lane: plan-cache correctness and invalidation.

The fast lane may skip analysis, planning, costing and codegen-key
construction — but never correctness: a cached-plan answer must be
bit-for-bit the answer the cold path would have produced, and any event
that could change the cold path's decision (new layouts, retired
layouts, drifted selectivity) must drop the cached entry.  Appended
rows change no decision: a hit rebinds its plan and zone bounds to the
extended layouts.  A hit never skips a build either: every query, hit or cold,
asks the adaptation half whether it triggers one first.
"""

import sys
import threading
import time

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import EngineConfig
from repro.core.engine import H2OEngine
from repro.core.planner import CachedPlan, PlanCache
from repro.sql import parse_query
from repro.storage import Schema, Table, generate_table


def fresh_engine(plan_cache=True, rows=2_000, attrs=8, rng=7, **overrides):
    """An engine over its own private copy of the deterministic table."""
    table = generate_table("r", attrs, rows, rng=rng)
    config = EngineConfig(plan_cache=plan_cache, **overrides)
    return H2OEngine(table, config)


class TestFastLaneEngages:
    def test_repeat_shape_hits_the_cache(self):
        engine = fresh_engine()
        reports = [
            engine.execute(f"SELECT sum(a1 + a2) FROM r WHERE a3 > {v}")
            for v in (10, 20, 30, 40)
        ]
        assert not reports[0].plan_cache_hit  # cold
        assert all(r.plan_cache_hit for r in reports[1:])
        stats = engine.plan_cache.stats()
        assert stats["hits"] == 3 and stats["size"] >= 1

    def test_hit_answers_match_numpy(self):
        engine = fresh_engine()
        a1 = np.asarray(engine.table.column("a1"))
        a3 = np.asarray(engine.table.column("a3"))
        for v in (0, 10**8, -(10**8)):
            report = engine.execute(
                f"SELECT sum(a1), count(*) FROM r WHERE a3 > {v}"
            )
            mask = a3 > v
            assert report.result.scalars() == pytest.approx(
                (float(a1[mask].sum()), float(mask.sum()))
            )
        assert engine.reports[-1].plan_cache_hit

    def test_projection_hits_match_numpy(self):
        engine = fresh_engine()
        a1 = np.asarray(engine.table.column("a1"))
        a2 = np.asarray(engine.table.column("a2"))
        for v in (0, 5 * 10**8):
            report = engine.execute(f"SELECT a1 FROM r WHERE a2 < {v}")
            assert (report.result.column(0) == a1[a2 < v]).all()
        assert engine.reports[-1].plan_cache_hit

    def test_disabled_means_no_hits(self):
        engine = fresh_engine(plan_cache=False)
        for v in (1, 2, 3):
            engine.execute(f"SELECT sum(a1) FROM r WHERE a2 > {v}")
        assert not any(r.plan_cache_hit for r in engine.reports)
        assert engine.plan_cache.stats()["hits"] == 0

    @pytest.mark.parametrize("use_codegen", [True, False])
    def test_constant_conjunct_is_a_slot_of_the_shape(self, use_codegen):
        """``1 < 2`` and ``2 < 1`` are one shape: the cached plan and
        kernel evaluate the constant per query, never bake it in."""
        engine = fresh_engine(use_codegen=use_codegen)
        a1 = np.asarray(engine.table.column("a1"))
        a2 = np.asarray(engine.table.column("a2"))
        mask = a2 > 0
        for lo, hi in ((1, 2), (2, 1), (3, 4), (5, 5), (-1, 0)):
            report = engine.execute(
                f"SELECT sum(a1), count(*) FROM r WHERE a2 > 0 AND {lo} < {hi}"
            )
            keep = mask if lo < hi else np.zeros_like(mask)
            assert report.result.scalars() == pytest.approx(
                (float(a1[keep].sum()), float(keep.sum()))
            )
            projected = engine.execute(
                f"SELECT a1 FROM r WHERE {lo} < {hi}"
            )
            assert projected.result.num_rows == (len(a1) if lo < hi else 0)
        # ``2 < 1`` ran both shapes' plans cached by ``1 < 2``.
        assert engine.reports[2].plan_cache_hit
        assert engine.reports[3].plan_cache_hit

    def test_describe_reports_plan_cache(self):
        engine = fresh_engine()
        engine.execute("SELECT a1 FROM r")
        assert "plan cache" in engine.describe()


#: Recurring shapes for the equivalence property; ``{v}`` takes a drawn
#: literal so repeats share a shape signature without sharing constants.
PROPERTY_SHAPES = (
    "SELECT sum(a1 + a2), count(*) FROM r WHERE a3 > {v}",
    "SELECT a1, a4 FROM r WHERE a2 < {v}",
    "SELECT min(a5), max(a1) FROM r",
    "SELECT avg(a2), sum(a3 * a4) FROM r WHERE a1 > {v} AND a5 < {v}",
    "SELECT a2, a3, a5 FROM r WHERE a4 > {v}",
)


@given(
    st.lists(
        st.tuples(
            st.integers(0, len(PROPERTY_SHAPES) - 1),
            st.integers(-(10**9), 10**9),
        ),
        min_size=1,
        max_size=30,
    ),
    st.integers(0, 2**16),
)
@settings(max_examples=15, deadline=None)
def test_cached_plan_answers_equal_cold_path_answers(stream, seed):
    """Property: the fast lane never changes an answer or a decision.

    The same stream runs through two engines over identical data — one
    with the plan cache, one without — through whatever adaptation and
    layout churn the stream provokes.  Every result pair must agree, and
    so must the morsels the zone maps pruned and the layouts built.  A
    query the cached engine plans cold picks the uncached engine's plan
    and strategy; a hit replays the decision of its shape's last cold
    plan (which may differ from a fresh plan while the learned
    selectivity stays within the drift band).
    """
    table_on = generate_table("r", 5, 400, rng=seed)
    table_off = generate_table("r", 5, 400, rng=seed)
    engine_on = H2OEngine(table_on, EngineConfig(plan_cache=True))
    engine_off = H2OEngine(table_off, EngineConfig(plan_cache=False))
    decided = {}
    for shape_index, literal in stream:
        sql = PROPERTY_SHAPES[shape_index].format(v=literal)
        hot = engine_on.execute(sql)
        cold = engine_off.execute(sql)
        assert hot.result.allclose(cold.result), sql
        assert hot.morsels_pruned == cold.morsels_pruned, sql
        assert hot.layout_created == cold.layout_created, sql
        shape = hot.query.shape_signature()
        if hot.plan_cache_hit:
            assert (hot.plan, hot.strategy) == decided[shape], sql
        else:
            assert (hot.plan, hot.strategy) == (cold.plan, cold.strategy)
            decided[shape] = (hot.plan, hot.strategy)


class TestEpochInvalidation:
    def test_append_rows_keeps_cached_plans(self):
        """An append keeps the layout set, so a repeat stays a hit: its
        plan is rebound to the extended layouts and its zone bounds to
        their extended maps.  Adding or dropping a layout still evicts."""
        engine = fresh_engine(rows=1_000, attrs=4, morsel_rows=256)
        sql = "SELECT sum(a1), count(*) FROM r WHERE a2 > {v}"
        engine.execute(sql.format(v=5))
        assert engine.execute(sql.format(v=6)).plan_cache_hit

        # Rows 1 000..1 299 fill the partial tail morsel and two new
        # ones; only they satisfy a2 > 10**9.
        extra = {
            name: np.full(300, 2 * 10**9, dtype=np.int64)
            for name in engine.table.schema.names
        }
        engine.table.append_rows(extra)

        after = engine.execute(sql.format(v=10**9))
        assert after.plan_cache_hit
        assert after.morsels_total == 6 and after.morsels_pruned == 3
        assert engine.plan_cache.stats()["invalidations"] == {}
        cold = H2OEngine(engine.table, EngineConfig(plan_cache=False))
        want = cold.execute(sql.format(v=10**9)).result.data
        assert after.result.data.tobytes() == want.tobytes()
        assert after.result.scalars() == (300 * 2.0 * 10**9, 300)
        # The rebound entry is stored under the new epoch: the plan
        # scans the snapshot's layouts.
        again = engine.execute(sql.format(v=7))
        assert again.plan_cache_hit
        assert again.snapshot_epoch == engine.table.layout_epoch
        a1 = np.asarray(engine.table.column("a1"))
        a2 = np.asarray(engine.table.column("a2"))
        mask = a2 > 7
        assert again.result.scalars() == pytest.approx(
            (float(a1[mask].sum()), float(mask.sum()))
        )

        group, _ = engine.manager.build_group(("a1", "a2"))
        assert not engine.execute(sql.format(v=8)).plan_cache_hit
        assert engine.execute(sql.format(v=9)).plan_cache_hit
        engine.table.drop_layout(group)
        assert not engine.execute(sql.format(v=10)).plan_cache_hit
        assert engine.plan_cache.stats()["invalidations"] == {"epoch": 2}

    def test_new_layout_drops_cached_plans(self):
        engine = fresh_engine(rows=1_000, attrs=6)
        sql = "SELECT a1 FROM r WHERE a2 < {v}"
        engine.execute(sql.format(v=0))
        assert engine.execute(sql.format(v=1)).plan_cache_hit

        epoch = engine.table.layout_epoch
        engine.manager.build_group(("a1", "a2"))
        assert engine.table.layout_epoch > epoch

        report = engine.execute(sql.format(v=2))
        assert not report.plan_cache_hit
        assert engine.execute(sql.format(v=3)).plan_cache_hit

    def test_retired_layout_drops_cached_plans(self):
        engine = fresh_engine(rows=1_000, attrs=6)
        group, _ = engine.manager.build_group(("a3", "a4"))
        sql = "SELECT sum(a3 + a4) FROM r WHERE a5 > {v}"
        engine.execute(sql.format(v=0))
        assert engine.execute(sql.format(v=1)).plan_cache_hit

        engine.table.drop_layout(group)  # cold-group retirement path

        report = engine.execute(sql.format(v=2))
        assert not report.plan_cache_hit
        # The replacement plan no longer touches the dropped layout.
        assert report.result is not None
        assert engine.execute(sql.format(v=3)).plan_cache_hit

    def test_adaptation_churn_stays_correct(self):
        """Through materialization and candidate refreshes, repeats of
        one hot shape keep producing the first answer and eventually ride
        the fast lane again."""
        table = generate_table("r", 12, 10_000, rng=2)
        engine = H2OEngine(table, EngineConfig(window_size=8))
        sql = "SELECT sum(a1 + a2 + a3) FROM r WHERE a4 > 0 AND a5 < 0"
        reports = [engine.execute(sql) for _ in range(25)]
        for report in reports[1:]:
            assert reports[0].result.allclose(report.result)
        assert any(r.layout_created for r in reports)  # adaptation happened
        assert any(r.plan_cache_hit for r in reports[-5:])
        # Every query that built a layout re-planned on the cold path.
        assert all(
            not r.plan_cache_hit for r in reports if r.layout_created
        )


class TestAppendsRaceRepeats:
    def test_every_answer_is_some_published_epochs(self):
        """A writer appends while two readers repeat cached shapes, with
        thread switches forced every few microseconds: hits rebind to
        whatever snapshot they pinned, so every answer equals the serial
        answer after some number of appended batches."""
        rng = np.random.default_rng(5)
        base = {
            f"a{i}": rng.integers(0, 1_000, size=700, dtype=np.int64)
            for i in range(1, 5)
        }
        batches = [
            {
                name: rng.integers(1_000, 2_000, size=37, dtype=np.int64)
                for name in base
            }
            for _ in range(120)
        ]
        table = Table.from_columns("r", Schema.from_names(base), base)
        engine = H2OEngine(table, EngineConfig(morsel_rows=128))
        shapes = (
            "SELECT sum(a1), count(*) FROM r WHERE a2 > {v}",
            "SELECT sum(a3 + a4), max(a1) FROM r WHERE a2 > {v} AND a3 < 1900",
        )
        literals = (500, 1_200, 1_800)
        # The serial answers after k batches, for every k.
        serial = {}
        columns = {name: values.copy() for name, values in base.items()}
        for k in range(len(batches) + 1):
            if k:
                for name in columns:
                    columns[name] = np.concatenate(
                        [columns[name], batches[k - 1][name]]
                    )
            a1, a2, a3, a4 = (columns[f"a{i}"] for i in range(1, 5))
            for v in literals:
                mask = a2 > v
                serial.setdefault((0, v), set()).add(
                    (float(a1[mask].sum()), float(mask.sum()))
                )
                mask &= a3 < 1900
                serial.setdefault((1, v), set()).add(
                    (
                        float((a3 + a4)[mask].sum()),
                        float(a1[mask].max()) if mask.any() else None,
                    )
                )
        for shape, sql in enumerate(shapes):
            engine.execute(sql.format(v=literals[0]))  # cache the plans

        done = threading.Event()
        errors, hits = [], []

        def writer():
            try:
                for batch in batches:
                    table.append_rows(batch)
                    time.sleep(0.002)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
            finally:
                done.set()

        def reader(seed):
            pick = np.random.default_rng(seed)
            try:
                while not done.is_set():
                    shape = int(pick.integers(0, 2))
                    v = literals[int(pick.integers(0, 3))]
                    report = engine.execute(shapes[shape].format(v=v))
                    # The max over no qualifying row reads as NaN.
                    got = tuple(
                        None if x is None or x != x else float(x)
                        for x in report.result.scalars()
                    )
                    assert got in serial[(shape, v)], (shape, v, got)
                    hits.append(report.plan_cache_hit)
            except BaseException as exc:
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader, args=(i,)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, repr(errors[0])
        assert table.num_rows == 700 + 120 * 37
        assert sum(hits) > len(hits) // 2


class TestDriftInvalidation:
    def test_selectivity_drift_evicts_the_entry(self):
        engine = fresh_engine(rows=2_000, attrs=4)
        sql = "SELECT a1 FROM r WHERE a2 < {v}"
        empty, full = -(2 * 10**9), 2 * 10**9
        for _ in range(4):  # learn: nothing qualifies
            engine.execute(sql.format(v=empty))
        for _ in range(4):  # same shape, everything qualifies
            engine.execute(sql.format(v=full))
        stats = engine.plan_cache.stats()
        assert stats["invalidations"].get("drift", 0) >= 1
        # After re-planning under the new selectivity the shape is hot again.
        assert engine.execute(sql.format(v=full)).plan_cache_hit


class TestEveryQueryAsksTheTrigger:
    @pytest.mark.parametrize("plan_cache", [True, False])
    def test_quarantined_group_is_built_once_its_backoff_expires(
        self, plan_cache
    ):
        """An aborted stitch quarantines its group for a few queries;
        the first repeat after the backoff builds it, whether the shape
        is answered from the plan cache or planned cold."""
        from repro.testkit.faults import FaultInjector
        from repro.testkit.oracle import ORACLE_CONFIG

        engine = H2OEngine(
            generate_table("t", 8, 2000, rng=11),
            EngineConfig(**{**ORACLE_CONFIG, "plan_cache": plan_cache}),
        )
        sql = "SELECT sum(a1 + a2) FROM t WHERE a3 > 0"
        with FaultInjector({"reorg.online": {0}}):
            reports = [engine.execute(sql) for _ in range(400)]
        (aborted,) = [r.index for r in reports if r.reorg_aborted]
        built = [r.index for r in reports if r.layout_created]
        assert len(built) == 1
        assert built[0] <= aborted + engine.quarantine.base + 1
        assert engine.table.find_group(("a1", "a2")) is not None
        assert engine.candidates == []
        assert {r.result.data.tobytes() for r in reports} == {
            reports[0].result.data.tobytes()
        }


def _entry(sql: str, epoch: int = 0) -> CachedPlan:
    """An entry cached under layout set ``epoch`` (and row epoch 0)."""
    query = parse_query(sql)
    return CachedPlan(
        signature=query.shape_signature(),
        epoch=0,
        layout_set_epoch=epoch,
        positions=(),
        info=None,
        plan=None,
    )


class TestPlanCacheUnit:
    def test_lru_eviction_beyond_capacity(self):
        cache = PlanCache(capacity=2)
        first = _entry("SELECT a1 FROM r")
        second = _entry("SELECT a2 FROM r")
        third = _entry("SELECT a3 FROM r")
        cache.store(first)
        cache.store(second)
        cache.lookup(first.signature, 0)  # refresh first; second is LRU
        cache.store(third)
        assert len(cache) == 2 and cache.evictions == 1
        assert cache.lookup(second.signature, 0) is None
        assert cache.lookup(first.signature, 0) is first
        assert cache.lookup(third.signature, 0) is third

    def test_epoch_mismatch_drops_on_sight(self):
        cache = PlanCache()
        entry = _entry("SELECT a1 FROM r", epoch=3)
        cache.store(entry)
        assert cache.lookup(entry.signature, 4) is None
        assert len(cache) == 0
        assert cache.invalidations == {"epoch": 1}
        assert cache.misses == 1

    def test_invalidate_counts_reason(self):
        cache = PlanCache()
        first = _entry("SELECT a1 FROM r")
        cache.store(first)
        cache.store(_entry("SELECT a2 FROM r"))
        assert cache.invalidate(first.signature, "drift")
        assert not cache.invalidate(first.signature, "drift")
        assert len(cache) == 1
        assert cache.invalidations == {"drift": 1}

    def test_stats_shape(self):
        cache = PlanCache()
        entry = _entry("SELECT a1 FROM r")
        cache.store(entry)
        cache.lookup(entry.signature, 0)
        stats = cache.stats()
        assert stats == {
            "size": 1,
            "hits": 1,
            "misses": 0,
            "evictions": 0,
            "invalidations": {},
        }
        assert entry.hits == 1
