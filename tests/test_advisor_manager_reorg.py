"""The advisor (Eq. 1 search), layout manager, and reorganizer."""

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.advisor import CandidateLayout, LayoutAdvisor
from repro.core.cost_model import CostModel
from repro.core.layout_manager import LayoutManager
from repro.core.monitor import Monitor
from repro.core.reorganizer import Reorganizer
from repro.errors import ExecutionError
from repro.sql import analyze_query, parse_query
from repro.storage import generate_table
from repro.workloads.microbench import aggregation_query


def repeated_pattern_monitor(table, attrs, count=8, capacity=20):
    monitor = Monitor(table.schema, capacity)
    query = aggregation_query(
        attrs[:-2], where_attrs=attrs[-2:], selectivity=0.4, func="sum"
    )
    for _ in range(count):
        monitor.observe(query)
    return monitor, query


class TestAdvisor:
    @pytest.fixture()
    def table(self):
        return generate_table(
            "r", 30, 30_000, rng=3, initial_layout="column"
        )

    def test_proposes_group_for_hot_pattern(self, table):
        attrs = [f"a{i}" for i in range(1, 13)]
        monitor, _query = repeated_pattern_monitor(table, attrs)
        advisor = LayoutAdvisor(table, CostModel())
        candidates = advisor.propose(monitor)
        assert candidates, "hot repeated pattern should yield a proposal"
        best = candidates[0]
        assert frozenset(attrs) <= best.attr_set or best.attr_set <= frozenset(attrs) or best.covers(frozenset(attrs))
        assert best.frequency >= 2
        assert best.expected_gain > 0

    def test_empty_window_no_proposals(self, table):
        advisor = LayoutAdvisor(table, CostModel())
        assert advisor.propose(Monitor(table.schema, 10)) == []

    def test_adding_group_never_hurts_query_cost(self, table):
        advisor = LayoutAdvisor(table, CostModel())
        info = analyze_query(
            parse_query("SELECT sum(a1 + a2) FROM r WHERE a3 < 0"),
            table.schema,
        )
        base = advisor.query_cost(info, ())
        for group in [
            frozenset({"a1", "a2", "a3"}),
            frozenset({"a9", "a10"}),
            frozenset(table.schema.names),
        ]:
            assert advisor.query_cost(info, [group]) <= base + 1e-12

    def test_existing_exact_group_not_reproposed(self, table):
        attrs = [f"a{i}" for i in range(1, 13)]
        monitor, _ = repeated_pattern_monitor(table, attrs)
        advisor = LayoutAdvisor(table, CostModel())
        first = advisor.propose(monitor)
        assert first
        # Materialize the top proposal, then re-propose.
        manager = LayoutManager(table)
        manager.build_group(first[0].attrs)
        second = advisor.propose(monitor)
        assert all(
            c.attr_set != frozenset(first[0].attrs) for c in second
        )

    def test_candidate_covers(self):
        candidate = CandidateLayout(
            attrs=("a1", "a2", "a3"),
            frequency=3,
            benefit_per_use=1.0,
            build_cost=0.5,
            origin="select",
        )
        assert candidate.covers(frozenset({"a1", "a3"}))
        assert not candidate.covers(frozenset({"a1", "a9"}))
        assert not candidate.covers(frozenset())
        assert candidate.expected_gain == pytest.approx(2.5)


class TestLayoutManager:
    @pytest.fixture()
    def table(self):
        return generate_table("r", 10, 5000, rng=4, initial_layout="column")

    def test_build_group_registers_and_logs(self, table):
        manager = LayoutManager(table)
        group, seconds = manager.build_group(["a1", "a3"], query_index=5)
        assert group in table.layouts
        assert seconds >= 0
        event = manager.creation_log[0]
        assert event.attrs == ("a1", "a3")
        assert event.query_index == 5
        assert event.mode == "offline"
        assert manager.creation_seconds() >= 0

    def test_build_group_idempotent(self, table):
        manager = LayoutManager(table)
        first, _ = manager.build_group(["a1", "a2"])
        second, seconds = manager.build_group(["a2", "a1"])
        assert second is first
        assert seconds == 0.0
        assert len(manager.creation_log) == 1

    def test_usage_tracking(self, table):
        manager = LayoutManager(table)
        layout = table.layouts[0]
        manager.record_use([layout])
        manager.record_use([layout])
        assert manager.uses_of(layout) == 2

    def test_retire_cold_groups(self, table):
        manager = LayoutManager(table)
        manager.build_group(["a1", "a2"])
        manager.build_group(["a3", "a4"])
        base_bytes = sum(
            l.nbytes for l in table.layouts if l.width == 1
        )
        dropped = manager.retire_cold_groups(max_bytes=base_bytes)
        assert len(dropped) == 2
        assert all(l.width == 1 for l in table.layouts)

    def test_register_group_mode_online(self, table):
        manager = LayoutManager(table)
        reorg = Reorganizer()
        outcome = reorg.offline(table, ["a5", "a6"])
        manager.register_group(outcome.group, outcome.seconds)
        assert manager.creation_log[0].mode == "online"


class TestReorganizer:
    @pytest.fixture()
    def table(self):
        return generate_table("r", 12, 20_000, rng=6, initial_layout="row")

    def test_offline_builds_correct_group(self, table):
        reorg = Reorganizer()
        outcome = reorg.offline(table, ["a2", "a7"])
        assert outcome.mode == "offline"
        assert outcome.result is None
        for attr in ("a2", "a7"):
            assert (
                outcome.group.column(attr) == table.column(attr)
            ).all()

    def test_online_result_matches_separate_execution(self, table):
        reorg = Reorganizer()
        attrs = ["a1", "a2", "a3", "a4"]
        query = parse_query(
            "SELECT sum(a1 + a2), max(a3) FROM r WHERE a4 < 0"
        )
        info = analyze_query(query, table.schema)
        outcome = reorg.online(table, attrs, info)
        assert outcome.mode == "online"
        # Group correctness.
        for attr in attrs:
            assert (
                outcome.group.column(attr) == table.column(attr)
            ).all()
        # Query correctness vs numpy ground truth.
        a1 = np.asarray(table.column("a1"))
        a2 = np.asarray(table.column("a2"))
        a3 = np.asarray(table.column("a3"))
        mask = np.asarray(table.column("a4")) < 0
        assert outcome.result.scalars()[0] == pytest.approx(
            float((a1[mask] + a2[mask]).sum())
        )
        assert outcome.result.scalars()[1] == float(a3[mask].max())

    def test_online_projection(self, table):
        reorg = Reorganizer()
        info = analyze_query(
            parse_query("SELECT a1, a2 FROM r WHERE a3 < 0"), table.schema
        )
        outcome = reorg.online(table, ["a1", "a2", "a3"], info)
        mask = np.asarray(table.column("a3")) < 0
        assert (
            outcome.result.column(0) == np.asarray(table.column("a1"))[mask]
        ).all()

    def test_online_with_attrs_outside_group(self, table):
        """A select-clause group can be built while the predicate reads
        attributes that stay in the existing layouts."""
        reorg = Reorganizer()
        info = analyze_query(
            parse_query("SELECT sum(a1 + a2) FROM r WHERE a9 < 0"),
            table.schema,
        )
        outcome = reorg.online(table, ["a1", "a2"], info)
        assert outcome.group.attrs == ("a1", "a2")
        a1 = np.asarray(table.column("a1"))
        a2 = np.asarray(table.column("a2"))
        mask = np.asarray(table.column("a9")) < 0
        assert outcome.result.scalars()[0] == pytest.approx(
            float((a1[mask] + a2[mask]).sum())
        )

    def test_online_compaction_keeps_values_and_order(self, table):
        """Qualifying tuples are compacted once per block, whether the
        attribute sits in the new group or outside it: per-block sums
        and the projected rows equal a boolean-indexing reference."""
        reorg = Reorganizer()
        block_rows = reorg.block_rows
        a1, a2, a9 = (np.asarray(table.column(a)) for a in ("a1", "a2", "a9"))
        mask = np.asarray(table.column("a3")) < 0
        info = analyze_query(
            parse_query("SELECT sum(a1 + a9), min(a9) FROM r WHERE a3 < 0"),
            table.schema,
        )
        outcome = reorg.online(table, ["a1", "a2", "a3"], info)
        total = 0.0
        for start in range(0, table.num_rows, block_rows):
            keep = mask[start : start + block_rows]
            block = a1[start : start + block_rows][keep]
            block = block + a9[start : start + block_rows][keep]
            total += float(block.sum(dtype=np.float64))
        got = outcome.result.scalars()
        assert got[0].hex() == total.hex()
        assert got[1] == float(a9[mask].min())
        info = analyze_query(
            parse_query("SELECT a9, a2 FROM r WHERE a3 < 0"), table.schema
        )
        outcome = reorg.online(table, ["a1", "a2", "a3"], info)
        assert np.array_equal(outcome.result.column(0), a9[mask])
        assert np.array_equal(outcome.result.column(1), a2[mask])

    def test_online_no_predicate(self, table):
        reorg = Reorganizer()
        info = analyze_query(
            parse_query("SELECT sum(a1) FROM r"), table.schema
        )
        outcome = reorg.online(table, ["a1", "a2"], info)
        assert outcome.result.scalars()[0] == pytest.approx(
            float(np.asarray(table.column("a1")).sum())
        )

    def test_full_width_online_group_is_row_kind(self, table):
        from repro.storage.layout import LayoutKind

        reorg = Reorganizer()
        info = analyze_query(parse_query("SELECT sum(a1) FROM r"), table.schema)
        outcome = reorg.online(table, list(table.schema.names), info)
        assert outcome.group.kind is LayoutKind.ROW
