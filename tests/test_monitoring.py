"""Monitoring: affinity matrices, window maintenance, shift detection."""

import numpy as np
import pytest

from repro.config import EngineConfig
from repro.core.affinity import AffinityMatrix
from repro.core.history import ShiftDetector, jaccard
from repro.core.monitor import Monitor
from repro.core.window import WINDOW_GROW_STEP, DynamicWindow
from repro.sql import parse_query
from repro.storage import wide_schema


def q(sql):
    return parse_query(sql)


class TestAffinityMatrix:
    def test_co_access_counts(self, small_schema):
        matrix = AffinityMatrix(
            small_schema,
            {frozenset({"a1", "a2"}): 1, frozenset({"a1", "a2", "a3"}): 1},
        )
        assert matrix.affinity("a1", "a2") == 2
        assert matrix.affinity("a1", "a3") == 1
        assert matrix.affinity("a1", "a4") == 0
        assert matrix.frequency("a1") == 2

    def test_symmetry(self, small_schema):
        matrix = AffinityMatrix(small_schema, {frozenset({"a1", "a5"}): 1})
        assert matrix.affinity("a1", "a5") == matrix.affinity("a5", "a1")

    def test_built_from_pattern_counts(self, small_schema):
        counts = {frozenset({"a1", "a2"}): 2, frozenset({"a2", "a3"}): 1}
        matrix = AffinityMatrix(small_schema, counts)
        assert matrix.affinity("a1", "a2") == 2
        assert matrix.affinity("a2", "a3") == 1
        assert matrix.affinity("a1", "a3") == 0
        assert matrix.frequency("a2") == 3
        assert (matrix.matrix == matrix.matrix.T).all()

    def test_hot_attributes_ordering(self, small_schema):
        matrix = AffinityMatrix(
            small_schema, {frozenset({"a2"}): 3, frozenset({"a1"}): 1}
        )
        hot = matrix.hot_attributes()
        assert hot[0] == ("a2", 3.0)

    def test_clusters(self, small_schema):
        matrix = AffinityMatrix(
            small_schema,
            {frozenset({"a1", "a2"}): 1, frozenset({"a3", "a4"}): 1},
        )
        clusters = matrix.clusters(min_affinity=1.0)
        assert frozenset({"a1", "a2"}) in clusters
        assert frozenset({"a3", "a4"}) in clusters

    @staticmethod
    def _loop_clusters(matrix, names, min_affinity):
        """The Python double loop ``clusters`` used to be."""
        adjacency = {name: set() for name in names}
        for i, first in enumerate(names):
            for j in range(i + 1, len(names)):
                if matrix[i, j] >= min_affinity:
                    adjacency[first].add(names[j])
                    adjacency[names[j]].add(first)
        seen, components = set(), []
        for i, name in enumerate(names):
            if name in seen or matrix[i, i] <= 0:
                continue
            stack, component = [name], set()
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                stack.extend(adjacency[node] - component)
            seen |= component
            components.append(frozenset(component))
        return components

    @pytest.mark.parametrize("seed", range(12))
    def test_clusters_match_the_loop(self, seed):
        rng = np.random.default_rng(seed)
        schema = wide_schema(int(rng.integers(2, 60)))
        width = schema.width
        # Sparse co-access, so the graph falls into several components.
        counts = rng.integers(1, 5, size=(width, width)).astype(float)
        counts = np.triu(counts * (rng.random((width, width)) < 2 / width), 1)
        counts += counts.T
        # Zero-frequency attributes, some still carrying co-access.
        frequency = rng.integers(1, 6, size=width).astype(float)
        frequency[rng.random(width) < 0.3] = 0.0
        np.fill_diagonal(counts, frequency)
        matrix = AffinityMatrix(schema)
        matrix.matrix[:] = counts
        for threshold in (0.5, 1.0, 2.0, 4.0):
            assert matrix.clusters(min_affinity=threshold) == (
                self._loop_clusters(counts, schema.names, threshold)
            )

    def test_unknown_attrs_ignored(self, small_schema):
        matrix = AffinityMatrix(
            small_schema, {frozenset({"a1", "zz"}): 1}  # zz silently skipped
        )
        assert matrix.frequency("a1") == 1


class TestMonitor:
    def test_observes_both_clauses(self, small_schema):
        monitor = Monitor(small_schema, capacity=10)
        monitor.observe(q("SELECT sum(a1) FROM r WHERE a2 < 1"))
        assert monitor.select_affinity.frequency("a1") == 1
        assert monitor.where_affinity.frequency("a2") == 1
        assert monitor.where_affinity.frequency("a1") == 0

    def test_eviction_keeps_stats_consistent(self, small_schema):
        monitor = Monitor(small_schema, capacity=2)
        monitor.observe(q("SELECT a1 FROM r"))
        monitor.observe(q("SELECT a2 FROM r"))
        monitor.observe(q("SELECT a3 FROM r"))
        assert len(monitor) == 2
        assert monitor.select_affinity.frequency("a1") == 0
        assert monitor.select_affinity.frequency("a3") == 1

    def test_patterns_sorted_by_count(self, small_schema):
        monitor = Monitor(small_schema, capacity=10)
        for _ in range(3):
            monitor.observe(q("SELECT a1, a2 FROM r"))
        monitor.observe(q("SELECT a3 FROM r"))
        patterns = monitor.patterns()
        assert patterns[0].attrs == frozenset({"a1", "a2"})
        assert patterns[0].count == 3

    def test_resize_shrinks(self, small_schema):
        monitor = Monitor(small_schema, capacity=5)
        for i in range(5):
            monitor.observe(q(f"SELECT a{i + 1} FROM r"))
        monitor.resize(2)
        assert len(monitor) == 2

    def test_pattern_frequency_subset_rule(self, small_schema):
        monitor = Monitor(small_schema, capacity=10)
        monitor.observe(q("SELECT a1, a2 FROM r"))
        monitor.observe(q("SELECT a1 FROM r"))
        assert monitor.pattern_frequency(frozenset({"a1", "a2"})) == 2
        assert monitor.pattern_frequency(frozenset({"a1"})) == 1

    def test_distinct_access_sets(self, small_schema):
        monitor = Monitor(small_schema, capacity=10)
        monitor.observe(q("SELECT a1 FROM r"))
        monitor.observe(q("SELECT a1 FROM r WHERE a1 < 9"))
        sets = monitor.distinct_access_sets()
        assert sets[0] == (frozenset({"a1"}), 2)


class TestDynamicWindow:
    def test_due_after_window_size(self):
        window = DynamicWindow(
            EngineConfig(window_size=3, min_window=3, max_window=10)
        )
        for _ in range(3):
            assert not window.due() or True
            window.note_query()
        assert window.due()
        window.adapted()
        assert not window.due()

    def test_shrink_and_grow(self):
        config = EngineConfig(window_size=20, min_window=8, max_window=40)
        window = DynamicWindow(config)
        window.note_shift()
        assert window.size == 10
        window.note_shift()
        assert window.size == 8  # clamped at min
        window.note_stable()
        assert window.size == 8 + WINDOW_GROW_STEP

    def test_static_window_never_moves(self):
        config = EngineConfig(window_size=20, min_window=20, max_window=20)
        window = DynamicWindow(config)
        window.note_shift()
        window.note_stable()
        assert window.size == 20
        assert window.shrink_events == 0

    def test_grow_clamped_at_max(self):
        config = EngineConfig(window_size=20, max_window=21)
        window = DynamicWindow(config)
        window.note_stable()
        window.note_stable()
        assert window.size == 21


class TestShiftDetector:
    def test_jaccard(self):
        assert jaccard(frozenset("ab"), frozenset("ab")) == 1.0
        assert jaccard(frozenset("ab"), frozenset("cd")) == 0.0
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_detects_abrupt_shift(self):
        detector = ShiftDetector(recent=6)
        known = [frozenset({"a1", "a2", "a3"})]
        for _ in range(6):
            assert not detector.assess(frozenset({"a1", "a2", "a3"}), known)
        fired = []
        for _ in range(6):
            fired.append(
                detector.assess(frozenset({"a7", "a8", "a9"}), known)
            )
        assert any(fired)

    def test_fires_once_per_burst(self):
        detector = ShiftDetector(recent=4, warmup=2)
        known = [frozenset({"a1"})]
        # Warm, stable phase first (novelty during warm-up never fires).
        for _ in range(6):
            assert not detector.assess(frozenset({"a1"}), known)
        fires = [
            detector.assess(frozenset({f"b{i}"}), known) for i in range(8)
        ]
        assert sum(fires) == 1  # latched until stability returns

    def test_similar_patterns_not_a_shift(self):
        detector = ShiftDetector(recent=5)
        known = [frozenset({"a1", "a2", "a3", "a4"})]
        fired = [
            detector.assess(frozenset({"a1", "a2", "a3"}), known)
            for _ in range(5)
        ]
        assert not any(fired)
