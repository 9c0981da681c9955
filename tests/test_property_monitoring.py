"""Property tests for monitoring state under arbitrary event sequences."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.affinity import AffinityMatrix
from repro.core.monitor import Monitor
from repro.sql.builder import QueryBuilder
from repro.sql.expressions import ColumnRef, Comparison, ComparisonOp, Literal
from repro.storage import wide_schema

SCHEMA = wide_schema(6)
NAMES = list(SCHEMA.names)


def make_query(attrs):
    return QueryBuilder("r").select_columns(sorted(attrs)).build()


attr_sets = st.lists(
    st.sampled_from(NAMES), min_size=1, max_size=4, unique=True
).map(frozenset)


class ReplayMatrix:
    """The incrementally maintained matrix the monitor used to keep: a
    grid add per entering query, a grid subtract per evicted one, and a
    clamp at zero on read."""

    def __init__(self, schema):
        self._index = {name: i for i, name in enumerate(schema.names)}
        self.matrix = np.zeros((schema.width, schema.width))

    def add(self, attrs, weight=1.0):
        positions = [self._index[n] for n in attrs if n in self._index]
        if positions:
            idx = np.array(positions, dtype=np.intp)
            self.matrix[np.ix_(idx, idx)] += weight

    def remove(self, attrs):
        self.add(attrs, -1.0)
        np.maximum(self.matrix, 0.0, out=self.matrix)


@given(st.lists(attr_sets, max_size=40), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_window_stats_match_recomputation(observations, capacity):
    """The derived affinity matrix == a replay over the window."""
    monitor = Monitor(SCHEMA, capacity)
    for attrs in observations:
        monitor.observe(make_query(attrs))

    assert len(monitor) == min(capacity, len(observations))

    fresh = ReplayMatrix(SCHEMA)
    for query in monitor.window:
        fresh.add(query.select_attributes)
    assert (fresh.matrix == monitor.select_affinity.matrix).all()


@given(
    st.lists(attr_sets, min_size=1, max_size=30),
    st.lists(st.integers(1, 8), min_size=1, max_size=5),
)
@settings(max_examples=40, deadline=None)
def test_resize_never_corrupts(observations, resizes):
    monitor = Monitor(SCHEMA, 8)
    for attrs in observations:
        monitor.observe(make_query(attrs))
    for capacity in resizes:
        monitor.resize(capacity)
        assert len(monitor) <= capacity
        # Pattern counts must equal window recomputation after resize.
        from collections import Counter

        expected = Counter(
            q.select_attributes for q in monitor.window
        )
        assert dict(monitor._select_patterns) == {
            k: v for k, v in expected.items() if v > 0
        }


def make_clause_query(select, where):
    builder = QueryBuilder("r").select_columns(sorted(select))
    for value, attr in enumerate(sorted(where)):
        builder = builder.where(
            Comparison(ComparisonOp.LT, ColumnRef(attr), Literal(value))
        )
    return builder.build()


events = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            attr_sets,
            st.sets(st.sampled_from(NAMES), max_size=3),
        ),
        st.tuples(st.just("resize"), st.integers(1, 10), st.just(frozenset())),
    ),
    min_size=1,
    max_size=40,
)


@given(events, st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_derived_affinity_matches_add_remove_replay(stream, capacity):
    """Matrices derived from the pattern counts equal the add/remove
    replay after every observe, eviction and resize — and so do their
    clusters."""
    monitor = Monitor(SCHEMA, capacity)
    select, where = ReplayMatrix(SCHEMA), ReplayMatrix(SCHEMA)
    window = []

    def evict_beyond(limit):
        while len(window) > limit:
            old = window.pop(0)
            if old.select_attributes:
                select.remove(old.select_attributes)
            if old.where_attributes:
                where.remove(old.where_attributes)

    for kind, first, second in stream:
        if kind == "observe":
            query = make_clause_query(first, second)
            monitor.observe(query)
            window.append(query)
            select.add(query.select_attributes)
            if query.where_attributes:
                where.add(query.where_attributes)
            evict_beyond(capacity)
        else:
            capacity = first
            monitor.resize(capacity)
            evict_beyond(capacity)
        for derived, replayed in (
            (monitor.select_affinity, select),
            (monitor.where_affinity, where),
        ):
            assert (derived.matrix == replayed.matrix).all()
            reference = AffinityMatrix(SCHEMA)
            reference.matrix[:] = replayed.matrix
            for floor in (1.0, 2.0):
                assert derived.clusters(floor) == reference.clusters(floor)


@given(st.lists(attr_sets, min_size=1, max_size=25))
@settings(max_examples=40, deadline=None)
def test_pattern_frequency_consistent(observations):
    monitor = Monitor(SCHEMA, 100)
    for attrs in observations:
        monitor.observe(make_query(attrs))
    universe = frozenset(NAMES)
    assert monitor.pattern_frequency(universe) == len(observations)
    for attrs, count in monitor.distinct_access_sets():
        assert monitor.pattern_frequency(attrs) >= count
