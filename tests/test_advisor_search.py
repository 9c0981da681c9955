"""The advisor's bitmask Eq. 1 search against the frozenset search it
replaced.

``ReferenceAdvisor`` is the frozenset costing and ``propose`` of
``core/advisor.py`` as of ``d2dd7ed``, copied verbatim apart from
recording which (pattern, covers) pairs it prices.  The rewrite must be
decision-identical to it — same candidates, same floats to the last
bit — and must price each distinct pair at most once per phase.
"""

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import EngineConfig
from repro.core.advisor import (
    FUTURE_USE_MULTIPLIER,
    MAX_CANDIDATES,
    CandidateLayout,
    LayoutAdvisor,
)
from repro.core.cost_model import CostModel, GroupSpec
from repro.core.engine import H2OEngine
from repro.core.layout_manager import LayoutManager
from repro.core.monitor import Monitor
from repro.execution.strategies import MAX_FUSED_SINGLES, MAX_FUSED_STREAMS
from repro.sql import analyze_query, parse_query
from repro.sql.analyzer import QueryInfo
from repro.storage import Table, generate_table, wide_schema
from repro.testkit import PAPER_SUBSTRATE
from repro.workloads.sequences import fig7_sequence


class ReferenceAdvisor(LayoutAdvisor):
    """The frozenset search, recording every (pattern, covers) priced."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.priced: set = set()

    def _group_universe(
        self, extra: Sequence[FrozenSet[str]]
    ) -> Tuple[List[FrozenSet[str]], FrozenSet[str]]:
        multi: List[FrozenSet[str]] = []
        singles: set = set()
        for layout in self.table.layouts:
            if layout.width == 1:
                singles.add(layout.attrs[0])
            else:
                multi.append(layout.attr_set)
        for group in extra:
            if not group:
                continue
            if len(group) == 1:
                singles |= group
            else:
                multi.append(group)
        return multi, frozenset(singles)

    @staticmethod
    def _cover(
        needed: FrozenSet[str],
        multi: Sequence[FrozenSet[str]],
        singles: FrozenSet[str],
    ) -> Optional[List[FrozenSet[str]]]:
        remaining = set(needed)
        chosen: List[FrozenSet[str]] = []
        while remaining:
            best = None
            best_key = (0, 0)
            for group in multi:
                covered = len(remaining & group)
                if covered == 0:
                    continue
                key = (covered, -len(group))
                if key > best_key:
                    best_key = key
                    best = group
            if best is None:
                break
            chosen.append(best)
            remaining -= best
        if remaining:
            if not remaining <= singles:
                return None
            chosen.extend(frozenset({attr}) for attr in sorted(remaining))
        return chosen

    def _specs(
        self,
        cover: Sequence[FrozenSet[str]],
        needed: FrozenSet[str],
        num_rows: int,
    ) -> Tuple[GroupSpec, ...]:
        return tuple(
            GroupSpec.of(len(group), len(needed & group), num_rows)
            for group in cover
            if needed & group
        )

    @staticmethod
    def _narrowest_cover(
        needed: FrozenSet[str],
        multi: Sequence[FrozenSet[str]],
        singles: FrozenSet[str],
    ) -> Optional[List[FrozenSet[str]]]:
        chosen: List[FrozenSet[str]] = []
        seen: set = set()
        for attr in needed:
            if attr in singles:
                provider: FrozenSet[str] = frozenset({attr})
            else:
                candidates = [g for g in multi if attr in g]
                if not candidates:
                    return None
                provider = min(candidates, key=len)
            if provider not in seen:
                seen.add(provider)
                chosen.append(provider)
        return chosen

    def _query_cost_split(
        self,
        info: QueryInfo,
        multi: Sequence[FrozenSet[str]],
        singles: FrozenSet[str],
    ) -> float:
        num_rows = self.table.num_rows
        all_attrs = frozenset(info.all_attrs)
        select_attrs = frozenset(info.select_attrs)
        where_attrs = frozenset(info.where_attrs)

        covers = []
        greedy = self._cover(all_attrs, multi, singles)
        if greedy is not None:
            covers.append(greedy)
        narrow = self._narrowest_cover(all_attrs, multi, singles)
        if narrow is not None and narrow not in covers:
            covers.append(narrow)
        self.priced.add((id(info), tuple(tuple(c) for c in covers)))

        costs: List[float] = []
        for cover in covers:
            fused_singles = sum(1 for group in cover if len(group) == 1)
            specs = (
                self._specs(cover, select_attrs, num_rows),
                self._specs(cover, where_attrs, num_rows),
            )
            if (
                len(cover) <= MAX_FUSED_STREAMS
                and fused_singles <= MAX_FUSED_SINGLES
                and fused_singles < len(cover)
            ):
                costs.append(self.cost_model.fused_cost(info, *specs))
            costs.append(self.cost_model.late_cost(info, *specs))
        if not costs:
            raise ValueError(
                f"no group cover for attributes {sorted(all_attrs)}"
            )
        return min(costs)

    def query_cost(
        self, info: QueryInfo, extra_groups: Sequence[FrozenSet[str]] = ()
    ) -> float:
        multi, singles = self._group_universe(extra_groups)
        return self._query_cost_split(info, multi, singles)

    def propose(self, monitor: Monitor) -> List[CandidateLayout]:
        self.priced = set()
        window = monitor.window
        if not window:
            return []

        weighted: Dict[tuple, list] = {}
        for query in window:
            sig = query.signature()
            key = (sig.select_attrs, sig.where_attrs, sig.structure)
            entry = weighted.get(key)
            if entry is None:
                weighted[key] = [query, 1]
            else:
                entry[1] += 1
        infos: List[QueryInfo] = []
        weights: List[int] = []
        for query, count in weighted.values():
            infos.append(analyze_query(query, self.table.schema))
            weights.append(count)
        attr_sets = [frozenset(info.all_attrs) for info in infos]

        multi_existing, singles = self._group_universe(())
        existing = {layout.attr_set for layout in self.table.layouts}

        seeds: Dict[FrozenSet[str], str] = {}
        for pattern in monitor.patterns():
            if len(pattern.attrs) >= 2:
                seeds.setdefault(pattern.attrs, pattern.clause)
        for attrs, _count in monitor.distinct_access_sets():
            if len(attrs) >= 2:
                seeds.setdefault(attrs, "merge")
        affinity_floor = max(2.0, len(window) / 8.0)
        for matrix, clause in (
            (monitor.select_affinity, "select"),
            (monitor.where_affinity, "where"),
        ):
            for cluster in matrix.clusters(min_affinity=affinity_floor):
                if 2 <= len(cluster) <= 48:
                    seeds.setdefault(cluster, clause)
        pool = {g: o for g, o in seeds.items() if g not in existing}
        if len(pool) > 24:
            freq = {p.attrs: p.count for p in monitor.patterns()}
            ranked = sorted(
                pool, key=lambda g: (-freq.get(g, 1), -len(g), sorted(g))
            )
            pool = {g: pool[g] for g in ranked[:24]}

        build_cost_memo: Dict[FrozenSet[str], float] = {}

        def build_cost(group: FrozenSet[str]) -> float:
            cached = build_cost_memo.get(group)
            if cached is None:
                cached = self._build_cost(group)
                build_cost_memo[group] = cached
            return cached

        cost_q = [
            self._query_cost_split(info, multi_existing, singles)
            for info in infos
        ]

        chosen: List[FrozenSet[str]] = []
        chosen_origin: Dict[FrozenSet[str], str] = {}
        first_net = 0.0
        while len(chosen) < MAX_CANDIDATES:
            candidates = dict(pool)
            for first in chosen:
                for second in list(pool) + chosen:
                    merged = first | second
                    if (
                        merged == first
                        or merged == second
                        or merged in existing
                        or merged in candidates
                    ):
                        continue
                    if not any(
                        attrs & first and attrs & second
                        for attrs in attr_sets
                    ):
                        continue
                    candidates[merged] = "merge"
            if len(candidates) > 40:
                ranked = sorted(
                    candidates,
                    key=lambda g: (-len(g), sorted(g)),
                )
                candidates = {g: candidates[g] for g in ranked[:40]}
            best_group = None
            best_net = 0.0
            best_origin = ""
            horizon = FUTURE_USE_MULTIPLIER
            for group, origin in candidates.items():
                gain = 0.0
                multi_try = multi_existing + chosen + [group]
                for i, attrs in enumerate(attr_sets):
                    if not attrs & group:
                        continue
                    new_cost = self._query_cost_split(
                        infos[i], multi_try, singles
                    )
                    gain += (cost_q[i] - new_cost) * weights[i]
                net = gain * horizon - build_cost(group)
                if net > best_net + 1e-15:
                    best_net = net
                    best_group = group
                    best_origin = origin
            if best_group is None:
                break
            if first_net == 0.0:
                first_net = best_net
            elif best_net < 0.01 * first_net:
                break
            chosen.append(best_group)
            chosen_origin[best_group] = best_origin
            multi_now = multi_existing + chosen
            for i, attrs in enumerate(attr_sets):
                if attrs & best_group:
                    cost_q[i] = self._query_cost_split(
                        infos[i], multi_now, singles
                    )
            pool.pop(best_group, None)
            pool = {g: o for g, o in pool.items() if not g <= best_group}

        candidates_out: List[CandidateLayout] = []
        order = {n: i for i, n in enumerate(self.table.schema.names)}
        for group in chosen:
            frequency = 0
            saving = 0.0
            for i, info in enumerate(infos):
                attrs = attr_sets[i]
                serves = attrs and (
                    attrs <= group
                    or (
                        info.select_attrs
                        and frozenset(info.select_attrs) <= group
                    )
                    or (
                        info.where_attrs
                        and frozenset(info.where_attrs) <= group
                    )
                )
                if not serves:
                    continue
                base = self._query_cost_split(
                    infos[i], multi_existing, singles
                )
                with_group = self._query_cost_split(
                    infos[i], multi_existing + [group], singles
                )
                if with_group < base:
                    frequency += weights[i]
                    saving += (base - with_group) * weights[i]
            if frequency == 0:
                continue
            candidates_out.append(
                CandidateLayout(
                    attrs=tuple(sorted(group, key=order.__getitem__)),
                    frequency=max(
                        frequency,
                        int(frequency * FUTURE_USE_MULTIPLIER),
                    ),
                    benefit_per_use=saving / frequency,
                    build_cost=build_cost(group),
                    origin=chosen_origin.get(group, "merge"),
                )
            )
        candidates_out.sort(key=lambda c: -c.expected_gain)
        return candidates_out


def fingerprint(candidates: Sequence[CandidateLayout]) -> list:
    return [
        (
            c.attrs,
            c.frequency,
            c.benefit_per_use.hex(),
            c.build_cost.hex(),
            c.origin,
        )
        for c in candidates
    ]


# (a) Single-query costs on random configurations ---------------------------


@st.composite
def costing_cases(draw):
    width = draw(st.one_of(st.integers(3, 24), st.integers(65, 90)))
    names = [f"a{i}" for i in range(1, width + 1)]
    # Groups and queries mostly draw from a few hot attributes so that
    # they overlap, and groups are 2-3 wide, so equal-width ties are
    # common and decide covers.
    hot = draw(st.lists(st.sampled_from(names), min_size=3, max_size=6,
                        unique=True))
    attr = st.one_of(st.sampled_from(hot), st.sampled_from(names))
    group = st.lists(attr, min_size=2, max_size=3, unique=True).map(frozenset)
    built = draw(st.lists(group, max_size=3))
    extra = draw(st.lists(group, max_size=5))
    if built or extra:  # duplicates of built layouts and of each other
        extra += draw(st.lists(st.sampled_from(built + extra), max_size=2))
    extra += [frozenset({a}) for a in draw(st.lists(attr, max_size=3))]
    extra = draw(st.permutations(extra))
    select = draw(st.lists(attr, min_size=1, max_size=6, unique=True))
    where = draw(st.lists(attr, max_size=4, unique=True))
    kind = draw(st.sampled_from(["sum", "project", "arith"]))
    if kind == "sum":
        outputs = ", ".join(f"sum({a})" for a in select)
    elif kind == "project":
        outputs = ", ".join(select)
    else:
        outputs = f"sum({' + '.join(select)})"
    sql = f"SELECT {outputs} FROM r"
    if where:
        sql += " WHERE " + " AND ".join(f"{a} < {k}" for k, a in enumerate(where))
    initial = draw(st.sampled_from(["column", "row"]))
    return width, initial, built, extra, sql


@settings(max_examples=150, deadline=None)
@given(costing_cases())
def test_query_cost_matches_frozenset_reference(case):
    width, initial, built, extra, sql = case
    schema = wide_schema(width)
    columns = {
        name: np.arange(16, dtype=np.int64) + k
        for k, name in enumerate(schema.names)
    }
    table = Table.from_columns("r", schema, columns, initial_layout=initial)
    manager = LayoutManager(table)
    for group in built:
        manager.build_group(sorted(group))
    info = analyze_query(parse_query(sql), schema)
    new = LayoutAdvisor(table, CostModel())
    reference = ReferenceAdvisor(table, CostModel())
    try:
        expected = reference.query_cost(info, extra)
    except ValueError:
        with pytest.raises(ValueError):
            new.query_cost(info, extra)
        return
    assert new.query_cost(info, extra) == expected


def test_wide_masks_tie_break_in_order():
    """Past bit 63, equal-width ties still go to the earlier group."""
    schema = wide_schema(100)
    columns = {name: np.zeros(4, dtype=np.int64) for name in schema.names}
    table = Table.from_columns("r", schema, columns, initial_layout="column")
    info = analyze_query(
        parse_query("SELECT sum(a97), sum(a98) FROM r WHERE a99 < 1"),
        schema,
    )
    # a97..a99 sort last, so their bits are past 63.  The first two
    # groups tie (2 covered, width 3); whichever comes first decides
    # whether the narrow {a99, a7} or the wide {a97, a8, a9, a10} fills
    # the gap.
    tied = [frozenset({"a97", "a98", "a5"}), frozenset({"a98", "a99", "a6"})]
    fillers = [frozenset({"a99", "a7"}), frozenset({"a97", "a8", "a9", "a10"})]
    new = LayoutAdvisor(table, CostModel())
    reference = ReferenceAdvisor(table, CostModel())
    costs = set()
    for extra in (tied + fillers, tied[::-1] + fillers):
        expected = reference.query_cost(info, extra)
        assert new.query_cost(info, extra) == expected
        costs.add(expected)
    assert len(costs) == 2, "the tie must decide the cost"


# (b) Whole adaptation phases on a seeded Fig. 7 sequence ------------------


@pytest.fixture(scope="module")
def fig7_phases():
    """Every ``propose`` of a 200-query Fig. 7 run over 5 000 × 150:
    (new candidates, reference candidates, late_cost calls made by the
    new search, distinct (pattern, covers) pairs the phase priced)."""
    table = generate_table("r", 150, 5000, rng=21, initial_layout="column")
    engine = H2OEngine(table, EngineConfig(machine=PAPER_SUBSTRATE))
    advisor = engine.advisor
    real_propose = advisor.propose
    cost_model = advisor.cost_model
    phases = []

    def recording_propose(monitor):
        calls = [0]
        late_cost = cost_model.late_cost

        def counting(*args, **kwargs):
            calls[0] += 1
            return late_cost(*args, **kwargs)

        cost_model.late_cost = counting
        try:
            got = real_propose(monitor)
        finally:
            del cost_model.late_cost
        reference = ReferenceAdvisor(table, cost_model, advisor.config)
        expected = reference.propose(monitor)
        phases.append((got, expected, calls[0], len(reference.priced)))
        return got

    advisor.propose = recording_propose
    workload = fig7_sequence(num_rows=5000, num_queries=200, rng=5)
    for query in workload.queries:
        engine.execute(query)
    assert engine.stats()["layouts_created"] > 0
    return phases


def test_propose_matches_frozenset_reference(fig7_phases):
    proposing = [p for p in fig7_phases if p[1]]
    assert len(proposing) >= 5, "the sequence must exercise the search"
    for number, (got, expected, _, _) in enumerate(fig7_phases):
        assert fingerprint(got) == fingerprint(expected), f"phase {number}"


def test_each_cover_pair_is_priced_once_per_phase(fig7_phases):
    """The guard on the per-phase memo: ``late_cost`` runs at most once
    per cover variant of each distinct (pattern, covers) pair.  Without
    the memo this is ~12x over."""
    assert sum(p[3] for p in fig7_phases) > 0
    for number, (_, _, late_calls, pairs) in enumerate(fig7_phases):
        assert late_calls <= 2 * pairs, f"phase {number}"
