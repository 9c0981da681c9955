"""The cost model: Eq. 2 behaviours the adaptive decisions rely on."""

import pytest

from repro.codegen.exprc import masked_sql
from repro.core.cost_model import (
    CostModel,
    GroupSpec,
    SelectivityEstimator,
    count_arithmetic_ops,
)
from repro.errors import CostModelError
from repro.execution import enumerate_plans
from repro.execution.strategies import AccessPlan, ExecutionStrategy
from repro.sql import analyze_query, parse_query
from repro.storage import generate_table
from repro.storage.stitcher import stitch_group


class TestGroupSpec:
    def test_validation(self):
        with pytest.raises(CostModelError):
            GroupSpec(width=0, useful=0, num_rows=10)
        with pytest.raises(CostModelError):
            GroupSpec(width=2, useful=3, num_rows=10)

    def test_interning(self):
        assert GroupSpec.of(3, 2, 100) is GroupSpec.of(3, 2, 100)


class TestSelectivityEstimator:
    def test_heuristics(self):
        est = SelectivityEstimator()
        lt = parse_query("SELECT a FROM r WHERE a < 1").where
        eq = parse_query("SELECT a FROM r WHERE a = 1").where
        conj = parse_query("SELECT a FROM r WHERE a < 1 AND b < 2").where
        disj = parse_query("SELECT a FROM r WHERE a < 1 OR b < 2").where
        assert 0 < est.estimate(eq) < est.estimate(lt) < 1
        assert est.estimate(conj) < est.estimate(lt)
        assert est.estimate(disj) > est.estimate(lt)

    def test_no_predicate_is_one(self):
        assert SelectivityEstimator().estimate(None) == 1.0

    def test_observation_overrides_heuristic(self):
        est = SelectivityEstimator(blend=1.0)
        pred = parse_query("SELECT a FROM r WHERE a < 1").where
        est.observe("key", 0.9)
        assert est.estimate(pred, "key") == pytest.approx(0.9)

    def test_blending(self):
        est = SelectivityEstimator(blend=0.5)
        est.observe("k", 0.0)
        est.observe("k", 1.0)
        assert est.estimate(parse_query("SELECT a FROM r WHERE a<1").where, "k") == pytest.approx(0.5)

    def test_observation_clamped(self):
        est = SelectivityEstimator()
        est.observe("k", 5.0)
        assert est._observed["k"] == 1.0


class TestAccessCosts:
    def setup_method(self):
        self.model = CostModel()

    def test_sequential_scales_with_width(self):
        narrow = self.model.sequential_access(GroupSpec.of(5, 5, 10_000))
        wide = self.model.sequential_access(GroupSpec.of(50, 5, 10_000))
        assert wide > narrow

    def test_stride_penalizes_wide_layouts(self):
        packed = self.model.column_stride_access(GroupSpec.of(1, 1, 10_000))
        scattered = self.model.column_stride_access(
            GroupSpec.of(50, 1, 10_000)
        )
        assert scattered > packed

    def test_gather_caps_at_full_scan(self):
        spec = GroupSpec.of(1, 1, 10_000)
        sparse = self.model.gather_access(spec, 10)
        dense = self.model.gather_access(spec, 10_000)
        assert sparse < dense

    def test_intermediate_monotone(self):
        assert self.model.intermediate(10_000) > self.model.intermediate(10)

    def test_costs_nonnegative(self):
        spec = GroupSpec.of(3, 2, 1000)
        assert self.model.sequential_access(spec) > 0
        assert self.model.column_stride_access(spec) > 0
        assert self.model.gather_access(spec, 5) > 0


class TestPlanCosts:
    @pytest.fixture(scope="class")
    def table(self):
        t = generate_table("r", 30, 20_000, rng=1, initial_layout="column")
        group, _ = stitch_group(
            t.layouts, tuple(f"a{i}" for i in range(1, 11)), t.schema
        )
        t.add_layout(group)
        row, _ = stitch_group(
            t.layouts, t.schema.names, t.schema, full_width=True
        )
        t.add_layout(row)
        return t

    def test_perfect_group_beats_row_scan(self, table):
        model = CostModel()
        info = analyze_query(
            parse_query(
                "SELECT sum(a1+a2+a3+a4+a5) FROM r WHERE a6 < 0 AND a7 < 0"
            ),
            table.schema,
        )
        group = table.find_group({f"a{i}" for i in range(1, 11)})
        row = [l for l in table.layouts if l.width == 30][0]
        group_cost = model.plan_cost(
            info, AccessPlan(ExecutionStrategy.FUSED, (group,))
        )
        row_cost = model.plan_cost(
            info, AccessPlan(ExecutionStrategy.FUSED, (row,))
        )
        assert group_cost < row_cost

    def test_multi_conjunct_raises_late_cost(self, table):
        model = CostModel()
        single = analyze_query(
            parse_query("SELECT sum(a1) FROM r WHERE a2 < 0"), table.schema
        )
        multi = analyze_query(
            parse_query(
                "SELECT sum(a1) FROM r WHERE a2 < 0 AND a3 < 0 AND a4 < 0"
            ),
            table.schema,
        )
        cover = table.narrowest_cover(["a1", "a2", "a3", "a4"])
        late_single = model.plan_cost(
            single,
            AccessPlan(ExecutionStrategy.LATE, cover[:2]),
        )
        late_multi = model.plan_cost(
            multi, AccessPlan(ExecutionStrategy.LATE, cover)
        )
        assert late_multi > late_single

    def test_extra_conjuncts_raise_late_cost_at_equal_selectivity(
        self, table
    ):
        model = CostModel()
        infos = [
            analyze_query(parse_query(sql), table.schema)
            for sql in (
                "SELECT sum(a1) FROM r WHERE a2 < 0",
                "SELECT sum(a1) FROM r WHERE a2 < 0 AND a3 < 0 AND a4 < 0",
            )
        ]
        # Same qualifying fraction, so only the extra conjuncts differ.
        for info in infos:
            model.selectivity.observe(masked_sql(info.query.where), 1 / 3)
        cover = table.narrowest_cover(["a1", "a2", "a3", "a4"])
        single, multi = (
            model.plan_cost(info, AccessPlan(ExecutionStrategy.LATE, layouts))
            for info, layouts in zip(infos, (cover[:2], cover))
        )
        assert multi > single

    @staticmethod
    def _chosen(model, table, sql):
        """The plan the engine would pick: the cheapest enumerated one."""
        info = analyze_query(parse_query(sql), table.schema)
        return min(
            enumerate_plans(table, info),
            key=lambda plan: model.plan_cost(info, plan),
        )

    def test_filtered_aggregation_picks_late_over_single_columns(
        self, table
    ):
        # A covering 10-wide group exists, but comparing its strided
        # columns costs more than comparing and gathering contiguous ones.
        sums = ", ".join(f"sum(a{i})" for i in range(1, 9))
        plan = self._chosen(
            CostModel(), table,
            f"SELECT {sums} FROM r WHERE a1 < 0 AND a2 < 0 AND a3 < 0",
        )
        assert plan.strategy is ExecutionStrategy.LATE
        assert all(layout.width == 1 for layout in plan.layouts)

    def test_unfiltered_dense_aggregation_picks_fused_group(self, table):
        sums = ", ".join(f"sum(a{i})" for i in range(1, 11))
        plan = self._chosen(CostModel(), table, f"SELECT {sums} FROM r")
        assert plan.strategy is ExecutionStrategy.FUSED
        assert [layout.width for layout in plan.layouts] == [10]

    def test_narrow_projection_picks_single_columns_over_group(self, table):
        # Copying 2 of a 10-wide group's attributes walks every row of
        # the group; two contiguous columns are cheaper to read.
        plan = self._chosen(CostModel(), table, "SELECT a1, a2 FROM r")
        assert all(layout.width == 1 for layout in plan.layouts)

    def test_wide_projection_from_one_group_picks_fused(self, table):
        outputs = ", ".join(f"a{i}" for i in range(1, 9))
        plan = self._chosen(CostModel(), table, f"SELECT {outputs} FROM r")
        assert plan.strategy is ExecutionStrategy.FUSED
        assert [layout.width for layout in plan.layouts] == [10]

    def test_count_only_prices_selection_over_predicate_rows(self, table):
        # Regression: the row count came from the (empty) SELECT cover,
        # so a COUNT(*)-only query's AND and count passes cost nothing.
        model = CostModel()
        info = analyze_query(
            parse_query("SELECT count(*) FROM r WHERE a2 < 0 AND a3 < 0"),
            table.schema,
        )
        column = GroupSpec.of(1, 1, table.num_rows)
        compares = 2 * model.column_stride_access(column)
        assert model.late_cost(info, (), (column, column)) > compares
        assert model.fused_cost(info, (), (column, column)) > compares

    def test_transformation_cost_positive_and_monotone(self):
        model = CostModel()
        small = model.transformation_cost(1000, 1000, 1)
        large = model.transformation_cost(10_000_000, 10_000_000, 1)
        assert 0 < small < large

    def test_build_cost_estimate(self):
        model = CostModel()
        cheap = model.build_cost_estimate(1000, 5, 5)
        expensive = model.build_cost_estimate(1000, 5, 100)
        assert cheap < expensive

    def test_plan_cost_every_enumerated_plan(self, table):
        """The model must be able to cost whatever the planner emits."""
        model = CostModel()
        for sql in [
            "SELECT a1 FROM r",
            "SELECT sum(a1), max(a12) FROM r WHERE a20 < 5",
            "SELECT a1 + a11 FROM r WHERE a2 < 0 AND a12 > 0",
        ]:
            info = analyze_query(parse_query(sql), table.schema)
            for plan in enumerate_plans(table, info):
                assert model.plan_cost(info, plan) > 0


class TestOpsCounter:
    def test_counts_arithmetic(self):
        expr = parse_query("SELECT a + b * c - d FROM r").select[0].expr
        assert count_arithmetic_ops(expr) == 3

    def test_counts_inside_aggregates(self):
        expr = parse_query("SELECT sum(a + b) FROM r").select[0].expr
        assert count_arithmetic_ops(expr) == 1


# ---------------------------------------------------------------------------
# Counted specs price exactly like the Counter-based terms they replaced
# ---------------------------------------------------------------------------


class CounterCostModel(CostModel):
    """The Eq. 2 terms as they were before covers were counted once:
    every call builds a ``Counter`` of its (plain tuple) covers."""

    def _selection(self, info, cover, where_cover, scan_fraction):
        from collections import Counter

        m = self.machine
        num_rows = where_cover[0].num_rows if where_cover else 0
        compares = sum(
            count * self.column_stride_access(spec)
            for spec, count in Counter(where_cover).items()
        )
        per_row = m.cpu_per_word if cover else 1.0 / m.io_bandwidth
        per_row += max(0, len(info.query.predicates) - 1) / m.io_bandwidth
        selectivity = self._query_shape(info)[0]
        return (
            scan_fraction * (compares + num_rows * per_row),
            selectivity * num_rows,
        )

    def _in_place(self, info, cover):
        _, ops, reductions, _ = self._query_shape(info)
        total = sum(self.column_stride_access(spec) for spec in cover)
        num_rows = cover[0].num_rows if cover else 0
        return total + self._consume(info, num_rows, ops, reductions)

    def fused_cost(self, info, cover, where_cover, scan_fraction=1.0):
        import math
        from collections import Counter

        from repro.core.cost_model import _dense
        from repro.execution.strategies import MIN_EINSUM_SUMS

        _, ops, reductions, sums = self._query_shape(info)
        m = self.machine
        if info.has_predicate:
            total, qualifying = self._selection(
                info, cover, where_cover, scan_fraction
            )
            for spec, count in Counter(cover).items():
                if _dense(spec):
                    cost = qualifying * (
                        m.cpu_per_word
                        + 2.0 * spec.width * m.word_bytes / m.io_bandwidth
                    )
                else:
                    cost = spec.useful * self.gather_access(
                        GroupSpec.of(1, 1, spec.num_rows), qualifying
                    )
                    if spec.width > 1:
                        cost += self.column_stride_access(spec)
                total += count * cost
            return total + self._consume(info, qualifying, ops, reductions)
        if (
            ops == 0
            and not info.is_aggregation
            and len(cover) == 1
            and cover[0].width > 1
        ):
            spec = cover[0]
            write = self.intermediate(spec.num_rows * len(info.query.select))
            if spec.useful == spec.width:
                return 2.0 * write
            pieces = math.ceil(spec.useful * m.word_bytes / m.cache_line_bytes)
            row = GroupSpec.of(spec.width, 1, spec.num_rows)
            return pieces * self.gather_access(row, spec.num_rows) + write
        total = self._in_place(info, cover)
        for spec in cover:
            if sums and _dense(spec):
                summed = min(sums, spec.useful)
                sums -= summed
                if summed < MIN_EINSUM_SUMS:
                    continue
                per_column = spec.num_rows * (
                    m.cpu_per_word + self.per_value(spec.width)
                )
                total += self.sequential_access(spec) - summed * per_column
        return total

    def late_cost(self, info, cover, where_cover, scan_fraction=1.0):
        from collections import Counter

        if not info.has_predicate:
            return self._in_place(info, cover)
        _, ops, reductions, _ = self._query_shape(info)
        total, qualifying = self._selection(
            info, cover, where_cover, scan_fraction
        )
        for spec, count in Counter(cover).items():
            total += count * self.gather_access(spec, qualifying)
        return total + self._consume(info, qualifying, ops, reductions)


_PRICED_SQL = (
    "SELECT sum(a1), sum(a2), sum(a3), sum(a4), sum(a5) FROM r",
    "SELECT sum(a1 + a2), max(a3) FROM r WHERE a4 < 5 AND a5 > 1",
    "SELECT a1, a2, a3 FROM r",
    "SELECT a1 * 2, a2 FROM r WHERE a3 < 0",
    "SELECT count(*) FROM r WHERE a1 < 3 AND a2 < 4 AND a3 > 1",
    "SELECT avg(a1), min(a2) FROM r WHERE a3 = 7",
)


@pytest.mark.parametrize("seed", range(40))
def test_counted_specs_price_like_counters(seed):
    """Random covers, duplicates spread out so first-seen order matters,
    priced both from plain tuples and from the advisor's counted covers:
    every estimate is ``float.hex``-equal to the Counter-based one."""
    import random

    from repro.core.advisor import LayoutAdvisor, _Costing
    from repro.core.cost_model import SpecCover

    rng = random.Random(seed)
    table = generate_table("r", 8, 1000 + seed, rng=seed)
    infos = [analyze_query(parse_query(sql), table.schema) for sql in _PRICED_SQL]
    selectivity = SelectivityEstimator()
    for info in infos[::2]:
        selectivity.observe(CostModel._predicate_key(info), rng.random())
    new = CostModel(selectivity=selectivity)
    old = CounterCostModel(selectivity=selectivity)
    costing = _Costing(LayoutAdvisor(table, new), infos)

    def specs():
        out = []
        for _ in range(rng.randint(0, 6)):
            width = rng.choice([1, 1, 2, 3, 8])
            useful = rng.randint(1, width)
            out.append(GroupSpec.of(width, useful, table.num_rows))
        return tuple(out)

    for _ in range(20):
        cover, where = specs(), specs()
        masks = tuple(rng.randrange(1, 256) for _ in range(rng.randint(1, 6)))
        needed = rng.randrange(0, 256)
        counted = costing._spec_cover(masks, needed)
        for info in infos:
            if info.has_predicate and not where:
                continue
            fraction = rng.choice([1.0, 0.5, 0.125])
            for price in ("fused_cost", "late_cost"):
                want = getattr(old, price)(info, cover, where, fraction)
                got = getattr(new, price)(info, cover, where, fraction)
                assert got.hex() == want.hex()
                if not info.has_predicate or counted.specs:
                    want = getattr(old, price)(info, counted.specs, counted.specs)
                    got = getattr(new, price)(info, counted, counted)
                    assert got.hex() == want.hex()
                    assert got.hex() == getattr(new, price)(
                        info, SpecCover(counted.specs), counted.specs
                    ).hex()
