"""Template fast-path selection: the generated source must contain the
specialization each (query shape × layout) case is designed to get."""

import sys

import numpy as np
import pytest

from repro.codegen import operator_source
from repro.codegen.exprc import ExprCompiler
from repro.execution.strategies import AccessPlan, ExecutionStrategy
from repro.sql import analyze_query, parse_query
from repro.storage import generate_table
from repro.storage.stitcher import stitch_group


@pytest.fixture(scope="module")
def table():
    t = generate_table("r", 40, 2000, rng=3, initial_layout="column")
    row, _ = stitch_group(t.layouts, t.schema.names, t.schema, full_width=True)
    t.add_layout(row)
    group, _ = stitch_group(
        t.layouts, tuple(f"a{i}" for i in range(1, 9)), t.schema
    )
    t.add_layout(group)
    return t


def source_for(table, sql, layouts, strategy=ExecutionStrategy.FUSED):
    info = analyze_query(parse_query(sql), table.schema)
    plan = AccessPlan(strategy, layouts)
    return operator_source(info, plan)


def group_of(table):
    return table.find_group({f"a{i}" for i in range(1, 9)})


def row_of(table):
    return [l for l in table.layouts if l.width == table.schema.width][0]


class TestFusedFastPaths:
    def test_unfiltered_projection_is_block_copy(self, table):
        source = source_for(
            table, "SELECT a1, a2, a3 FROM r", (group_of(table),)
        )
        assert ".astype(np.int64, copy=True)" in source
        assert "for start" not in source  # no block loop at all

    def test_unfiltered_plain_aggregation_is_axis_reduction(self, table):
        # 5 of the group's 8 attributes are aggregated -> dense buffer:
        # one einsum for the sums, MIN reduces its own column.
        source = source_for(
            table,
            "SELECT sum(a1), sum(a2), sum(a4), sum(a5), min(a3) FROM r",
            (group_of(table),),
        )
        assert "einsum('ij->j'" in source
        assert "float(buf0[:, 2].min())" in source

    def test_sparse_unfiltered_aggregation_per_column(self, table):
        # Only 3 of 8 attributes -> per-column strided reductions.
        source = source_for(
            table,
            "SELECT sum(a1), sum(a2), min(a3) FROM r",
            (group_of(table),),
        )
        assert "einsum('ij->j'" not in source
        assert ".sum(dtype=np.float64)" in source

    def test_wide_buffer_gets_per_column_reductions(self, table):
        source = source_for(
            table, "SELECT sum(a1), sum(a2) FROM r", (row_of(table),)
        )
        # 2 needed of 40: no whole-buffer reduction, per-column sums.
        assert "einsum('ij->j'" not in source
        assert source.count(".sum(dtype=np.float64)") == 2

    def test_filtered_aggregation_compacts_with_take(self, table):
        # 5 of 8 select attributes -> one whole-tuple compaction.
        source = source_for(
            table,
            "SELECT sum(a1), sum(a2), sum(a4), sum(a5), sum(a6) "
            "FROM r WHERE a3 < 0",
            (group_of(table),),
        )
        assert "np.flatnonzero" in source
        assert ".take(sel, axis=0)" in source

    def test_wide_buffer_compacts_per_column(self, table):
        source = source_for(
            table,
            "SELECT sum(a1), sum(a2) FROM r WHERE a3 < 0",
            (row_of(table),),
        )
        assert ".take(sel, axis=0)" not in source  # no 40-wide row copy
        assert ".take(sel)" in source  # per-column takes

    def test_add_chain_fuses_to_rowsum(self, table):
        source = source_for(
            table, "SELECT sum(a1 + a2 + a3 + a4) FROM r", (group_of(table),)
        )
        assert "einsum('ij->i'" in source

    def test_mixed_ops_do_not_rowsum(self, table):
        source = source_for(
            table, "SELECT sum(a1 * a2 + a3) FROM r", (group_of(table),)
        )
        assert "einsum('ij->i'" not in source
        assert "np.multiply" in source

    def test_predicate_chain_reuses_mask(self, table):
        source = source_for(
            table,
            "SELECT a1 FROM r WHERE a2 < 0 AND a3 > 0 AND a4 != 5",
            (group_of(table),),
        )
        # The conjunction folds in place into one bitmap.
        assert source.count("np.logical_and(qmask, ") == 2
        assert source.count("out=qmask") == 2


class TestLateFaithfulness:
    def test_late_materializes_per_operator(self, table):
        source = source_for(
            table,
            "SELECT sum(a1 + a2 + a3 + a4) FROM r",
            tuple(table.narrowest_cover([f"a{i}" for i in range(1, 5)])),
            strategy=ExecutionStrategy.LATE,
        )
        # Three adds, three fresh temporaries, no in-place reuse.
        assert source.count("np.add") == 3
        assert "out=" not in source
        assert "einsum" not in source

    def test_late_selection_vector_pipeline(self, table):
        source = source_for(
            table,
            "SELECT a1 FROM r WHERE a2 < 0 AND a3 > 0 AND a4 != 5",
            tuple(table.narrowest_cover(["a1", "a2", "a3", "a4"])),
            strategy=ExecutionStrategy.LATE,
        )
        # One bitmap for the whole conjunction, one selection vector.
        assert source.count("qmask = ") == 1
        assert source.count("np.logical_and(qmask, ") == 2
        assert source.count("np.flatnonzero") == 1
        assert "sel = sel[" not in source  # no per-conjunct refinement
        # The one gather happens inside the output write.
        assert source.count("[sel]") == 1
        assert "out[:, 0] = c0[sel]" in source

    def test_late_count_star_counts_the_bitmap(self, table):
        source = source_for(
            table,
            "SELECT count(*) FROM r WHERE a2 < 0 AND a3 > 0 AND a4 != 5",
            tuple(table.narrowest_cover(["a2", "a3", "a4"])),
            strategy=ExecutionStrategy.LATE,
        )
        assert "np.count_nonzero(qmask)" in source
        assert "np.flatnonzero" not in source
        assert "[sel]" not in source

    def test_late_temporaries_die_after_use(self, table):
        source = source_for(
            table,
            "SELECT sum(a1 + a2), min(a1) FROM r "
            "WHERE a3 + a4 < 0 AND a5 > 0",
            tuple(table.narrowest_cover([f"a{i}" for i in range(1, 6)])),
            strategy=ExecutionStrategy.LATE,
        )
        lines = [line.strip() for line in source.splitlines()]
        assigned = {
            line.split(" = ")[0]
            for line in lines
            if " = " in line and line.split(" = ")[0][0] in "mtg"
        }
        deleted = set()
        for line in lines:
            if line.startswith("del "):
                deleted.update(name.strip() for name in line[4:].split(","))
        assert assigned and assigned <= deleted
        # Each use gathers its own qualifying values.
        assert "np.add(c0[sel], c1[sel])" in source
        assert "float(c0[sel].min())" in source

    def test_parameters_not_inlined(self, table):
        source = source_for(
            table,
            "SELECT a1 FROM r WHERE a2 < 123456789",
            (group_of(table),),
        )
        assert "123456789" not in source
        assert "params[0]" in source


class TestOneEmitter:
    SHAPES = (
        "SELECT sum(a1), max(a2), min(a3), avg(a4) FROM r",
        "SELECT sum(a1 + a2), max(a3) FROM r WHERE a4 > 0",
        "SELECT sum(a1), sum(a2), sum(a4), sum(a5), min(a3) "
        "FROM r WHERE a6 < 0 AND a7 != 1",
        "SELECT count(*) FROM r WHERE a1 < 0 OR a2 > 0",
        "SELECT a1, a2 FROM r",
        "SELECT a1 * 2, a2 + a3 FROM r",
        "SELECT a1, a2 + a3 FROM r WHERE NOT (a4 < 0) AND a5 > 2",
    )

    @staticmethod
    def layout_grid(table):
        return {
            "group": (group_of(table),),
            "row": (row_of(table),),
            "group+columns": (group_of(table),)
            + tuple(table.narrowest_cover([f"a{i}" for i in range(9, 11)])),
            "columns": tuple(
                table.narrowest_cover([f"a{i}" for i in range(1, 9)])
            ),
        }

    def test_every_strategy_selects_through_one_emitter(
        self, table, monkeypatch
    ):
        callers = set()
        compile_mask = ExprCompiler.compile_mask

        def spy(self, expr, sb):
            caller = sys._getframe(1)
            if caller.f_code is not compile_mask.__code__:  # not recursion
                callers.add(
                    (caller.f_globals["__name__"], caller.f_code.co_name)
                )
            return compile_mask(self, expr, sb)

        monkeypatch.setattr(ExprCompiler, "compile_mask", spy)
        generated = 0
        for sql in self.SHAPES:
            for layouts in self.layout_grid(table).values():
                for strategy in ExecutionStrategy:
                    if strategy is ExecutionStrategy.FUSED and all(
                        layout.width == 1 for layout in layouts
                    ):
                        continue
                    source = source_for(table, sql, layouts, strategy)
                    generated += 1
                    assert "for start in range" not in source
                    assert ".min(axis=0)" not in source
                    assert ".max(axis=0)" not in source
        assert generated == 7 * 7
        assert callers == {("repro.codegen.templates", "_emit_selection")}
