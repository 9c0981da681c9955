"""Code generation: templates, parameterization, cache, compilation."""

import numpy as np
import pytest

from repro.codegen import OperatorCache, compile_kernel, operator_source
from repro.codegen.exprc import (
    Binding,
    ExprCompiler,
    ParamRegistry,
    masked_sql,
)
from repro.codegen.generator import collect_literals, operator_key
from repro.codegen.source import SourceBuilder
from repro.config import EngineConfig
from repro.errors import CodegenError
from repro.execution import enumerate_plans
from repro.execution.strategies import AccessPlan, ExecutionStrategy
from repro.sql import analyze_query, col, parse_query
from repro.storage import generate_table
from repro.storage.stitcher import stitch_group


class TestSourceBuilder:
    def test_indentation(self):
        sb = SourceBuilder()
        sb.line("def f():")
        with sb.indented():
            sb.line("return 1")
        assert sb.render() == "def f():\n    return 1"

    def test_block(self):
        sb = SourceBuilder()
        with sb.block("if x:"):
            sb.line("pass")
        assert "if x:\n    pass" == sb.render()

    def test_fresh_names_unique(self):
        sb = SourceBuilder()
        names = {sb.fresh("t") for _ in range(10)}
        assert len(names) == 10

    def test_scope_deletes_the_names_it_created(self):
        sb = SourceBuilder()
        kept = sb.fresh("k")
        with sb.scope():
            first, second = sb.fresh("m"), sb.fresh("t")
            sb.line(f"{first} = {second} = 1")
        with sb.scope():
            sb.line("pass")  # nothing named, nothing deleted
        assert sb.render().splitlines() == [
            f"{first} = {second} = 1",
            f"del {first}, {second}",
            "pass",
        ]
        assert kept not in sb.render()


class TestMaskedSql:
    def test_masks_literals(self):
        expr = (col("a") + 5) * 2
        assert masked_sql(expr) == "((a + ?) * ?)"

    def test_predicate(self):
        assert masked_sql(col("a") < 7) == "a < ?"

    def test_structural_identity_across_constants(self):
        first = parse_query("SELECT a FROM r WHERE b < 1").where
        second = parse_query("SELECT a FROM r WHERE b < 999").where
        assert masked_sql(first) == masked_sql(second)


class TestExprCompiler:
    def _compile(self, expr, fused=True, **bindings):
        sb = SourceBuilder()
        params = ParamRegistry()
        binding_map = {
            name: Binding(name, np.dtype(np.int64)) for name in bindings
        }
        compiler = ExprCompiler(binding_map, params, fused=fused)
        with sb.block("def kernel(a, b, params):"):
            operand = compiler.compile_value(expr, sb)
            sb.line(f"return {operand.source}")
        namespace = {"np": np}
        exec(sb.render(), namespace)
        return namespace["kernel"], params

    def test_emits_runnable_source(self):
        kernel, params = self._compile(col("a") + col("b") * 2, a=1, b=1)
        a = np.array([1, 2])
        b = np.array([10, 20])
        out = kernel(a, b, params.values)
        assert list(out) == [21, 42]

    def test_parameter_lifting(self):
        _kernel, params = self._compile(col("a") + 5, a=1)
        assert params.values == [5]

    def test_fused_reuses_temporaries(self):
        sb = SourceBuilder()
        params = ParamRegistry()
        bindings = {
            n: Binding(n, np.dtype(np.int64)) for n in ("a", "b", "c")
        }
        compiler = ExprCompiler(bindings, params, fused=True)
        compiler.compile_value((col("a") * col("b")) - col("c"), sb)
        assert "out=" in sb.render()

    def test_late_never_reuses(self):
        sb = SourceBuilder()
        params = ParamRegistry()
        bindings = {
            n: Binding(n, np.dtype(np.int64)) for n in ("a", "b", "c")
        }
        compiler = ExprCompiler(bindings, params, fused=False)
        compiler.compile_value((col("a") * col("b")) - col("c"), sb)
        assert "out=" not in sb.render()

    def test_rowsum_fusion_for_add_chains(self):
        sb = SourceBuilder()
        params = ParamRegistry()
        bindings = {
            f"a{i}": Binding(
                f"blk[:, {i}]", np.dtype(np.int64), base="blk", position=i
            )
            for i in range(4)
        }
        compiler = ExprCompiler(bindings, params, fused=True)
        chain = col("a0") + col("a1") + col("a2") + col("a3")
        compiler.compile_value(chain, sb)
        assert "einsum" in sb.render()

    def test_rowsum_requires_same_base(self):
        sb = SourceBuilder()
        params = ParamRegistry()
        bindings = {
            "a": Binding("x[:, 0]", np.dtype(np.int64), base="x", position=0),
            "b": Binding("y[:, 0]", np.dtype(np.int64), base="y", position=0),
            "c": Binding("x[:, 1]", np.dtype(np.int64), base="x", position=1),
        }
        compiler = ExprCompiler(bindings, params, fused=True)
        compiler.compile_value(col("a") + col("b") + col("c"), sb)
        assert "einsum" not in sb.render()

    def test_unknown_binding(self):
        with pytest.raises(CodegenError):
            self._compile(col("zzz"), a=1)

    def test_param_registry_validates_order(self):
        registry = ParamRegistry(expected=[1, 2])
        registry.register(1)
        with pytest.raises(CodegenError):
            registry.register(99)

    def test_param_registry_validates_type(self):
        registry = ParamRegistry(expected=[1])
        with pytest.raises(CodegenError):
            registry.register(1.0)  # float vs int


class TestCompile:
    def test_compile_kernel(self):
        fn, filename = compile_kernel(
            "def kernel(bufs, params):\n    return 42"
        )
        assert fn((), ()) == 42
        assert filename.startswith("<h2o-operator-")
        assert hasattr(fn, "__h2o_source__")

    def test_syntax_error_includes_source(self):
        with pytest.raises(CodegenError, match="does not compile"):
            compile_kernel("def kernel(:\n  pass")

    def test_missing_kernel_function(self):
        with pytest.raises(CodegenError, match="defines no"):
            compile_kernel("x = 1")


class TestOperatorCache:
    def test_hit_miss_accounting(self):
        cache = OperatorCache()
        assert cache.lookup("k") is None
        from repro.codegen.cache import CacheEntry

        cache.store("k", CacheEntry(kernel=lambda: 0, source="", filename=""))
        assert cache.lookup("k") is not None
        assert cache.stats() == (1, 1, 1, 0)

    def test_lru_eviction_bound(self):
        from repro.codegen.cache import CacheEntry

        cache = OperatorCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.store(
                key, CacheEntry(kernel=lambda: 0, source="", filename="")
            )
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.lookup("a") is None  # least recently used, evicted
        assert cache.lookup("b") is not None
        # "b" is now most recently used; storing "d" evicts "c".
        cache.store(
            "d", CacheEntry(kernel=lambda: 0, source="", filename="")
        )
        assert cache.lookup("c") is None
        assert cache.lookup("b") is not None
        assert cache.stats()[3] == 2

    def test_disabled_cache_never_hits(self):
        cache = OperatorCache(enabled=False)
        from repro.codegen.cache import CacheEntry

        cache.store("k", CacheEntry(kernel=lambda: 0, source="", filename=""))
        assert cache.lookup("k") is None

    def test_clear(self):
        cache = OperatorCache()
        from repro.codegen.cache import CacheEntry

        cache.store("k", CacheEntry(kernel=lambda: 0, source="", filename=""))
        cache.clear()
        assert len(cache) == 0

    def test_find_source_sees_live_entries_only(self):
        from repro.codegen.cache import CacheEntry

        cache = OperatorCache(capacity=1)
        entry = CacheEntry(kernel=lambda: 0, source="text", filename="")
        cache.store("a", entry)
        assert cache.find_source("text") is entry
        assert cache.find_source("other") is None
        assert cache.stats() == (1, 0, 0, 0)  # no hit or miss counted
        cache.store("b", CacheEntry(kernel=lambda: 1, source="", filename=""))
        assert cache.find_source("text") is None  # evicted with "a"
        disabled = OperatorCache(enabled=False)
        disabled.store("a", entry)
        assert disabled.find_source("text") is None


@pytest.fixture(scope="module")
def table():
    t = generate_table("r", 10, 1000, rng=9, initial_layout="column")
    group, _ = stitch_group(t.layouts, ("a1", "a2", "a3", "a4"), t.schema)
    t.add_layout(group)
    return t


class TestGeneratorIntegration:
    def test_collect_literals_matches_template_order(self, table):
        for sql in [
            "SELECT sum(a1 + 3) FROM r WHERE a2 < 10 AND a3 > 20",
            "SELECT a1 * 2, a2 + 1 FROM r WHERE a3 < 5",
            "SELECT sum(a1) + 7 FROM r",
        ]:
            info = analyze_query(parse_query(sql), table.schema)
            for plan in enumerate_plans(table, info):
                # operator_source re-validates the canonical order and
                # raises on any divergence.
                source = operator_source(info, plan)
                assert "def kernel" in source

    def test_operator_key_ignores_constants(self, table):
        a = analyze_query(
            parse_query("SELECT sum(a1) FROM r WHERE a2 < 1"), table.schema
        )
        b = analyze_query(
            parse_query("SELECT sum(a1) FROM r WHERE a2 < 999"), table.schema
        )
        plan_a = enumerate_plans(table, a)[0]
        plan_b = enumerate_plans(table, b)[0]
        assert operator_key(a, plan_a) == operator_key(b, plan_b)

    def test_operator_key_distinguishes_param_types(self, table):
        a = analyze_query(
            parse_query("SELECT sum(a1) FROM r WHERE a2 < 1"), table.schema
        )
        b = analyze_query(
            parse_query("SELECT sum(a1) FROM r WHERE a2 < 1.5"), table.schema
        )
        plan_a = enumerate_plans(table, a)[0]
        plan_b = enumerate_plans(table, b)[0]
        assert operator_key(a, plan_a) != operator_key(b, plan_b)

    def test_operator_key_distinguishes_layouts(self, table):
        info = analyze_query(
            parse_query("SELECT sum(a1) FROM r WHERE a2 < 1"), table.schema
        )
        plans = enumerate_plans(table, info)
        keys = {operator_key(info, plan) for plan in plans}
        assert len(keys) == len(plans)

    def test_generated_source_mentions_positions(self, table):
        """The emitted code binds physical column positions as constants
        (the Fig. 5 specialization)."""
        info = analyze_query(
            parse_query("SELECT sum(a2 + a3) FROM r WHERE a1 < 0"),
            table.schema,
        )
        group = table.find_group({"a1", "a2", "a3", "a4"})
        plan = AccessPlan(ExecutionStrategy.FUSED, (group,))
        source = operator_source(info, plan)
        assert "params[0]" in source  # the predicate constant
        assert "[:, 0]" in source  # a1 at position 0 of the group


class TestOneCompilePerSource:
    """Operator keys spell attributes as column slots, as the generated
    source does, so queries over different attributes share one key —
    and each source is generated and compiled once."""

    @staticmethod
    def run_fig7(monkeypatch, config, num_queries=200):
        from repro.codegen import generator
        from repro.core.engine import H2OEngine
        from repro.workloads.sequences import fig7_sequence

        generated, compiled = [], []
        build, compile_ = generator.build_source, generator.compile_kernel

        def spy_build(*args):
            source, registry = build(*args)
            generated.append(source)
            return source, registry

        def spy_compile(source, name):
            compiled.append(source)
            return compile_(source, name)

        monkeypatch.setattr(generator, "build_source", spy_build)
        monkeypatch.setattr(generator, "compile_kernel", spy_compile)
        workload = fig7_sequence(
            num_rows=2_000, num_queries=num_queries, rng=7000
        )
        engine = H2OEngine(workload.make_table(rng=1), config)
        for query in workload.queries:
            engine.execute(query)
        return engine, generated, compiled

    def test_fig7_compiles_each_distinct_source_once(self, monkeypatch):
        engine, generated, compiled = self.run_fig7(
            monkeypatch, EngineConfig()
        )
        cold = sum(
            1 for r in engine.reports if r.used_codegen and not r.plan_cache_hit
        )
        assert len(generated) < cold  # keys are shared across attributes
        assert len(compiled) == len(set(compiled)) == len(set(generated))
        # Shared kernels keep the oracle's key/source audit true.
        for _, entry in engine.executor.operator_cache.entries():
            assert entry.kernel.__h2o_source__ == entry.source

    def test_disabled_cache_compiles_every_generation(self, monkeypatch):
        _, generated, compiled = self.run_fig7(
            monkeypatch, EngineConfig(operator_cache=False), num_queries=60
        )
        assert len(set(generated)) < len(generated)
        assert compiled == generated
