"""The SQL-subset parser: grammar coverage and error reporting."""

import pytest

from repro.errors import ParseError
from repro.sql import parse_query
from repro.sql.expressions import (
    Aggregate,
    AggregateFunc,
    Arithmetic,
    BooleanOp,
    Comparison,
    Literal,
    Not,
)


class TestBasicParsing:
    def test_simple_projection(self):
        query = parse_query("SELECT a, b FROM r")
        assert query.table == "r"
        assert [out.name for out in query.select] == ["a", "b"]
        assert query.where is None

    def test_keywords_case_insensitive(self):
        query = parse_query("select A from R where A < 5")
        assert query.table == "R"
        assert query.where is not None

    def test_alias(self):
        query = parse_query("SELECT a + b AS total FROM r")
        assert query.select[0].name == "total"

    def test_aggregates(self):
        query = parse_query(
            "SELECT sum(a), min(b), max(c), avg(d), count(*) FROM r"
        )
        funcs = [
            out.expr.func
            for out in query.select
            if isinstance(out.expr, Aggregate)
        ]
        assert funcs == [
            AggregateFunc.SUM,
            AggregateFunc.MIN,
            AggregateFunc.MAX,
            AggregateFunc.AVG,
            AggregateFunc.COUNT,
        ]

    def test_count_star(self):
        query = parse_query("SELECT count(*) FROM r")
        assert query.select[0].expr.arg is None

    def test_numbers(self):
        query = parse_query("SELECT a FROM r WHERE a < 2.5 AND a > -3")
        literals = [
            node.value
            for conj in query.predicates
            for node in [conj.right]
            if isinstance(node, Literal)
        ]
        assert 2.5 in literals
        assert -3 in literals

    def test_scientific_notation(self):
        query = parse_query("SELECT a FROM r WHERE a < 1e9")
        assert query.predicates[0].right.value == 1e9


class TestPrecedence:
    def test_mul_binds_tighter_than_add(self):
        query = parse_query("SELECT a + b * c FROM r")
        expr = query.select[0].expr
        assert expr.op.value == "+"
        assert isinstance(expr.right, Arithmetic)
        assert expr.right.op.value == "*"

    def test_parentheses_override(self):
        query = parse_query("SELECT (a + b) * c FROM r")
        expr = query.select[0].expr
        assert expr.op.value == "*"

    def test_and_binds_tighter_than_or(self):
        query = parse_query(
            "SELECT a FROM r WHERE a < 1 OR b < 2 AND c < 3"
        )
        where = query.where
        assert isinstance(where, BooleanOp)
        assert where.op.value == "or"
        assert isinstance(where.right, BooleanOp)
        assert where.right.op.value == "and"

    def test_not(self):
        query = parse_query("SELECT a FROM r WHERE NOT a < 1")
        assert isinstance(query.where, Not)

    def test_parenthesized_boolean(self):
        query = parse_query(
            "SELECT a FROM r WHERE (a < 1 OR b < 2) AND c < 3"
        )
        assert isinstance(query.where, BooleanOp)
        assert query.where.op.value == "and"
        assert isinstance(query.where.left, BooleanOp)

    def test_unary_minus(self):
        query = parse_query("SELECT -a FROM r")
        expr = query.select[0].expr
        assert isinstance(expr, Arithmetic)  # 0 - a

    def test_comparison_operators(self):
        for op in ("<", "<=", ">", ">=", "=", "!=", "<>"):
            query = parse_query(f"SELECT a FROM r WHERE a {op} 5")
            assert isinstance(query.where, Comparison)


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "SELECT",
            "SELECT FROM r",
            "SELECT a",
            "SELECT a FROM",
            "SELECT a FROM r WHERE",
            "SELECT a FROM r WHERE a",
            "SELECT a FROM r trailing",
            "SELECT a FROM r WHERE a < ",
            "SELECT sum( FROM r",
            "SELECT a, FROM r",
            "FROM r SELECT a",
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ParseError):
            parse_query(text)

    def test_rejects_unknown_character(self):
        with pytest.raises(ParseError):
            parse_query("SELECT a FROM r WHERE a < $5")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_query("SELECT a FROM r nonsense")
        assert excinfo.value.position is not None


class TestRoundtrip:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT a, b FROM r",
            "SELECT sum((a + b)) FROM r",
            "SELECT a FROM r WHERE a < 5 AND b > 3",
            "SELECT max(a), count(*) FROM r WHERE a < 1 OR b > 2",
            "SELECT ((a + b) * c) FROM r WHERE NOT (a < 1)",
        ],
    )
    def test_parse_render_parse_fixpoint(self, sql):
        first = parse_query(sql)
        second = parse_query(first.to_sql())
        assert first.select == second.select
        assert first.where == second.where


class TestSugar:
    """BETWEEN and IN desugar into the core predicate algebra."""

    def test_between(self):
        query = parse_query("SELECT a FROM r WHERE a BETWEEN 2 AND 8")
        from repro.sql.expressions import BooleanOp

        assert isinstance(query.where, BooleanOp)
        assert query.where.to_sql() == "(a >= 2 AND a <= 8)"

    def test_not_between(self):
        query = parse_query("SELECT a FROM r WHERE a NOT BETWEEN 2 AND 8")
        assert isinstance(query.where, Not)

    def test_in_list(self):
        query = parse_query("SELECT a FROM r WHERE a IN (1, 2, 3)")
        sql = query.where.to_sql()
        assert sql.count("=") == 3 and sql.count("OR") == 2

    def test_not_in(self):
        query = parse_query("SELECT a FROM r WHERE a NOT IN (1, 2)")
        assert isinstance(query.where, Not)

    def test_between_combines_with_and(self):
        query = parse_query(
            "SELECT a FROM r WHERE a BETWEEN 1 AND 5 AND b < 0"
        )
        # BETWEEN desugars into two conjuncts, plus the explicit one.
        assert len(query.predicates) == 3

    def test_between_executes_correctly(self):
        import numpy as np

        from repro.core.engine import H2OEngine
        from repro.storage import generate_table

        table = generate_table("r", 3, 4000, rng=5)
        engine = H2OEngine(table)
        report = engine.execute(
            "SELECT count(*) FROM r WHERE a1 BETWEEN -500000000 AND 500000000"
        )
        values = np.asarray(table.column("a1"))
        expected = int(
            ((values >= -500000000) & (values <= 500000000)).sum()
        )
        assert report.result.scalars()[0] == expected

    def test_in_executes_correctly(self):
        import numpy as np

        from repro.core.engine import H2OEngine
        from repro.storage import generate_table

        table = generate_table("r", 2, 1000, rng=5)
        engine = H2OEngine(table)
        first = int(table.column("a1")[0])
        report = engine.execute(f"SELECT count(*) FROM r WHERE a1 IN ({first})")
        values = np.asarray(table.column("a1"))
        assert report.result.scalars()[0] == int((values == first).sum())

    def test_dangling_not(self):
        with pytest.raises(ParseError):
            parse_query("SELECT a FROM r WHERE a NOT < 5")


class TestBounds:
    """What the parser accepts is bounded: past either bound it raises
    ParseError (HTTP 400), never RecursionError."""

    @staticmethod
    def conjuncts(n):
        return "SELECT count(*), sum(a2) FROM r WHERE " + " AND ".join(
            f"a{1 + i % 3} > {i - 40}" for i in range(n)
        )

    @staticmethod
    def terms(n):
        # The aggregate is one level, each ``+`` another; the negative
        # literal is the deepest leaf.
        terms = ["-5"] + ["a1"] * (n - 1)
        return "SELECT sum(" + " + ".join(terms) + ") FROM r"

    @pytest.mark.parametrize("build", ["conjuncts", "terms"])
    def test_query_at_the_depth_bound_answers_with_and_without_codegen(
        self, build
    ):
        import numpy as np

        from repro.config import EngineConfig
        from repro.core.engine import H2OEngine
        from repro.sql.parser import MAX_EXPR_DEPTH
        from repro.storage import generate_table

        sql = getattr(self, build)(MAX_EXPR_DEPTH)
        answers = []
        for use_codegen in (True, False):
            engine = H2OEngine(
                generate_table("r", 4, 3000, rng=2),
                EngineConfig(use_codegen=use_codegen),
            )
            report = engine.execute(sql)
            assert report.used_codegen == use_codegen
            # The query's own SQL rendering parses back to it.
            assert parse_query(report.query.to_sql()) == report.query
            answers.append(report.result.data)
        assert answers[0].tobytes() == answers[1].tobytes()
        assert not np.isnan(answers[0]).any()

    @pytest.mark.parametrize(
        "sql",
        [
            "conjuncts",
            "terms",
            "SELECT count(*) FROM r WHERE {}a1 > 0",
            "SELECT count(*) FROM r WHERE {}a1 > 0{}",
            "SELECT count(*) FROM r WHERE {}a1{} > 0",
            "SELECT sum({}a1) FROM r",
        ],
    )
    def test_one_past_the_depth_bound_is_a_parse_error(self, sql):
        from repro.sql.parser import MAX_EXPR_DEPTH

        past = MAX_EXPR_DEPTH + 1
        if sql in ("conjuncts", "terms"):
            text = getattr(self, sql)(past)
        elif sql.endswith("a1 > 0"):
            text = sql.format("NOT " * past)
        elif "sum" in sql:
            text = sql.format("-" * past)
        else:
            text = sql.format("(" * past, ")" * past)
        with pytest.raises(ParseError, match=f"deeper than {MAX_EXPR_DEPTH}"):
            parse_query(text)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT count(*) FROM r WHERE " + " + ".join(["a1"] * 3200) + " > 0",
            "SELECT sum(" + " + ".join(["a1"] * 3200) + ") FROM r",
            "SELECT sum(" + "-" * 16000 + "a1) FROM r",
        ],
        ids=["comparison", "aggregate", "unary-minus"],
    )
    def test_long_chains_inside_the_length_bound_are_parse_errors(self, sql):
        """Chains parse in loops, and the operand checks that comparisons
        and aggregates run on construction walk them without recursion,
        so the depth bound answers before any recursive walk."""
        from repro.sql.parser import MAX_EXPR_DEPTH, MAX_SQL_LENGTH

        assert len(sql) <= MAX_SQL_LENGTH
        with pytest.raises(ParseError, match=f"deeper than {MAX_EXPR_DEPTH}"):
            parse_query(sql)

    @pytest.mark.parametrize("tail", [" > 0", " * 2 + 1 > 0"])
    def test_a_parenthesized_operand_is_parsed_once(self, tail, monkeypatch):
        """Each parenthesis around an arithmetic operand in a WHERE is
        read once, not once per enclosing level: parse work grows
        linearly with the nesting (the gateway parses on its event
        loop)."""
        from repro.sql import parser

        calls = []
        real = parser._Parser._parse_factor

        def counting(self):
            calls.append(self.index)
            return real(self)

        monkeypatch.setattr(parser._Parser, "_parse_factor", counting)
        depth = parser.MAX_EXPR_DEPTH - 1
        sql = "SELECT count(*) FROM r WHERE {}a1{}" + tail
        nested = parser._Parser(sql.format("(" * depth, ")" * depth))
        query = nested.parse_query()
        assert query == parse_query(sql.format("", ""))
        assert len(calls) <= depth + 4

    def test_text_past_the_length_bound_is_refused_before_tokenizing(self):
        from repro.sql.parser import MAX_SQL_LENGTH

        head = "SELECT sum(a1) FROM r WHERE a2 > 0"
        fits = head + " " * (MAX_SQL_LENGTH - len(head))
        assert parse_query(fits).table == "r"
        with pytest.raises(ParseError, match="exceeds"):
            parse_query(fits + " ")
        with pytest.raises(ParseError, match="exceeds"):
            parse_query(self.conjuncts(20_000))
