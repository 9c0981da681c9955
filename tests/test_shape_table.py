"""The parser's shape table: a repeat of a shape is bound, not parsed.

Whatever the table answers must be exactly what a fresh parse answers:
the same AST, the same literal vector, both signatures and every output
name.  Shapes come from ``tests/test_property_sql.py``'s strategies,
rendered to text with fresh numbers in every spelling the tokenizer
takes (``5``, ``5.``, ``.5``, ``1e3``, ``2.5E-2``) and widened with
BETWEEN / IN predicates; small value pools make equal literals (and so
aggregate dedup) common.
"""

from __future__ import annotations

import math
import random
import sys
import threading

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import H2OError
from repro.sql import parser
from repro.sql.expressions import (
    Aggregate,
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Literal,
    Not,
)
from repro.sql.parser import _Parser, parse_query
from tests.test_property_sql import queries, value_exprs


class Hole:
    """Where an unsigned number of type ``kind`` goes."""

    def __init__(self, kind: type) -> None:
        self.kind = kind


def _template(expr, out: list) -> None:
    """``expr`` as text parts, every literal a :class:`Hole`."""
    kind = type(expr)
    if kind is Literal:
        if math.copysign(1.0, expr.value) < 0:  # -5 and -0.0 alike
            out.append("-")
        out.append(Hole(type(expr.value)))
    elif kind is ColumnRef:
        out.append(expr.name)
    elif kind is Arithmetic or kind is Comparison or kind is BooleanOp:
        wrap = kind is not Comparison
        out.append("(" if wrap else "")
        _template(expr.left, out)
        out.append(expr.op.value.upper())
        _template(expr.right, out)
        out.append(")" if wrap else "")
    elif kind is Not:
        out.append("NOT (")
        _template(expr.child, out)
        out.append(")")
    elif kind is Aggregate:
        out.append(f"{expr.func.value}(")
        if expr.arg is None:
            out.append("*")
        else:
            _template(expr.arg, out)
        out.append(")")
    else:  # pragma: no cover - strategies build nothing else
        raise AssertionError(expr)


@st.composite
def sugar(draw):
    """A BETWEEN or IN predicate as text parts (the parser desugars
    both, repeating the left operand)."""
    parts: list = []
    _template(draw(value_exprs(1)), parts)
    negated = ["NOT"] if draw(st.booleans()) else []
    if draw(st.booleans()):
        low: list = []
        high: list = []
        _template(draw(value_exprs(1)), low)
        _template(draw(value_exprs(1)), high)
        return parts + negated + ["BETWEEN"] + low + ["AND"] + high
    items = []
    for expr in draw(st.lists(value_exprs(1), min_size=1, max_size=3)):
        item: list = []
        _template(expr, item)
        items += ([","] if items else []) + item
    return parts + negated + ["IN", "("] + items + [")"]


@st.composite
def shapes(draw):
    """A query as text parts: select list, optional WHERE of the shared
    strategies' predicates, optionally ANDed with BETWEEN / IN."""
    query = draw(queries())
    parts = ["SELECT"]
    for number, out in enumerate(query.select):
        if number:
            parts.append(",")
        _template(out.expr, parts)
    parts += ["FROM", "r"]
    conjuncts = []
    if query.where is not None:
        where: list = []
        _template(query.where, where)
        conjuncts.append(["("] + where + [")"])
    if draw(st.booleans()):
        conjuncts.append(draw(sugar()))
    for number, conjunct in enumerate(conjuncts):
        parts += (["AND"] if number else ["WHERE"]) + conjunct
    return parts


def _spellings(kind: type, small: bool):
    """Unsigned number text of type ``kind``."""
    digits = st.integers(0, 3) if small else st.integers(0, 10**6)
    if kind is int:
        return digits.map(str)
    return st.one_of(
        st.tuples(digits, st.integers(0, 99)).map(lambda p: f"{p[0]}.{p[1]}"),
        digits.map(lambda d: f"{d}."),
        st.integers(0, 999).map(lambda d: f".{d}"),
        st.tuples(digits, st.sampled_from("eE"), st.integers(-6, 20)).map(
            lambda p: f"{p[0]}{p[1]}{p[2]}"
        ),
    )


@st.composite
def fills(draw, parts):
    """Fresh numbers for every hole of ``parts``."""
    small = draw(st.booleans())
    return [
        draw(_spellings(part.kind, small))
        for part in parts
        if isinstance(part, Hole)
    ]


def render(parts, numbers) -> str:
    numbers = iter(numbers)
    return " ".join(
        next(numbers) if isinstance(part, Hole) else part
        for part in parts
        if part != ""
    )


def assert_same_query(got, expected) -> None:
    assert got == expected
    assert got.shape_signature() == expected.shape_signature()
    assert got.literals == expected.literals
    assert [type(v) for v in got.literals] == [
        type(v) for v in expected.literals
    ]
    assert got.signature() == expected.signature()
    assert [out.name for out in got.select] == [
        out.name for out in expected.select
    ]
    assert got.to_sql() == expected.to_sql()
    for name in ("select_attributes", "where_attributes", "is_aggregation"):
        assert getattr(got, name) == getattr(expected, name)


def parse_both(text: str):
    """(shape-table parse, fresh parse) of ``text``, or None when the
    text is no query — then both must refuse it alike."""
    try:
        expected = _Parser(text).parse_query()
    except H2OError as exc:
        with pytest.raises(type(exc)):
            parse_query(text)
        return None
    return parse_query(text), expected


@st.composite
def repeats(draw):
    parts = draw(shapes())
    return parts, draw(fills(parts)), draw(fills(parts))


@given(repeats())
@settings(max_examples=600, deadline=None)
def test_bound_repeat_equals_fresh_parse(case):
    parts, first, second = case
    parse_both(render(parts, first))  # the first parse caches the shape
    both = parse_both(render(parts, second))
    if both is not None:
        assert_same_query(*both)


def test_a_repeat_is_bound_from_the_first_parse():
    first = parse_query("SELECT sum(a1 * 2) FROM r WHERE a2 > 5")
    second = parse_query("SELECT sum(a1 * 3) FROM r WHERE a2 > 7")
    assert second.shape_signature() is first.shape_signature()
    assert second.literals == (7, 3)
    assert [out.name for out in second.select] == ["sum((a1 * 3))"]
    assert_same_query(
        second, _Parser("SELECT sum(a1 * 3) FROM r WHERE a2 > 7").parse_query()
    )


@pytest.mark.parametrize(
    "first, second",
    [
        # Equal literals fold two aggregates into one accumulator.
        ("SELECT sum(a1 + 1), sum(a1 + 1) FROM r", "SELECT sum(a1 + 1), sum(a1 + 2) FROM r"),
        ("SELECT sum(a1 + 1), sum(a1 + 2) FROM r", "SELECT sum(a1 + 4), sum(a1 + 4) FROM r"),
        # 0 and -0 are equal where 1 and -1 are not.
        ("SELECT sum(a1 + 1), sum(a1 + -1) FROM r", "SELECT sum(a1 + 0), sum(a1 + -0) FROM r"),
        ("SELECT sum(a1 + 0.0), sum(a1 + -0.0) FROM r", "SELECT sum(a1 + 2.5), sum(a1 + -2.5) FROM r"),
        # The ``0`` of ``-x`` is a constant of the shape, not a slot.
        ("SELECT sum(0 - a1), sum(-a1) FROM r", "SELECT sum(5 - a1), sum(-a1) FROM r"),
        ("SELECT sum(--3 * a1), max(- -.5) FROM r WHERE 1 > 2", "SELECT sum(--4 * a1), max(- -1e3) FROM r WHERE 2 > 1"),
        # BETWEEN / IN repeat a left operand that holds a number.
        ("SELECT a1 FROM r WHERE a2 + 1 BETWEEN 2 AND 3", "SELECT a1 FROM r WHERE a2 + 4 BETWEEN 5 AND 6"),
        ("SELECT a1 FROM r WHERE a2 * 2 NOT IN (1, 2)", "SELECT a1 FROM r WHERE a2 * 3 NOT IN (4, 5)"),
        ("SELECT a1 FROM r WHERE a2 BETWEEN -1 AND 1e3", "SELECT a1 FROM r WHERE a2 BETWEEN -7 AND 2.5e2"),
    ],
)
def test_literal_patterns_and_repeated_operands(first, second):
    parse_query(first)
    got, expected = parse_both(second)
    assert_same_query(got, expected)


def test_table_is_bounded():
    for number in range(parser.SHAPE_TABLE_CAPACITY + 50):
        parse_query(f"SELECT sum(a1) AS s{number} FROM r WHERE a2 > {number}")
    assert len(parser._shapes) <= parser.SHAPE_TABLE_CAPACITY


def test_threads_parse_interleaved_shapes():
    templates = [
        "SELECT sum(a1 + {}), count(*) FROM r WHERE a2 > {}",
        "SELECT a1, a3 * {} FROM r WHERE a4 BETWEEN {} AND {}",
        "SELECT min(a{}) FROM r WHERE NOT (a1 < -{}) OR {} > 1",
        "SELECT avg(a2 - {}), sum(a2 - {}) FROM r WHERE a3 IN ({}, 4)",
    ]
    failures = []

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(300):
                template = rng.choice(templates)
                text = template.format(
                    *(rng.choice([0, 1, 2, rng.randrange(10**6), 0.5]) for _ in range(3))
                )
                both = parse_both(text)
                if both is not None:
                    assert_same_query(*both)
        except BaseException as exc:  # surfaced on the main thread
            failures.append(exc)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads mid-insert and mid-bind
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
