"""Parser for the SQL subset the engine executes.

Grammar (case-insensitive keywords)::

    query       := SELECT select_list FROM identifier [WHERE bool_expr]
    select_list := select_item ("," select_item)*
    select_item := expr [AS identifier]
    bool_expr   := bool_term (OR bool_term)*
    bool_term   := bool_factor (AND bool_factor)*
    bool_factor := NOT bool_factor | comparison | "(" bool_expr ")"
    comparison  := expr (< | <= | > | >= | = | != | <>) expr
                 | expr [NOT] BETWEEN expr AND expr
                 | expr [NOT] IN "(" expr ("," expr)* ")"
    expr        := term (("+" | "-") term)*
    term        := factor ("*" factor)*
    factor      := number | identifier | aggregate | "(" expr ")" | "-" factor
    aggregate   := (SUM|MIN|MAX|AVG|COUNT) "(" (expr | "*") ")"

This covers the paper's three query templates (projection, aggregation,
arithmetic expression; section 4.2.1) with arbitrary conjunctive /
disjunctive filter conditions.

Queries that differ only in their constants are one shape (paper
section 3.4), so :func:`parse_query` parses each shape once per process:
a bounded shape table keyed on the token stream with its numbers masked
re-binds a repeat's numbers into fresh :class:`Literal` nodes of the
first parse, which also lends the repeat its shape signature and
attribute sets.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ParseError
from .expressions import (
    Aggregate,
    AggregateFunc,
    Arithmetic,
    ArithmeticOp,
    BoolConnective,
    BooleanOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    Not,
    Scalar,
)
from .query import OutputColumn, Query
from .signature import _walk_literals, literal_nodes

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><=|>=|!=|<>|[-+*<>=(),])"
    r"|(?P<star>\*)"
    r")"
)

_KEYWORDS = {
    "select",
    "from",
    "where",
    "and",
    "or",
    "not",
    "as",
    "between",
    "in",
}
_AGG_FUNCS = {f.value: f for f in AggregateFunc}
_COMPARISONS = {
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
    "=": ComparisonOp.EQ,
    "!=": ComparisonOp.NE,
    "<>": ComparisonOp.NE,
}


#: Shapes the shape table keeps per process; the oldest goes first.
SHAPE_TABLE_CAPACITY = 512


def _number(text: str) -> Scalar:
    return float(text) if any(c in text for c in ".eE") else int(text)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "keyword" | "op"
    text: str
    position: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", pos)
        pos = match.end()
        if match.lastgroup == "number":
            tokens.append(_Token("number", match.group("number"), match.start()))
        elif match.lastgroup == "ident":
            word = match.group("ident")
            kind = "keyword" if word.lower() in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, match.start()))
        else:
            tokens.append(_Token("op", match.group("op"), match.start()))
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0
        #: Ordinal of each number token among the number tokens, by
        #: token index: the literal slots of the shape table.
        self._slot_of = {
            index: slot
            for slot, index in enumerate(
                i for i, t in enumerate(self.tokens) if t.kind == "number"
            )
        }
        #: ``id(literal) -> (literal, slot, negated)`` for every literal
        #: built from a number token, including those a backtracked
        #: attempt discarded (kept alive so no id is reused).
        self.origins: Dict[int, Tuple[Literal, int, bool]] = {}

    def _literal(self, value: Scalar, slot: int, negated: bool) -> Literal:
        literal = Literal(value)
        self.origins[id(literal)] = (literal, slot, negated)
        return literal

    # Token helpers -----------------------------------------------------

    def _peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.index += 1
        return token

    def _expect_keyword(self, word: str) -> None:
        token = self._next()
        if token.kind != "keyword" or token.text.lower() != word:
            raise ParseError(f"expected {word.upper()}", token.position)

    def _expect_op(self, op: str) -> None:
        token = self._next()
        if token.kind != "op" or token.text != op:
            raise ParseError(f"expected {op!r}", token.position)

    def _match_keyword(self, word: str) -> bool:
        token = self._peek()
        if token and token.kind == "keyword" and token.text.lower() == word:
            self.index += 1
            return True
        return False

    def _match_op(self, *ops: str) -> Optional[str]:
        token = self._peek()
        if token and token.kind == "op" and token.text in ops:
            self.index += 1
            return token.text
        return None

    # Grammar -----------------------------------------------------------

    def parse_query(self) -> Query:
        self._expect_keyword("select")
        select = self._parse_select_list()
        self._expect_keyword("from")
        table_token = self._next()
        if table_token.kind != "ident":
            raise ParseError("expected table name", table_token.position)
        where: Optional[Expr] = None
        if self._match_keyword("where"):
            where = self._parse_bool_expr()
        trailing = self._peek()
        if trailing is not None:
            raise ParseError(
                f"unexpected trailing input {trailing.text!r}",
                trailing.position,
            )
        return Query(table=table_token.text, select=select, where=where)

    def _parse_select_list(self) -> Tuple[OutputColumn, ...]:
        items = [self._parse_select_item()]
        while self._match_op(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> OutputColumn:
        expr = self._parse_expr()
        alias = None
        if self._match_keyword("as"):
            alias_token = self._next()
            if alias_token.kind != "ident":
                raise ParseError("expected alias name", alias_token.position)
            alias = alias_token.text
        return OutputColumn(expr=expr, alias=alias)

    def _parse_bool_expr(self) -> Expr:
        left = self._parse_bool_term()
        while self._match_keyword("or"):
            right = self._parse_bool_term()
            left = BooleanOp(BoolConnective.OR, left, right)
        return left

    def _parse_bool_term(self) -> Expr:
        left = self._parse_bool_factor()
        while self._match_keyword("and"):
            right = self._parse_bool_factor()
            left = BooleanOp(BoolConnective.AND, left, right)
        return left

    def _parse_bool_factor(self) -> Expr:
        if self._match_keyword("not"):
            return Not(self._parse_bool_factor())
        # A parenthesis is ambiguous between a grouped boolean expression
        # and a parenthesized arithmetic operand; try boolean first and
        # fall back to treating it as the left side of a comparison.
        if self._peek() and self._peek().kind == "op" and self._peek().text == "(":
            saved = self.index
            try:
                self._expect_op("(")
                inner = self._parse_bool_expr()
                self._expect_op(")")
                if isinstance(inner, (Comparison, BooleanOp, Not)):
                    return inner
            except ParseError:
                pass
            self.index = saved
        return self._parse_comparison()

    def _parse_comparison(self) -> Expr:
        left = self._parse_expr()
        if self._match_keyword("between"):
            return self._parse_between(left, negated=False)
        if self._match_keyword("in"):
            return self._parse_in(left, negated=False)
        if self._match_keyword("not"):
            if self._match_keyword("between"):
                return self._parse_between(left, negated=True)
            if self._match_keyword("in"):
                return self._parse_in(left, negated=True)
            token = self._peek()
            position = token.position if token else len(self.text)
            raise ParseError("expected BETWEEN or IN after NOT", position)
        token = self._peek()
        if token is None or token.kind != "op" or token.text not in _COMPARISONS:
            position = token.position if token else len(self.text)
            raise ParseError("expected comparison operator", position)
        self.index += 1
        right = self._parse_expr()
        return Comparison(_COMPARISONS[token.text], left, right)

    def _parse_between(self, left: Expr, negated: bool) -> Expr:
        """``x BETWEEN lo AND hi`` desugars to ``x >= lo AND x <= hi``."""
        low = self._parse_expr()
        self._expect_keyword("and")
        high = self._parse_expr()
        inside = BooleanOp(
            BoolConnective.AND,
            Comparison(ComparisonOp.GE, left, low),
            Comparison(ComparisonOp.LE, left, high),
        )
        return Not(inside) if negated else inside

    def _parse_in(self, left: Expr, negated: bool) -> Expr:
        """``x IN (a, b, c)`` desugars to an OR chain of equalities."""
        self._expect_op("(")
        values = [self._parse_expr()]
        while self._match_op(","):
            values.append(self._parse_expr())
        self._expect_op(")")
        expr: Expr = Comparison(ComparisonOp.EQ, left, values[0])
        for value in values[1:]:
            expr = BooleanOp(
                BoolConnective.OR,
                expr,
                Comparison(ComparisonOp.EQ, left, value),
            )
        return Not(expr) if negated else expr

    def _parse_expr(self) -> Expr:
        left = self._parse_term()
        while True:
            op = self._match_op("+", "-")
            if op is None:
                return left
            right = self._parse_term()
            arith = ArithmeticOp.ADD if op == "+" else ArithmeticOp.SUB
            left = Arithmetic(arith, left, right)

    def _parse_term(self) -> Expr:
        left = self._parse_factor()
        while self._match_op("*"):
            right = self._parse_factor()
            left = Arithmetic(ArithmeticOp.MUL, left, right)
        return left

    def _parse_factor(self) -> Expr:
        token = self._next()
        if token.kind == "number":
            return self._literal(
                _number(token.text), self._slot_of[self.index - 1], False
            )
        if token.kind == "op" and token.text == "-":
            inner = self._parse_factor()
            if isinstance(inner, Literal):
                _, slot, negated = self.origins[id(inner)]
                return self._literal(-inner.value, slot, not negated)
            return Arithmetic(ArithmeticOp.SUB, Literal(0), inner)
        if token.kind == "op" and token.text == "(":
            inner = self._parse_expr()
            self._expect_op(")")
            return inner
        if token.kind == "ident":
            lowered = token.text.lower()
            if lowered in _AGG_FUNCS and self._match_op("("):
                return self._parse_aggregate_body(_AGG_FUNCS[lowered])
            return ColumnRef(token.text)
        raise ParseError(f"unexpected token {token.text!r}", token.position)

    def _parse_aggregate_body(self, func: AggregateFunc) -> Aggregate:
        if func is AggregateFunc.COUNT and self._match_op("*"):
            self._expect_op(")")
            return Aggregate(func, None)
        arg = self._parse_expr()
        self._expect_op(")")
        return Aggregate(func, arg)


# The shape table -----------------------------------------------------------

Binder = Callable[[Sequence[Scalar]], Expr]


def _binder(node: Expr, slots: Dict[int, Tuple[int, bool]]) -> Optional[Binder]:
    """Rebuild ``node`` from one repeat's token numbers, or None when
    ``node`` holds no slot (a repeat then shares it: nodes are frozen).

    The constructors run as in a parse, so a bound tree is an ordinary
    one; only slot-free subtrees (columns, the ``0`` of ``-x``) are
    shared with the first parse.
    """
    kind = type(node)
    if kind is Literal:
        origin = slots.get(id(node))
        if origin is None:
            return None
        slot, negated = origin
        if negated:
            return lambda values: Literal(-values[slot])
        return lambda values: Literal(values[slot])
    if kind is Arithmetic or kind is Comparison or kind is BooleanOp:
        op, left, right = node.op, node.left, node.right
        bind_left, bind_right = _binder(left, slots), _binder(right, slots)
        if bind_left is None and bind_right is None:
            return None
        bind_left = bind_left or (lambda values: left)
        bind_right = bind_right or (lambda values: right)
        return lambda values: kind(op, bind_left(values), bind_right(values))
    if kind is Not:
        bind_child = _binder(node.child, slots)
        if bind_child is None:
            return None
        return lambda values: Not(bind_child(values))
    if kind is Aggregate and node.arg is not None:
        func, bind_arg = node.func, _binder(node.arg, slots)
        if bind_arg is None:
            return None
        return lambda values: Aggregate(func, bind_arg(values))
    return None


class _Shape:
    """One cached shape: binds a repeat's numbers into a fresh query."""

    __slots__ = ("table", "select", "where", "params", "cached", "shape")

    def __init__(
        self, query: Query, slots: Dict[int, Tuple[int, bool]]
    ) -> None:
        self.table = query.table
        self.select = tuple(
            (out, _binder(out.expr, slots)) for out in query.select
        )
        self.where = (
            query.where,
            None if query.where is None else _binder(query.where, slots),
        )
        #: ``(slot, negated, value)`` per entry of the canonical literal
        #: vector: a slot's number, or the shape's own constant.
        self.params = tuple(
            slots.get(id(node), (None, False)) + (node.value,)
            for node in literal_nodes(query)
        )
        self.shape = query.shape_signature()
        self.cached = {
            name: getattr(query, name)
            for name in (
                "is_aggregation",
                "select_attributes",
                "where_attributes",
                "attributes",
            )
        }

    def bind(self, values: Sequence[Scalar]) -> Query:
        select = tuple(
            out if bind is None else OutputColumn(bind(values), out.alias)
            for out, bind in self.select
        )
        where, bind_where = self.where
        if bind_where is not None:
            where = bind_where(values)
        query = Query(self.table, select, where)
        query.__dict__.update(self.cached)
        query.__dict__["literals"] = tuple(
            value
            if slot is None
            else (-values[slot] if negated else values[slot])
            for slot, negated, value in self.params
        )
        query.signature()  # slot 0 of the cache; the shape is slot 1
        query._signature_cache.append(self.shape)
        return query


def _shape_key(text: str) -> Optional[Tuple[tuple, List[Scalar]]]:
    """``(key, numbers)`` of ``text``, or None when it does not tokenize.

    The key is the token stream with each number replaced by its type,
    plus the numbers' equality pattern: equal literals dedup aggregates
    (``sum(a + 1), sum(a + 1)`` is one accumulator), so a repeat must
    repeat which numbers are equal.  Every zero is one class of its own,
    because ``0`` and ``-0`` are equal where ``1`` and ``-1`` are not.
    """
    parts: List[object] = []
    numbers: List[Scalar] = []
    pos = 0
    for found in _TOKEN_RE.finditer(text):
        if found.start() != pos:
            return None
        pos = found.end()
        number, ident, op, _ = found.groups()
        if number is None:
            parts.append(ident or op)
        else:
            value = _number(number)
            numbers.append(value)
            parts.append(type(value))
    if text[pos:].strip():
        return None
    first: Dict[Scalar, int] = {}
    pattern = tuple(
        first.setdefault(value, i) if value else -1
        for i, value in enumerate(numbers)
    )
    return (tuple(parts), pattern), numbers


_shapes: Dict[tuple, _Shape] = {}
_shapes_lock = threading.Lock()


def _remember(key: tuple, parser: _Parser, query: Query) -> None:
    """Cache ``query``'s shape when its literals map 1:1 onto the
    text's numbers.  BETWEEN and IN repeat their left operand, so a
    number there becomes several literals; such a shape is not kept."""
    nodes: List[Literal] = []
    for expr in (query.where, *(out.expr for out in query.select)):
        if expr is not None:
            _walk_literals(expr, nodes)
    # Literals without an origin are constants of the shape (the ``0``
    # of ``-x``).
    origins = [
        parser.origins[id(node)]
        for node in nodes
        if id(node) in parser.origins
    ]
    if sorted(slot for _, slot, _ in origins) != list(
        range(len(parser._slot_of))
    ):
        return
    slots = {id(node): (slot, negated) for node, slot, negated in origins}
    shape = _Shape(query, slots)
    with _shapes_lock:
        if len(_shapes) >= SHAPE_TABLE_CAPACITY:
            del _shapes[next(iter(_shapes))]
        _shapes[key] = shape


def parse_query(text: str) -> Query:
    """Parse SQL-subset ``text`` into a :class:`~repro.sql.query.Query`.

    A repeat of a shape parsed before is bound from the shape table, not
    parsed: it comes out equal to a fresh parse (``==``, literals, both
    signatures, output names), with its own :class:`Literal` nodes.

    >>> q = parse_query("SELECT sum(a + b) FROM r WHERE c < 5 AND d > 2")
    >>> sorted(q.select_attributes), sorted(q.where_attributes)
    (['a', 'b'], ['c', 'd'])
    """
    scanned = _shape_key(text)
    if scanned is not None:
        key, numbers = scanned
        shape = _shapes.get(key)
        if shape is not None:
            return shape.bind(numbers)
    parser = _Parser(text)
    query = parser.parse_query()
    if scanned is not None:
        _remember(key, parser, query)
    return query
