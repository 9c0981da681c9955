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

What the parser accepts is bounded, because evaluation, hashing and code
generation recurse over the expression tree and the gateway parses on
its event loop: text longer than :data:`MAX_SQL_LENGTH` is refused
before it is tokenized, and an expression deeper than
:data:`MAX_EXPR_DEPTH` raises :class:`~repro.errors.ParseError` (HTTP
400), never ``RecursionError``.
"""

from __future__ import annotations

import re
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

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
    depth,
)
from .query import OutputColumn, Query
from .signature import ShapeTemplate, _walk_literals

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

#: Deepest expression accepted: operator nodes on the longest
#: root-to-leaf path (a chain of n conjuncts is n deep), and nesting of
#: parentheses and aggregates.  Hashing a tree and parsing
#: a nesting level take two interpreter frames a level, well inside
#: Python's default recursion limit of 1 000.
MAX_EXPR_DEPTH = 256

#: Longest SQL text accepted, in characters.  Checked before the text
#: is tokenized; the longest legal text parses in about 25 ms.
MAX_SQL_LENGTH = 16 * 1024


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
        #: built from a number token, including those a unary minus
        #: replaced (kept alive so no id is reused).
        self.origins: Dict[int, Tuple[Literal, int, bool]] = {}
        #: Parenthesis and aggregate nesting depth.
        self._nesting = 0

    @contextmanager
    def _nested(self) -> Iterator[None]:
        """One level of parenthesis or aggregate nesting."""
        self._nesting += 1
        try:
            if self._nesting > MAX_EXPR_DEPTH:
                raise ParseError(
                    f"expression nested deeper than {MAX_EXPR_DEPTH} levels",
                    self._peek().position if self._peek() else len(self.text),
                )
            yield
        finally:
            self._nesting -= 1

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
        for expr in (where, *(out.expr for out in select)):
            if expr is not None and depth(expr) > MAX_EXPR_DEPTH:
                raise ParseError(
                    f"expression deeper than {MAX_EXPR_DEPTH} levels"
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

    def _parse_bool_expr(self, operand: bool = False) -> Expr:
        # OR of ANDs, both left-deep, in one loop: a parenthesized
        # boolean costs two frames (this one and the factor's).  With
        # ``operand``, the text is inside a parenthesis and may instead
        # be an arithmetic operand (see _parse_bool_factor).
        disjunction: Optional[Expr] = None
        term = self._parse_bool_factor(operand)
        if not _is_boolean(term):
            return term
        while True:
            if self._match_keyword("and"):
                right = self._parse_bool_factor()
                term = BooleanOp(BoolConnective.AND, term, right)
            elif self._match_keyword("or"):
                if disjunction is not None:
                    term = BooleanOp(BoolConnective.OR, disjunction, term)
                disjunction = term
                term = self._parse_bool_factor()
            else:
                break
        if disjunction is None:
            return term
        return BooleanOp(BoolConnective.OR, disjunction, term)

    def _parse_bool_factor(self, operand: bool = False) -> Expr:
        # A run of NOTs is a loop, not a recursion; the tree-depth check
        # bounds it.
        negations = 0
        while self._match_keyword("not"):
            negations += 1
        operand = operand and not negations
        # A parenthesis opens either a grouped boolean expression or a
        # parenthesized arithmetic operand.  Its text is parsed once,
        # allowing both; an operand then starts a comparison, or is
        # itself the operand of an enclosing parenthesis.
        if self._match_op("("):
            with self._nested():
                expr = self._parse_bool_expr(operand=True)
            self._expect_op(")")
            if not _is_boolean(expr):
                expr = self._parse_comparison(expr, operand)
        else:
            expr = self._parse_comparison(None, operand)
        for _ in range(negations):
            expr = Not(expr)
        return expr

    def _parse_comparison(
        self, first: Optional[Expr] = None, operand: bool = False
    ) -> Expr:
        """A comparison whose left side starts with the factor ``first``
        when given; with ``operand``, a left side that no comparison
        follows is returned as it is."""
        left = self._parse_expr(first)
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
            if operand:
                return left
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

    def _parse_expr(self, first: Optional[Expr] = None) -> Expr:
        # Sums of products, both left-deep, in one loop: a
        # parenthesized operand costs two frames (this one and the
        # factor's).  ``first`` is a first factor parsed already.
        total: Optional[Expr] = None
        joiner = ArithmeticOp.ADD
        term = self._parse_factor() if first is None else first
        while True:
            if self._match_op("*"):
                right = self._parse_factor()
                term = Arithmetic(ArithmeticOp.MUL, term, right)
                continue
            op = self._match_op("+", "-")
            if op is None:
                break
            if total is not None:
                term = Arithmetic(joiner, total, term)
            total = term
            joiner = ArithmeticOp.ADD if op == "+" else ArithmeticOp.SUB
            term = self._parse_factor()
        if total is None:
            return term
        return Arithmetic(joiner, total, term)

    def _parse_factor(self) -> Expr:
        token = self._next()
        if token.kind == "number":
            return self._literal(
                _number(token.text), self._slot_of[self.index - 1], False
            )
        if token.kind == "op" and token.text == "-":
            # A run of unary minus is a loop; the tree-depth check
            # bounds the ``0 - x`` nodes it leaves.
            negations = 1
            while self._match_op("-"):
                negations += 1
            expr = self._parse_factor()
            for _ in range(negations):
                if isinstance(expr, Literal):
                    _, slot, negated = self.origins[id(expr)]
                    expr = self._literal(-expr.value, slot, not negated)
                else:
                    expr = Arithmetic(ArithmeticOp.SUB, Literal(0), expr)
            return expr
        if token.kind == "op" and token.text == "(":
            with self._nested():
                inner = self._parse_expr()
            self._expect_op(")")
            return inner
        if token.kind == "ident":
            lowered = token.text.lower()
            if lowered in _AGG_FUNCS and self._match_op("("):
                with self._nested():
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


def _is_boolean(expr: Expr) -> bool:
    return isinstance(expr, (Comparison, BooleanOp, Not))


# The shape table -----------------------------------------------------------

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


_shapes: Dict[tuple, ShapeTemplate] = {}
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
    shape = ShapeTemplate(query, slots)
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
    if len(text) > MAX_SQL_LENGTH:
        raise ParseError(
            f"SQL text of {len(text)} characters exceeds {MAX_SQL_LENGTH}"
        )
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
