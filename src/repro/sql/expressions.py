"""Expression AST for select-project-aggregate queries.

The AST is deliberately passive: evaluation lives in
:mod:`repro.execution.evaluator` (the "generic operator" of Fig. 14) and
source-code emission lives in :mod:`repro.codegen` (the generated
operators).  Nodes are immutable and hashable so that queries can be used
as cache keys and compared structurally.

Supported shapes, matching the paper's templates (section 4.2.1):

- ``ColumnRef`` / ``Literal`` leaves,
- ``Arithmetic`` (+, -, *) for arithmetic-expression queries,
- ``Comparison`` (<, <=, >, >=, =, !=) for WHERE predicates,
- ``BooleanOp`` (AND / OR) and ``Not`` combining predicates,
- ``Aggregate`` (SUM, MIN, MAX, AVG, COUNT) for aggregation queries.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterator, List, Tuple, Union

from ..errors import AnalysisError

Scalar = Union[int, float]


class ArithmeticOp(enum.Enum):
    """Binary arithmetic operators."""

    ADD = "+"
    SUB = "-"
    MUL = "*"


class ComparisonOp(enum.Enum):
    """Comparison operators usable in predicates."""

    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "="
    NE = "!="

    def flipped(self) -> "ComparisonOp":
        """The operator with its operands swapped (``a < b`` → ``b > a``)."""
        flips = {
            ComparisonOp.LT: ComparisonOp.GT,
            ComparisonOp.LE: ComparisonOp.GE,
            ComparisonOp.GT: ComparisonOp.LT,
            ComparisonOp.GE: ComparisonOp.LE,
            ComparisonOp.EQ: ComparisonOp.EQ,
            ComparisonOp.NE: ComparisonOp.NE,
        }
        return flips[self]


class BoolConnective(enum.Enum):
    """Boolean connectives for combining predicates."""

    AND = "and"
    OR = "or"


class AggregateFunc(enum.Enum):
    """Aggregate functions supported in the SELECT clause."""

    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"
    COUNT = "count"


class Expr:
    """Base class for all expression nodes."""

    __slots__ = ()

    def columns(self) -> FrozenSet[str]:
        """Names of all attributes referenced anywhere in this subtree.

        An explicit stack, not nested generators: a WHERE clause of k
        AND-ed conjuncts is a k-deep tree, and ``yield from`` chains
        cost O(k^2) per walk on the engine's per-query path.
        """
        names = []
        stack: List[Expr] = [self]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is ColumnRef:
                names.append(node.name)
            elif kind is Not:
                stack.append(node.child)
            elif kind is Aggregate:
                if node.arg is not None:
                    stack.append(node.arg)
            elif kind is Comparison or kind is BooleanOp or kind is Arithmetic:
                stack.append(node.right)
                stack.append(node.left)
        return frozenset(names)

    def contains_aggregate(self) -> bool:
        """Whether any :class:`Aggregate` node appears in this subtree.

        An explicit stack too: comparisons and aggregates run this on
        their operands as the parser builds them, before it bounds
        their depth.
        """
        stack: List[Expr] = [self]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is Aggregate:
                return True
            if kind is Not:
                stack.append(node.child)
            elif kind is Comparison or kind is BooleanOp or kind is Arithmetic:
                stack.append(node.left)
                stack.append(node.right)
        return False

    def aggregates(self) -> Iterator["Aggregate"]:
        """Yield every :class:`Aggregate` node in this subtree."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render this expression back to SQL-subset text."""
        raise NotImplementedError

    # Operator sugar so tests and examples can build ASTs tersely. -----

    def _coerce(self, other: "Expr | Scalar") -> "Expr":
        if isinstance(other, Expr):
            return other
        if isinstance(other, (int, float)):
            return Literal(other)
        raise TypeError(f"cannot use {other!r} in an expression")

    def __add__(self, other: "Expr | Scalar") -> "Arithmetic":
        return Arithmetic(ArithmeticOp.ADD, self, self._coerce(other))

    def __radd__(self, other: Scalar) -> "Arithmetic":
        return Arithmetic(ArithmeticOp.ADD, self._coerce(other), self)

    def __sub__(self, other: "Expr | Scalar") -> "Arithmetic":
        return Arithmetic(ArithmeticOp.SUB, self, self._coerce(other))

    def __rsub__(self, other: Scalar) -> "Arithmetic":
        return Arithmetic(ArithmeticOp.SUB, self._coerce(other), self)

    def __mul__(self, other: "Expr | Scalar") -> "Arithmetic":
        return Arithmetic(ArithmeticOp.MUL, self, self._coerce(other))

    def __rmul__(self, other: Scalar) -> "Arithmetic":
        return Arithmetic(ArithmeticOp.MUL, self._coerce(other), self)

    def __lt__(self, other: "Expr | Scalar") -> "Comparison":
        return Comparison(ComparisonOp.LT, self, self._coerce(other))

    def __le__(self, other: "Expr | Scalar") -> "Comparison":
        return Comparison(ComparisonOp.LE, self, self._coerce(other))

    def __gt__(self, other: "Expr | Scalar") -> "Comparison":
        return Comparison(ComparisonOp.GT, self, self._coerce(other))

    def __ge__(self, other: "Expr | Scalar") -> "Comparison":
        return Comparison(ComparisonOp.GE, self, self._coerce(other))

    def eq(self, other: "Expr | Scalar") -> "Comparison":
        """Equality predicate (``==`` is reserved for structural equality)."""
        return Comparison(ComparisonOp.EQ, self, self._coerce(other))

    def ne(self, other: "Expr | Scalar") -> "Comparison":
        """Inequality predicate."""
        return Comparison(ComparisonOp.NE, self, self._coerce(other))


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Reference to a named attribute of the queried relation."""

    name: str

    def aggregates(self) -> Iterator["Aggregate"]:
        return iter(())

    def to_sql(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"col({self.name!r})"


@dataclass(frozen=True)
class Literal(Expr):
    """A numeric constant."""

    value: Scalar

    def aggregates(self) -> Iterator["Aggregate"]:
        return iter(())

    def to_sql(self) -> str:
        return repr(self.value)

    def __repr__(self) -> str:
        return f"lit({self.value!r})"


@dataclass(frozen=True)
class Arithmetic(Expr):
    """Binary arithmetic over two sub-expressions."""

    op: ArithmeticOp
    left: Expr
    right: Expr

    def aggregates(self) -> Iterator["Aggregate"]:
        yield from self.left.aggregates()
        yield from self.right.aggregates()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op.value} {self.right.to_sql()})"

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op.value} {self.right!r})"


@dataclass(frozen=True)
class Comparison(Expr):
    """A comparison predicate; evaluates to a boolean per tuple."""

    op: ComparisonOp
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.left.contains_aggregate() or self.right.contains_aggregate():
            raise AnalysisError("aggregates are not allowed in predicates")

    def aggregates(self) -> Iterator["Aggregate"]:
        return iter(())

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op.value} {self.right.to_sql()}"

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op.value} {self.right!r})"


@dataclass(frozen=True)
class BooleanOp(Expr):
    """Conjunction or disjunction of two boolean sub-expressions."""

    op: BoolConnective
    left: Expr
    right: Expr

    def aggregates(self) -> Iterator["Aggregate"]:
        return iter(())

    def to_sql(self) -> str:
        return (
            f"({self.left.to_sql()} {self.op.value.upper()} "
            f"{self.right.to_sql()})"
        )

    def conjuncts(self) -> Iterator[Expr]:
        """Yield the top-level AND-ed factors of this expression.

        H2O evaluates conjunctive predicates together in one generated
        loop (Fig. 5), so the planner flattens the AND tree.
        """
        if self.op is BoolConnective.AND:
            for side in (self.left, self.right):
                if isinstance(side, BooleanOp):
                    yield from side.conjuncts()
                else:
                    yield side
        else:
            yield self


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation of a boolean sub-expression."""

    child: Expr

    def aggregates(self) -> Iterator["Aggregate"]:
        return iter(())

    def to_sql(self) -> str:
        return f"NOT ({self.child.to_sql()})"


@dataclass(frozen=True)
class Aggregate(Expr):
    """An aggregate function applied to a (non-aggregate) argument.

    COUNT may take ``None`` as its argument, meaning ``COUNT(*)``.
    """

    func: AggregateFunc
    arg: "Expr | None"

    def __post_init__(self) -> None:
        if self.arg is None and self.func is not AggregateFunc.COUNT:
            raise AnalysisError(f"{self.func.value}() requires an argument")
        if self.arg is not None and self.arg.contains_aggregate():
            raise AnalysisError("nested aggregates are not allowed")

    def aggregates(self) -> Iterator["Aggregate"]:
        yield self

    def to_sql(self) -> str:
        inner = "*" if self.arg is None else self.arg.to_sql()
        return f"{self.func.value}({inner})"


def col(name: str) -> ColumnRef:
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def lit(value: Scalar) -> Literal:
    """Shorthand constructor for a literal."""
    return Literal(value)


def conjunction_of(predicates: "Tuple[Expr, ...] | list") -> "Expr | None":
    """AND together a sequence of predicates (None for an empty sequence)."""
    result: "Expr | None" = None
    for pred in predicates:
        if result is None:
            result = pred
        else:
            result = BooleanOp(BoolConnective.AND, result, pred)
    return result


def flatten_conjuncts(predicate: "Expr | None") -> Tuple[Expr, ...]:
    """Split a predicate into its top-level AND-ed factors."""
    if predicate is None:
        return ()
    # Left to right, iteratively (see ``Expr.columns``): the order
    # ``BooleanOp.conjuncts`` yields.
    factors = []
    stack = [predicate]
    while stack:
        node = stack.pop()
        if type(node) is BooleanOp and node.op is BoolConnective.AND:
            stack.append(node.right)
            stack.append(node.left)
        else:
            factors.append(node)
    return tuple(factors)


def depth(expr: Expr) -> int:
    """Operator nodes on the longest root-to-leaf path of ``expr`` (a
    chain of n conjuncts is n deep), walked with an explicit stack."""
    deepest, stack = 0, [(expr, 0)]
    while stack:
        node, level = stack.pop()
        kind = type(node)
        if kind is Literal or kind is ColumnRef:
            continue
        level += 1
        deepest = max(deepest, level)
        if kind is Not:
            stack.append((node.child, level))
        elif kind is Aggregate:
            if node.arg is not None:
                stack.append((node.arg, level))
        else:
            stack.append((node.left, level))
            stack.append((node.right, level))
    return deepest
