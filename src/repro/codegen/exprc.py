"""Expression-to-source compilation.

Turns expression ASTs into straight-line numpy statements with two key
specializations a generic interpreter cannot apply:

- **parameter lifting**: literals become ``params[i]`` so one compiled
  operator serves every query that differs only in constants (the
  paper's ``val1``/``val2`` arguments in Fig. 5/6);
- **temporary reuse**: when an operand is a temporary this compiler
  created and the result dtype matches, the operation writes back into
  it (``np.add(t0, v2, out=t0)``) instead of allocating — the in-register
  accumulation of the paper's generated loops, which is exactly what the
  generic evaluator's per-node allocation does not do.

dtype propagation uses the layout dtypes known at generation time, so
the reuse decision is safe; the operator cache key includes those dtypes
and the parameter type signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..errors import CodegenError
from ..sql.expressions import (
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
)
from .source import SourceBuilder

_ARITH_UFUNC = {
    ArithmeticOp.ADD: "np.add",
    ArithmeticOp.SUB: "np.subtract",
    ArithmeticOp.MUL: "np.multiply",
}

_CMP_UFUNC = {
    ComparisonOp.LT: "np.less",
    ComparisonOp.LE: "np.less_equal",
    ComparisonOp.GT: "np.greater",
    ComparisonOp.GE: "np.greater_equal",
    ComparisonOp.EQ: "np.equal",
    ComparisonOp.NE: "np.not_equal",
}

_COMMUTATIVE = {ArithmeticOp.ADD, ArithmeticOp.MUL}


@dataclass(frozen=True)
class Binding:
    """How a column name is spelled in the generated source.

    ``base``/``position`` carry the provenance of a 2-D buffer column
    (``base[:, position]``) so the compiler can fuse ADD-chains over one
    buffer into a single contiguous row-wise reduction (Fig. 5's
    per-tuple ``ptr[0] + ptr[1] + ptr[2]``).
    """

    source: str
    dtype: np.dtype
    base: "str | None" = None
    position: "int | None" = None


@dataclass
class Operand:
    """A compiled sub-expression: its source spelling and type facts."""

    source: str
    dtype: np.dtype
    is_temp: bool  # a local array temporary owned by this compiler
    is_array: bool


class ParamRegistry:
    """Collects literal values into the runtime parameter vector.

    When ``expected`` is given (the canonical literal order computed by
    :func:`repro.codegen.generator.collect_literals`), every
    registration is validated against it — any divergence between the
    canonical order and a template's actual emission order is a codegen
    bug and fails loudly instead of silently binding the wrong constant.
    """

    def __init__(self, expected: "List[object] | None" = None) -> None:
        self.values: List[object] = []
        self._expected = expected

    def register(self, value: object) -> str:
        index = len(self.values)
        if self._expected is not None:
            if index >= len(self._expected):
                raise CodegenError(
                    f"template registered more literals than the query "
                    f"contains (extra: {value!r})"
                )
            want = self._expected[index]
            if want != value or type(want) is not type(value):
                raise CodegenError(
                    f"literal order mismatch at parameter {index}: "
                    f"template saw {value!r}, canonical order expects "
                    f"{want!r}"
                )
        self.values.append(value)
        return f"params[{index}]"



class ExprCompiler:
    """Emits numpy statements for value and predicate expressions.

    Parameters
    ----------
    bindings:
        Maps attribute name to its :class:`Binding` (a local variable the
        template has already assigned, e.g. a block slice or a full
        column view) with the dtype known at generation time.
    params:
        Shared registry collecting the literal parameter vector.
    fused:
        True for fused-scan templates: temporaries are reused in place
        and ADD-chains over one buffer collapse into contiguous row-wise
        reductions.  False for late-materialization templates, which —
        faithfully to the column-store execution model (paper section
        2.1) — materialize a fresh intermediate per operator.
    """

    def __init__(
        self,
        bindings: Dict[str, Binding],
        params: ParamRegistry,
        fused: bool = True,
    ) -> None:
        self._bindings = bindings
        self._params = params
        self._fused = fused

    # Value expressions -----------------------------------------------------

    def _flatten_add_chain(self, expr: Expr) -> "list | None":
        """The ColumnRef leaves of a pure-ADD tree, or None."""
        if isinstance(expr, ColumnRef):
            return [expr]
        if isinstance(expr, Arithmetic) and expr.op is ArithmeticOp.ADD:
            left = self._flatten_add_chain(expr.left)
            if left is None:
                return None
            right = self._flatten_add_chain(expr.right)
            if right is None:
                return None
            return left + right
        return None

    def _try_rowsum(self, expr: Expr, sb: SourceBuilder) -> "Operand | None":
        """Fuse ``a + b + c + ...`` over one 2-D buffer into a row-wise
        reduction — the contiguous equivalent of the paper's per-tuple
        evaluation loop (Fig. 5, line 11)."""
        if not self._fused:
            return None
        refs = self._flatten_add_chain(expr)
        if refs is None or len(refs) < 3:
            return None
        bindings = []
        for ref in refs:
            binding = self._bindings.get(ref.name)
            if binding is None or binding.base is None:
                return None
            bindings.append(binding)
        base = bindings[0].base
        if any(b.base != base for b in bindings):
            return None
        positions = sorted(b.position for b in bindings)
        temp = sb.fresh("t")
        lo, hi = positions[0], positions[-1]
        # einsum is the fastest contiguous row reduction numpy offers
        # (~3x over sum(axis=1)); int64 accumulation is exact for the
        # engine's value ranges.
        if positions == list(range(lo, hi + 1)):
            sb.line(
                f"{temp} = np.einsum('ij->i', {base}[:, {lo}:{hi + 1}])"
            )
        else:
            sb.line(
                f"{temp} = np.einsum('ij->i', "
                f"{base}.take({positions!r}, axis=1))"
            )
        dtype = np.result_type(*[b.dtype for b in bindings])
        return Operand(temp, dtype, True, True)

    def compile_value(self, expr: Expr, sb: SourceBuilder) -> Operand:
        """Emit statements computing ``expr``; return the result operand."""
        rowsum = self._try_rowsum(expr, sb)
        if rowsum is not None:
            return rowsum
        if isinstance(expr, Literal):
            dtype = np.dtype(np.int64 if isinstance(expr.value, int) else np.float64)
            return Operand(
                source=self._params.register(expr.value),
                dtype=dtype,
                is_temp=False,
                is_array=False,
            )
        if isinstance(expr, ColumnRef):
            try:
                binding = self._bindings[expr.name]
            except KeyError:
                raise CodegenError(
                    f"no binding for attribute {expr.name!r}"
                ) from None
            return Operand(
                source=binding.source,
                dtype=binding.dtype,
                is_temp=False,
                is_array=True,
            )
        if isinstance(expr, Arithmetic):
            left = self.compile_value(expr.left, sb)
            right = self.compile_value(expr.right, sb)
            return self._emit_arith(expr.op, left, right, sb)
        raise CodegenError(f"cannot compile {expr!r} as a value")

    def register_literals(self, expr: "Expr | None") -> None:
        """Register ``expr``'s literals, pre-order, without computing it.

        For an argument the kernel never evaluates (COUNT's: this engine
        has no NULLs) whose literals still hold places in the canonical
        parameter vector.
        """
        if isinstance(expr, Literal):
            self._params.register(expr.value)
        elif isinstance(expr, Arithmetic):
            self.register_literals(expr.left)
            self.register_literals(expr.right)

    def _emit_arith(
        self,
        op: ArithmeticOp,
        left: Operand,
        right: Operand,
        sb: SourceBuilder,
    ) -> Operand:
        ufunc = _ARITH_UFUNC[op]
        out_dtype = np.result_type(left.dtype, right.dtype)
        is_array = left.is_array or right.is_array
        if not is_array:
            # Pure scalar arithmetic folds into one expression.
            symbol = {"+": "+", "-": "-", "*": "*"}[op.value]
            return Operand(
                source=f"({left.source} {symbol} {right.source})",
                dtype=out_dtype,
                is_temp=False,
                is_array=False,
            )
        # Reuse a temporary in place when dtype-safe (the specialization
        # a fused operator applies and an operator-at-a-time column
        # pipeline, by construction, cannot — it materializes one
        # intermediate per operator).
        if self._fused:
            if left.is_temp and left.is_array and left.dtype == out_dtype:
                sb.line(
                    f"{ufunc}({left.source}, {right.source}, "
                    f"out={left.source})"
                )
                return Operand(left.source, out_dtype, True, True)
            if (
                op in _COMMUTATIVE
                and right.is_temp
                and right.is_array
                and right.dtype == out_dtype
            ):
                sb.line(
                    f"{ufunc}({left.source}, {right.source}, "
                    f"out={right.source})"
                )
                return Operand(right.source, out_dtype, True, True)
        temp = sb.fresh("t")
        sb.line(f"{temp} = {ufunc}({left.source}, {right.source})")
        return Operand(temp, out_dtype, True, True)

    # Predicates ---------------------------------------------------------------

    def compile_mask(self, expr: Expr, sb: SourceBuilder) -> str:
        """Emit statements computing a boolean mask; return its name."""
        if isinstance(expr, Comparison):
            left = self.compile_value(expr.left, sb)
            right = self.compile_value(expr.right, sb)
            mask = sb.fresh("m")
            sb.line(
                f"{mask} = {_CMP_UFUNC[expr.op]}"
                f"({left.source}, {right.source})"
            )
            if not (left.is_array or right.is_array):
                # Literals only: one constant over the whole morsel.
                sb.line(f"{mask} = np.full(n, {mask})")
            return mask
        if isinstance(expr, BooleanOp):
            left_mask = self.compile_mask(expr.left, sb)
            right_mask = self.compile_mask(expr.right, sb)
            func = (
                "np.logical_and"
                if expr.op is BoolConnective.AND
                else "np.logical_or"
            )
            sb.line(f"{func}({left_mask}, {right_mask}, out={left_mask})")
            return left_mask
        if isinstance(expr, Not):
            mask = self.compile_mask(expr.child, sb)
            sb.line(f"np.logical_not({mask}, out={mask})")
            return mask
        raise CodegenError(f"cannot compile {expr!r} as a predicate")


def masked_sql(expr: Expr, column=None) -> str:
    """Render ``expr`` with every literal replaced by ``?`` (and, with
    ``column``, every attribute name respelled).

    Delegates to the canonical implementation in
    :mod:`repro.sql.signature` (shared with the engine's plan cache) so
    the operator cache and the fast lane agree on structural identity.
    """
    from ..errors import AnalysisError
    from ..sql.signature import masked_sql as _canonical_masked_sql

    try:
        return _canonical_masked_sql(expr, column)
    except AnalysisError as exc:
        raise CodegenError(str(exc)) from None
