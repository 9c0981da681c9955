"""Source-code templates for the generated access operators.

Each template produces the full source of one
``kernel(bufs, params, lo, hi)`` function, specialized at generation
time for:

- the layout combination (which buffer provides each attribute, at which
  physical column position, 1-D or 2-D),
- the execution strategy (fused scan vs. late materialization),
- the query shape (aggregation vs. projection, predicate structure,
  arithmetic pipelines).

Both strategies share one selection: one bitmap over the whole morsel,
then one selection vector.  They differ only in how values are fetched
after it: a fused kernel takes the qualifying tuples once and reads
them from the compacted block (the numpy analog of the paper's Fig. 5,
single-group fused evaluation); a late kernel gathers each column where
it is used (Fig. 6, the selection-vector plan).  Neither loops over
blocks inside the morsel.  Literals are parameters; everything else —
column positions, predicate chains, accumulator layouts, even whether a
block copy or a dense column-sum pass applies — is burned into the
source.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CodegenError
from ..sql.analyzer import QueryInfo
from ..sql.expressions import Aggregate, AggregateFunc, ColumnRef
from ..storage.layout import Layout
from ..execution.strategies import (
    AccessPlan,
    ExecutionStrategy,
    MIN_EINSUM_SUMS,
    narrowest_providers,
    read_whole,
)
from ..execution.evaluator import collect_aggregates
from .exprc import Binding, ExprCompiler, ParamRegistry
from .source import SourceBuilder

KERNEL_NAME = "kernel"

#: Shared signature of every generated kernel: it scans the one morsel
#: ``lo:hi`` the scan driver hands it.  An aggregation kernel returns
#: its raw accumulator states ``(qualifying_count, (state, ...))`` and
#: nothing else — the driver combines per-morsel states in morsel-index
#: order and finalizes the output expressions once; a projection kernel
#: returns the morsel's output block (blocks concatenate in order).
KERNEL_DEF = f"def {KERNEL_NAME}(bufs, params, lo, hi):"


@dataclass(frozen=True)
class _Provider:
    """Where one attribute lives: which buffer, at which position.

    ``buffer_index`` is the providing layout's index in the plan, which
    is also its index into the kernel's ``bufs`` tuple (one backing
    array per layout).
    """

    buffer_index: int
    position: Optional[int]  # None for a 1-D single-column buffer
    dtype: np.dtype
    width: int = 1  # total attributes stored in the providing buffer


def assign_providers(
    layouts: Sequence[Layout], attrs: Sequence[str]
) -> Dict[str, _Provider]:
    """Bind each attribute to its narrowest providing layout."""
    narrowest = narrowest_providers(layouts)
    providers: Dict[str, _Provider] = {}
    for attr in attrs:
        index = narrowest.get(attr)
        if index is None:
            raise CodegenError(f"no layout provides attribute {attr!r}")
        layout = layouts[index]
        # A width-1 ColumnGroup is still a 2-D buffer; dimensionality,
        # not width, decides whether a position subscript is needed.
        if layout.data.ndim == 1:
            position = None
        else:
            position = layout.index_of(attr)
        dtype = layout.data.dtype  # both concrete layouts expose .data
        providers[attr] = _Provider(index, position, dtype, layout.width)
    return providers


def _used_buffers(providers: Dict[str, _Provider]) -> List[int]:
    return sorted({p.buffer_index for p in providers.values()})


def _emit_prelude(sb: SourceBuilder, providers: Dict[str, _Provider]) -> None:
    """Bind the used buffers to locals and determine the row count.

    Buffers are bound through the kernel's ``lo:hi`` row slice (views,
    no copies; a row slice of a C-contiguous 2-D buffer stays
    C-contiguous).
    """
    used = _used_buffers(providers)
    for index in used:
        sb.line(f"buf{index} = bufs[{index}][lo:hi]")
    first = used[0]
    sb.line(f"n = buf{first}.shape[0]")


def _slice_source(provider: _Provider, rows: str) -> str:
    """Source expression slicing one attribute for a row range or ':'"""
    buf = f"buf{provider.buffer_index}"
    if provider.position is None:
        return buf if rows == ":" else f"{buf}[{rows}]"
    if rows == ":":
        return f"{buf}[:, {provider.position}]"
    return f"{buf}[{rows}, {provider.position}]"


# --- Aggregate accumulation -------------------------------------------------


@dataclass
class _AggSlot:
    """Generation-time bookkeeping for one aggregate call."""

    index: int
    agg: Aggregate

    @property
    def func(self) -> AggregateFunc:
        return self.agg.func


def _emit_agg_init_slots(
    sb: SourceBuilder, slots: Sequence[_AggSlot]
) -> None:
    for slot in slots:
        if slot.func in (AggregateFunc.SUM, AggregateFunc.AVG):
            sb.line(f"acc_s{slot.index} = 0.0")
        elif slot.func is AggregateFunc.MIN:
            sb.line(f"acc_m{slot.index} = None")
        elif slot.func is AggregateFunc.MAX:
            sb.line(f"acc_x{slot.index} = None")


def _emit_agg_update(
    sb: SourceBuilder,
    slot: _AggSlot,
    compiler: ExprCompiler,
    count_var: str,
) -> None:
    """Fold one batch of qualifying values into the slot's accumulator."""
    if slot.func is AggregateFunc.COUNT:
        # The shared cnt covers COUNT (no NULLs in this engine), so the
        # argument is never computed; its literals keep their places in
        # the canonical parameter vector.
        compiler.register_literals(slot.agg.arg)
        return
    operand = compiler.compile_value(slot.agg.arg, sb)
    if slot.func in (AggregateFunc.SUM, AggregateFunc.AVG):
        if operand.is_array:
            sb.line(
                f"acc_s{slot.index} += "
                f"float({operand.source}.sum(dtype=np.float64))"
            )
        else:
            sb.line(
                f"acc_s{slot.index} += float({operand.source}) * {count_var}"
            )
    elif slot.func is AggregateFunc.MIN:
        value = (
            f"float({operand.source}.min())"
            if operand.is_array
            else f"float({operand.source})"
        )
        sb.line(f"_b{slot.index} = {value}")
        with sb.block(
            f"if acc_m{slot.index} is None or _b{slot.index} < acc_m{slot.index}:"
        ):
            sb.line(f"acc_m{slot.index} = _b{slot.index}")
    elif slot.func is AggregateFunc.MAX:
        value = (
            f"float({operand.source}.max())"
            if operand.is_array
            else f"float({operand.source})"
        )
        sb.line(f"_b{slot.index} = {value}")
        with sb.block(
            f"if acc_x{slot.index} is None or _b{slot.index} > acc_x{slot.index}:"
        ):
            sb.line(f"acc_x{slot.index} = _b{slot.index}")


def _scalar_state_expr(slot: _AggSlot) -> str:
    """Raw-accumulator source for one scalar slot's partial state.

    The morsel combiner's state contract per slot: COUNT carries None
    (the shared qualifying count covers it), SUM/AVG carry the float
    running sum, MIN/MAX carry float-or-None.
    """
    if slot.func is AggregateFunc.COUNT:
        return "None"
    if slot.func in (AggregateFunc.SUM, AggregateFunc.AVG):
        return f"acc_s{slot.index}"
    if slot.func is AggregateFunc.MIN:
        return f"acc_m{slot.index}"
    return f"acc_x{slot.index}"


def _emit_return_states(
    sb: SourceBuilder, cnt_expr: str, state_exprs: Sequence[str]
) -> None:
    """Emit ``return (float(cnt), (state, ...))``.

    Every aggregation template maintains the number of qualifying
    tuples; returning it alongside the states covers COUNT, lets the
    driver finalize AVG, and feeds observed predicate selectivity back
    into the cost model even though the result is a single row.
    """
    states = "".join(f"{expr}, " for expr in state_exprs)
    sb.line(f"return (float({cnt_expr}), ({states}))")


# --- Selection and value fetching -------------------------------------------
#
# Both strategies select with one bitmap over the whole morsel and one
# selection vector; they differ only in how values are fetched
# afterwards.  LATE gathers each attribute where it is used (Fig. 6);
# FUSED fetches the qualifying tuples once and reads them from the
# compacted block (Fig. 5).


def _emit_views(
    sb: SourceBuilder,
    info: QueryInfo,
    providers: Dict[str, _Provider],
    attrs: Sequence[str],
) -> None:
    """Emit the morsel column view ``c{j}`` of each of ``attrs``, where
    ``j`` is the attribute's index in ``info.all_attrs`` (a group column
    is the strided view ``buf[:, j]``)."""
    for position, attr in enumerate(info.all_attrs):
        if attr in attrs:
            sb.line(f"c{position} = {_slice_source(providers[attr], ':')}")


def _emit_selection(
    sb: SourceBuilder,
    info: QueryInfo,
    providers: Dict[str, _Provider],
    params: ParamRegistry,
    count_only: bool = False,
) -> str:
    """Emit the selection phase: one bitmap per conjunction, then one
    selection vector (cf. paper Fig. 6).

    Column views ``c{j}`` of the predicate attributes are emitted first
    (a group column is the strided view ``buf[:, j]``).  Every conjunct
    is then compiled over the morsel's full provider columns and ANDed
    in place into one boolean ``qmask``; each conjunct's temporaries are
    deleted as soon as its mask is folded in.  One ``np.flatnonzero`` turns the
    bitmap into the selection vector ``sel``.

    Fig. 6 refines the selection vector conjunct by conjunct instead,
    fetching each later conjunct's columns at the surviving positions.
    In numpy every refinement is a gather per column plus a compaction
    of ``sel``, each several times dearer per row than one streaming
    compare over the full column.  The bitmap therefore wins unless the
    first conjunct alone keeps only a few percent of the rows and many
    conjuncts follow (DESIGN.md §4b).  ``CostModel`` prices this bitmap
    for both strategies; only the interpreted references keep their
    own evaluation orders.

    Returns ``"sel"`` when a selection vector ``sel`` exists afterwards,
    ``"mask"`` when only ``qmask`` does, ``"none"`` when the query has
    no predicate.  ``count_only`` marks kernels that never fetch
    qualifying rows (COUNT(*)-only aggregations): they count ``qmask``
    directly and skip ``np.flatnonzero``.
    """
    if not info.has_predicate:
        return "none"
    _emit_views(sb, info, providers, info.where_attrs)
    bindings = _view_bindings(info, providers)
    for number, conjunct in enumerate(info.query.predicates):
        with sb.scope():
            compiler = ExprCompiler(bindings, params, fused=False)
            mask = compiler.compile_mask(conjunct, sb)
            if number == 0:
                sb.line(f"qmask = {mask}")
            else:
                sb.line(f"np.logical_and(qmask, {mask}, out=qmask)")
    if count_only:
        return "mask"
    sb.line("sel = np.flatnonzero(qmask)")
    sb.line("del qmask")
    return "sel"


def _view_bindings(
    info: QueryInfo, providers: Dict[str, _Provider], rows: str = ""
) -> Dict[str, Binding]:
    """Bind every attribute to its morsel column ``c{j}`` — or, with
    ``rows="[sel]"``, to the gather of its qualifying values, spelled
    inline so each use fetches its own copy and frees it right after."""
    return {
        attr: Binding(f"c{position}{rows}", providers[attr].dtype)
        for position, attr in enumerate(info.all_attrs)
    }


def _dense_buffers(
    providers: Dict[str, _Provider], attrs: Sequence[str]
) -> set:
    """Indexes of the 2-D buffers ``attrs`` read whole (``read_whole``)."""
    needed: Dict[int, set] = {}
    widths: Dict[int, int] = {}
    for attr in attrs:
        provider = providers[attr]
        if provider.position is not None:
            needed.setdefault(provider.buffer_index, set()).add(
                provider.position
            )
            widths[provider.buffer_index] = provider.width
    return {
        index
        for index, positions in needed.items()
        if read_whole(len(positions), widths[index])
    }


def _fused_bindings(
    sb: SourceBuilder,
    providers: Dict[str, _Provider],
    attrs: Sequence[str],
    has_sel: bool,
) -> Dict[str, Binding]:
    """Bind ``attrs`` to whole tuples: the morsel's buffers themselves,
    or — after a selection — the qualifying tuples, fetched once per
    buffer with ``take(sel, axis=0)``.

    The whole-tuple fetch is the group-layout analog of the paper's
    early tuple filtering, and several times faster than a boolean row
    gather per buffer.  A buffer whose width far exceeds the query's
    needs (the row-major case) is fetched column by column instead —
    copying 150-attribute tuples to use 20 of them would dominate the
    query.  2-D bindings carry base/position provenance for the
    compiler's row-sum fusion and the dense column sums.
    """
    dense = _dense_buffers(providers, attrs)
    bindings: Dict[str, Binding] = {}
    fetched: Dict[object, str] = {}

    def fetch(key: object, var: str, view: str, axis: str = "") -> str:
        """``view`` itself, or its qualifying rows fetched once."""
        if not has_sel:
            return view
        if key not in fetched:
            sb.line(f"{var} = {view}.take(sel{axis})")
            fetched[key] = var
        return fetched[key]

    for attr in attrs:
        provider = providers[attr]
        index, position = provider.buffer_index, provider.position
        if position is None:
            var = fetch(index, f"qb{index}", f"buf{index}")
            bindings[attr] = Binding(var, provider.dtype)
        elif has_sel and index not in dense:
            var = fetch(
                (index, position),
                f"qc{index}_{position}",
                f"buf{index}[:, {position}]",
            )
            bindings[attr] = Binding(var, provider.dtype)
        else:
            block = fetch(index, f"qb{index}", f"buf{index}", ", axis=0")
            bindings[attr] = Binding(
                f"{block}[:, {position}]",
                provider.dtype,
                base=block,
                position=position,
            )
    return bindings


def _emit_dense_sums(
    sb: SourceBuilder,
    slots: Sequence[_AggSlot],
    providers: Dict[str, _Provider],
    bindings: Dict[str, Binding],
    attrs: Sequence[str],
) -> Dict[int, str]:
    """The one reduction special case: SUM/AVG over plain columns of a
    2-D block the query reads whole become one ``einsum('ij->j')`` pass
    per block — one contiguous pass instead of one strided pass per
    column — when at least ``MIN_EINSUM_SUMS`` columns are summed.
    Integer blocks only, accumulated in float64 like every other SUM:
    the pass cannot wrap, and while every partial sum stays below 2^53
    it is exact in any order, so the answer bits match per-column sums
    (past 2^53 they may differ in the last bit, DESIGN §4b).  Returns
    each such slot's column-sum source."""
    dense = _dense_buffers(providers, attrs)
    summed: Dict[int, List[_AggSlot]] = {}
    for slot in slots:
        if slot.func not in (AggregateFunc.SUM, AggregateFunc.AVG):
            continue
        if not isinstance(slot.agg.arg, ColumnRef):
            continue
        provider = providers[slot.agg.arg.name]
        if provider.buffer_index in dense and np.issubdtype(
            provider.dtype, np.integer
        ):
            summed.setdefault(provider.buffer_index, []).append(slot)
    picks: Dict[int, str] = {}
    for block_slots in summed.values():
        names = {slot.agg.arg.name for slot in block_slots}
        if len(names) < MIN_EINSUM_SUMS:
            continue
        # On 50 000 int64 rows of 8 columns: 640 us, against 1 200 for
        # 8 strided column sums (372 us for an int64 einsum, which
        # wraps on large values).
        block = bindings[block_slots[0].agg.arg.name].base
        var = sb.fresh("es")
        sb.line(f"{var} = np.einsum('ij->j', {block}, dtype=np.float64)")
        for slot in block_slots:
            position = providers[slot.agg.arg.name].position
            picks[slot.index] = f"{var}[{position}]"
    return picks


def _value_bindings(
    sb: SourceBuilder,
    info: QueryInfo,
    providers: Dict[str, _Provider],
    fused: bool,
    has_sel: bool,
) -> Dict[str, Binding]:
    """How each strategy fetches values after the shared selection."""
    if fused:
        return _fused_bindings(sb, providers, info.select_attrs, has_sel)
    _emit_views(
        sb,
        info,
        providers,
        [a for a in info.select_attrs if a not in info.where_attrs],
    )
    return _view_bindings(info, providers, "[sel]" if has_sel else "")


# --- Templates --------------------------------------------------------------

_COUNT_SOURCE = {
    "sel": "int(sel.shape[0])",
    "mask": "int(np.count_nonzero(qmask))",
    "none": "n",
}


def aggregate_source(
    info: QueryInfo, plan: AccessPlan
) -> Tuple[str, ParamRegistry]:
    """Generate the aggregation kernel (Fig. 5 fused, Fig. 6 late).

    A late kernel gathers each aggregate's arguments inside its own
    reduction, so no gathered column outlives the slot that uses it; a
    fused kernel reduces columns of the once-fetched tuples, each
    MIN/MAX over its own column.
    """
    params = ParamRegistry()
    providers = assign_providers(plan.layouts, info.all_attrs)
    slots = [
        _AggSlot(i, agg)
        for i, agg in enumerate(collect_aggregates(info.query.select))
    ]
    fused = plan.strategy is ExecutionStrategy.FUSED
    sb = SourceBuilder()
    with sb.block(KERNEL_DEF):
        _emit_prelude(sb, providers)
        sel_mode = _emit_selection(
            sb, info, providers, params, count_only=not info.select_attrs
        )
        _emit_agg_init_slots(sb, slots)
        sb.line(f"cnt = {_COUNT_SOURCE[sel_mode]}")
        with sb.block("if cnt != 0:"):
            # COUNT(*)-only queries need no fetches or updates; keep the
            # guarded block syntactically valid.
            sb.line("pass")
            bindings = _value_bindings(
                sb, info, providers, fused, sel_mode == "sel"
            )
            dense = (
                _emit_dense_sums(
                    sb, slots, providers, bindings, info.select_attrs
                )
                if fused
                else {}
            )
            for slot in slots:
                if slot.index in dense:
                    sb.line(
                        f"acc_s{slot.index} += float({dense[slot.index]})"
                    )
                    continue
                with sb.scope():
                    compiler = ExprCompiler(bindings, params, fused=fused)
                    _emit_agg_update(sb, slot, compiler, "cnt")
        _emit_return_states(
            sb, "cnt", [_scalar_state_expr(slot) for slot in slots]
        )
    return sb.render(), params


def _contiguous_run(positions: Sequence[int]) -> Optional[Tuple[int, int]]:
    """(lo, hi) when positions are a contiguous ascending run, else None."""
    if not positions:
        return None
    lo = positions[0]
    for offset, position in enumerate(positions):
        if position != lo + offset:
            return None
    return lo, lo + len(positions)


def _emit_group_copy(
    sb: SourceBuilder,
    info: QueryInfo,
    providers: Dict[str, _Provider],
    out_dtype: np.dtype,
) -> bool:
    """Emit a plain unfiltered projection out of one group as a single
    block copy — the best case the group layout was built for
    (Fig. 10a).  False, emitting nothing, for any other query."""
    outputs = info.query.select
    if info.has_predicate or not all(
        isinstance(out.expr, ColumnRef) for out in outputs
    ):
        return False
    chosen = [providers[out.expr.name] for out in outputs]
    if len({p.buffer_index for p in chosen}) != 1 or any(
        p.position is None for p in chosen
    ):
        return False
    buf = f"buf{chosen[0].buffer_index}"
    positions = [p.position for p in chosen]
    run = _contiguous_run(positions)
    # Always materialize a fresh output block (the engine's contract):
    # a contiguous slice copy is a plain memcpy.
    source = (
        f"{buf}[:, {run[0]}:{run[1]}]"
        if run is not None
        else f"{buf}[:, {positions!r}]"
    )
    sb.line(f"return {source}.astype(np.{out_dtype.name}, copy=True)")
    return True


def project_source(
    info: QueryInfo, plan: AccessPlan, out_dtype: np.dtype
) -> Tuple[str, ParamRegistry]:
    """Generate the projection kernel.

    A late kernel gathers each output column's attributes inside its own
    write, so no gathered column outlives the column it fills; a fused
    kernel computes every output column from the once-fetched tuples.
    """
    params = ParamRegistry()
    providers = assign_providers(plan.layouts, info.all_attrs)
    outputs = info.query.select
    fused = plan.strategy is ExecutionStrategy.FUSED
    sb = SourceBuilder()
    with sb.block(KERNEL_DEF):
        _emit_prelude(sb, providers)
        if fused and _emit_group_copy(sb, info, providers, out_dtype):
            return sb.render(), params
        has_sel = _emit_selection(sb, info, providers, params) == "sel"
        sb.line(f"cnt = {_COUNT_SOURCE['sel' if has_sel else 'none']}")
        bindings = _value_bindings(sb, info, providers, fused, has_sel)
        sb.line(
            f"out = np.empty((cnt, {len(outputs)}), "
            f"dtype=np.{out_dtype.name})"
        )
        for position, out in enumerate(outputs):
            with sb.scope():
                compiler = ExprCompiler(bindings, params, fused=fused)
                operand = compiler.compile_value(out.expr, sb)
                sb.line(f"out[:, {position}] = {operand.source}")
        sb.line("return out")
    return sb.render(), params


def build_source(
    info: QueryInfo, plan: AccessPlan, out_dtype: np.dtype
) -> Tuple[str, ParamRegistry]:
    """Dispatch to the template for the query shape."""
    if info.is_aggregation:
        return aggregate_source(info, plan)
    return project_source(info, plan, out_dtype)
