"""Source-code templates for the generated access operators.

Each template produces the full source of one
``kernel(bufs, params, lo, hi)`` function, specialized at generation
time for:

- the layout combination (which buffer provides each attribute, at which
  physical column position, 1-D or 2-D),
- the execution strategy (fused scan vs. late materialization),
- the query shape (aggregation vs. projection, predicate structure,
  arithmetic pipelines).

The generated code is the Python/numpy analog of the paper's Fig. 5
(single-group fused evaluation) and Fig. 6 (two-group selection-vector
plan).  Literals are parameters; everything else — column positions,
predicate chains, accumulator layouts, even whether a fast memcpy or
axis-reduction path applies — is burned into the source.
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
    narrowest_provider,
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


def _assign_providers(
    layouts: Sequence[Layout], attrs: Sequence[str]
) -> Dict[str, _Provider]:
    """Bind each attribute to its narrowest providing layout."""
    providers: Dict[str, _Provider] = {}
    for attr in attrs:
        index = narrowest_provider(layouts, attr)
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


# --- Fused (volcano-style) templates -----------------------------------------


def _block_bindings(
    sb: SourceBuilder,
    providers: Dict[str, _Provider],
    attrs: Sequence[str],
    rows: str,
    prefix: str,
) -> Dict[str, Binding]:
    """Emit block-slice bindings for ``attrs``.

    2-D buffers get one shared block local (``blk{i}``) and per-column
    views carrying base/position provenance, enabling the compiler's
    row-sum fusion; 1-D buffers get one local each.
    """
    bindings: Dict[str, Binding] = {}
    blocks: Dict[int, str] = {}
    for position, attr in enumerate(attrs):
        provider = providers[attr]
        if provider.position is None:
            var = f"{prefix}{position}"
            sb.line(f"{var} = {_slice_source(provider, rows)}")
            bindings[attr] = Binding(source=var, dtype=provider.dtype)
            continue
        index = provider.buffer_index
        if index not in blocks:
            block_var = f"{prefix}blk{index}"
            sb.line(f"{block_var} = buf{index}[{rows}]")
            blocks[index] = block_var
        base = blocks[index]
        bindings[attr] = Binding(
            source=f"{base}[:, {provider.position}]",
            dtype=provider.dtype,
            base=base,
            position=provider.position,
        )
    return bindings


def _emit_compaction(
    sb: SourceBuilder,
    providers: Dict[str, _Provider],
    attrs: Sequence[str],
    rows: str,
    mask: str,
) -> Dict[str, Binding]:
    """Compact qualifying tuples per buffer with one row gather each.

    The position list is materialized once (``np.flatnonzero``) and each
    buffer's qualifying tuples are fetched with ``take(axis=0)`` — the
    group-layout analog of the paper's early tuple filtering, and
    several times faster than a boolean row gather per buffer.  Returns
    bindings of each attribute into its compacted block.
    """
    bindings: Dict[str, Binding] = {}
    compacted: Dict[object, str] = {}
    sb.line(f"idx = np.flatnonzero({mask})")
    # Buffers whose width far exceeds the query's needs (the row-major
    # case) are compacted column by column — copying 150-attribute
    # tuples to use 20 of them would dominate the query.
    needed_positions: Dict[int, set] = {}
    for attr in attrs:
        provider = providers[attr]
        if provider.position is not None:
            needed_positions.setdefault(
                provider.buffer_index, set()
            ).add(provider.position)
    for attr in attrs:
        provider = providers[attr]
        index = provider.buffer_index
        if (
            provider.position is not None
            and not read_whole(len(needed_positions[index]), provider.width)
        ):
            key = (index, provider.position)
            if key not in compacted:
                var = f"qc{index}_{provider.position}"
                sb.line(
                    f"{var} = buf{index}[{rows}, "
                    f"{provider.position}].take(idx)"
                )
                compacted[key] = var
            bindings[attr] = Binding(compacted[key], provider.dtype)
            continue
        if index not in compacted:
            var = f"qb{index}"
            if provider.position is None:
                sb.line(f"{var} = buf{index}[{rows}].take(idx)")
            else:
                sb.line(f"{var} = buf{index}[{rows}].take(idx, axis=0)")
            compacted[index] = var
        var = compacted[index]
        if provider.position is None:
            bindings[attr] = Binding(var, provider.dtype)
        else:
            bindings[attr] = Binding(
                f"{var}[:, {provider.position}]",
                provider.dtype,
                base=var,
                position=provider.position,
            )
    return bindings


def _columnar_fast_path_applies(info: QueryInfo, slots) -> bool:
    """Whole-array axis reductions apply when there is no predicate and
    every aggregate is SUM/MIN/MAX/AVG/COUNT over a plain column."""
    if info.has_predicate:
        return False
    for slot in slots:
        if slot.func is AggregateFunc.COUNT:
            continue
        if not isinstance(slot.agg.arg, ColumnRef):
            return False
    return True


def _emit_columnar_aggregates(
    sb: SourceBuilder,
    slots: Sequence[_AggSlot],
    providers: Dict[str, _Provider],
) -> None:
    """Specialized no-predicate aggregation: one contiguous axis-0
    reduction per (buffer, function) pair, then constant-position picks.

    For a group layout this is the single sequential pass of Fig. 5 —
    whole tuples stream through the cache once regardless of how many
    of the group's attributes are aggregated.
    """
    with sb.block("if n == 0:"):
        empty_states = [
            "0.0"
            if slot.func in (AggregateFunc.SUM, AggregateFunc.AVG)
            else "None"
            for slot in slots
        ]
        _emit_return_states(sb, "0", empty_states)

    # Which buffers are *densely* aggregated?  A whole-buffer axis-0
    # reduction processes every column; it only pays off when most of
    # the buffer's columns are needed (the tailored-group case).  For a
    # wide buffer with few needed columns (row-major layout), reduce the
    # needed columns individually instead.
    needed_per_buffer: Dict[int, set] = {}
    for slot in slots:
        if slot.func is AggregateFunc.COUNT:
            continue
        provider = providers[slot.agg.arg.name]
        if provider.position is not None:
            needed_per_buffer.setdefault(
                provider.buffer_index, set()
            ).add(provider.position)
    widths: Dict[int, int] = {}
    for slot in slots:
        if slot.func is AggregateFunc.COUNT:
            continue
        provider = providers[slot.agg.arg.name]
        widths[provider.buffer_index] = provider.width
    dense_buffers = {
        index
        for index, positions in needed_per_buffer.items()
        if read_whole(len(positions), widths[index])
    }

    kind_of = {
        AggregateFunc.SUM: "sum",
        AggregateFunc.AVG: "sum",
        AggregateFunc.MIN: "min",
        AggregateFunc.MAX: "max",
    }
    reductions = {}  # (buffer_index, kind) -> var name
    for slot in slots:
        if slot.func is AggregateFunc.COUNT:
            continue
        provider = providers[slot.agg.arg.name]
        kind = kind_of[slot.func]
        if (
            provider.position is not None
            and provider.buffer_index not in dense_buffers
        ):
            continue  # sparse buffer: reduced per slot below
        key = (provider.buffer_index, kind)
        if key not in reductions:
            var = f"red_{provider.buffer_index}_{kind}"
            reductions[key] = var
            buf = f"buf{provider.buffer_index}"
            if provider.position is None:
                if kind == "sum":
                    sb.line(f"{var} = {buf}.sum(dtype=np.float64)")
                else:
                    sb.line(f"{var} = {buf}.{kind}()")
            else:
                if kind == "sum":
                    # einsum reduces a C-order 2-D block ~4x faster than
                    # sum(axis=0); int64 accumulation is exact for the
                    # value ranges the engine stores (|v| < 2^31).
                    sb.line(f"{var} = np.einsum('ij->j', {buf})")
                else:
                    sb.line(f"{var} = {buf}.{kind}(axis=0)")
    states = []
    for slot in slots:
        if slot.func is AggregateFunc.COUNT:
            states.append("None")
            continue
        provider = providers[slot.agg.arg.name]
        kind = kind_of[slot.func]
        if (
            provider.position is not None
            and provider.buffer_index not in dense_buffers
        ):
            # Single strided-column reduction; no wasted compute on the
            # buffer's unneeded columns.
            column = f"buf{provider.buffer_index}[:, {provider.position}]"
            if kind == "sum":
                pick = f"{column}.sum(dtype=np.float64)"
            else:
                pick = f"{column}.{kind}()"
        else:
            var = reductions[(provider.buffer_index, kind)]
            pick = (
                var
                if provider.position is None
                else f"{var}[{provider.position}]"
            )
        # AVG carries its raw sum: the driver divides by the global
        # count once, after combining every morsel.
        states.append(f"float({pick})")
    _emit_return_states(sb, "n", states)


_VEC_KIND = {
    AggregateFunc.SUM: "sum",
    AggregateFunc.AVG: "sum",
    AggregateFunc.MIN: "min",
    AggregateFunc.MAX: "max",
}


def _vectorizable_slots(
    info: QueryInfo,
    slots: Sequence[_AggSlot],
    providers: Dict[str, _Provider],
) -> List[_AggSlot]:
    """Filtered-scan slots that reduce a plain column of a 2-D buffer —
    these fold into one contiguous axis-0 reduction per (buffer, kind)
    over the compacted block instead of one strided pass each."""
    if not info.has_predicate:
        return []
    # Mirror the compaction rule: sparse buffers (width far beyond the
    # query's needs) are compacted per column, so no 2-D ``qb`` block
    # exists to reduce over.
    needed_positions: Dict[int, set] = {}
    for attr in info.select_attrs:
        provider = providers[attr]
        if provider.position is not None:
            needed_positions.setdefault(
                provider.buffer_index, set()
            ).add(provider.position)
    out = []
    for slot in slots:
        if slot.func not in _VEC_KIND:
            continue
        if not isinstance(slot.agg.arg, ColumnRef):
            continue
        provider = providers[slot.agg.arg.name]
        if provider.position is None:
            continue
        if not read_whole(
            len(needed_positions[provider.buffer_index]), provider.width
        ):
            continue
        out.append(slot)
    return out


def fused_aggregate_source(
    info: QueryInfo, plan: AccessPlan, block_rows: int
) -> Tuple[str, ParamRegistry]:
    """Generate the fused-scan aggregation kernel (cf. paper Fig. 5)."""
    params = ParamRegistry()
    providers = _assign_providers(plan.layouts, info.all_attrs)
    slots = [
        _AggSlot(i, agg)
        for i, agg in enumerate(collect_aggregates(info.query.select))
    ]
    sb = SourceBuilder()
    with sb.block(KERNEL_DEF):
        _emit_prelude(sb, providers)
        if _columnar_fast_path_applies(info, slots):
            # Only COUNT arguments can carry literals on this path.
            compiler = ExprCompiler({}, params)
            for slot in slots:
                if slot.func is AggregateFunc.COUNT:
                    compiler.register_literals(slot.agg.arg)
            _emit_columnar_aggregates(sb, slots, providers)
            return sb.render(), params

        vec_slots = _vectorizable_slots(info, slots, providers)
        vec_set = {slot.index for slot in vec_slots}
        scalar_slots = [s for s in slots if s.index not in vec_set]
        reductions: Dict[Tuple[int, str], str] = {}
        for slot in vec_slots:
            provider = providers[slot.agg.arg.name]
            key = (provider.buffer_index, _VEC_KIND[slot.func])
            if key not in reductions:
                var = f"vr_{key[0]}_{key[1]}"
                reductions[key] = var
                sb.line(f"{var} = None")

        sb.line("cnt = 0")
        _emit_agg_init_slots(sb, scalar_slots)
        with sb.block(f"for start in range(0, n, {block_rows}):"):
            sb.line(f"stop = min(start + {block_rows}, n)")
            rows = "start:stop"
            if info.has_predicate:
                where_bindings = _block_bindings(
                    sb, providers, info.where_attrs, rows, "w"
                )
                compiler = ExprCompiler(where_bindings, params)
                mask = compiler.compile_mask(info.query.where, sb)
                sb.line(f"k = int(np.count_nonzero({mask}))")
                with sb.block("if k == 0:"):
                    sb.line("continue")
                sb.line("cnt += k")
                # Compact whole tuples per buffer in one row gather (the
                # vectorized equivalent of Fig. 5's early filtering) and
                # bind attributes to the compacted, cache-hot block.
                agg_bindings = _emit_compaction(
                    sb, providers, info.select_attrs, rows, mask
                )
                # One contiguous axis-0 reduction per (buffer, kind).
                for (buffer_index, kind), var in reductions.items():
                    partial = sb.fresh("pr")
                    if kind == "sum":
                        sb.line(
                            f"{partial} = "
                            f"np.einsum('ij->j', qb{buffer_index})"
                        )
                        combine = f"{var} + {partial}"
                    else:
                        sb.line(f"{partial} = qb{buffer_index}.{kind}(axis=0)")
                        fn = "np.minimum" if kind == "min" else "np.maximum"
                        combine = f"{fn}({var}, {partial})"
                    sb.line(
                        f"{var} = {partial} if {var} is None else {combine}"
                    )
            else:
                sb.line("cnt += stop - start")
                agg_bindings = _block_bindings(
                    sb, providers, info.select_attrs, rows, "v"
                )
            if scalar_slots:
                agg_compiler = ExprCompiler(agg_bindings, params)
                count_var = "k" if info.has_predicate else "(stop - start)"
                for slot in scalar_slots:
                    _emit_agg_update(sb, slot, agg_compiler, count_var)
        states = []
        for slot in slots:
            if slot.index in vec_set:
                provider = providers[slot.agg.arg.name]
                var = reductions[
                    (provider.buffer_index, _VEC_KIND[slot.func])
                ]
                pick = f"float({var}[{provider.position}])"
                empty = (
                    "0.0"
                    if slot.func in (AggregateFunc.SUM, AggregateFunc.AVG)
                    else "None"
                )
                states.append(f"({pick} if {var} is not None else {empty})")
            else:
                states.append(_scalar_state_expr(slot))
        _emit_return_states(sb, "cnt", states)
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


def fused_project_source(
    info: QueryInfo, plan: AccessPlan, block_rows: int, out_dtype: np.dtype
) -> Tuple[str, ParamRegistry]:
    """Generate the fused-scan projection kernel.

    When the query is a plain unfiltered projection whose attributes all
    sit in one group, the kernel degenerates to a single block copy —
    the best case the group layout was built for (Fig. 10a).
    """
    params = ParamRegistry()
    providers = _assign_providers(plan.layouts, info.all_attrs)
    outputs = info.query.select
    num_outputs = len(outputs)
    sb = SourceBuilder()
    with sb.block(KERNEL_DEF):
        _emit_prelude(sb, providers)

        plain = (
            not info.has_predicate
            and all(isinstance(out.expr, ColumnRef) for out in outputs)
        )
        if plain:
            buffer_indexes = {
                providers[out.expr.name].buffer_index for out in outputs
            }
            if len(buffer_indexes) == 1 and all(
                providers[out.expr.name].position is not None
                for out in outputs
            ):
                (buffer_index,) = buffer_indexes
                positions = [
                    providers[out.expr.name].position for out in outputs
                ]
                run = _contiguous_run(positions)
                # Always materialize a fresh output block (the engine's
                # contract): a contiguous slice copy is a plain memcpy.
                if run is not None:
                    lo, hi = run
                    source = f"buf{buffer_index}[:, {lo}:{hi}]"
                else:
                    source = f"buf{buffer_index}[:, {positions!r}]"
                sb.line(
                    f"out = {source}.astype(np.{out_dtype.name}, "
                    f"copy=True)"
                )
                sb.line("return out")
                return sb.render(), params

        if not info.has_predicate:
            # Known output size: fill one preallocated row-major array.
            sb.line(f"out = np.empty((n, {num_outputs}), dtype=np.{out_dtype.name})")
            with sb.block(f"for start in range(0, n, {block_rows}):"):
                sb.line(f"stop = min(start + {block_rows}, n)")
                bindings = _block_bindings(
                    sb, providers, info.select_attrs, "start:stop", "v"
                )
                compiler = ExprCompiler(bindings, params)
                sb.line("ob = out[start:stop]")
                for position, out in enumerate(outputs):
                    operand = compiler.compile_value(out.expr, sb)
                    sb.line(f"ob[:, {position}] = {operand.source}")
            sb.line("return out")
            return sb.render(), params

        # Filtered projection: unknown output size, collect compacted blocks.
        sb.line("out_blocks = []")
        with sb.block(f"for start in range(0, n, {block_rows}):"):
            sb.line(f"stop = min(start + {block_rows}, n)")
            rows = "start:stop"
            where_bindings = _block_bindings(
                sb, providers, info.where_attrs, rows, "w"
            )
            compiler = ExprCompiler(where_bindings, params)
            mask = compiler.compile_mask(info.query.where, sb)
            sb.line(f"k = int(np.count_nonzero({mask}))")
            with sb.block("if k == 0:"):
                sb.line("continue")
            out_bindings = _emit_compaction(
                sb, providers, info.select_attrs, rows, mask
            )
            out_compiler = ExprCompiler(out_bindings, params)
            sb.line(f"ob = np.empty((k, {num_outputs}), dtype=np.{out_dtype.name})")
            for position, out in enumerate(outputs):
                operand = out_compiler.compile_value(out.expr, sb)
                sb.line(f"ob[:, {position}] = {operand.source}")
            sb.line("out_blocks.append(ob)")
        with sb.block("if not out_blocks:"):
            sb.line(
                f"return np.empty((0, {num_outputs}), dtype=np.{out_dtype.name})"
            )
        sb.line("return np.concatenate(out_blocks, axis=0)")
    return sb.render(), params


# --- Late-materialization templates -------------------------------------------


def _late_bindings(
    info: QueryInfo, providers: Dict[str, _Provider], rows: str = ""
) -> Dict[str, Binding]:
    """Bind every attribute to its morsel column ``c{j}`` — or, with
    ``rows="[sel]"``, to the gather of its qualifying values, spelled
    inline so each use fetches its own copy and frees it right after."""
    return {
        attr: Binding(f"c{position}{rows}", providers[attr].dtype)
        for position, attr in enumerate(info.all_attrs)
    }


def _emit_late_selection(
    sb: SourceBuilder,
    info: QueryInfo,
    providers: Dict[str, _Provider],
    params: ParamRegistry,
    count_only: bool = False,
) -> str:
    """Emit the selection phase: one bitmap per conjunction, then one
    selection vector (cf. paper Fig. 6).

    Column views ``c{j}`` for all attributes are emitted first.  Every
    conjunct is then compiled over the morsel's full provider columns
    and ANDed in place into one
    boolean ``qmask``; each conjunct's temporaries are deleted as soon
    as its mask is folded in.  One ``np.flatnonzero`` turns the bitmap
    into the selection vector ``sel``.

    Fig. 6 refines the selection vector conjunct by conjunct instead,
    fetching each later conjunct's columns at the surviving positions.
    In numpy every refinement is a gather per column plus a compaction
    of ``sel``, each several times dearer per row than one streaming
    compare over the full column.  The bitmap therefore wins unless the
    first conjunct alone keeps only a few percent of the rows and many
    conjuncts follow (DESIGN.md §4b).  ``CostModel.late_cost`` prices
    this bitmap plan; only the interpreted reference,
    :func:`~repro.execution.vectorized.run_late_interpreted`, keeps the
    per-conjunct refinement.

    Returns ``"sel"`` when a selection vector ``sel`` exists afterwards,
    ``"mask"`` when only ``qmask`` does, ``"none"`` when the query has
    no predicate.  ``count_only`` marks kernels that never gather
    qualifying rows (COUNT(*)-only aggregations): they count ``qmask``
    directly and skip ``np.flatnonzero``.
    """
    for position, attr in enumerate(info.all_attrs):
        sb.line(f"c{position} = {_slice_source(providers[attr], ':')}")
    if not info.has_predicate:
        return "none"
    bindings = _late_bindings(info, providers)
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


def late_aggregate_source(
    info: QueryInfo, plan: AccessPlan
) -> Tuple[str, ParamRegistry]:
    """Generate the late-materialization aggregation kernel (Fig. 6).

    Each aggregate gathers its arguments inside its own reduction, so no
    gathered column outlives the slot that uses it.
    """
    params = ParamRegistry()
    providers = _assign_providers(plan.layouts, info.all_attrs)
    slots = [
        _AggSlot(i, agg)
        for i, agg in enumerate(collect_aggregates(info.query.select))
    ]
    sb = SourceBuilder()
    with sb.block(KERNEL_DEF):
        _emit_prelude(sb, providers)
        sel_mode = _emit_late_selection(
            sb, info, providers, params, count_only=not info.select_attrs
        )
        _emit_agg_init_slots(sb, slots)
        if sel_mode == "sel":
            sb.line("cnt = int(sel.shape[0])")
        elif sel_mode == "mask":
            sb.line("cnt = int(np.count_nonzero(qmask))")
        else:
            sb.line("cnt = n")
        bindings = _late_bindings(
            info, providers, "[sel]" if sel_mode == "sel" else ""
        )
        with sb.block("if cnt != 0:"):
            # COUNT(*)-only queries need no gathers or updates; keep the
            # guarded block syntactically valid.
            sb.line("pass")
            for slot in slots:
                with sb.scope():
                    compiler = ExprCompiler(bindings, params, fused=False)
                    _emit_agg_update(sb, slot, compiler, "cnt")
        _emit_return_states(
            sb, "cnt", [_scalar_state_expr(slot) for slot in slots]
        )
    return sb.render(), params


def late_project_source(
    info: QueryInfo, plan: AccessPlan, out_dtype: np.dtype
) -> Tuple[str, ParamRegistry]:
    """Generate the late-materialization projection kernel.

    Each output column gathers its attributes inside its own write, so
    no gathered column outlives the column it fills.
    """
    params = ParamRegistry()
    providers = _assign_providers(plan.layouts, info.all_attrs)
    outputs = info.query.select
    num_outputs = len(outputs)
    sb = SourceBuilder()
    with sb.block(KERNEL_DEF):
        _emit_prelude(sb, providers)
        has_sel = _emit_late_selection(sb, info, providers, params) == "sel"
        sb.line(f"cnt = {'int(sel.shape[0])' if has_sel else 'n'}")
        bindings = _late_bindings(info, providers, "[sel]" if has_sel else "")
        sb.line(f"out = np.empty((cnt, {num_outputs}), dtype=np.{out_dtype.name})")
        for position, out in enumerate(outputs):
            with sb.scope():
                compiler = ExprCompiler(bindings, params, fused=False)
                operand = compiler.compile_value(out.expr, sb)
                sb.line(f"out[:, {position}] = {operand.source}")
        sb.line("return out")
    return sb.render(), params


def build_source(
    info: QueryInfo, plan: AccessPlan, block_rows: int, out_dtype: np.dtype
) -> Tuple[str, ParamRegistry]:
    """Dispatch to the right template for (strategy, query shape)."""
    if plan.strategy is ExecutionStrategy.FUSED:
        if info.is_aggregation:
            return fused_aggregate_source(info, plan, block_rows)
        return fused_project_source(info, plan, block_rows, out_dtype)
    if info.is_aggregation:
        return late_aggregate_source(info, plan)
    return late_project_source(info, plan, out_dtype)
