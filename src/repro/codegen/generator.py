"""Operator generation: template selection, caching, runtime wrapping.

This is the paper's Operator Generator (Fig. 3): it receives the needed
data layouts and the query's attribute/predicate structure, selects the
proper template, generates specialized source, compiles it, and injects
the compiled operator into the execution path, caching it for reuse.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Hashable, List, Tuple

import numpy as np

from ..errors import CodegenError
from ..execution.result import projection_dtype
from ..execution.strategies import AccessPlan, ExecutionStrategy
from ..sql.analyzer import QueryInfo
from .cache import CacheEntry, OperatorCache
from .compile import compile_kernel
from .exprc import ParamRegistry, masked_sql
from .templates import KERNEL_NAME, assign_providers, build_source


def collect_literals(info: QueryInfo) -> List[object]:
    """The canonical runtime-parameter vector for one query.

    The query's cached :attr:`~repro.sql.query.Query.literals` — the
    single source of truth shared with the engine's plan cache, whose
    order mirrors template emission exactly: predicate conjuncts first
    (pre-order each), then — for aggregations — the unique aggregate
    arguments in collection order; for projections, the output
    expressions in order.  :class:`ParamRegistry` validates templates
    against this order at generation time.
    """
    return list(info.query.literals)


def operator_key(info: QueryInfo, plan: AccessPlan) -> Hashable:
    """The operator-cache key: exactly what the templates read.

    Attributes are spelled as their column slots (``$j`` for the
    ``j``-th of ``info.all_attrs``, the ``c{j}`` of the source), each
    slot with its provider (buffer slot, position, dtype and width);
    then the strategy, the output dtype and the literal types.  The
    source names no attribute, so queries that differ only in which
    attributes fill the slots share one source and one kernel.
    """
    slots = {attr: f"${j}" for j, attr in enumerate(info.all_attrs)}
    column = slots.__getitem__
    query = info.query
    providers = assign_providers(plan.layouts, info.all_attrs)
    return (
        tuple(masked_sql(out.expr, column) for out in query.select),
        masked_sql(query.where, column) if query.where is not None else None,
        plan.strategy,
        tuple(providers[attr] for attr in info.all_attrs),
        "agg" if info.is_aggregation else projection_dtype(info).name,
        query.shape_signature().param_types,
    )


@dataclass
class GeneratedOperator:
    """A compiled kernel bound to one query's parameter values.

    The buffers are bound late (by :meth:`Executor.run_scan
    <repro.execution.executor.Executor.run_scan>`), so the cached kernel
    serves any table whose layout combination matches the generation
    signature.
    """

    kernel: object
    params: Tuple[object, ...]
    source: str
    filename: str


def operator_source(info: QueryInfo, plan: AccessPlan) -> str:
    """The specialized source for (query, plan) — for inspection/docs."""
    out_dtype = (
        np.dtype(np.float64)
        if info.is_aggregation
        else projection_dtype(info)
    )
    expected = collect_literals(info)
    source, registry = _build_validated_source(
        info, plan, out_dtype, expected
    )
    del registry
    return source


def _build_validated_source(
    info: QueryInfo,
    plan: AccessPlan,
    out_dtype: np.dtype,
    expected: List[object],
) -> Tuple[str, ParamRegistry]:
    # ``build_source`` constructs its own registry internally; rebuild
    # with validation by monkey-free injection: templates accept the
    # info/plan only, so validation happens here by re-walking.
    source, registry = build_source(info, plan, out_dtype)
    if registry.values != expected or any(
        type(a) is not type(b) for a, b in zip(registry.values, expected)
    ):
        raise CodegenError(
            "template literal order diverged from canonical order: "
            f"template={registry.values!r} canonical={expected!r}"
        )
    return source, registry


def generate_operator(
    info: QueryInfo,
    plan: AccessPlan,
    cache: OperatorCache,
) -> Tuple[GeneratedOperator, float, bool]:
    """Produce the operator for (query, plan), using the cache.

    The key (:func:`operator_key`) determines the source, so a hit
    reuses both.  On a miss the source is generated; a live cache entry
    with identical text supplies its kernel, so each distinct source
    compiles once (see :mod:`repro.codegen.cache`).

    Returns ``(operator, seconds, cache_hit)`` where ``seconds`` is the
    generation + compilation time actually spent (≈0 on a hit), charged
    by the engine to the running query as in the paper.
    """
    started = time.perf_counter()
    key = operator_key(info, plan)
    params = info.query.literals
    entry = cache.lookup(key)
    if entry is not None:
        elapsed = time.perf_counter() - started
        operator = GeneratedOperator(
            kernel=entry.kernel,
            params=params,
            source=entry.source,
            filename=entry.filename,
        )
        return operator, elapsed, True

    out_dtype = (
        np.dtype(np.float64)
        if info.is_aggregation
        else projection_dtype(info)
    )
    source, _registry = _build_validated_source(
        info, plan, out_dtype, list(params)
    )
    shared = cache.find_source(source)
    if shared is not None:
        kernel, filename = shared.kernel, shared.filename
    else:
        kernel, filename = compile_kernel(source, KERNEL_NAME)
    elapsed = time.perf_counter() - started
    cache.store(
        key,
        CacheEntry(
            kernel=kernel,
            source=source,
            filename=filename,
            build_seconds=elapsed,
        ),
    )
    operator = GeneratedOperator(
        kernel=kernel,
        params=params,
        source=source,
        filename=filename,
    )
    return operator, elapsed, False
