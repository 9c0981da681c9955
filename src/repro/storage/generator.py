"""Synthetic data generation for tables.

The paper's micro-benchmarks use wide relations (150–250 attributes) of
integers uniformly distributed in [-10^9, 10^9).  These helpers build
such tables deterministically from a seed.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import WorkloadError
from ..sql.types import DataType
from ..util.rng import RngLike, ensure_rng
from .relation import Table
from .schema import Attribute, Schema

#: Value range used throughout the paper's micro-benchmarks.
PAPER_LOW = -(10**9)
PAPER_HIGH = 10**9


def wide_schema(
    num_attrs: int, prefix: str = "a", dtype: DataType = DataType.INT64
) -> Schema:
    """A schema of ``num_attrs`` attributes named ``a1..aN``."""
    if num_attrs <= 0:
        raise WorkloadError(f"num_attrs must be positive, got {num_attrs}")
    return Schema(
        Attribute(f"{prefix}{i}", dtype) for i in range(1, num_attrs + 1)
    )


def uniform_columns(
    schema: Schema,
    num_rows: int,
    rng: RngLike = None,
    low: int = PAPER_LOW,
    high: int = PAPER_HIGH,
) -> Dict[str, np.ndarray]:
    """Per-attribute arrays with uniformly distributed values.

    Integer attributes draw from ``[low, high)`` as in the paper;
    float attributes draw uniformly over the same range.
    """
    if num_rows <= 0:
        raise WorkloadError(f"num_rows must be positive, got {num_rows}")
    generator = ensure_rng(rng)
    columns: Dict[str, np.ndarray] = {}
    for attr in schema:
        if attr.dtype is DataType.INT64:
            columns[attr.name] = generator.integers(
                low, high, size=num_rows, dtype=np.int64
            )
        else:
            columns[attr.name] = generator.uniform(low, high, size=num_rows)
    return columns


def generate_table(
    name: str,
    num_attrs: int,
    num_rows: int,
    rng: RngLike = None,
    initial_layout: str = "column",
    schema: Optional[Schema] = None,
    low: int = PAPER_LOW,
    high: int = PAPER_HIGH,
) -> Table:
    """Generate a paper-style wide table of uniform integers.

    Parameters mirror the paper's setup: ``initial_layout="column"`` is
    the starting point of the adaptive experiment (section 4.1);
    benchmarks that start from a row-major relation pass ``"row"``.
    """
    if schema is None:
        schema = wide_schema(num_attrs)
    elif schema.width != num_attrs:
        raise WorkloadError(
            f"schema has {schema.width} attributes, expected {num_attrs}"
        )
    generator = ensure_rng(rng)
    columns = uniform_columns(schema, num_rows, generator, low=low, high=high)
    return Table.from_columns(name, schema, columns, initial_layout)
