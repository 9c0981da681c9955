"""Query results.

All execution strategies materialize their output in row-major,
contiguous memory (paper section 3.3, last paragraph): a projection
result is one (rows × output-columns) array; an aggregation result is a
single row of scalars.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..sql.analyzer import QueryInfo
from ..sql.types import DataType


def projection_dtype(info: QueryInfo) -> np.dtype:
    """Output dtype for a projection: int64 unless any output is float."""
    if any(t is DataType.FLOAT64 for t in info.output_types):
        return np.dtype(np.float64)
    return np.dtype(np.int64)


class QueryResult:
    """Row-major result of one query."""

    def __init__(
        self,
        column_names: Sequence[str],
        data: np.ndarray,
    ) -> None:
        names = tuple(column_names)
        if data.ndim != 2:
            raise ExecutionError(
                f"result data must be 2-D, got shape {data.shape}"
            )
        if data.shape[1] != len(names):
            raise ExecutionError(
                f"result has {len(names)} columns but data has "
                f"{data.shape[1]}"
            )
        self._names = names
        self._data = data

    # Constructors ---------------------------------------------------------

    @classmethod
    def scalar_row(
        cls, column_names: Sequence[str], values: Sequence[float]
    ) -> "QueryResult":
        """An aggregation result: exactly one row."""
        data = np.array([list(values)], dtype=np.float64)
        return cls(column_names, data)

    @classmethod
    def from_blocks(
        cls,
        column_names: Sequence[str],
        blocks: Sequence[np.ndarray],
        dtype: Optional[np.dtype] = None,
    ) -> "QueryResult":
        """Concatenate row-major output blocks into one result.

        A lone block is adopted as is (no copy): exactly one morsel
        survives for every table up to ``morsel_rows`` rows and for
        every well-pruned projection.
        """
        names = tuple(column_names)
        if not blocks:
            data = np.empty((0, len(names)), dtype=dtype or np.float64)
        elif len(blocks) == 1:
            data = np.atleast_2d(blocks[0])
        else:
            data = np.concatenate([np.atleast_2d(b) for b in blocks], axis=0)
        return cls(names, data)

    @classmethod
    def empty(
        cls, column_names: Sequence[str], dtype: Optional[np.dtype] = None
    ) -> "QueryResult":
        names = tuple(column_names)
        return cls(names, np.empty((0, len(names)), dtype=dtype or np.float64))

    # Access -----------------------------------------------------------------

    @property
    def column_names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def data(self) -> np.ndarray:
        """The (rows × columns) row-major result array."""
        return self._data

    @property
    def num_rows(self) -> int:
        return int(self._data.shape[0])

    @property
    def num_columns(self) -> int:
        return len(self._names)

    def column(self, name_or_index: "str | int") -> np.ndarray:
        """One output column as a 1-D array."""
        if isinstance(name_or_index, str):
            try:
                index = self._names.index(name_or_index)
            except ValueError:
                raise ExecutionError(
                    f"no result column named {name_or_index!r}; "
                    f"have {self._names}"
                ) from None
        else:
            index = name_or_index
        return self._data[:, index]

    def rows(self) -> List[Tuple[float, ...]]:
        """All rows as tuples (convenience for small results/tests)."""
        return [tuple(row) for row in self._data]

    def scalars(self) -> Tuple[float, ...]:
        """The single row of an aggregation result."""
        if self.num_rows != 1:
            raise ExecutionError(
                f"scalars() requires exactly one row, result has "
                f"{self.num_rows}"
            )
        return tuple(self._data[0])

    # Comparison ---------------------------------------------------------------

    def allclose(
        self, other: "QueryResult", rtol: float = 1e-9, atol: float = 1e-6
    ) -> bool:
        """Numeric equality against another result (same shape & order)."""
        if self.num_columns != other.num_columns:
            return False
        if self.num_rows != other.num_rows:
            return False
        if self.num_rows == 0:
            return True
        mine = self._data.astype(np.float64, copy=False)
        theirs = other._data.astype(np.float64, copy=False)
        return bool(
            np.allclose(mine, theirs, rtol=rtol, atol=atol, equal_nan=True)
        )

    def __repr__(self) -> str:
        return (
            f"QueryResult(columns={self._names}, rows={self.num_rows})"
        )
