"""Relation schemas with fixed-width attributes.

All layouts in H2O hold fixed-length attributes (paper section 3.1); a
:class:`Schema` is an ordered sequence of uniquely named
:class:`Attribute` values.  Attribute order is the canonical order used
whenever a deterministic ordering of attribute subsets is needed
(analyzer, partitionings, group layouts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Sequence, Tuple

from ..errors import SchemaError
from ..sql.types import DataType


try:
    popcount = int.bit_count  # Python >= 3.10
except AttributeError:  # pragma: no cover - Python 3.9

    def popcount(mask: int) -> int:
        """Set bits in an attribute bitmask."""
        return bin(mask).count("1")


@dataclass(frozen=True)
class Attribute:
    """One named, typed, fixed-width attribute."""

    name: str
    dtype: DataType = DataType.INT64

    def __post_init__(self) -> None:
        if not self.name or not self.name[0].isalpha() and self.name[0] != "_":
            raise SchemaError(f"invalid attribute name: {self.name!r}")

    @property
    def width_bytes(self) -> int:
        return self.dtype.width_bytes


class Schema:
    """Ordered, immutable collection of uniquely named attributes."""

    __slots__ = ("_attributes", "_index", "_names")

    def __init__(self, attributes: Iterable[Attribute]) -> None:
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError("a schema needs at least one attribute")
        index: Dict[str, int] = {}
        for position, attr in enumerate(attrs):
            if attr.name in index:
                raise SchemaError(f"duplicate attribute name: {attr.name!r}")
            index[attr.name] = position
        self._attributes = attrs
        self._index = index
        self._names = tuple(attr.name for attr in attrs)

    # Constructors -------------------------------------------------------

    @classmethod
    def of(cls, *names: str, dtype: DataType = DataType.INT64) -> "Schema":
        """Schema with the given attribute names, all of one type."""
        return cls(Attribute(name, dtype) for name in names)

    @classmethod
    def from_names(
        cls, names: Sequence[str], dtype: DataType = DataType.INT64
    ) -> "Schema":
        return cls(Attribute(name, dtype) for name in names)

    # Introspection ------------------------------------------------------

    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def width(self) -> int:
        """Number of attributes."""
        return len(self._attributes)

    @property
    def row_bytes(self) -> int:
        """Width of one full tuple in bytes."""
        return sum(attr.width_bytes for attr in self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __getitem__(self, name: str) -> Attribute:
        return self._attributes[self.index_of(name)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        shown = ", ".join(
            f"{a.name}:{a.dtype.value}" for a in self._attributes[:6]
        )
        if self.width > 6:
            shown += f", ... ({self.width} attributes)"
        return f"Schema({shown})"

    def index_of(self, name: str) -> int:
        """Position of attribute ``name``; raises SchemaError if absent."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown attribute: {name!r}") from None

    def dtype_of(self, name: str) -> DataType:
        """Value type of attribute ``name``."""
        return self._attributes[self.index_of(name)].dtype

    def ordered(self, names: Iterable[str]) -> Tuple[str, ...]:
        """The given attribute names sorted into schema order."""
        unique = set(names)
        for name in unique:
            self.index_of(name)  # validate
        return tuple(
            attr.name for attr in self._attributes if attr.name in unique
        )

    def subset(self, names: Iterable[str]) -> "Schema":
        """A new schema containing only ``names``, in schema order."""
        wanted = self.ordered(names)
        return Schema(self[name] for name in wanted)

    def common_dtype(self, names: Iterable[str]) -> DataType:
        """Promoted storage dtype for a group over ``names``.

        A column group is backed by one 2-D array and therefore one
        dtype; mixed int/float groups are stored as float64.
        """
        result = DataType.INT64
        saw_any = False
        for name in names:
            saw_any = True
            result = DataType.common(result, self.dtype_of(name))
        if not saw_any:
            raise SchemaError("common_dtype of an empty attribute set")
        return result
