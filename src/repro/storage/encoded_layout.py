"""Encoded column layouts: dictionary and bit-packed codecs.

ByteStore-style compressed layout family members living *alongside* the
plain ``SingleColumn``/``ColumnGroup`` layouts of a table (they are
additive replicas, never the sole provider of an attribute).  Scanning
an encoded column reads 1–4 bytes per value instead of 8; the codegen
templates evaluate comparison predicates **directly on the codes**
(dictionary-code range comparison, packed-word threshold scans) and
decode only qualifying rows, so selective scans get cheaper per byte
without giving up bit-exact answers.

Codec selection (:func:`encode_column`) is driven by per-column stats:

- **bit-packed** (int64 only): value range fits an unsigned 8/16/32-bit
  code; stores ``value - offset``.  Order-preserving, so a predicate
  literal translates to a single integer threshold on the codes.
- **dictionary**: cardinality at most ``dict_max_cardinality``; stores
  per-row codes into a *sorted* dictionary.  Sortedness makes every
  comparison a code-range test computed with two ``searchsorted`` calls
  against the dictionary buffer at kernel run time (literals stay
  runtime parameters, so operator caching is unaffected).

Bit-exactness discipline (the ``test_io_roundtrip.py`` contract): float
dictionaries are built over distinct **bit patterns**, ordered by
``(isnan, value, bits)`` — ``-0.0`` and ``+0.0`` keep separate codes
(adjacent, so ``searchsorted`` spans both for a ``0.0`` literal, which
matches numpy's ``==``), NaNs sort last with their payloads preserved,
and decoding reproduces the original array byte for byte.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import LayoutError
from .layout import Layout, LayoutKind

#: Cardinality ceiling for dictionary encoding: columns with more
#: distinct values stay plain (or bit-packed when their range allows).
#: The advisor's cardinality probe uses the same ceiling.
DEFAULT_DICT_MAX_CARDINALITY = 4096


def _smallest_uint(max_code: int) -> np.dtype:
    """Narrowest unsigned dtype that can hold codes ``0..max_code``."""
    if max_code <= np.iinfo(np.uint8).max:
        return np.dtype(np.uint8)
    if max_code <= np.iinfo(np.uint16).max:
        return np.dtype(np.uint16)
    if max_code <= np.iinfo(np.uint32).max:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


def _sorted_float_dictionary(
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """(dictionary, codes) over distinct float64 *bit patterns*.

    The dictionary is ordered by ``(isnan, value, bits)``: all finite
    and infinite values ascending (with ``-0.0`` immediately before
    ``+0.0``), NaN payloads last — exactly the order ``searchsorted``
    needs for code-space range predicates.
    """
    bits = np.ascontiguousarray(values).view(np.int64)
    unique_bits, inverse = np.unique(bits, return_inverse=True)
    unique_vals = unique_bits.view(np.float64)
    order = np.lexsort(
        (unique_bits, unique_vals, np.isnan(unique_vals))
    )
    rank = np.empty(order.shape[0], dtype=np.intp)
    rank[order] = np.arange(order.shape[0], dtype=np.intp)
    return unique_vals[order].copy(), rank[inverse.ravel()]


class EncodedColumn(Layout):
    """Shared behaviour of the encoded single-attribute layouts."""

    @property
    def kind(self) -> LayoutKind:
        return LayoutKind.ENCODED

    @property
    def name(self) -> str:
        return self._name  # type: ignore[attr-defined]

    @property
    def attrs(self) -> Tuple[str, ...]:
        return (self._name,)  # type: ignore[attr-defined]

    @property
    def codes(self) -> np.ndarray:
        """The per-row code array (the layout's scan target)."""
        return self._codes  # type: ignore[attr-defined]

    @property
    def data(self) -> np.ndarray:
        """Alias for :attr:`codes` — the buffer generic scans bind."""
        return self._codes  # type: ignore[attr-defined]

    @property
    def num_rows(self) -> int:
        return int(self._codes.shape[0])  # type: ignore[attr-defined]

    @property
    def scan_bytes_per_value(self) -> int:
        """Bytes read per value during a code-space scan (cost model)."""
        return int(self._codes.dtype.itemsize)  # type: ignore[attr-defined]

    # Subclass contract ----------------------------------------------------

    @property
    def codec(self) -> str:
        raise NotImplementedError

    @property
    def value_dtype(self) -> np.dtype:
        """Dtype of the *decoded* values (what expressions compute on)."""
        raise NotImplementedError

    def encoding_signature(self) -> Tuple:
        """Hashable codec identity for the operator-cache key.

        Everything a generated kernel *burns into source* must appear
        here; runtime buffers (the dictionary) must not.
        """
        raise NotImplementedError

    def _decode_codes(self, codes: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def reordered(self, perm: np.ndarray) -> "EncodedColumn":
        raise NotImplementedError

    # Shared plumbing ------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        if name != self._name:  # type: ignore[attr-defined]
            raise LayoutError(
                f"attribute {name!r} is not stored in this layout "
                f"({self.describe()})"
            )
        return self._decode_codes(self._codes)  # type: ignore[attr-defined]

    def extended(self, columns: Dict[str, np.ndarray]) -> "EncodedColumn":
        """A new encoded column with the given rows appended.

        Appends may introduce values outside the current dictionary or
        packing range, so the codec is rebuilt over the full decoded
        column — correctness first; the reorganizer re-evaluates whether
        the encoding still pays off on the next adaptation cycle.

        Raises :class:`LayoutError` when the appended values outgrow the
        codec family entirely (a bit-packed span no narrow code dtype
        can hold): ``Table.append_rows`` treats that as "drop the
        replica", since encoded layouts are additive.
        """
        name = self._name  # type: ignore[attr-defined]
        if name not in columns:
            raise LayoutError(f"append is missing attribute {name!r}")
        decoded = self.column(name)
        fresh = np.asarray(columns[name], dtype=decoded.dtype)
        merged = np.concatenate([decoded, fresh])
        grown = encode_column(
            name, merged, dict_max_cardinality=np.inf, force=self.codec
        )
        if grown is None:
            raise LayoutError(
                f"could not re-encode {name!r} after append"
            )
        maps = getattr(self, "_zone_maps", None)
        if maps is not None:
            from .zonemap import attach_zone_maps, extend_zone_maps

            attach_zone_maps(grown, extend_zone_maps(maps, grown))
        return grown


class DictEncodedColumn(EncodedColumn):
    """One attribute stored as codes into a sorted dictionary."""

    __slots__ = (
        "_name",
        "_codes",
        "_dictionary",
        "_attr_set_cache",
        "_zone_maps",
    )

    def __init__(
        self, name: str, codes: np.ndarray, dictionary: np.ndarray
    ) -> None:
        if codes.ndim != 1 or dictionary.ndim != 1:
            raise LayoutError(
                "dictionary layout needs 1-D codes and dictionary, got "
                f"{codes.shape} / {dictionary.shape}"
            )
        if codes.dtype.kind != "u":
            raise LayoutError(
                f"dictionary codes must be unsigned, got {codes.dtype}"
            )
        if codes.shape[0] and int(codes.max()) >= dictionary.shape[0]:
            raise LayoutError(
                f"code {int(codes.max())} out of range for dictionary of "
                f"{dictionary.shape[0]} entries"
            )
        self._name = name
        self._codes = np.ascontiguousarray(codes)
        self._dictionary = np.ascontiguousarray(dictionary)

    @property
    def codec(self) -> str:
        return "dict"

    @property
    def value_dtype(self) -> np.dtype:
        return self._dictionary.dtype

    @property
    def dictionary(self) -> np.ndarray:
        """Sorted distinct values; ``dictionary[codes]`` decodes."""
        return self._dictionary

    @property
    def cardinality(self) -> int:
        return int(self._dictionary.shape[0])

    @property
    def nbytes(self) -> int:
        return int(self._codes.nbytes + self._dictionary.nbytes)

    def kernel_buffers(self) -> Tuple[np.ndarray, ...]:
        return (self._codes, self._dictionary)

    def encoding_signature(self) -> Tuple:
        return (
            "dict",
            self._codes.dtype.name,
            self._dictionary.dtype.name,
        )

    def _decode_codes(self, codes: np.ndarray) -> np.ndarray:
        return self._dictionary.take(codes)

    def reordered(self, perm: np.ndarray) -> "DictEncodedColumn":
        return DictEncodedColumn(
            self._name, self._codes.take(perm), self._dictionary
        )

    def describe(self) -> str:
        return (
            f"dict[{self._name}:{self._codes.dtype.name}"
            f"x{self.cardinality}]"
        )

    def __repr__(self) -> str:
        return (
            f"DictEncodedColumn({self._name!r}, rows={self.num_rows}, "
            f"codes={self._codes.dtype}, cardinality={self.cardinality})"
        )


class BitPackedColumn(EncodedColumn):
    """One int64 attribute stored as ``value - offset`` narrow codes.

    Order-preserving: ``code_a < code_b  ⇔  value_a < value_b``, so a
    comparison against a literal becomes one integer threshold on the
    codes (the threshold — including clamping for out-of-range or
    fractional literals — is computed from the runtime parameter inside
    the kernel; ``offset`` and ``max_code`` are burned into the source
    and therefore part of :meth:`encoding_signature`).
    """

    __slots__ = (
        "_name",
        "_codes",
        "_offset",
        "_max_code",
        "_attr_set_cache",
        "_zone_maps",
    )

    def __init__(
        self, name: str, codes: np.ndarray, offset: int, max_code: int
    ) -> None:
        if codes.ndim != 1:
            raise LayoutError(
                f"bit-packed codes must be 1-D, got shape {codes.shape}"
            )
        if codes.dtype.kind != "u":
            raise LayoutError(
                f"bit-packed codes must be unsigned, got {codes.dtype}"
            )
        self._name = name
        self._codes = np.ascontiguousarray(codes)
        self._offset = int(offset)
        self._max_code = int(max_code)

    @property
    def codec(self) -> str:
        return "pack"

    @property
    def value_dtype(self) -> np.dtype:
        return np.dtype(np.int64)

    @property
    def offset(self) -> int:
        return self._offset

    @property
    def max_code(self) -> int:
        return self._max_code

    @property
    def nbytes(self) -> int:
        return int(self._codes.nbytes)

    def kernel_buffers(self) -> Tuple[np.ndarray, ...]:
        return (self._codes,)

    def encoding_signature(self) -> Tuple:
        return (
            "pack",
            self._codes.dtype.name,
            self._offset,
            self._max_code,
        )

    def _decode_codes(self, codes: np.ndarray) -> np.ndarray:
        out = codes.astype(np.int64)
        if self._offset:
            np.add(out, np.int64(self._offset), out=out)
        return out

    def reordered(self, perm: np.ndarray) -> "BitPackedColumn":
        return BitPackedColumn(
            self._name, self._codes.take(perm), self._offset, self._max_code
        )

    def describe(self) -> str:
        return f"pack[{self._name}:{self._codes.dtype.name}]"

    def __repr__(self) -> str:
        return (
            f"BitPackedColumn({self._name!r}, rows={self.num_rows}, "
            f"codes={self._codes.dtype}, offset={self._offset})"
        )


# Codec selection ------------------------------------------------------------


def _bit_pack(name: str, values: np.ndarray) -> Optional[BitPackedColumn]:
    lo = int(values.min())
    hi = int(values.max())
    span = hi - lo
    if span > np.iinfo(np.uint32).max:
        return None
    dtype = _smallest_uint(span)
    if dtype.itemsize >= values.dtype.itemsize:
        return None
    codes = (values - np.int64(lo)).astype(dtype)
    return BitPackedColumn(name, codes, lo, span)


def _dict_encode(
    name: str, values: np.ndarray, max_cardinality: float
) -> Optional[DictEncodedColumn]:
    if values.dtype.kind == "f":
        dictionary, codes = _sorted_float_dictionary(values)
    else:
        dictionary, codes = np.unique(values, return_inverse=True)
        codes = codes.ravel()
    if dictionary.shape[0] > max_cardinality:
        return None
    code_dtype = _smallest_uint(max(int(dictionary.shape[0]) - 1, 0))
    if code_dtype.itemsize >= values.dtype.itemsize:
        return None
    return DictEncodedColumn(name, codes.astype(code_dtype), dictionary)


def encode_column(
    name: str,
    values: np.ndarray,
    *,
    dict_max_cardinality: float = DEFAULT_DICT_MAX_CARDINALITY,
    force: Optional[str] = None,
) -> Optional[EncodedColumn]:
    """Pick and apply the best codec for one column, or None.

    Selection by per-column stats: int64 columns whose value *range*
    fits 8/16 bits bit-pack (cheapest codec, no side buffer); otherwise
    a cardinality probe decides dictionary encoding; wide-range int
    columns may still pack into 32 bits.  Float columns only dictionary-
    encode (bit-exactly).  Returns ``None`` when no codec would shrink
    the column — callers treat that as "leave it plain".

    ``force`` pins the codec (used when re-encoding after an append so
    a layout never silently changes family mid-flight).
    """
    values = np.ascontiguousarray(values)
    if values.ndim != 1:
        raise LayoutError(
            f"encode_column needs a 1-D array, got shape {values.shape}"
        )
    if values.shape[0] == 0:
        return None
    if values.dtype == np.dtype(np.float64):
        if force == "pack":
            raise LayoutError("cannot bit-pack a float column")
        return _dict_encode(name, values, dict_max_cardinality)
    if values.dtype != np.dtype(np.int64):
        raise LayoutError(
            f"unsupported dtype for encoding: {values.dtype}"
        )
    if force == "pack":
        return _bit_pack(name, values)
    if force == "dict":
        return _dict_encode(name, values, dict_max_cardinality)
    lo = int(values.min())
    hi = int(values.max())
    if hi - lo <= np.iinfo(np.uint16).max:
        return _bit_pack(name, values)
    encoded = _dict_encode(name, values, dict_max_cardinality)
    if encoded is not None:
        return encoded
    return _bit_pack(name, values)
