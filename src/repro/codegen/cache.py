"""The operator cache.

"To minimize the overhead of code generation, H2O stores newly generated
operators into a cache.  If the same operator is requested by a future
query, H2O accesses it directly from the cache." (paper section 3.4)

Keys are structural and name no attribute: the masked query shape with
each attribute spelled as its column slot, the slot's provider (buffer
slot, position, dtype, width), the execution strategy, the output dtype
and the literal types — exactly what the templates read (see
:func:`~repro.codegen.generator.operator_key`).  Two queries differing
only in constants, or only in which attributes fill the slots, therefore
share one source and one compiled kernel, with the constants passed as
runtime parameters.  On the drifting Fig. 7 sequence, 245 cold plans
need 21 distinct sources.

Compiled kernels are also shared by **source text**: on a key miss the
generator builds the source and asks :meth:`find_source` for a live
entry with identical text (keys that differ in a fact the source does
not use, such as the width of a buffer read column by column); if one
exists, the new key is stored with that entry's kernel and nothing is
compiled.  Lookup is a scan of the live entries under the same lock, so
sharing adds no index, no capacity and no eviction rule: once every key
holding a text is evicted, that text compiles again on its next use.  A
disabled cache shares nothing, so every generation compiles.

The cache is bounded: beyond ``capacity`` entries the least-recently
used operator is evicted (a long-running engine serving a drifting
workload would otherwise accumulate one compiled kernel per shape ×
layout combination it ever saw).

**Thread safety.**  One operator cache is shared by all workers of the
concurrent query service (codegen happens *outside* the engine's
decision lock so compilation never stalls other queries' planning), so
every operation — including the LRU reordering a lookup performs — runs
under an internal lock.  Two workers racing to compile the same key do
redundant work once; both stores are consistent and the last one wins.
:meth:`stats` returns a defensive copy.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable, Optional, Tuple


@dataclass
class CacheEntry:
    """One compiled operator and its provenance."""

    kernel: Callable
    source: str
    filename: str
    #: Seconds spent generating + compiling this operator originally.
    build_seconds: float = 0.0
    uses: int = 0


@dataclass
class OperatorCache:
    """Maps operator signatures to compiled kernels (bounded LRU).

    All methods are safe to call from multiple threads.
    """

    enabled: bool = True
    #: Maximum number of cached operators (LRU eviction beyond it).
    capacity: int = 256
    _entries: "OrderedDict[Hashable, CacheEntry]" = field(
        default_factory=OrderedDict
    )
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def lookup(self, key: Hashable) -> Optional[CacheEntry]:
        """The cached entry for ``key``, counting hit/miss statistics."""
        with self._lock:
            if not self.enabled:
                self.misses += 1
                return None
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)  # most recently used
            self.hits += 1
            entry.uses += 1
            return entry

    def find_source(self, source: str) -> Optional[CacheEntry]:
        """A live entry compiled from exactly ``source``, if any.

        Statistics are untouched: the caller has already counted its key
        miss, and it still generated the source.
        """
        with self._lock:
            if not self.enabled:
                return None
            for entry in self._entries.values():
                if entry.source == source:
                    return entry
            return None

    def store(self, key: Hashable, entry: CacheEntry) -> None:
        with self._lock:
            if not self.enabled:
                return
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> Tuple[Tuple[Hashable, CacheEntry], ...]:
        """A consistent (key, entry) copy for auditing.

        The testkit oracle walks this to assert key/source agreement:
        every cached kernel must still carry the exact source it was
        compiled from (``kernel.__h2o_source__ == entry.source``), so a
        cache corruption or a kernel swapped under a stale key is
        caught the moment it happens.
        """
        with self._lock:
            return tuple(self._entries.items())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> Tuple[int, int, int, int]:
        """(cached operators, hits, misses, evictions).

        A consistent immutable copy taken under the lock — never a view
        of live internal state.
        """
        with self._lock:
            return (
                len(self._entries),
                self.hits,
                self.misses,
                self.evictions,
            )
