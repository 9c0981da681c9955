"""Workload-shift detection (paper section 3.2, "Oscillating Workloads").

"H2O detects workload shifts by comparing new queries with queries
observed in the previous query window.  It examines whether the input
query access pattern is new or if it has been observed with low
frequency.  New access patterns are an indication that there might be a
shift in the workload."

A query counts as *seen* when its attribute set overlaps some windowed
pattern strongly enough (Jaccard similarity against the best-matching
recent pattern).  When the recent fraction of unseen queries crosses the
trigger threshold, a shift is reported — once per burst, so oscillating
noise does not shrink the window repeatedly.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, FrozenSet, Iterable

#: A query counts as *familiar* when at least this fraction of its
#: attributes is contained in some pattern known at the last adaptation.
SHIFT_OVERLAP_THRESHOLD = 0.5

#: Fraction of recent queries that must be unfamiliar before a shift is
#: reported.  Mild pattern drift (a workload gradually rotating its hot
#: set) must not shrink the window — that starves the advisor of pattern
#: frequencies; only a substantial burst of novel patterns is a shift.
SHIFT_TRIGGER_FRACTION = 0.45


def jaccard(first: FrozenSet[str], second: FrozenSet[str]) -> float:
    """Jaccard similarity of two attribute sets (1.0 for two empties)."""
    if not first and not second:
        return 1.0
    union = len(first | second)
    if union == 0:
        return 1.0
    return len(first & second) / union


def containment(query_attrs: FrozenSet[str], pattern: FrozenSet[str]) -> float:
    """Fraction of the query's attributes covered by a known pattern.

    Containment, not Jaccard: a query touching a *subset* of a known
    pattern is familiar (score 1.0) even though its Jaccard similarity
    to the wide pattern is low — narrow queries over a hot attribute
    cluster must not read as workload shifts.
    """
    if not query_attrs:
        return 1.0
    return len(query_attrs & pattern) / len(query_attrs)


class ShiftDetector:
    """Tracks how novel recent query patterns are."""

    def __init__(self, recent: int = 10, warmup: int = 0) -> None:
        self._recent_flags: Deque[bool] = deque(maxlen=recent)
        self._in_shift = False
        self._seen = 0
        #: Queries to observe before a shift may fire — the first few
        #: queries of a fresh engine are all trivially "novel".
        self.warmup = warmup if warmup else recent

    def assess(
        self,
        attrs: FrozenSet[str],
        known_patterns: Iterable[FrozenSet[str]],
    ) -> bool:
        """Record one query's novelty; return True when a (new) shift
        is detected at this query."""
        best = 0.0
        for pattern in known_patterns:
            similarity = containment(attrs, pattern)
            if similarity > best:
                best = similarity
                if best >= SHIFT_OVERLAP_THRESHOLD:
                    break
        unseen = best < SHIFT_OVERLAP_THRESHOLD
        self._recent_flags.append(unseen)
        self._seen += 1
        fraction = (
            sum(self._recent_flags) / len(self._recent_flags)
            if self._recent_flags
            else 0.0
        )
        shifted = fraction >= SHIFT_TRIGGER_FRACTION
        if self._seen <= self.warmup:
            self._in_shift = shifted
            return False
        if shifted and not self._in_shift:
            self._in_shift = True
            return True
        if not shifted:
            self._in_shift = False
        return False
