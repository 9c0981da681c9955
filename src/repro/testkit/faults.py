"""The deterministic fault-injection driver (the testkit-side half).

The production code exposes named injectable sites through
:func:`repro.util.faultpoints.fault_point`; this module installs a
seeded *schedule* into them.  A schedule maps each point to a set of
occurrence indices: the injector counts every time a point is reached
(process-wide, under a lock) and raises the point's documented failure
exactly at the scheduled occurrences.  Same seed → same schedule → same
faults at the same places, every run.

Fault kinds and the contract the oracle asserts for each:

====================  =======================  ============================
kind / point          injected exception       documented surface
====================  =======================  ============================
``codegen.compile``   CodegenError             interpreted fallback answers
                                               the query identically;
                                               ``Executor.codegen_fallbacks``
                                               counts it
``reorg.online``      ReorganizationError      partial group discarded,
                                               query answered via planning;
                                               ``H2OEngine.reorg_aborts``
``service.worker``    RuntimeError (escapes)   waiter gets ServiceError,
                                               worker replaced;
                                               ``stats.worker_deaths``
``service.execute``   QueryTimeoutError        waiter gets the timeout;
                                               ``stats.failed`` counts it
====================  =======================  ============================

A fired fault with *no* matching surface (exception or counter bump) is
an oracle failure — that is the mutation check: edit any handler to
swallow its fault silently and the oracle goes red (docs/testing.md).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Tuple

import numpy as np

from ..errors import CodegenError, QueryTimeoutError, ReorganizationError
from ..util import faultpoints
from ..util.rng import RngLike, ensure_rng

#: point name → (exception factory, message).  ``service.worker`` raises
#: a plain RuntimeError on purpose: a real worker death is an *arbitrary*
#: exception escaping the ticket scope, and the service must translate it
#: into the documented ServiceError for the waiter.
FAULT_KINDS: Dict[str, type] = {
    "codegen.compile": CodegenError,
    "reorg.online": ReorganizationError,
    "service.worker": RuntimeError,
    "service.execute": QueryTimeoutError,
}

ALL_POINTS: Tuple[str, ...] = tuple(FAULT_KINDS)


@dataclass(frozen=True)
class FiredFault:
    """One fault the injector actually raised."""

    point: str
    occurrence: int


class FaultInjector:
    """Context manager installing a seeded fault schedule.

    >>> from repro.testkit.faults import FaultInjector
    >>> inj = FaultInjector({"codegen.compile": {0}})
    >>> with inj:
    ...     pass  # run workload; occurrence 0 of every compile raises
    >>> inj.fired
    []

    Thread-safe: occurrence counting and the fired log are guarded by
    one lock (points are hit from query workers and the caller's thread
    simultaneously).
    """

    def __init__(self, schedule: Mapping[str, FrozenSet[int]]) -> None:
        self.schedule: Dict[str, FrozenSet[int]] = {
            point: frozenset(occurrences)
            for point, occurrences in schedule.items()
        }
        unknown = set(self.schedule) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault points: {sorted(unknown)}")
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {}
        self.fired: List[FiredFault] = []

    # Introspection --------------------------------------------------------

    def occurrences(self, point: str) -> int:
        """How many times ``point`` was reached (fired or not)."""
        with self._lock:
            return self._counts.get(point, 0)

    def fired_count(self, point: str) -> int:
        with self._lock:
            return sum(1 for f in self.fired if f.point == point)

    def fired_by_point(self) -> Dict[str, int]:
        with self._lock:
            counts: Dict[str, int] = {}
            for fault in self.fired:
                counts[fault.point] = counts.get(fault.point, 0) + 1
            return counts

    # The handler ----------------------------------------------------------

    def _handle(self, name: str, context: Dict[str, object]) -> None:
        with self._lock:
            occurrence = self._counts.get(name, 0)
            self._counts[name] = occurrence + 1
            planned = self.schedule.get(name)
            if planned is None or occurrence not in planned:
                return
            self.fired.append(FiredFault(point=name, occurrence=occurrence))
        raise FAULT_KINDS[name](
            f"injected fault at {name} (occurrence {occurrence})"
        )

    # Context manager ------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        faultpoints.install(self._handle)
        return self

    def __exit__(self, *exc_info: object) -> None:
        faultpoints.uninstall(self._handle)


def random_schedule(
    rng: RngLike,
    *,
    horizon: int = 24,
    faults_per_point: int = 2,
    points: Tuple[str, ...] = ALL_POINTS,
) -> Dict[str, FrozenSet[int]]:
    """A seeded schedule: up to ``faults_per_point`` occurrences of each
    point within the first ``horizon`` occurrences.

    Occurrence indices beyond what the workload actually reaches simply
    never fire — the oracle only demands evidence for *fired* faults, so
    a schedule can be generous without being brittle.
    """
    rng = ensure_rng(rng)
    schedule: Dict[str, FrozenSet[int]] = {}
    for point in points:
        count = int(rng.integers(1, faults_per_point + 1))
        upper = max(2, horizon)
        picks = rng.choice(upper, size=min(count, upper), replace=False)
        schedule[point] = frozenset(int(p) for p in np.atleast_1d(picks))
    return schedule
