"""The layout-switching policy: when may a candidate actually be built?

The paper's H2O is *greedy*: the moment a candidate layout covers the
incoming query, clears the amortization floor and shows positive
expected gain, it is materialized — the reorganization is paid up front
on the bet that the workload stays put.  Adversarial workloads (a
ping-pong between query classes, a periodic shift) break that bet:
every phase change buys a layout the next phase abandons, and the
engine thrashes.

The policy treats each reorganization as an investment hedged against
observed benefit, following the ski-rental discipline of "Dynamic Data
Layout Optimization with Worst-case Guarantees" (arXiv 2405.04984).
Per candidate layout it keeps a ledger entry accruing the Eq. 2 benefit
the candidate *would have delivered* on every windowed query it covers
(``CandidateLayout.benefit_per_use``, the advisor's per-use cost-model
delta).  The switch is allowed only once

    accrued_benefit >= hedging_factor * projected_build_cost

so by construction, at every switch the benefit already foregone covers
the hedged build cost:

    hedging_factor * (total reorganization cost)  <=  total accrued
                                                      benefit at switch

— the **regret invariant** the property tests in
tests/test_adaptation_policy.py assert on arbitrary workload streams.
A workload that never re-uses a layout long enough to accrue its hedged
cost never pays for it; a stable workload pays a one-off delay of
``hedging_factor`` build-costs' worth of benefit and then switches
exactly as greedy would.  At ``hedging_factor == 0`` (the default) the
gate is always open: every decision is the paper's greedy one, and the
ledger shows what that run accrued.

All methods are called under ``engine.lock``; the policy itself is not
thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Tuple

from ..config import EngineConfig
from .advisor import CandidateLayout

#: Ledger entries kept per policy; beyond this the lowest-accrual entry
#: is evicted (an adversary spraying one-off shapes must not grow the
#: ledger without bound).
MAX_LEDGER_ENTRIES = 128

#: Switch records retained for export/inspection (totals are exact
#: regardless; only the per-switch evidence list is bounded).
MAX_SWITCH_RECORDS = 256


@dataclass
class LedgerEntry:
    """Running debt/benefit account for one candidate layout."""

    attrs: Tuple[str, ...]
    #: Cumulative estimated benefit (Eq. 2 delta per covered query).
    accrued: float = 0.0
    #: Latest projected build cost (advisor estimate, refreshed on
    #: every observation).
    projected_cost: float = 0.0
    #: Covered queries that contributed to ``accrued``.
    observations: int = 0
    #: Times the guard refused an otherwise-eligible materialization.
    deferrals: int = 0
    #: Query index of the most recent contributing observation.
    last_observed: int = -1

    def as_dict(self) -> Dict[str, object]:
        return {
            "attrs": list(self.attrs),
            "accrued": self.accrued,
            "projected_cost": self.projected_cost,
            "observations": self.observations,
            "deferrals": self.deferrals,
            "last_observed": self.last_observed,
        }


@dataclass(frozen=True)
class SwitchRecord:
    """Evidence captured at the moment a materialization was allowed."""

    attrs: Tuple[str, ...]
    #: Benefit accrued by the ledger entry when the switch was granted.
    accrued: float
    #: The candidate's build-cost estimate at switch time.
    build_cost: float
    #: The hedging factor in force (0 = the paper's greedy gate).
    hedging_factor: float
    query_index: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "attrs": list(self.attrs),
            "accrued": self.accrued,
            "build_cost": self.build_cost,
            "hedging_factor": self.hedging_factor,
            "query_index": self.query_index,
        }


class AdaptationPolicy:
    """Regret-bounded switching: accrue first, build once hedged."""

    def __init__(self, config: EngineConfig) -> None:
        self.hedging_factor = config.hedging_factor
        self.ledger: Dict[FrozenSet[str], LedgerEntry] = {}
        self.switches: List[SwitchRecord] = []
        #: Totals are exact even when ``switches`` is truncated.
        self.switch_count = 0
        self.invested_cost = 0.0
        self.accrued_at_switch = 0.0
        self.deferrals = 0

    # Decision interface ---------------------------------------------------

    def _entry(self, candidate: CandidateLayout) -> LedgerEntry:
        entry = self.ledger.get(candidate.ledger_key)
        if entry is None:
            if len(self.ledger) >= MAX_LEDGER_ENTRIES:
                coldest = min(
                    self.ledger, key=lambda k: self.ledger[k].accrued
                )
                del self.ledger[coldest]
            entry = LedgerEntry(attrs=tuple(candidate.attrs))
            self.ledger[candidate.ledger_key] = entry
        return entry

    def _gate_open(self, accrued: float, build_cost: float) -> bool:
        return accrued >= self.hedging_factor * build_cost

    def observe(
        self,
        select_attrs: FrozenSet[str],
        where_attrs: FrozenSet[str],
        candidates: Iterable[CandidateLayout],
        query_index: int,
    ) -> None:
        """Account one query against the candidate ledger: every
        candidate that could have served it accrues its per-use
        benefit."""
        for candidate in candidates:
            if not candidate.serves(select_attrs, where_attrs):
                continue
            entry = self._entry(candidate)
            entry.accrued += max(candidate.benefit_per_use, 0.0)
            entry.projected_cost = candidate.build_cost
            entry.observations += 1
            entry.last_observed = query_index

    def allow_materialization(
        self, candidate: CandidateLayout, query_index: int
    ) -> bool:
        """May this candidate be built right now?  A refusal is
        ledgered as a deferral."""
        entry = self._entry(candidate)
        if self._gate_open(entry.accrued, candidate.build_cost):
            return True
        entry.deferrals += 1
        self.deferrals += 1
        return False

    def note_materialized(
        self, candidate: CandidateLayout, query_index: int
    ) -> None:
        """Record that ``candidate`` was actually built."""
        entry = self.ledger.pop(candidate.ledger_key, None)
        accrued = entry.accrued if entry is not None else 0.0
        self._record_switch(
            SwitchRecord(
                attrs=tuple(candidate.attrs),
                accrued=accrued,
                build_cost=candidate.build_cost,
                hedging_factor=self.hedging_factor,
                query_index=query_index,
            )
        )

    def _record_switch(self, record: SwitchRecord) -> None:
        self.switch_count += 1
        self.invested_cost += record.build_cost
        self.accrued_at_switch += record.accrued
        self.switches.append(record)
        if len(self.switches) > MAX_SWITCH_RECORDS:
            del self.switches[0]

    # The regret invariant -------------------------------------------------

    def regret_bound_satisfied(self, tolerance: float = 1e-9) -> bool:
        """``hedging_factor * invested_cost <= accrued_at_switch``.

        Maintained by construction (every switch is granted only once
        its entry's accrual covers the hedged cost); at a factor of 0
        the bound is vacuous.
        """
        bound = self.hedging_factor * self.invested_cost
        return bound <= self.accrued_at_switch + tolerance

    # Introspection / persistence -----------------------------------------

    def snapshot(self, ledger_limit: int = 8) -> Dict[str, object]:
        """Bounded summary for ``engine.stats()`` and service health."""
        hottest = sorted(
            self.ledger.values(), key=lambda e: -e.accrued
        )[:ledger_limit]
        return {
            "hedging_factor": self.hedging_factor,
            "switches": self.switch_count,
            "invested_cost": self.invested_cost,
            "accrued_at_switch": self.accrued_at_switch,
            "deferrals": self.deferrals,
            "ledger_entries": len(self.ledger),
            "ledger": {
                ",".join(entry.attrs): {
                    "accrued": entry.accrued,
                    "projected_cost": entry.projected_cost,
                    "observations": entry.observations,
                    "deferrals": entry.deferrals,
                }
                for entry in hottest
            },
        }

    def export(self) -> Dict[str, object]:
        """JSON-serializable full state (see ``adaptation_state()``)."""
        return {
            "hedging_factor": self.hedging_factor,
            "switch_count": self.switch_count,
            "invested_cost": self.invested_cost,
            "accrued_at_switch": self.accrued_at_switch,
            "deferrals": self.deferrals,
            "entries": [
                entry.as_dict() for entry in self.ledger.values()
            ],
            "switches": [record.as_dict() for record in self.switches],
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Replace this policy's state with an exported one.

        Tolerant of malformed snapshots: every field falls back to a
        clean default, so a corrupt checkpoint yields a fresh ledger
        rather than a crash; unknown keys (older checkpoints carry a
        policy name) are ignored, and so are entries of a non-group
        ``kind`` (older checkpoints ledgered row-order and replica
        switches that this engine no longer makes).  The configured
        ``hedging_factor`` is *not* overwritten — the knob belongs to
        the running config, the ledger to the recovered history.
        """
        if not isinstance(state, dict):
            return
        self.switch_count = _as_int(state.get("switch_count"))
        self.invested_cost = _as_float(state.get("invested_cost"))
        self.accrued_at_switch = _as_float(state.get("accrued_at_switch"))
        self.deferrals = _as_int(state.get("deferrals"))
        self.ledger = {}
        entries = state.get("entries", [])
        if isinstance(entries, list):
            for raw in entries[:MAX_LEDGER_ENTRIES]:
                if not isinstance(raw, dict):
                    continue
                attrs = raw.get("attrs")
                if not isinstance(attrs, (list, tuple)) or not attrs:
                    continue
                if raw.get("kind", "group") != "group":
                    continue
                attrs = tuple(str(a) for a in attrs)
                self.ledger[frozenset(attrs)] = LedgerEntry(
                    attrs=attrs,
                    accrued=_as_float(raw.get("accrued")),
                    projected_cost=_as_float(raw.get("projected_cost")),
                    observations=_as_int(raw.get("observations")),
                    deferrals=_as_int(raw.get("deferrals")),
                    last_observed=_as_int(raw.get("last_observed"), -1),
                )
        self.switches = []
        switches = state.get("switches", [])
        if isinstance(switches, list):
            for raw in switches[-MAX_SWITCH_RECORDS:]:
                if not isinstance(raw, dict):
                    continue
                attrs = raw.get("attrs")
                if not isinstance(attrs, (list, tuple)):
                    continue
                self.switches.append(
                    SwitchRecord(
                        attrs=tuple(str(a) for a in attrs),
                        accrued=_as_float(raw.get("accrued")),
                        build_cost=_as_float(raw.get("build_cost")),
                        hedging_factor=_as_float(
                            raw.get("hedging_factor")
                        ),
                        query_index=_as_int(raw.get("query_index")),
                    )
                )


def _as_float(value: object, default: float = 0.0) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return default


def _as_int(value: object, default: int = 0) -> int:
    try:
        return int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return default
