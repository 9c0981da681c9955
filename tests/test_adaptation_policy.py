"""The regret-bounded switching policy (repro/core/adaptation_policy.py).

Three layers:

1. pure policy-level unit tests (ledger accrual, deferral accounting,
   export/restore, config validation);
2. Hypothesis property tests: on *arbitrary* observation/attempt
   streams the policy maintains the regret invariant, and with
   ``hedging_factor == 0`` it is decision-identical to the paper's
   greedy gate (kept below as :class:`GreedyReference`);
3. engine-level tests: deferrals surface in ``QueryReport`` /
   ``engine.stats()``, a huge hedging factor suppresses inline
   reorganization entirely, and the default engine replays a scenario
   with the same per-query observable behaviour and answers as one
   driven by the greedy reference.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.config import EngineConfig
from repro.core.adaptation_policy import (
    MAX_LEDGER_ENTRIES,
    AdaptationPolicy,
    SwitchRecord,
)
from repro.core.advisor import CandidateLayout
from repro.core.engine import H2OEngine
from repro.errors import AdaptationError
from repro.sql.parser import parse_query
from repro.testkit.oracle import results_identical
from repro.workloads.scenarios import build_scenario

# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

#: A pool of distinct attribute groups for generated candidates.
ATTR_POOL = [
    ("a1", "a2"),
    ("a2", "a3"),
    ("a3", "a4", "a5"),
    ("a1", "a4"),
    ("a6",),
    ("a2", "a5", "a6"),
]


def candidate(
    pool_index: int, benefit: float, cost: float, freq: int = 2
) -> CandidateLayout:
    attrs = ATTR_POOL[pool_index % len(ATTR_POOL)]
    return CandidateLayout(
        attrs=attrs,
        frequency=freq,
        benefit_per_use=benefit,
        build_cost=cost,
        origin="merge",
    )


def hedged(hedging: float) -> AdaptationPolicy:
    return AdaptationPolicy(EngineConfig(hedging_factor=hedging))


class GreedyReference(AdaptationPolicy):
    """Reference: the paper's greedy gate, written out.  Every
    materialization allowed, no ledger accrual and no deferrals;
    switches are still recorded (inherited), so the two sides' totals
    compare."""

    def observe(self, select_attrs, where_attrs, candidates, query_index):
        pass

    def allow_materialization(self, candidate, query_index):
        return True


def drive(policy: AdaptationPolicy, events) -> None:
    """Replay ``events`` = [(pool_index, benefit, cost, attempt)]."""
    for index, (pool_index, benefit, cost, attempt) in enumerate(events):
        cand = candidate(pool_index, benefit, cost)
        policy.observe(
            frozenset(cand.attrs), frozenset(), [cand], index
        )
        if attempt and policy.allow_materialization(cand, index):
            policy.note_materialized(cand, index)


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def test_negative_hedging_rejected():
    # NaN and inf would close the gate forever (``accrued >= nan`` is
    # never true): the engine would silently stop adapting.
    for hedging in (-0.5, float("nan"), float("inf")):
        with pytest.raises(AdaptationError):
            EngineConfig(hedging_factor=hedging)


# ---------------------------------------------------------------------------
# Pure policy behaviour
# ---------------------------------------------------------------------------


def test_guarded_accrues_then_opens():
    policy = hedged(2.0)
    cand = candidate(0, benefit=1.0, cost=3.0)
    # Needs accrued >= 2 * 3 = 6, i.e. six observations of benefit 1.
    for i in range(5):
        policy.observe(frozenset(cand.attrs), frozenset(), [cand], i)
        assert not policy.allow_materialization(cand, i)
    assert policy.deferrals == 5
    policy.observe(frozenset(cand.attrs), frozenset(), [cand], 5)
    assert policy.allow_materialization(cand, 5)
    policy.note_materialized(cand, 5)
    assert policy.switch_count == 1
    record = policy.switches[0]
    assert record.accrued >= 2.0 * record.build_cost - 1e-9
    assert policy.regret_bound_satisfied()
    # The built candidate's ledger entry is retired.
    assert cand.attr_set not in policy.ledger


def test_observe_only_accrues_serving_candidates():
    policy = hedged(1.0)
    served = candidate(0, benefit=1.0, cost=10.0)
    bystander = candidate(4, benefit=1.0, cost=10.0)
    policy.observe(
        frozenset(served.attrs), frozenset(), [served, bystander], 0
    )
    assert policy.ledger[served.attr_set].accrued == 1.0
    assert bystander.attr_set not in policy.ledger


def test_negative_benefit_never_decreases_accrual():
    policy = hedged(1.0)
    cand = candidate(0, benefit=-5.0, cost=1.0)
    policy.observe(frozenset(cand.attrs), frozenset(), [cand], 0)
    assert policy.ledger[cand.attr_set].accrued == 0.0


def test_ledger_bounded_with_eviction():
    policy = hedged(1.0)
    for i in range(MAX_LEDGER_ENTRIES + 40):
        attrs = (f"x{i}", f"y{i}")
        cand = CandidateLayout(
            attrs=attrs,
            frequency=1,
            benefit_per_use=float(i),
            build_cost=1e9,
            origin="merge",
        )
        policy.observe(frozenset(attrs), frozenset(), [cand], i)
    assert len(policy.ledger) == MAX_LEDGER_ENTRIES
    # The survivors are the highest-accrual entries (coldest evicted).
    kept = {min(e.accrued for e in policy.ledger.values())}
    assert min(kept) >= 40.0


def test_export_restore_round_trip():
    policy = hedged(2.0)
    drive(
        policy,
        [(0, 1.0, 1.0, True)] * 4 + [(1, 2.0, 100.0, True)] * 3,
    )
    state = policy.export()
    fresh = hedged(2.0)
    fresh.restore(state)
    assert fresh.export() == state
    # Corrupt snapshots degrade to a clean ledger, never a crash.
    fresh.restore({"entries": "garbage", "switches": 7})
    assert fresh.ledger == {}
    assert fresh.switch_count == 0


def test_restore_keeps_configured_hedging_factor():
    policy = hedged(4.0)
    policy.restore(hedged(1.0).export())
    assert policy.hedging_factor == 4.0


@pytest.mark.parametrize("name", ["greedy-paper", "guarded"])
def test_restore_reads_checkpoints_that_name_a_policy(name):
    """Checkpoints written while two policy classes existed carry a
    ``"policy"`` name key; recovery must still load their ledger."""
    state = {
        "policy": name,
        "hedging_factor": 2.0 if name == "guarded" else 0.0,
        "switch_count": 3,
        "invested_cost": 4.5,
        "accrued_at_switch": 9.0,
        "deferrals": 7,
        "entries": [
            {
                "attrs": ["a1", "a2"],
                "kind": "group",
                "accrued": 1.25,
                "projected_cost": 3.0,
                "observations": 5,
                "deferrals": 2,
                "last_observed": 40,
            }
        ],
        "switches": [
            {
                "attrs": ["a3", "a4"],
                "accrued": 3.0,
                "build_cost": 1.5,
                "hedging_factor": 2.0,
                "query_index": 12,
            }
        ],
    }
    policy = hedged(0.0)
    policy.restore(state)
    assert (policy.switch_count, policy.deferrals) == (3, 7)
    assert (policy.invested_cost, policy.accrued_at_switch) == (4.5, 9.0)
    entry = policy.ledger[frozenset(("a1", "a2"))]
    assert (entry.accrued, entry.observations, entry.deferrals) == (
        1.25, 5, 2,
    )
    assert policy.switches == [
        SwitchRecord(("a3", "a4"), 3.0, 1.5, 2.0, 12)
    ]
    # Re-exported without the name or the entries' kind; the running
    # factor is kept.
    expected = dict(state, hedging_factor=0.0)
    del expected["policy"]
    expected["entries"] = [
        {k: v for k, v in entry.items() if k != "kind"}
        for entry in state["entries"]
    ]
    assert policy.export() == expected


# ---------------------------------------------------------------------------
# Hypothesis: the regret invariant on arbitrary streams
# ---------------------------------------------------------------------------

events_strategy = st.lists(
    st.tuples(
        st.integers(0, len(ATTR_POOL) - 1),
        st.floats(
            -2.0, 50.0, allow_nan=False, allow_infinity=False
        ),
        st.floats(
            0.0, 100.0, allow_nan=False, allow_infinity=False
        ),
        st.booleans(),
    ),
    max_size=80,
)


@given(
    events_strategy,
    st.floats(0.0, 8.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=120, deadline=None)
def test_regret_invariant_on_any_stream(events, hedging):
    """Whatever the stream does, every granted switch was hedged."""
    policy = hedged(hedging)
    drive(policy, events)
    assert policy.regret_bound_satisfied()
    for record in policy.switches:
        assert record.accrued >= hedging * record.build_cost - 1e-9
    # Totals stay consistent with the (untruncated) evidence list.
    assert policy.switch_count == len(policy.switches)
    assert policy.invested_cost == pytest.approx(
        sum(r.build_cost for r in policy.switches)
    )


@given(events_strategy)
@settings(max_examples=80, deadline=None)
def test_hedge_zero_is_greedy_decision_for_decision(events):
    """``hedging_factor == 0`` reduces the hedge to greedy exactly."""
    greedy_policy = GreedyReference(EngineConfig())
    zero = hedged(0.0)
    for index, (pool_index, benefit, cost, attempt) in enumerate(events):
        cand = candidate(pool_index, benefit, cost)
        greedy_policy.observe(
            frozenset(cand.attrs), frozenset(), [cand], index
        )
        zero.observe(frozenset(cand.attrs), frozenset(), [cand], index)
        if not attempt:
            continue
        allowed_g = greedy_policy.allow_materialization(cand, index)
        allowed_z = zero.allow_materialization(cand, index)
        # Every materialization decision matches.
        assert allowed_g is True and allowed_z is True
        greedy_policy.note_materialized(cand, index)
        zero.note_materialized(cand, index)
    assert zero.deferrals == greedy_policy.deferrals == 0
    assert zero.switch_count == greedy_policy.switch_count


# ---------------------------------------------------------------------------
# Engine integration
# ---------------------------------------------------------------------------

ENGINE_KNOBS = dict(window_size=4, min_window=2, max_window=12)


def replay(scenario, config, policy=None):
    engine = H2OEngine(scenario.make_table(), config)
    if policy is not None:
        engine.adaptation.policy = policy
    reports = []
    for op in scenario.ops:
        if op[0] == "query":
            reports.append(engine.execute(parse_query(op[1])))
        else:
            engine.table.append_rows(
                scenario.append_batch(op[1], op[2])
            )
    return engine, reports


def test_engine_surfaces_deferrals():
    scenario = build_scenario("ping-pong", 0, phases=4, phase_len=10,
                              num_rows=512)
    engine, reports = replay(
        scenario,
        EngineConfig(hedging_factor=3.0, **ENGINE_KNOBS),
    )
    assert engine.policy.deferrals > 0
    assert any(r.reorg_deferred for r in reports)
    stats = engine.stats()
    assert stats["policy"]["hedging_factor"] == 3.0
    assert stats["policy"]["deferrals"] == engine.policy.deferrals
    assert "policy" in engine.adaptation_state()
    assert "policy: hedging_factor=3 switches=" in engine.describe()


def test_huge_hedging_never_reorganizes_inline():
    scenario = build_scenario("ping-pong", 0, phases=3, phase_len=8,
                              num_rows=512)
    engine, reports = replay(
        scenario,
        EngineConfig(hedging_factor=1e12, **ENGINE_KNOBS),
    )
    assert len(engine.manager.creation_log) == 0
    assert engine.policy.deferrals > 0
    assert engine.policy.regret_bound_satisfied()


def test_hedge_zero_engine_matches_greedy():
    """The shipped default replays a scenario exactly as an engine
    driven by the greedy reference does: same builds, same fast-lane
    hits, no deferrals, bit-identical answers."""
    scenario = build_scenario("periodic-shift", 1, phases=4,
                              phase_len=10, num_rows=512)
    config = EngineConfig(**ENGINE_KNOBS)
    _, greedy_reports = replay(
        scenario, config, policy=GreedyReference(config)
    )
    engine, zero_reports = replay(scenario, config)
    assert [
        (r.layout_created, r.plan_cache_hit, r.reorg_deferred)
        for r in greedy_reports
    ] == [
        (r.layout_created, r.plan_cache_hit, r.reorg_deferred)
        for r in zero_reports
    ]
    assert any(r.layout_created for r in zero_reports)
    assert all(
        results_identical(g.result, z.result)
        for g, z in zip(greedy_reports, zero_reports)
    )
    assert engine.policy.deferrals == 0


def test_guarded_eventually_builds_and_records_switch():
    scenario = build_scenario("trickle-append", 0, rounds=6,
                              queries_per_round=10, num_rows=512)
    engine, _ = replay(
        scenario,
        EngineConfig(hedging_factor=1.5, **ENGINE_KNOBS),
    )
    assert engine.policy.switch_count >= 1
    for record in engine.policy.switches:
        assert record.accrued >= 1.5 * record.build_cost - 1e-9
    assert engine.policy.regret_bound_satisfied()
