"""The adversarial scenario pack (repro/workloads/scenarios.py) and its
replay oracle.

Tier 1 keeps this cheap: generator determinism/parseability plus one
short scenario replayed at hedge 0 and hedged.  The full-pack replay (the
nightly/scenario CI job) carries ``@pytest.mark.scenario``.
"""

import pytest

from repro.sql.parser import parse_query
from repro.testkit.oracle import scenario_case
from repro.workloads.scenarios import (
    SCENARIOS,
    build_scenario,
)


def test_registry_contents():
    assert list(SCENARIOS) == [
        "periodic-shift",
        "ping-pong",
        "flash-crowd",
        "mixed-olap-point",
        "trickle-append",
    ]
    with pytest.raises(KeyError):
        build_scenario("no-such-scenario")


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_deterministic_and_parseable(name):
    a = build_scenario(name, seed=7)
    b = build_scenario(name, seed=7)
    assert a.ops == b.ops
    assert a.make_table().column("a1").tolist() == (
        b.make_table().column("a1").tolist()
    )
    # Different seeds move the literals (and usually the hot sets).
    assert a.ops != build_scenario(name, seed=8).ops
    for sql in a.queries:
        query = parse_query(sql)  # must not raise
        assert query.table == a.table_name
    for op in a.ops:
        if op[0] == "append":
            batch = a.append_batch(op[1], op[2])
            assert len(batch) == a.num_attrs
            assert all(len(v) == op[2] for v in batch.values())
            same = a.append_batch(op[1], op[2])
            assert all(
                (batch[k] == same[k]).all() for k in batch
            )


def test_describe_mentions_stream_shape():
    scenario = build_scenario("trickle-append", seed=0)
    text = scenario.describe()
    assert "trickle-append" in text
    assert "appends" in text


def test_smoke_replay_both_policies():
    """Tier-1 gate: one short scenario, hedge 0 and 2, bit-identical."""
    outcome = scenario_case(
        "ping-pong", seed=0, phases=3, phase_len=8, num_rows=512
    )
    assert outcome.queries_checked == 48  # 24 queries x 2 factors
    assert set(outcome.reorgs) == {0.0, 2.0}
    assert outcome.reorgs[2.0] <= outcome.reorgs[0.0]


@pytest.mark.scenario
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_full_pack_replay(name):
    """The full scenario-replay oracle gate (dedicated CI job)."""
    outcome = scenario_case(name, seed=0)
    assert outcome.queries_checked > 0
    assert outcome.reorgs[2.0] <= outcome.reorgs[0.0]


@pytest.mark.scenario
def test_full_pack_replay_reseeded():
    for name in SCENARIOS:
        outcome = scenario_case(name, seed=11)
        assert outcome.queries_checked > 0
