"""The knob count is a conscious diff, not drift."""

from dataclasses import fields

from repro.config import EngineConfig, GatewayConfig


def test_knob_count_is_pinned():
    # Every independently settable field doubles the configurations that
    # tests and benchmarks must cover.  Raising this number needs the
    # justification the simplicity guide asks for: two callers or
    # workloads that exist today (tests and examples do not count) and
    # need *different* values — otherwise use a constant, or derive the
    # value from the inputs.  Lowering it is always welcome.
    assert len(fields(EngineConfig)) + len(fields(GatewayConfig)) == 55
