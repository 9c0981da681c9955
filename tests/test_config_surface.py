"""The knob count is a conscious diff, not drift."""

import re
from dataclasses import fields
from pathlib import Path

from repro.config import EngineConfig, GatewayConfig

ROOT = Path(__file__).resolve().parents[1]

#: Fields nothing needs to vary: where the process listens and how much
#: it accepts are the deployer's, not a workload's.
DEPLOYMENT_ALLOWLIST = {
    "host",  # bind address
    # Safety limit on outside input (HTTP 413); also read, at its
    # default, by benchmarks/e2e/probes.py.
    "max_body_bytes",
}


def test_knob_count_is_pinned():
    # Every independently settable field doubles the configurations that
    # tests and benchmarks must cover.  Raising this number needs the
    # justification the simplicity guide asks for: two callers or
    # workloads that exist today (tests and examples do not count) and
    # need *different* values — otherwise use a constant, or derive the
    # value from the inputs.  Lowering it is always welcome.
    assert len(fields(EngineConfig)) + len(fields(GatewayConfig)) == 33


def test_every_field_is_varied_or_allowlisted():
    # A field that no test, bench or experiment ever sets has one value
    # in use: it is a constant wearing a knob's clothes.  Either vary it
    # somewhere, move it next to the code that reads it, or — for a
    # deployment/safety setting only — allowlist it above with a reason.
    sources = [
        path
        for pattern in (
            "tests/*.py",
            "benchmarks/bench_*.py",
            "src/repro/bench/**/*.py",
            "src/repro/testkit/*.py",
            "examples/*.py",
        )
        for path in ROOT.glob(pattern)
        if path != Path(__file__).resolve()
    ]
    text = "\n".join(path.read_text() for path in sources)
    names = [f.name for f in fields(EngineConfig) + fields(GatewayConfig)]
    unvaried = [
        name
        for name in names
        if name not in DEPLOYMENT_ALLOWLIST
        and not re.search(rf'\b{name}\s*=(?!=)|"{name}":', text)
    ]
    assert unvaried == []
    assert DEPLOYMENT_ALLOWLIST <= set(names)  # no stale allowlist entries
