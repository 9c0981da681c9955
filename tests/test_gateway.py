"""In-process HTTP tests for the asyncio gateway.

The gateway runs on a private event loop in a background thread and
binds port 0 (a real ephemeral socket, not a mock), so these tests
exercise the full stack: HTTP parsing, routing, the executor bridge
onto the threaded service, group-commit coalescing, tenancy and the
error → status mapping.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from tests.conftest import wait_until
from repro.config import EngineConfig, GatewayConfig
from repro.gateway import DurableStore, Gateway, GatewayClient, GatewayHTTPError

ATTRS = [{"name": "a", "dtype": "int64"}, {"name": "f", "dtype": "float64"}]


@contextlib.contextmanager
def running_gateway(data_dir, **config_overrides):
    config_overrides.setdefault("port", 0)
    config_overrides.setdefault("snapshot_every_records", 0)
    config = GatewayConfig(**config_overrides)
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    store = DurableStore(
        data_dir,
        engine_config=EngineConfig(),
        gateway_config=config,
        num_workers=2,
    )
    gateway = Gateway(store, config)
    asyncio.run_coroutine_threadsafe(gateway.start(), loop).result(30)
    try:
        yield gateway
    finally:
        asyncio.run_coroutine_threadsafe(
            gateway.close(checkpoint=False), loop
        ).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


@pytest.fixture()
def gateway(tmp_path):
    with running_gateway(tmp_path / "data") as gw:
        yield gw


@pytest.fixture()
def client(gateway):
    with GatewayClient("127.0.0.1", gateway.port) as c:
        yield c


def seed_table(client, rows=50):
    rng = np.random.default_rng(0)
    client.create_table(
        "t",
        ATTRS,
        {
            "a": rng.integers(-100, 100, size=rows, dtype=np.int64).tolist(),
            "f": rng.standard_normal(rows).tolist(),
        },
    )


# ---------------------------------------------------------------------------
# The happy path, end to end
# ---------------------------------------------------------------------------


def test_full_round_trip(client):
    created = client.create_table("t", ATTRS, {"a": [1, 2, 3], "f": [0.5, 1.5, 2.5]})
    assert created["table"] == "t" and created["num_rows"] == 3

    appended = client.append("t", {"a": [4], "f": [3.5]})
    assert appended == {"table": "t", "appended": 1, "durable": True}

    answer = client.query("SELECT count(*), max(a), min(f) FROM t")
    assert answer["columns"] == ["count(*)", "max(a)", "min(f)"]
    assert answer["rows"] == [[4, 4, 0.5]]
    assert answer["num_rows"] == 1
    assert answer["tenant"] == "public"  # no API key -> default tenant
    assert answer["elapsed_ms"] >= 0

    tables = client.tables()
    assert tables == [{"name": "t", "num_rows": 4}]

    checkpoint = client.checkpoint()
    assert checkpoint["snapshot"].startswith("snap-")


def test_keep_alive_reuses_one_connection(client):
    seed_table(client)
    sock_before = client._conn.sock
    for _ in range(3):
        client.query("SELECT count(*) FROM t")
    assert client._conn.sock is sock_before


def test_query_timeout_maps_to_504(client):
    seed_table(client, rows=20000)
    with pytest.raises(GatewayHTTPError) as excinfo:
        client.query("SELECT sum((a + a)) FROM t", timeout_ms=1e-4)
    assert excinfo.value.status == 504
    assert excinfo.value.is_retryable


# ---------------------------------------------------------------------------
# Error mapping
# ---------------------------------------------------------------------------


def test_unknown_route_is_404(client):
    with pytest.raises(GatewayHTTPError) as excinfo:
        client._request("GET", "/v2/nope")
    assert excinfo.value.status == 404


def test_wrong_method_is_404(client):
    with pytest.raises(GatewayHTTPError) as excinfo:
        client._request("DELETE", "/v1/query")
    assert excinfo.value.status == 404


def test_query_unknown_table_is_404(client):
    with pytest.raises(GatewayHTTPError) as excinfo:
        client.query("SELECT count(*) FROM ghost")
    assert excinfo.value.status == 404
    assert excinfo.value.payload["error"] == "CatalogError"


def test_append_unknown_table_is_404(client):
    with pytest.raises(GatewayHTTPError) as excinfo:
        client.append("ghost", {"a": [1], "f": [1.0]})
    assert excinfo.value.status == 404


def test_sql_error_is_400(client):
    seed_table(client)
    with pytest.raises(GatewayHTTPError) as excinfo:
        client.query("SELEKT everything")
    assert excinfo.value.status == 400


def test_unbounded_sql_is_400(client):
    """A 20 000-conjunct WHERE (~290 KB) is refused by the parser's
    length bound: a 400, never a 500 from RecursionError."""
    seed_table(client)
    sql = "SELECT count(*) FROM t WHERE " + " AND ".join(
        f"a > {i}" for i in range(20_000)
    )
    with pytest.raises(GatewayHTTPError) as excinfo:
        client.query(sql)
    assert excinfo.value.status == 400
    assert client.query("SELECT count(*) FROM t WHERE a > 0")


def test_invalid_json_body_is_400(client):
    client._conn.request(
        "POST",
        "/v1/query",
        body=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    response = client._conn.getresponse()
    payload = json.loads(response.read())
    assert response.status == 400
    assert "JSON" in payload["message"]


def test_bad_table_name_is_400(client):
    with pytest.raises(GatewayHTTPError) as excinfo:
        client.create_table("1bad", ATTRS)
    assert excinfo.value.status == 400
    assert excinfo.value.payload["error"] == "BadRequestError"


def test_bad_timeout_is_400(client):
    seed_table(client)
    # Non-finite values are legal JSON numbers (1e999 parses to inf) and
    # used to pass the sign check: inf overflowed the deadline (500) and
    # NaN timed out at once (504), both after the query was queued.
    for bad in ("soon", -5, float("inf"), float("nan")):
        with pytest.raises(GatewayHTTPError) as excinfo:
            client.query("SELECT count(*) FROM t", timeout_ms=bad)
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "BadRequestError"


def test_ragged_append_is_400_and_not_applied(client):
    seed_table(client, rows=3)
    with pytest.raises(GatewayHTTPError) as excinfo:
        client.append("t", {"a": [1, 2], "f": [1.0]})
    assert excinfo.value.status == 400
    assert client.tables() == [{"name": "t", "num_rows": 3}]


# ---------------------------------------------------------------------------
# Tenancy
# ---------------------------------------------------------------------------


def test_api_keys_map_to_distinct_tenants(gateway, client):
    seed_table(client)
    with GatewayClient("127.0.0.1", gateway.port, api_key="alice") as alice:
        name = alice.query("SELECT count(*) FROM t")["tenant"]
    assert name.startswith("tenant-") and "alice" not in name  # digested
    with GatewayClient("127.0.0.1", gateway.port, api_key="bob") as bob:
        other = bob.query("SELECT count(*) FROM t")["tenant"]
    assert other != name
    assert set(gateway.tenants.tenants()) >= {name, other, "public"}


def test_tenant_quota_exhaustion_is_429(tmp_path):
    with running_gateway(tmp_path / "data", tenant_quota=1) as gateway:
        with GatewayClient("127.0.0.1", gateway.port, api_key="k") as client:
            seed_table(client)
            tenant = gateway.tenants.resolve("k")
            tenant.acquire()  # occupy the single slot out-of-band
            try:
                with pytest.raises(GatewayHTTPError) as excinfo:
                    client.query("SELECT count(*) FROM t")
            finally:
                tenant.release()
            assert excinfo.value.status == 429
            assert excinfo.value.is_retryable
            # after release the tenant is admitted again
            assert client.query("SELECT count(*) FROM t")["rows"] == [[50]]
            assert tenant.stats()["rejected_quota"] == 1


# ---------------------------------------------------------------------------
# Group commit
# ---------------------------------------------------------------------------


def test_concurrent_appends_coalesce_into_group_commits(tmp_path):
    """No timer: riders are whatever queued during the in-flight commit.

    The first append's commit is held until the other seven are queued
    behind it, so they must leave as exactly one more group commit.
    """
    with running_gateway(tmp_path / "data") as gateway:
        port = gateway.port
        with GatewayClient("127.0.0.1", port) as setup:
            setup.create_table("t", ATTRS)

        first_started = threading.Event()
        release_first = threading.Event()
        append_many = gateway.store.append_many

        def held_append_many(items):
            if not first_started.is_set():
                first_started.set()
                assert release_first.wait(30)
            return append_many(items)

        gateway.store.append_many = held_append_many

        def one_append(i):
            with GatewayClient("127.0.0.1", port) as c:
                return c.append("t", {"a": [i], "f": [float(i)]})

        with ThreadPoolExecutor(max_workers=8) as pool:
            try:
                futures = [pool.submit(one_append, 0)]
                assert first_started.wait(30)
                futures += [pool.submit(one_append, i) for i in range(1, 8)]
                wait_until(
                    lambda: gateway.batcher._queue.qsize() == 7,
                    message="seven riders queued behind the held commit",
                )
            finally:
                release_first.set()
            outcomes = [future.result(30) for future in futures]
        assert all(o["appended"] == 1 for o in outcomes)
        assert gateway.batcher.stats() == {"batches": 2, "items": 8}
        assert gateway.store.stats()["wal_fsyncs"] == 3  # create + 2
        with GatewayClient("127.0.0.1", port) as check:
            assert check.query("SELECT count(*) FROM t")["rows"] == [[8]]


# ---------------------------------------------------------------------------
# Health + metrics
# ---------------------------------------------------------------------------


def test_healthz_reports_healthy(client):
    status, payload = client.healthz()
    assert status == 200
    assert payload["status"] == "healthy"
    for key in ("degraded_queries", "codegen_fallbacks", "compiles_blocked"):
        assert payload[key] == 0
    assert "quarantines" not in payload


def test_metrics_exposition(client):
    seed_table(client)
    client.query("SELECT count(*) FROM t")
    with pytest.raises(GatewayHTTPError):
        client.query("SELECT count(*) FROM ghost")
    text = client.metrics()
    assert "# TYPE h2o_gateway_requests_total counter" in text
    assert 'h2o_gateway_requests_total{endpoint="query",status="200"}' in text
    assert 'h2o_gateway_requests_total{endpoint="query",status="404"}' in text
    assert "h2o_gateway_health_rung 0" in text
    assert "h2o_wal_records_total" in text
    assert 'tenant="public"' in text
    assert "h2o_store_tables 1" in text
    # the queried table's engine exports its pruning story
    assert 'h2o_scan_morsels_total{table="t"}' in text
    assert 'h2o_scan_morsels_pruned_total{table="t"}' in text
    assert 'h2o_table_pruned_fraction{table="t"}' in text
    # used vs reserved layout bytes: equal until an append adds slack
    assert 'h2o_table_layout_bytes{table="t"} 800' in text
    assert 'h2o_table_reserved_bytes{table="t"} 800' in text
    client.append("t", {"a": [1], "f": [1.0]})
    text = client.metrics()
    assert 'h2o_table_layout_bytes{table="t"} 816' in text
    assert 'h2o_table_reserved_bytes{table="t"} 1216' in text
    # every exposed family is well-formed: HELP/TYPE precede samples
    for line in text.splitlines():
        assert line.startswith("#") or " " in line


def test_allowlist_rejects_unknown_key_with_401(tmp_path):
    with running_gateway(tmp_path / "data", api_keys=("secret",)) as gateway:
        with GatewayClient(
            "127.0.0.1", gateway.port, api_key="secret"
        ) as ok:
            seed_table(ok)
            assert ok.query("SELECT count(*) FROM t")["rows"] == [[50]]
        tenants_before = len(gateway.tenants.tenants())
        with GatewayClient(
            "127.0.0.1", gateway.port, api_key="wrong"
        ) as bad:
            with pytest.raises(GatewayHTTPError) as excinfo:
                bad.query("SELECT count(*) FROM t")
        assert excinfo.value.status == 401
        # rejection happens before any tenant state is allocated
        assert len(gateway.tenants.tenants()) == tenants_before
        # anonymous requests still share the default tenant
        with GatewayClient("127.0.0.1", gateway.port) as anon:
            assert anon.query("SELECT count(*) FROM t")["tenant"] == "public"


def test_tenant_cap_overflows_to_shared_tenant(tmp_path):
    with running_gateway(tmp_path / "data", max_tenants=2) as gateway:
        with GatewayClient("127.0.0.1", gateway.port) as anon:
            seed_table(anon)
        names = []
        for key in ("k1", "k2", "k3", "k4"):
            with GatewayClient(
                "127.0.0.1", gateway.port, api_key=key
            ) as c:
                names.append(c.query("SELECT count(*) FROM t")["tenant"])
        assert len(set(names[:2])) == 2  # first two keys get isolation
        assert names[2] == names[3] == "tenant-overflow"
        # registry stays bounded: 2 keyed + default + overflow
        assert len(gateway.tenants.tenants()) == 4
