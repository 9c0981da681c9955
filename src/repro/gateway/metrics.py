"""Prometheus text exposition for ``GET /metrics``.

Renders the classic ``text/plain; version=0.0.4`` format by hand (no
client library): ``# HELP``/``# TYPE`` preamble per family, one sample
per line, labels escaped.  Sources: :class:`~repro.service.ServiceStats`
(latency percentiles, completion counters), the gateway's per-endpoint
request counters, per-tenant counters, the WAL/snapshot counters of the
:class:`~repro.gateway.persist.DurableStore`, and the health rung.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _sample(
    name: str, labels: Mapping[str, str], value: object
) -> str:
    if labels:
        inner = ",".join(
            f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{inner}}} {value}"
    return f"{name} {value}"


class MetricsRenderer:
    """Accumulates families then renders one exposition document."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def family(
        self,
        name: str,
        kind: str,
        help_text: str,
        samples: Iterable[Tuple[Mapping[str, str], object]],
    ) -> None:
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            self._lines.append(_sample(name, labels, value))

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


_HEALTH_RUNG = {"healthy": 0, "degraded": 1, "closed": 2}


def render_metrics(
    service_stats: Mapping[str, float],
    endpoint_counters: Mapping[Tuple[str, int], int],
    tenant_stats: Mapping[str, Mapping[str, object]],
    store_stats: Mapping[str, object],
    health_status: str,
    batcher_stats: Mapping[str, int],
    engine_stats: Mapping[str, Mapping[str, object]] = {},
) -> str:
    """The whole ``/metrics`` document as one string."""
    out = MetricsRenderer()
    out.family(
        "h2o_gateway_requests_total",
        "counter",
        "HTTP requests served, by endpoint and status code.",
        (
            ({"endpoint": endpoint, "status": str(status)}, count)
            for (endpoint, status), count in sorted(
                endpoint_counters.items()
            )
        ),
    )
    out.family(
        "h2o_gateway_health_rung",
        "gauge",
        "Degradation rung: 0 healthy, 1 degraded, 2 closed.",
        [({}, _HEALTH_RUNG.get(health_status, 2))],
    )
    out.family(
        "h2o_gateway_append_batches_total",
        "counter",
        "Group-commit batches flushed by the append coalescer.",
        [({}, batcher_stats.get("batches", 0))],
    )
    out.family(
        "h2o_gateway_appends_coalesced_total",
        "counter",
        "Append requests that rode in a shared group-commit batch.",
        [({}, batcher_stats.get("items", 0))],
    )

    out.family(
        "h2o_service_queries_total",
        "counter",
        "Queries by outcome, as counted by ServiceStats.",
        (
            ({"outcome": key}, int(service_stats.get(key, 0)))
            for key in (
                "submitted",
                "completed",
                "rejected",
                "timeouts",
                "failed",
                "cancelled",
            )
        ),
    )
    out.family(
        "h2o_service_latency_seconds",
        "summary",
        "Query latency quantiles over the recent reservoir.",
        [
            ({"quantile": "0.5"}, service_stats.get("p50_ms", 0.0) / 1e3),
            ({"quantile": "0.99"}, service_stats.get("p99_ms", 0.0) / 1e3),
        ],
    )
    out.family(
        "h2o_service_in_flight",
        "gauge",
        "Queries currently admitted into the service.",
        [({}, int(service_stats.get("in_flight", 0)))],
    )

    out.family(
        "h2o_tenant_requests_total",
        "counter",
        "Gateway requests per tenant.",
        (
            ({"tenant": name}, int(stats.get("requests", 0)))
            for name, stats in sorted(tenant_stats.items())
        ),
    )
    out.family(
        "h2o_tenant_rejected_total",
        "counter",
        "Requests rejected at a tenant's own quota.",
        (
            ({"tenant": name}, int(stats.get("rejected_quota", 0)))
            for name, stats in sorted(tenant_stats.items())
        ),
    )
    out.family(
        "h2o_tenant_in_flight",
        "gauge",
        "In-flight requests per tenant.",
        (
            ({"tenant": name}, int(stats.get("in_flight", 0)))
            for name, stats in sorted(tenant_stats.items())
        ),
    )

    out.family(
        "h2o_wal_records_total",
        "counter",
        "Records appended to the write-ahead log.",
        [({}, int(store_stats.get("wal_records_written", 0)))],
    )
    out.family(
        "h2o_wal_bytes_total",
        "counter",
        "Bytes appended to the write-ahead log.",
        [({}, int(store_stats.get("wal_bytes_written", 0)))],
    )
    out.family(
        "h2o_wal_fsyncs_total",
        "counter",
        "fsync calls issued by the WAL (one per group commit).",
        [({}, int(store_stats.get("wal_fsyncs", 0)))],
    )
    out.family(
        "h2o_wal_group_commits_total",
        "counter",
        "Group-commit batches written to the WAL.",
        [({}, int(store_stats.get("wal_group_commits", 0)))],
    )
    out.family(
        "h2o_snapshot_checkpoints_total",
        "counter",
        "Completed store snapshots this process lifetime.",
        [({}, int(store_stats.get("checkpoints", 0)))],
    )
    out.family(
        "h2o_store_applied_lsn",
        "gauge",
        "Highest log sequence number applied to the store.",
        [({}, int(store_stats.get("applied_lsn", 0)))],
    )
    out.family(
        "h2o_store_tables",
        "gauge",
        "Registered tables.",
        [({}, int(store_stats.get("tables", 0)))],
    )

    out.family(
        "h2o_scan_morsels_total",
        "counter",
        "Morsels considered by zone-map pruning, per table engine.",
        (
            ({"table": name}, int(stats.get("morsels_total", 0)))
            for name, stats in sorted(engine_stats.items())
        ),
    )
    out.family(
        "h2o_scan_morsels_pruned_total",
        "counter",
        "Morsels skipped by zone-map pruning, per table engine.",
        (
            ({"table": name}, int(stats.get("morsels_pruned", 0)))
            for name, stats in sorted(engine_stats.items())
        ),
    )
    out.family(
        "h2o_table_pruned_fraction",
        "gauge",
        "Cumulative fraction of morsels pruned (1.0 = perfect).",
        (
            ({"table": name}, float(stats.get("pruned_fraction", 0.0)))
            for name, stats in sorted(engine_stats.items())
        ),
    )
    out.family(
        "h2o_table_layout_bytes",
        "gauge",
        "Bytes of rows held across the table's layouts (used).",
        (
            ({"table": name}, int(stats.get("layout_bytes", 0)))
            for name, stats in sorted(engine_stats.items())
        ),
    )
    out.family(
        "h2o_table_reserved_bytes",
        "gauge",
        "Bytes of layout capacity, append slack included (reserved).",
        (
            ({"table": name}, int(stats.get("reserved_bytes", 0)))
            for name, stats in sorted(engine_stats.items())
        ),
    )
    return out.render()
