"""Engine and experiment configuration.

The paper runs on a fixed server (Sandy Bridge Xeon, 64KB L1 / 256KB L2 /
20MB L3, 128 GB RAM).  We expose the equivalent machine parameters as an
explicit :class:`MachineProfile` consumed by the cost model, and the H2O
engine knobs (window size, vector size, adaptation thresholds) as an
:class:`EngineConfig`.

Experiment scale is controlled by the ``H2O_SCALE`` environment variable:
the benchmark harness multiplies its default row counts by this factor so
the full paper-style sweeps can be run at laptop scale (default) or
larger.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from .errors import AdaptationError

#: Number of bytes in one cache line on the modelled machine.
CACHE_LINE_BYTES = 64

#: Width in bytes of the fixed-length attribute values (int64/float64).
WORD_BYTES = 8


@dataclass(frozen=True)
class MachineProfile:
    """Analytic machine model used by the cost model (paper section 3.5).

    The paper's cost model combines sequential/random I/O bandwidth with a
    CPU cost derived from data-cache misses.  All our experiments are hot
    and in-memory (as in the paper), so the bandwidths are memory
    bandwidths.  The four rates are per-unit prices of the NumPy passes
    the generated kernels run (see :mod:`repro.core.cost_model`); the
    defaults were fitted on a 2-vCPU Xeon host by ``python -m repro.bench
    calibrate`` (docs/cost_model.md), which refits them for any host.
    """

    cache_line_bytes: int = CACHE_LINE_BYTES
    word_bytes: int = WORD_BYTES
    #: Bytes/second a contiguous (unit-stride) vector pass streams.
    io_bandwidth: float = 2.3e10
    #: Bytes/second a strided pass moves: one attribute read out of a
    #: row-major group drags ``min(width * word, line)`` bytes per value.
    random_io_bandwidth: float = 1.9e10
    #: Seconds per cache line a gather (``col[sel]``, ``take``) touches.
    miss_penalty: float = 4.9e-9
    #: Seconds per value gathered, reduced or position-listed.
    cpu_per_word: float = 5.4e-10

    @property
    def words_per_line(self) -> int:
        """How many attribute values fit in one cache line."""
        return self.cache_line_bytes // self.word_bytes


@dataclass(frozen=True)
class EngineConfig:
    """Tunable knobs of the H2O engine.

    The defaults mirror the paper's experimental setup: an initial
    monitoring window of 20 queries (section 4.1) that adapts between
    ``min_window`` and ``max_window``, and lazy layout materialization
    enabled.
    """

    #: Initial size (in queries) of the monitoring window.
    window_size: int = 20
    #: Lower bound for the dynamic window.
    min_window: int = 8
    #: Upper bound for the dynamic window.  With ``min_window ==
    #: max_window`` the window is static (Fig. 9's baseline).
    max_window: int = 60
    #: How proposed layouts get materialized:
    #: - "lazy" (the paper's H2O): built inside the first query that
    #:   benefits, fused with its execution (online reorganization);
    #: - "eager": built offline the moment the advisor proposes them
    #:   (the create-then-query discipline Fig. 13 shows is slower);
    #: - "never": candidates are proposed but nothing is built (pure
    #:   strategy adaptation — an ablation mode).
    materialization: str = "lazy"
    #: Whether generated operators are cached and reused.
    operator_cache: bool = True
    #: Whether the engine keeps a signature-keyed plan cache (the
    #: steady-state fast lane): a repeat query shape skips analysis,
    #: zone-map binding, plan enumeration, Eq. 2 costing and code
    #: generation, and runs its cached kernel with its own literals.
    plan_cache: bool = True
    #: Whether to use on-the-fly generated operators at all; when False the
    #: engine falls back to the generic interpreted operator (Fig. 14).
    use_codegen: bool = True
    #: The layout-switching policy's hedge (docs/adaptation.md).  A
    #: per-candidate ledger accrues the Eq. 2 benefit the candidate
    #: *would have delivered* on each query it covers; the build is
    #: deferred until accrued benefit reaches this multiple of the
    #: projected build cost, bounding total reorganization spend to a
    #: constant factor of the benefit actually observed (the ski-rental
    #: discipline of arXiv 2405.04984).  0 (the paper's H2O) keeps the
    #: gate open: any candidate that covers the query and has positive
    #: expected gain is built immediately.  Larger values trade
    #: adaptation latency for thrash resistance.
    hedging_factor: float = 0.0
    #: Whether per-morsel min/max zone maps are built (per attribute, on
    #: a predicate's first consultation, and extended on appends) and
    #: consulted to skip non-qualifying morsels before dispatch and to
    #: discount scan cost in Eq. 1/Eq. 2 comparisons.
    zone_maps: bool = True
    #: Rows per morsel: the unit of scan execution, of parallel
    #: dispatch and of zone-map granularity — every scan is a loop over
    #: morsels, and partial results are combined in morsel-index order,
    #: so answer bits depend on the data and this value only.
    morsel_rows: int = 65536
    #: Upper bound on threads one query's scan may occupy, including the
    #: calling thread; 0 means "use every usable core", 1 means serial
    #: (the morsel loop runs on the caller).  A scan fans out as soon as
    #: two morsels survive pruning.  The process-wide scan pool further
    #: deducts threads busy on behalf of other queries (service workers
    #: register their load), so a saturated service degrades toward one
    #: thread per query instead of oversubscribing.
    max_scan_threads: int = 0
    #: Machine model used for all cost estimation.
    machine: MachineProfile = field(default_factory=MachineProfile)

    def __post_init__(self) -> None:
        if self.window_size <= 0:
            raise AdaptationError("window_size must be positive")
        if not (0 < self.min_window <= self.window_size <= self.max_window):
            raise AdaptationError(
                "window bounds must satisfy 0 < min_window <= window_size "
                f"<= max_window, got {self.min_window} <= {self.window_size}"
                f" <= {self.max_window}"
            )
        if self.materialization not in ("lazy", "eager", "never"):
            raise AdaptationError(
                "materialization must be 'lazy', 'eager' or 'never', got "
                f"{self.materialization!r}"
            )
        if not (
            math.isfinite(self.hedging_factor) and self.hedging_factor >= 0
        ):
            # NaN or inf would close the gate forever: the engine would
            # silently stop adapting.
            raise AdaptationError(
                "hedging_factor must be finite and >= 0, got "
                f"{self.hedging_factor}"
            )
        if self.morsel_rows <= 0:
            raise AdaptationError(
                f"morsel_rows must be positive, got {self.morsel_rows}"
            )
        if self.max_scan_threads < 0:
            raise AdaptationError(
                f"max_scan_threads must be >= 0 (0 = all usable cores), "
                f"got {self.max_scan_threads}"
            )

    def with_overrides(self, **kwargs: object) -> "EngineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the network gateway and its durability tier.

    Orthogonal to :class:`EngineConfig` (which shapes the engines the
    gateway serves): these control the HTTP surface, per-tenant
    admission, group commit, and the WAL/snapshot cadence.  See
    docs/gateway.md.
    """

    #: Interface the asyncio server binds; port 0 asks the OS for a free
    #: port (the bound port is reported by :attr:`Gateway.port`).
    host: str = "127.0.0.1"
    port: int = 8080
    #: Maximum in-flight requests *per tenant* (admission quota on top
    #: of the service-wide bound); excess requests get HTTP 429 so one
    #: hot tenant cannot starve the rest.
    tenant_quota: int = 16
    #: Distinct API keys that may hold their own tenant state.  Beyond
    #: the cap, new keys share one ``tenant-overflow`` tenant instead of
    #: allocating a fresh quota/metrics label each — bounding
    #: memory and metrics cardinality against key-spray clients.
    max_tenants: int = 64
    #: Optional API-key allowlist.  ``None`` (the default) accepts any
    #: key; a tuple rejects requests whose key is not listed with
    #: HTTP 401 before any tenant state is allocated.  Requests with no
    #: key at all always map to the shared ``public`` tenant.
    api_keys: "tuple[str, ...] | None" = None
    #: Default per-request deadline in seconds; a request body may lower
    #: or raise its own via ``timeout_ms``.
    default_timeout: float = 30.0
    #: Largest accepted request body (bytes); HTTP 413 beyond it.
    max_body_bytes: int = 16 * 1024 * 1024
    #: Whether creates/appends are logged to the WAL before being
    #: applied (the durability ablation knob for benchmarks).
    wal_enabled: bool = True
    #: Whether each group commit fsyncs the WAL (off = OS-buffered
    #: writes; acked appends may be lost on machine crash but not on
    #: process crash).
    wal_fsync: bool = True
    #: Automatic checkpoint every N WAL records; 0 = manual
    #: checkpoints only.
    snapshot_every_records: int = 1024
    #: Completed snapshots retained on disk (older ones are pruned).
    snapshots_keep: int = 2

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise AdaptationError(f"port must be in [0, 65535], got {self.port}")
        if self.tenant_quota <= 0:
            raise AdaptationError(
                f"tenant_quota must be positive, got {self.tenant_quota}"
            )
        if self.default_timeout <= 0:
            raise AdaptationError(
                f"default_timeout must be positive, got {self.default_timeout}"
            )
        if self.max_body_bytes <= 0:
            raise AdaptationError(
                f"max_body_bytes must be positive, got {self.max_body_bytes}"
            )
        if self.snapshot_every_records < 0:
            raise AdaptationError(
                "snapshot_every_records must be >= 0 (0 = manual), got "
                f"{self.snapshot_every_records}"
            )
        if self.snapshots_keep < 1:
            raise AdaptationError(
                f"snapshots_keep must be >= 1, got {self.snapshots_keep}"
            )
        if self.max_tenants < 1:
            raise AdaptationError(
                f"max_tenants must be >= 1, got {self.max_tenants}"
            )
        if self.api_keys is not None and not all(
            isinstance(k, str) and k for k in self.api_keys
        ):
            raise AdaptationError(
                "api_keys must be non-empty strings (or None to accept "
                "any key)"
            )

    def with_overrides(self, **kwargs: object) -> "GatewayConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def scale_factor() -> float:
    """Experiment scale multiplier, from the ``H2O_SCALE`` env variable."""
    raw = os.environ.get("H2O_SCALE", "1.0")
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"H2O_SCALE must be a number, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"H2O_SCALE must be positive, got {value}")
    return value


def scaled_rows(base_rows: int, minimum: int = 1000) -> int:
    """Scale a benchmark's default row count by :func:`scale_factor`."""
    return max(minimum, int(base_rows * scale_factor()))
