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
    and in-memory (as in the paper), so ``io_bandwidth`` models memory
    bandwidth for sequential scans and ``miss_penalty`` the cost of one
    data-cache miss.
    """

    cache_line_bytes: int = CACHE_LINE_BYTES
    word_bytes: int = WORD_BYTES
    #: Sequential scan bandwidth in bytes/second (memory-resident data).
    io_bandwidth: float = 8e9
    #: Random access bandwidth in bytes/second (gather-style access).
    random_io_bandwidth: float = 1e9
    #: Seconds of CPU stall per data-cache miss.
    miss_penalty: float = 1.2e-8
    #: Seconds of CPU work per value actually processed (predicate or
    #: arithmetic evaluation on one word).
    cpu_per_word: float = 1.5e-9

    @property
    def words_per_line(self) -> int:
        """How many attribute values fit in one cache line."""
        return self.cache_line_bytes // self.word_bytes


@dataclass(frozen=True)
class EngineConfig:
    """Tunable knobs of the H2O engine.

    The defaults mirror the paper's experimental setup: an initial
    monitoring window of 20 queries (section 4.1) that adapts between
    ``min_window`` and ``max_window``, vectors sized to fit L1 (section
    3.3), and lazy layout materialization enabled.
    """

    #: Initial size (in queries) of the monitoring window.
    window_size: int = 20
    #: Lower bound for the dynamic window.
    min_window: int = 8
    #: Upper bound for the dynamic window.
    max_window: int = 60
    #: Whether the window adapts to workload shifts (Fig. 9 ablation).
    dynamic_window: bool = True
    #: Number of tuples per execution vector (sized for cache locality).
    vector_size: int = 4096
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
    #: plan enumeration, Eq. 2 costing and codegen-key construction and
    #: goes straight to the cached kernel with fresh literals.
    plan_cache: bool = True
    #: Whether to use on-the-fly generated operators at all; when False the
    #: engine falls back to the generic interpreted operator (Fig. 14).
    use_codegen: bool = True
    #: Minimum windowed pattern frequency needed before a candidate
    #: layout may be materialized (its expected net gain must also be
    #: positive, so this is a floor, not the whole amortization test).
    amortization_threshold: float = 1.0
    #: Which layout-switching policy gates materialization:
    #: - "greedy-paper" (the paper's H2O): any candidate that covers the
    #:   query, clears ``amortization_threshold`` and has positive
    #:   expected gain is built immediately — reorganizations are paid
    #:   up front with no guarantee they amortize;
    #: - "guarded": the regret-bounded policy (docs/adaptation.md).  A
    #:   per-candidate ledger accrues the Eq. 2 benefit the candidate
    #:   *would have delivered* on each query it covers; the build is
    #:   deferred until accrued benefit reaches ``hedging_factor`` times
    #:   the projected build cost, bounding total reorganization spend
    #:   to a constant factor of the benefit actually observed (the
    #:   ski-rental discipline of arXiv 2405.04984).
    adaptation_policy: str = "greedy-paper"
    #: The guarded policy's hedging factor: accrued estimated benefit
    #: must reach this multiple of a candidate's projected build cost
    #: before the switch is allowed.  0 makes the guarded policy
    #: decision-identical to greedy; larger values trade adaptation
    #: latency for thrash resistance.  Ignored under "greedy-paper".
    hedging_factor: float = 2.0
    #: Where adaptation work (advisor runs and layout materialization)
    #: happens:
    #: - "inline" (the paper-faithful default): the advisor runs on the
    #:   query path when the window elapses and new layouts are built
    #:   *online*, fused with the triggering query — all adaptation cost
    #:   is charged to that query's response time;
    #: - "background": queries only *signal* that adaptation is due; a
    #:   background scheduler (see :mod:`repro.service`) runs the
    #:   advisor and materializes layouts off the query path from a
    #:   pinned snapshot, publishing each finished layout atomically via
    #:   an epoch bump.  Queries never pay adaptation cost, at the price
    #:   of answering a few more queries from pre-adaptation layouts.
    #:   Without a scheduler attached the engine safely degrades to
    #:   inline behaviour.
    adaptation_mode: str = "inline"
    #: Whether per-morsel min/max zone maps are built (during lazy
    #: materialization's fused pass, on stitches and incrementally on
    #: appends) and consulted to skip non-qualifying morsels before
    #: dispatch and to discount scan cost in Eq. 1/Eq. 2 comparisons.
    zone_maps: bool = True
    #: Rows per morsel: the unit of scan execution, of parallel
    #: dispatch and of zone-map granularity — every scan is a loop over
    #: morsels, and partial results are combined in morsel-index order,
    #: so answer bits depend on the data and this value only.  Rounded
    #: up to a multiple of ``vector_size`` at construction so that the
    #: online reorganizer's fused block pass always aligns with morsel
    #: boundaries.
    morsel_rows: int = 65536
    #: Upper bound on threads one query's scan may occupy, including the
    #: calling thread; 0 means "use every usable core", 1 means serial
    #: (the morsel loop runs on the caller).  A scan fans out as soon as
    #: two morsels survive pruning.  The process-wide scan pool further
    #: deducts threads busy on behalf of other queries (service workers
    #: register their load), so a saturated service degrades toward one
    #: thread per query instead of oversubscribing.
    max_scan_threads: int = 0
    #: Storage budget in bytes for the table *including* replicated
    #: groups; 0 means unlimited.  When a new layout pushes the table
    #: past the budget, the least-used replicated groups are retired
    #: (attribute coverage is never broken).
    max_table_bytes: int = 0
    #: Whether the advisor may propose *row reordering*: clustering a
    #: table on its hottest WHERE attribute during reorganization so
    #: zone maps over the sorted prefix prune near-perfectly.  Appends
    #: stay correct by growing an unclustered tail; only the clustered
    #: prefix earns the pruning discount (``clustered_fraction``).
    adaptive_clustering: bool = False
    #: Whether the advisor may propose encoded column layouts
    #: (dictionary / bit-packed replicas whose kernels filter directly
    #: on the codes and decode only qualifying rows).
    encoded_layouts: bool = False
    #: Tables below this many rows are never clustering candidates
    #: (a sort of a small table costs more than it will ever save).
    cluster_rows_min: int = 4096
    #: Columns below this many rows are never encoding candidates.
    encoding_min_rows: int = 4096
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
        if self.vector_size <= 0:
            raise AdaptationError("vector_size must be positive")
        if self.materialization not in ("lazy", "eager", "never"):
            raise AdaptationError(
                "materialization must be 'lazy', 'eager' or 'never', got "
                f"{self.materialization!r}"
            )
        if self.adaptation_policy not in ("greedy-paper", "guarded"):
            raise AdaptationError(
                "adaptation_policy must be 'greedy-paper' or 'guarded', "
                f"got {self.adaptation_policy!r}"
            )
        if self.hedging_factor < 0:
            raise AdaptationError(
                f"hedging_factor must be >= 0, got {self.hedging_factor}"
            )
        if self.adaptation_mode not in ("inline", "background"):
            raise AdaptationError(
                "adaptation_mode must be 'inline' or 'background', got "
                f"{self.adaptation_mode!r}"
            )
        if self.morsel_rows <= 0:
            raise AdaptationError(
                f"morsel_rows must be positive, got {self.morsel_rows}"
            )
        if self.morsel_rows % self.vector_size != 0:
            # Align upward so the reorganizer's fused vector_size blocks
            # never straddle a morsel boundary (frozen dataclass, hence
            # object.__setattr__ in __post_init__).
            blocks = -(-self.morsel_rows // self.vector_size)
            object.__setattr__(
                self, "morsel_rows", blocks * self.vector_size
            )
        if self.max_scan_threads < 0:
            raise AdaptationError(
                f"max_scan_threads must be >= 0 (0 = all usable cores), "
                f"got {self.max_scan_threads}"
            )
        if self.cluster_rows_min < 0:
            raise AdaptationError(
                f"cluster_rows_min must be >= 0, got {self.cluster_rows_min}"
            )
        if self.encoding_min_rows < 0:
            raise AdaptationError(
                f"encoding_min_rows must be >= 0, got "
                f"{self.encoding_min_rows}"
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
    #: allocating a fresh session/quota/metrics label each — bounding
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
