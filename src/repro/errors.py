"""Exception hierarchy for the H2O reproduction.

Every error raised by the library derives from :class:`H2OError` so callers
can catch library failures with a single ``except`` clause while still
distinguishing the failure domain (SQL, storage, execution, codegen, ...).

**Transient vs. permanent.**  The hierarchy also classifies every error
by :attr:`H2OError.is_retryable`, the single signal the service's
retry/backoff decision consumes (see
:meth:`repro.service.H2OService._should_retry`):

- *transient* (``is_retryable = True``) — the failure is a property of
  the moment, not of the query: an aborted reorganization
  (:class:`ReorganizationError`), a timeout (:class:`QueryTimeoutError`),
  admission back-pressure (:class:`ServiceOverloadedError`).  Retrying
  the identical query later can succeed;
- *permanent* (``is_retryable = False``, the default) — the failure is a
  property of the query or the schema (:class:`ParseError`,
  :class:`AnalysisError`, :class:`SchemaError`, …): retrying the same
  bytes can only fail the same way, so the error surfaces immediately.
"""

from __future__ import annotations


class H2OError(Exception):
    """Base class for all errors raised by :mod:`repro`."""

    #: Whether retrying the same operation later can plausibly succeed.
    #: Permanent by default; transient subclasses override this.  The
    #: service's worker requeues retryable failures (bounded attempts +
    #: backoff) instead of forwarding them to the waiter.
    is_retryable: bool = False


class SQLError(H2OError):
    """Base class for query-representation and parsing errors."""


class ParseError(SQLError):
    """Raised when the SQL-subset parser rejects an input string.

    Attributes
    ----------
    message:
        Human readable description of the problem.
    position:
        Character offset in the input at which the error was detected,
        or ``None`` when the position is unknown.
    """

    def __init__(self, message: str, position: "int | None" = None) -> None:
        self.message = message
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class AnalysisError(SQLError):
    """Raised when a syntactically valid query fails semantic analysis.

    Examples: referencing an attribute that is not part of the schema,
    mixing aggregate and non-aggregate output expressions, or applying an
    aggregate to another aggregate.
    """


class StorageError(H2OError):
    """Base class for storage-layer errors (schemas, layouts, catalogs)."""


class SchemaError(StorageError):
    """Raised for malformed schemas: duplicate names, unknown attributes,
    unsupported data types, or empty attribute lists."""


class LayoutError(StorageError):
    """Raised when a layout is built or accessed inconsistently, e.g. a
    column group whose data width does not match its attribute list, or a
    partitioning that does not cover the schema."""


class CatalogError(StorageError):
    """Raised for catalog misuse: duplicate table registration or lookup
    of an unknown table."""


class ReorganizationError(StorageError):
    """Raised when a layout reorganization (stitch) aborts mid-build.

    The contract every caller upholds: an aborted stitch leaves the
    table's published layout set untouched (the partially built group is
    discarded), the triggering candidate stays eligible so the stitch is
    retried later, and — for online reorganization — the triggering
    query is still answered through ordinary cost-based planning.  The
    engine counts these aborts (``H2OEngine.reorg_aborts``); the testkit
    oracle asserts the count matches its injected faults, so a silently
    swallowed abort is detected.
    """

    #: Transient: a stitch aborted by a race or an injected fault can
    #: succeed on retry — the candidate stays eligible (under the
    #: engine's exponential-backoff quarantine, see docs/resilience.md).
    is_retryable = True


class ExecutionError(H2OError):
    """Raised when a physical plan cannot be executed, e.g. the available
    layouts do not cover the attributes a query needs."""


class CodegenError(H2OError):
    """Raised when operator generation fails: unknown template, a query
    shape the templates do not support, or generated source that does not
    compile."""


class CostModelError(H2OError):
    """Raised when the cost model is asked to cost an impossible access,
    e.g. a layout that does not contain the requested attributes."""


class AdaptationError(H2OError):
    """Raised by the adaptation mechanism for invalid configuration, e.g.
    a non-positive monitoring window."""


class WorkloadError(H2OError):
    """Raised by workload generators for invalid parameters, e.g. asking
    for more attributes than the schema has."""


class BenchmarkError(H2OError):
    """Raised by the benchmark harness, e.g. for an unknown experiment id."""


class ServiceError(H2OError):
    """Base class for errors raised by the concurrent query service."""


class ServiceOverloadedError(ServiceError):
    """Raised at admission time when the service's bounded queue is full.

    This is graceful back-pressure, not a failure of the store: the
    caller should retry later (or shed load).  The admission controller
    counts the rejection; nothing was executed.
    """

    #: Transient: back-pressure clears as in-flight queries drain.  The
    #: service never auto-retries *submissions* (the bound exists to
    #: shed load), but callers consuming :attr:`is_retryable` should
    #: back off and resubmit.
    is_retryable = True


class QueryTimeoutError(ServiceError):
    """Raised when a submitted query does not finish within its timeout.

    If the query had not started executing, it is cancelled and never
    runs; if it was already running, it completes in the background but
    its result is discarded.
    """

    #: Transient: a timeout is a property of the moment's load, not of
    #: the query.  The service's worker retries a timed-out execution
    #: only while the ticket's own deadline has not passed — a real
    #: deadline expiry still surfaces to the waiter immediately.
    is_retryable = True


class ServiceClosedError(ServiceError):
    """Raised when submitting to a service that has been shut down."""


class WALError(StorageError):
    """Base class for write-ahead-log failures (framing, I/O)."""


class WALCorruptionError(WALError):
    """Raised when a *committed* WAL record fails its CRC check.

    A truncated final record is the expected signature of a crash
    mid-write and is tolerated (the tail is discarded on recovery); a
    corrupt record **followed by further intact records** means the log
    itself is damaged — silently truncating there would drop writes that
    were acknowledged as durable, so recovery fails loudly instead and
    leaves the log untouched for inspection.
    """


class SnapshotError(StorageError):
    """Raised when a persisted snapshot is malformed or unreadable."""


class GatewayError(ServiceError):
    """Base class for errors raised by the network gateway."""


class BadRequestError(GatewayError):
    """Raised for malformed client input: bad JSON, a missing field, an
    invalid table name, or columns that do not match the schema.  Maps
    to HTTP 400; retrying the same bytes can only fail the same way."""


class AuthError(GatewayError):
    """Raised when a request presents an API key that is not in the
    gateway's configured allowlist (``GatewayConfig.api_keys``).  Maps
    to HTTP 401; no tenant state is allocated for the rejected key."""


class TenantQuotaError(GatewayError):
    """Raised at admission when one tenant's in-flight quota is full.

    Per-tenant back-pressure, not a store failure: other tenants are
    unaffected and this tenant should back off and resubmit.  Maps to
    HTTP 429.
    """

    #: Transient: the quota frees as the tenant's in-flight requests
    #: drain.
    is_retryable = True
