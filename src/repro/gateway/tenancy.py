"""Multi-tenant admission in front of the service.

Each distinct API key maps to a :class:`Tenant`: its own
:class:`~repro.service.AdmissionController` quota bounding *that
tenant's* in-flight requests, and the request and quota-rejection
counters ``/metrics`` labels by tenant.  Queries are counted once, by
the service's :class:`~repro.service.ServiceStats`.  The service-wide
admission bound still applies underneath — the tenant quota is the
fairness layer that keeps one hot tenant from consuming the whole
service-wide budget.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

from ..errors import AuthError, TenantQuotaError
from ..service import AdmissionController


class Tenant:
    """One API key's identity, quota and counters."""

    def __init__(self, name: str, quota: int) -> None:
        self.name = name
        self.admission = AdmissionController(quota)
        self._lock = threading.Lock()
        self.requests = 0
        self.rejected = 0

    def acquire(self) -> None:
        """Claim one in-flight slot or raise (HTTP 429)."""
        with self._lock:
            self.requests += 1
        if not self.admission.try_acquire():
            with self._lock:
                self.rejected += 1
            raise TenantQuotaError(
                f"tenant {self.name!r} is at its quota of "
                f"{self.admission.capacity} in-flight requests"
            )

    def release(self) -> None:
        self.admission.release()

    def stats(self) -> Dict[str, object]:
        with self._lock:
            snap: Dict[str, object] = {
                "requests": self.requests,
                "rejected_quota": self.rejected,
            }
        snap["in_flight"] = self.admission.in_flight
        return snap


class TenantRegistry:
    """API key → tenant, created on first use — but *bounded*.

    Tenant state (an admission quota, a ``/metrics`` label) is
    allocated per distinct key, so an unvalidated registry would let
    any client grow memory and metrics cardinality without limit by
    spraying fresh keys.  Two defenses:

    - an optional **allowlist** (``allowed_keys``): when configured,
      unknown keys are rejected with :class:`~repro.errors.AuthError`
      (HTTP 401) before any state is allocated;
    - a **cap** (``max_tenants``) on distinct keyed tenants: beyond it,
      new keys share one ``tenant-overflow`` tenant — they still get
      admission control, just not isolation from each other.

    Key material is never exposed: the tenant's public name is a short
    stable digest of the key (the default tenant keeps its plain name),
    so ``/metrics`` labels don't leak credentials.
    """

    #: Public name of the shared tenant handed to keys past the cap.
    OVERFLOW_NAME = "tenant-overflow"
    #: Public name of the tenant every request without a key shares.
    DEFAULT_NAME = "public"

    def __init__(
        self,
        quota: int,
        allowed_keys: Optional[Iterable[str]] = None,
        max_tenants: int = 64,
    ) -> None:
        self._quota = quota
        self._allowed = (
            None if allowed_keys is None else frozenset(allowed_keys)
        )
        self._max = max(1, int(max_tenants))
        self._lock = threading.Lock()
        self._tenants: Dict[str, Tenant] = {}
        self._keyed = 0  # tenants in _tenants with a non-empty key
        self._overflow: Optional[Tenant] = None

    @staticmethod
    def _public_name(key: str) -> str:
        import hashlib

        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:12]
        return f"tenant-{digest}"

    def resolve(self, api_key: Optional[str]) -> Tenant:
        """The tenant for one request's API key (anonymous → default)."""
        key = api_key or ""
        if key and self._allowed is not None and key not in self._allowed:
            raise AuthError("unknown API key")
        with self._lock:
            tenant = self._tenants.get(key)
            if tenant is not None:
                return tenant
            if key and self._keyed >= self._max:
                if self._overflow is None:
                    self._overflow = Tenant(self.OVERFLOW_NAME, self._quota)
                return self._overflow
            name = self._public_name(key) if key else self.DEFAULT_NAME
            tenant = Tenant(name, self._quota)
            self._tenants[key] = tenant
            if key:
                self._keyed += 1
            return tenant

    def tenants(self) -> Dict[str, Tenant]:
        """Public-name → tenant (a consistent copy)."""
        with self._lock:
            out = {t.name: t for t in self._tenants.values()}
            if self._overflow is not None:
                out[self._overflow.name] = self._overflow
            return out
