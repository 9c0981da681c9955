"""A small synchronous client for the gateway (stdlib ``http.client``).

Used by the tests, the benchmark harness and the CI smoke driver; it is
also a reasonable reference for real callers.  One client holds one
keep-alive connection and is **not** thread-safe — concurrency benches
open one client per thread, mirroring real connection-per-worker use.
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, List, Mapping, Optional, Sequence

from ..errors import GatewayError
from .http import API_KEY_HEADER


class GatewayHTTPError(GatewayError):
    """A non-2xx response, carrying the decoded error payload."""

    def __init__(self, status: int, payload: Mapping[str, object]) -> None:
        self.status = status
        self.payload = dict(payload)
        super().__init__(
            f"HTTP {status}: {payload.get('error', '?')}: "
            f"{payload.get('message', '')}"
        )
        self.is_retryable = bool(payload.get("retryable", False))


class GatewayClient:
    """Synchronous JSON client over one keep-alive connection."""

    def __init__(
        self,
        host: str,
        port: int,
        api_key: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers[API_KEY_HEADER] = api_key

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
        raise_for_status: bool = True,
    ):
        payload = json.dumps(body).encode("utf-8") if body is not None else None
        self._conn.request(method, path, body=payload, headers=self._headers)
        response = self._conn.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        if content_type.startswith("application/json"):
            decoded: object = json.loads(raw) if raw else {}
        else:
            decoded = raw.decode("utf-8")
        if raise_for_status and not 200 <= response.status < 300:
            if isinstance(decoded, dict):
                raise GatewayHTTPError(response.status, decoded)
            raise GatewayHTTPError(
                response.status, {"error": "http", "message": str(decoded)}
            )
        return response.status, decoded

    # -- API ---------------------------------------------------------------

    def create_table(
        self,
        name: str,
        attributes: Sequence[Mapping[str, str]],
        columns: Optional[Mapping[str, Sequence]] = None,
    ) -> Dict[str, object]:
        body: Dict[str, object] = {"attributes": list(attributes)}
        if columns is not None:
            body["columns"] = {k: list(v) for k, v in columns.items()}
        _, decoded = self._request("PUT", f"/v1/tables/{name}", body)
        return decoded  # type: ignore[return-value]

    def append(
        self, name: str, columns: Mapping[str, Sequence]
    ) -> Dict[str, object]:
        _, decoded = self._request(
            "POST",
            f"/v1/tables/{name}/append",
            {"columns": {k: list(v) for k, v in columns.items()}},
        )
        return decoded  # type: ignore[return-value]

    def query(
        self, sql: str, timeout_ms: Optional[float] = None
    ) -> Dict[str, object]:
        body: Dict[str, object] = {"sql": sql}
        if timeout_ms is not None:
            body["timeout_ms"] = timeout_ms
        _, decoded = self._request("POST", "/v1/query", body)
        return decoded  # type: ignore[return-value]

    def tables(self) -> List[Dict[str, object]]:
        _, decoded = self._request("GET", "/v1/tables")
        return decoded["tables"]  # type: ignore[index,return-value]

    def checkpoint(self) -> Dict[str, object]:
        _, decoded = self._request("POST", "/v1/checkpoint")
        return decoded  # type: ignore[return-value]

    def healthz(self, raise_for_status: bool = False):
        """(status_code, health payload); 503 is a *valid* answer."""
        return self._request(
            "GET", "/healthz", raise_for_status=raise_for_status
        )

    def metrics(self) -> str:
        _, decoded = self._request("GET", "/metrics")
        return str(decoded)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
