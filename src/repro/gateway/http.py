"""Minimal HTTP/1.1 on top of asyncio streams.

Just enough protocol for the gateway's JSON API — request-line +
headers + ``Content-Length`` bodies, keep-alive by default — with hard
limits on line, header and body sizes so a misbehaving client cannot
balloon memory.  Deliberately not a web framework: the gateway has five
routes and no need for chunked encoding, multipart, or TLS (terminate
TLS in front if needed).
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import BadRequestError

#: Request header carrying the tenant's API key (client and server).
API_KEY_HEADER = "x-api-key"

#: Hard parser limits (pre-body); the body limit is configured.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
MAX_HEADERS = 100

#: Reason phrases for the statuses the gateway emits.
REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class HTTPError(BadRequestError):
    """A protocol-level failure with the status it should map to."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True

    def json(self) -> object:
        """The body decoded as JSON (400 on malformed input)."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HTTPError(400, f"request body is not valid JSON: {exc}")

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


async def read_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[Request]:
    """Parse one request; ``None`` on clean EOF between requests."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # connection closed between requests
        raise HTTPError(400, "truncated request line")
    except asyncio.LimitOverrunError:
        raise HTTPError(400, "request line too long")
    if len(line) > MAX_REQUEST_LINE:
        raise HTTPError(400, "request line too long")
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3:
        raise HTTPError(400, f"malformed request line: {line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.1", "HTTP/1.0"):
        raise HTTPError(400, f"unsupported protocol version {version!r}")
    # Strip any query string; the API carries parameters in JSON bodies.
    path = target.split("?", 1)[0]

    headers: Dict[str, str] = {}
    total = 0
    while True:
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise HTTPError(400, "truncated headers")
        if raw == b"\r\n":
            break
        total += len(raw)
        if total > MAX_HEADER_BYTES or len(headers) >= MAX_HEADERS:
            raise HTTPError(400, "headers too large")
        text = raw.decode("latin-1").rstrip("\r\n")
        name, sep, value = text.partition(":")
        if not sep:
            raise HTTPError(400, f"malformed header line: {text!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise HTTPError(411, "chunked bodies are not supported")
    body = b""
    length_raw = headers.get("content-length")
    if length_raw is not None:
        try:
            length = int(length_raw)
        except ValueError:
            raise HTTPError(400, f"bad content-length {length_raw!r}")
        if length < 0:
            raise HTTPError(400, "negative content-length")
        if length > max_body_bytes:
            raise HTTPError(
                413, f"body of {length} bytes exceeds {max_body_bytes}"
            )
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HTTPError(400, "connection closed mid-body")

    connection = headers.get("connection", "").lower()
    keep_alive = (
        connection != "close"
        if version == "HTTP/1.1"
        else connection == "keep-alive"
    )
    return Request(method, path, headers, body, keep_alive)


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    keep_alive: bool = True,
) -> bytes:
    """Serialize one response (Content-Length framing, no chunking)."""
    reason = REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body


def json_response(
    status: int, payload: object, keep_alive: bool = True
) -> bytes:
    return render_response(
        status,
        json.dumps(payload).encode("utf-8"),
        keep_alive=keep_alive,
    )


def split_path(path: str) -> Tuple[str, ...]:
    """``/v1/tables/t/append`` → ``("v1", "tables", "t", "append")``."""
    return tuple(part for part in path.split("/") if part)
