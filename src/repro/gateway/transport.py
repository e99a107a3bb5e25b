"""Gateway transports: in-process loopback and a threaded HTTP server.

Both transports speak the identical wire contract — a JSON
:class:`~repro.gateway.wire.ApiRequest` in, a JSON
:class:`~repro.gateway.wire.ApiResponse` out — and both route through
``Gateway.handle_envelope``, so swapping one for the other changes latency
and nothing else.  The loopback transport serializes through JSON even
though it never leaves the process: wire-faithfulness is the point, and it
is what makes "loopback and HTTP answers are bit-identical" a testable
invariant rather than a hope.

The HTTP side is stdlib-only (:class:`http.server.ThreadingHTTPServer` +
:class:`http.client.HTTPConnection`): POST the request envelope to ``/v2``;
the HTTP status code mirrors the taxonomy code's projection (200 / 400 /
404 / 429 / 503 / 504 / 500) while the body always carries the full
envelope.  Every reply — POST or GET — leaves as **one write**, header block
and body together, on a socket with ``TCP_NODELAY`` set (``http.client``
sets it on its side): two small writes with Nagle on is the shape the
client's delayed ACK holds back for ~40 ms, which used to be most of an HTTP
round trip here.  GET routes go through a registration table
(:meth:`GatewayHTTPServer.add_get_route`): ``/healthz`` answers the health
route for probes, ``/statsz`` the full unified stats schema as JSON, and
``/metrics`` the Prometheus text exposition of the gateway's telemetry
(scrape-driven sampling unless a background poller is attached).
"""

from __future__ import annotations

import abc
import http.client
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple, Union

from ..errors import ApiError, InvalidArgumentError, UnavailableError
from ..metrics import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..metrics import MetricsRegistry, TelemetryPoller
from ..records import json_line
from .gateway import Gateway
from .wire import ApiRequest, ApiResponse

__all__ = [
    "Transport",
    "LoopbackTransport",
    "HttpTransport",
    "GatewayHTTPServer",
    "serve_http",
]

#: The one resource the wire API lives under (version pinned in the path).
WIRE_PATH = "/v2"


class Transport(abc.ABC):
    """One hop to a gateway: an envelope goes in, an envelope comes back."""

    @abc.abstractmethod
    def send(self, request: ApiRequest) -> ApiResponse:
        """Deliver one request envelope; always returns a response envelope."""

    def close(self) -> None:
        """Release any connection state (idempotent)."""

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _SendFailed(Exception):
    """Internal marker: the POST failed before the request was accepted."""


class LoopbackTransport(Transport):
    """In-process transport through the full JSON wire path."""

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway

    def send(self, request: ApiRequest) -> ApiResponse:
        return ApiResponse.from_json(self.gateway.handle_json(request.to_json()))


class HttpTransport(Transport):
    """Client side of the HTTP wire: POST envelopes to a gateway server.

    One persistent connection, serialized by a lock (HTTP/1.1 keep-alive);
    a connection dropped between calls is re-established once.  Network
    failures surface as ``UNAVAILABLE`` — transient by definition, so a
    client-side retry middleware may re-attempt them.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = int(port)
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self._connection: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._connection

    def _post(self, body: bytes) -> bytes:
        connection = self._connect()
        try:
            connection.request(
                "POST",
                WIRE_PATH,
                body=body,
                headers={"Content-Type": "application/json"},
            )
        except (ConnectionError, BrokenPipeError, http.client.CannotSendRequest) as exc:
            # The request never made it out — safe to re-send once.
            raise _SendFailed() from exc
        response = connection.getresponse()
        # The envelope is authoritative; the HTTP status merely mirrors it.
        return response.read()

    def send(self, request: ApiRequest) -> ApiResponse:
        body = request.to_json().encode("utf-8")
        with self._lock:
            try:
                try:
                    raw = self._post(body)
                except _SendFailed:
                    # Stale keep-alive connection detected before any bytes
                    # were accepted: reconnect and re-send once.  Failures
                    # *after* the send (no response / dropped mid-response)
                    # are never silently replayed — the server may already
                    # have executed a non-idempotent call like personalize.
                    self._drop_connection()
                    raw = self._post(body)
            except _SendFailed as exc:
                self._drop_connection()
                raise UnavailableError(
                    f"gateway at {self.host}:{self.port} unreachable: "
                    f"{exc.__cause__}",
                    details={"exception": type(exc.__cause__).__name__},
                ) from exc.__cause__
            except (OSError, http.client.HTTPException) as exc:
                self._drop_connection()
                raise UnavailableError(
                    f"gateway at {self.host}:{self.port} failed mid-call "
                    f"(not retried: the request may have executed): {exc}",
                    details={"exception": type(exc).__name__},
                ) from exc
        return ApiResponse.from_json(raw.decode("utf-8"))

    def _drop_connection(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def close(self) -> None:
        with self._lock:
            self._drop_connection()


#: What a GET route handler may return: a wire envelope (replied with its
#: projected HTTP status) or a raw ``(status, content_type, body)`` triple.
GetRouteResult = Union[ApiResponse, Tuple[int, str, bytes]]


class _GatewayRequestHandler(BaseHTTPRequestHandler):
    """Maps HTTP onto the gateway wire contract (POST /v2 + the GET table)."""

    server_version = "repro-gateway/2"
    protocol_version = "HTTP/1.1"  # keep-alive, so HttpTransport can reuse
    #: TCP_NODELAY on every accepted socket: a small segment is never held
    #: back for the peer's (delayed, ~40 ms) ACK, however a reply is written.
    disable_nagle_algorithm = True

    def _reply(self, response: ApiResponse) -> None:
        self._reply_raw(
            response.http_status, "application/json", response.to_json().encode("utf-8")
        )

    def _reply_raw(self, status: int, content_type: str, body: bytes) -> None:
        """The one reply writer: header block and body leave in ONE write
        (``end_headers()`` then ``wfile.write(body)`` is two small segments on
        an unbuffered socket — the shape Nagle + delayed ACK stalls)."""
        phrase = self.responses.get(status, ("",))[0]
        head = (
            f"{self.protocol_version} {status} {phrase}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
        )
        self.wfile.write(head.encode("latin-1") + b"\r\n" + body)

    def _refuse(self, message: str) -> None:
        self._reply(ApiResponse.failure(None, InvalidArgumentError(message)))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        # Always drain the body first: an unread body would be parsed as the
        # next request line on this keep-alive connection.
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                raise ValueError(length)
        except ValueError:
            # The body's end is unknown, so this connection cannot be reused.
            self.close_connection = True
            self._refuse(
                "Content-Length must be a non-negative integer, got "
                f"{self.headers.get('Content-Length')!r}"
            )
            return
        raw = self.rfile.read(length)
        if self.path != WIRE_PATH:
            self._refuse(f"unknown path {self.path!r}; the API lives at {WIRE_PATH}")
            return
        self._reply(self.server.gateway.handle_envelope(raw))

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        handler = self.server.get_route(self.path)
        if handler is None:
            self._refuse(
                f"unknown path {self.path!r}; POST envelopes to {WIRE_PATH} "
                f"or GET one of {self.server.get_route_paths()}"
            )
            return
        try:
            result = handler()
        except ApiError as err:
            self._reply(ApiResponse.failure(None, err))
            return
        if isinstance(result, ApiResponse):
            self._reply(result)
        else:
            status, content_type, body = result
            self._reply_raw(status, content_type, body)

    def log_message(self, format: str, *args) -> None:
        """Silence the per-request stderr chatter (telemetry covers it)."""


class GatewayHTTPServer(ThreadingHTTPServer):
    """A gateway served over a socket by one thread per connection.

    Bind with ``port=0`` for an ephemeral port (what tests and CI do), read
    it back from :attr:`port`, and drive the server from a background thread
    with :meth:`start` / :meth:`stop` (or the context manager, which does
    both).  ``daemon_threads`` keeps stray keep-alive connections from
    wedging interpreter shutdown.

    GET routes share one registration table: ``/healthz`` (and
    ``/v2/health``) answer the health envelope, ``/statsz`` the full unified
    stats as JSON, ``/metrics`` the Prometheus text exposition.  ``metrics``
    may be a :class:`~repro.metrics.TelemetryPoller` (scrapes render its
    registry; sampling stays scrape-driven unless the poller's background
    thread is running) or a bare :class:`~repro.metrics.MetricsRegistry`
    (render-only — some external sampler owns it).  By default the server
    builds its own poller over the gateway, so ``GET /metrics`` works out of
    the box with per-scrape sampling, exactly how Prometheus expects a
    target to behave.
    """

    daemon_threads = True

    def __init__(
        self,
        gateway: Gateway,
        host: str = "127.0.0.1",
        port: int = 0,
        metrics: Optional[Union[TelemetryPoller, MetricsRegistry]] = None,
    ) -> None:
        super().__init__((host, port), _GatewayRequestHandler)
        self.gateway = gateway
        self._thread: Optional[threading.Thread] = None
        if metrics is None:
            metrics = TelemetryPoller(gateway)
        if isinstance(metrics, MetricsRegistry):
            self.poller: Optional[TelemetryPoller] = None
            self.metrics_registry = metrics
        else:
            self.poller = metrics
            self.metrics_registry = metrics.registry
        self._get_routes: Dict[str, Callable[[], GetRouteResult]] = {}
        self.add_get_route("/healthz", self._route_health)
        self.add_get_route(WIRE_PATH + "/health", self._route_health)
        self.add_get_route("/statsz", self._route_statsz)
        self.add_get_route("/metrics", self._route_metrics)

    # -- GET route table ---------------------------------------------------------
    def add_get_route(self, path: str, handler: Callable[[], GetRouteResult]) -> None:
        """Register (or replace) one GET route on this server."""
        if not path.startswith("/"):
            raise ValueError(f"route path must start with '/', got {path!r}")
        self._get_routes[path] = handler

    def get_route(self, path: str) -> Optional[Callable[[], GetRouteResult]]:
        return self._get_routes.get(path)

    def get_route_paths(self) -> Tuple[str, ...]:
        return tuple(sorted(self._get_routes))

    def _route_health(self) -> GetRouteResult:
        return self.gateway.handle(ApiRequest("health"))

    def _route_statsz(self) -> GetRouteResult:
        body = json_line(self.gateway.stats()).encode("utf-8")
        return (200, "application/json", body)

    def _route_metrics(self) -> GetRouteResult:
        """Prometheus text exposition of the gateway's telemetry.

        With the server-owned (or any non-running) poller, each scrape takes
        a fresh sample first; a poller already sampling in the background is
        rendered as-is, and a bare registry likewise.
        """
        if self.poller is not None:
            text = self.poller.exposition(sample=not self.poller.running)
        else:
            text = self.metrics_registry.render()
        return (200, METRICS_CONTENT_TYPE, text.encode("utf-8"))

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start(self) -> "GatewayHTTPServer":
        """Serve from a daemon thread (idempotent); returns self."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever,
                name=f"repro-gateway-http-{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()

    def transport(self, timeout_s: float = 30.0) -> HttpTransport:
        """A client transport pointed at this server."""
        return HttpTransport(self.host, self.port, timeout_s=timeout_s)

    def __enter__(self) -> "GatewayHTTPServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_http(
    gateway: Gateway,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics: Optional[Union[TelemetryPoller, MetricsRegistry]] = None,
) -> GatewayHTTPServer:
    """Boot a started :class:`GatewayHTTPServer` for ``gateway``.

    ``port=0`` binds an ephemeral port; the caller reads ``server.port``.
    ``metrics`` optionally shares a poller/registry with the caller (the
    ``GET /metrics`` route renders it); by default the server samples its
    own on each scrape.
    """
    return GatewayHTTPServer(gateway, host=host, port=port, metrics=metrics).start()
