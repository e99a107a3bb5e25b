"""Serving API v2: one versioned gateway over every serving deployment.

After :mod:`repro.serve` (single-process) and :mod:`repro.cluster`
(sharded) grew their own front doors, this package is the unification: a
transport-agnostic, versioned API with structured errors and middleware,
mirroring how production serving stacks put a gateway in front of
heterogeneous engine pools.

* :class:`ServingAPI` (defined in :mod:`repro.serve.api`, re-exported here)
  — personalize / predict / predict_batch / stats / health / drain.  Both
  services implement it, so a gateway takes either one as it is;
  :mod:`repro.gateway.api` keeps :class:`ClusterBackend`, a pass-through
  over a cluster that the crispbench harness times as its cluster layer.
* :mod:`repro.gateway.wire` — versioned :class:`ApiRequest` /
  :class:`ApiResponse` envelopes (byte-stable JSON) carrying the existing
  :mod:`repro.serve.types` payloads and the :mod:`repro.errors` taxonomy.
* :mod:`repro.gateway.middleware` — composable pipeline: request
  validation, per-tenant token-bucket rate limiting + quotas, deadline
  propagation, retry-with-jitter on ``UNAVAILABLE``, per-route metrics.
* :mod:`repro.gateway.gateway` — the :class:`Gateway` router; errors become
  failure envelopes, never exceptions into a transport.
* :mod:`repro.gateway.client` — :class:`GatewayClient`, the typed sync
  facade over a transport (``predict(model_id, batch)``).
* :mod:`repro.gateway.transport` — the in-process :class:`LoopbackTransport`
  and the stdlib :class:`GatewayHTTPServer` / :class:`HttpTransport` pair,
  wire-identical by construction.

Quickstart::

    from repro.cluster import ClusterConfig, ClusterService
    from repro.gateway import Gateway, GatewayClient, serve_http

    cluster = ClusterService(ClusterConfig(shards=4), registry=registry)
    gateway = Gateway(cluster)
    with serve_http(gateway) as server:                  # ephemeral port
        client = GatewayClient(server.transport())
        response = client.predict(model_id, batch)       # over the socket
        print(client.stats()["latency"])                 # unified schema
"""

from ..errors import (
    ApiError,
    DeadlineExceededError,
    ERROR_CODES,
    InternalError,
    InvalidArgumentError,
    NotFoundError,
    ResourceExhaustedError,
    UnavailableError,
    error_from_dict,
    error_from_exception,
)
from ..serve.api import ServingAPI
from .api import ClusterBackend
from .client import GatewayClient
from .gateway import Gateway, GatewayConfig
from .middleware import (
    DeadlineMiddleware,
    MetricsMiddleware,
    Middleware,
    RateLimitMiddleware,
    RetryMiddleware,
    ValidationMiddleware,
    build_pipeline,
)
from .transport import (
    GatewayHTTPServer,
    HttpTransport,
    LoopbackTransport,
    Transport,
    serve_http,
)
from .wire import API_VERSION, METHODS, ApiRequest, ApiResponse

__all__ = [
    # protocol + backends
    "ServingAPI",
    "ClusterBackend",
    # wire
    "API_VERSION",
    "METHODS",
    "ApiRequest",
    "ApiResponse",
    # errors (re-exported from repro.errors)
    "ApiError",
    "InvalidArgumentError",
    "NotFoundError",
    "ResourceExhaustedError",
    "UnavailableError",
    "DeadlineExceededError",
    "InternalError",
    "ERROR_CODES",
    "error_from_dict",
    "error_from_exception",
    # gateway + middleware
    "Gateway",
    "GatewayConfig",
    "Middleware",
    "build_pipeline",
    "ValidationMiddleware",
    "RateLimitMiddleware",
    "DeadlineMiddleware",
    "RetryMiddleware",
    "MetricsMiddleware",
    # client + transports
    "GatewayClient",
    "Transport",
    "LoopbackTransport",
    "HttpTransport",
    "GatewayHTTPServer",
    "serve_http",
]
