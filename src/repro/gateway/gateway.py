"""The gateway: one versioned front door over any :class:`ServingAPI` backend.

``Gateway.handle`` takes an :class:`~repro.gateway.wire.ApiRequest`, runs it
through the middleware pipeline (validation → metrics → rate limit → retry →
deadline) into the method router, and *always* returns an
:class:`~repro.gateway.wire.ApiResponse` — taxonomy errors raised anywhere in
the stack become failure envelopes, never exceptions into the transport.
``handle_json`` is the same contract one serialization step out, which is
exactly what the loopback and HTTP transports call, so every transport
shares one code path and bit-identical behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..cluster.telemetry import assert_stats_schema
from ..errors import ApiError, error_from_exception
from ..serve.types import PersonalizeRequest, PredictRequest
from ..trace import HOP_GATEWAY, HOP_MIDDLEWARE, Trace, trace_block
from .. import trace as _trace
from ..serve.api import ServingAPI
from .middleware import (
    DeadlineMiddleware,
    MetricsMiddleware,
    Middleware,
    RateLimitMiddleware,
    RetryMiddleware,
    ValidationMiddleware,
    build_pipeline,
)
from .wire import ApiRequest, ApiResponse

__all__ = ["GatewayConfig", "Gateway"]


@dataclass
class GatewayConfig:
    """Deployment knobs of one gateway instance.

    Rate limiting is off unless ``rate_per_s`` (or ``quota``) is set — the
    default gateway adds no policy beyond validation, metrics and retries,
    so deterministic replay artifacts stay deterministic.
    """

    rate_per_s: Optional[float] = None  #: per-tenant token refill; None = off
    burst: Optional[float] = None  #: bucket capacity (default: ~rate_per_s)
    quota: Optional[int] = None  #: absolute per-tenant request ceiling
    max_attempts: int = 3  #: total tries per call (1 = no retries)
    retry_base_delay_s: float = 0.002
    seed: int = 0  #: seeds the retry jitter

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")


class Gateway:
    """Serving API v2 router + middleware over one backend.

    Example
    -------
    >>> gateway = Gateway(cluster)
    >>> response = gateway.handle(ApiRequest("predict", request.to_dict()))
    >>> response.ok, PredictResponse.from_dict(response.payload["response"]).classes
    """

    def __init__(
        self,
        backend: ServingAPI,
        config: Optional[GatewayConfig] = None,
        middlewares: Optional[Sequence[Middleware]] = None,
    ) -> None:
        self.backend = backend
        self.config = config or GatewayConfig()
        self.metrics = MetricsMiddleware()
        self.rate_limiter: Optional[RateLimitMiddleware] = None
        self.retry: Optional[RetryMiddleware] = None

        stack: List[Middleware] = [ValidationMiddleware(), self.metrics]
        if self.config.rate_per_s is not None or self.config.quota is not None:
            self.rate_limiter = RateLimitMiddleware(
                rate_per_s=self.config.rate_per_s,
                burst=self.config.burst,
                quota=self.config.quota,
            )
            stack.append(self.rate_limiter)
        if self.config.max_attempts > 1:
            self.retry = RetryMiddleware(
                max_attempts=self.config.max_attempts,
                base_delay_s=self.config.retry_base_delay_s,
                seed=self.config.seed,
            )
            stack.append(self.retry)
        stack.append(DeadlineMiddleware())
        if middlewares:
            stack.extend(middlewares)
        self.middlewares: List[Middleware] = stack
        self._pipeline = build_pipeline(stack, self._route)
        self._routes: Dict[str, Callable[[ApiRequest], ApiResponse]] = {
            "personalize": self._route_personalize,
            "predict": self._route_predict,
            "predict_batch": self._route_predict_batch,
            "stats": self._route_stats,
            "health": self._route_health,
            "drain": self._route_drain,
        }

    # -- the front door --------------------------------------------------------
    def handle(self, request: ApiRequest) -> ApiResponse:
        """Answer one envelope; never raises.

        Tracing rides per request: the process-wide switch
        (:class:`repro.trace.tracing`) or the envelope's own ``trace`` flag
        turns it on; otherwise the only added cost is this one boolean
        check, and response bytes are exactly the pre-trace ones.
        """
        if not (_trace.enabled() or request.trace):
            try:
                return self._pipeline(request)
            except ApiError as err:
                return ApiResponse.failure(request, err)
            except Exception as exc:  # defence in depth
                return ApiResponse.failure(request, error_from_exception(exc))
        return self._handle_traced(request)

    def _handle_traced(self, request: ApiRequest) -> ApiResponse:
        """The traced twin of :meth:`handle`: same outcomes, plus spans.

        The ``gateway`` hop is the whole envelope time; ``middleware`` is
        recorded by :meth:`_route` as the time spent reaching the router,
        and the deeper hops land as the request crosses the backend.
        """
        trace_ctx = Trace()
        request._trace = trace_ctx
        request._trace_started = time.perf_counter()
        try:
            response = self._pipeline(request)
        except ApiError as err:
            response = ApiResponse.failure(request, err)
        except Exception as exc:  # defence in depth
            response = ApiResponse.failure(request, error_from_exception(exc))
        trace_ctx.add(HOP_GATEWAY, time.perf_counter() - request._trace_started)
        response.trace = trace_ctx.to_wire()
        return response

    def handle_json(self, raw) -> str:
        """The wire face: JSON request string/bytes in, JSON response out."""
        return self.handle_envelope(raw).to_json()

    def handle_envelope(self, raw) -> ApiResponse:
        """Decode + handle a raw JSON envelope (transport entry point)."""
        if isinstance(raw, (bytes, bytearray)):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ApiResponse.failure(None, error_from_exception(exc))
        try:
            request = ApiRequest.from_json(raw)
        except ApiError as err:
            return ApiResponse.failure(None, err)
        return self.handle(request)

    # -- routes ----------------------------------------------------------------
    def _route(self, request: ApiRequest) -> ApiResponse:
        # Validation middleware guarantees the method exists by the time the
        # pipeline bottoms out here.
        trace_ctx = getattr(request, "_trace", None)
        if trace_ctx is not None:
            # Time from envelope entry to the router = the middleware chain.
            # Under retries the hop records once per attempt; hop totals sum.
            trace_ctx.add(
                HOP_MIDDLEWARE, time.perf_counter() - request._trace_started
            )
        return self._routes[request.method](request)

    def _deadline_s(self, request: ApiRequest) -> Optional[float]:
        """The remaining budget as the backend timeout, in seconds."""
        return None if request.deadline_ms is None else request.deadline_ms / 1e3

    def _route_personalize(self, request: ApiRequest) -> ApiResponse:
        spec = PersonalizeRequest.from_dict(request.payload)
        model_id = self.backend.personalize(spec)
        return ApiResponse.success(request, {"model_id": model_id})

    def _route_predict(self, request: ApiRequest) -> ApiResponse:
        predict = PredictRequest.from_dict(request.payload)
        predict.trace = getattr(request, "_trace", None)
        response = self.backend.predict(predict, timeout=self._deadline_s(request))
        return ApiResponse.success(request, {"response": response.to_dict()})

    def _route_predict_batch(self, request: ApiRequest) -> ApiResponse:
        predicts = [PredictRequest.from_dict(p) for p in request.payload["requests"]]
        trace_ctx = getattr(request, "_trace", None)
        if trace_ctx is not None:
            for predict in predicts:
                predict.trace = trace_ctx
        results = self.backend.predict_batch(
            predicts, timeout=self._deadline_s(request)
        )
        items: List[Dict] = []
        first_error: Optional[ApiError] = None
        for result in results:
            if isinstance(result, ApiError):
                items.append({"error": result.to_dict()})
                first_error = first_error or result
            else:
                items.append({"response": result.to_dict()})
        payload = {
            "results": items,
            "completed": sum(1 for item in items if "response" in item),
            "failed": sum(1 for item in items if "error" in item),
        }
        if first_error is not None:
            # Partial results: the error rides the envelope, the completed
            # responses ride the payload — neither is thrown away.
            return ApiResponse.failure(request, first_error, partial=payload)
        return ApiResponse.success(request, payload)

    def _route_stats(self, request: ApiRequest) -> ApiResponse:
        return ApiResponse.success(request, {"stats": self.stats()})

    def _route_health(self, request: ApiRequest) -> ApiResponse:
        report = dict(self.backend.health())
        report["middlewares"] = [type(m).__name__ for m in self.middlewares]
        return ApiResponse.success(request, report)

    def _route_drain(self, request: ApiRequest) -> ApiResponse:
        self.backend.drain()
        return ApiResponse.success(request, {"drained": True})

    # -- introspection / lifecycle ----------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Backend stats (unified schema) plus the gateway's own block.

        The top-level ``latency`` / ``cache`` / ``queue`` / ``errors`` keys
        are the *backend's* (where the serving work happens); the gateway's
        per-route latency/error metrics and middleware counters live under
        ``"gateway"``.
        """
        stats = dict(self.backend.stats())
        gateway_block = self.metrics.snapshot()
        if self.rate_limiter is not None:
            gateway_block["rate_limit"] = self.rate_limiter.snapshot()
        if self.retry is not None:
            gateway_block["retry"] = self.retry.snapshot()
        stats["gateway"] = gateway_block
        block = trace_block()
        if block is not None:
            stats["trace"] = block
        return assert_stats_schema(stats)

    def drain(self) -> None:
        self.backend.drain()

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
