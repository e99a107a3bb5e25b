"""Composable gateway middleware: validate, limit, deadline, retry, measure.

A middleware wraps a ``Handler`` (``ApiRequest -> ApiResponse``) and may
short-circuit by raising an :class:`~repro.errors.ApiError`; the
:class:`~repro.gateway.gateway.Gateway` converts anything raised into a
failure envelope at the top of the stack, so middlewares stay exception-based
and simple.  :func:`build_pipeline` composes a list of middlewares around the
terminal router, outermost first:

    validation → metrics → rate limit → retry → deadline → router → backend

That order is load-bearing: metrics see every outcome including rate-limit
rejections; the retry loop sits *outside* the deadline check so each attempt
re-enters it with the decremented budget and a spent deadline terminates the
retrying (``DEADLINE_EXCEEDED`` is not retryable).

All middleware state (buckets, counters, histograms) is lock-protected —
the HTTP transport runs handlers on concurrent threads.
"""

from __future__ import annotations

import abc
import random
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from ..cluster.telemetry import LatencyHistogram
from ..metrics.events import emit
from ..errors import (
    ApiError,
    DeadlineExceededError,
    InvalidArgumentError,
    NotFoundError,
    ResourceExhaustedError,
    error_from_exception,
)
from .wire import API_VERSION, METHODS, ApiRequest, ApiResponse

__all__ = [
    "Middleware",
    "build_pipeline",
    "ValidationMiddleware",
    "RateLimitMiddleware",
    "DeadlineMiddleware",
    "RetryMiddleware",
    "MetricsMiddleware",
]

Handler = Callable[[ApiRequest], ApiResponse]

#: Error codes that mean "load was shed", not "the request was wrong" —
#: reported as ``rejected`` (vs ``failed``) in the unified errors block.
_SHED_CODES = ("RESOURCE_EXHAUSTED", "UNAVAILABLE")


class Middleware(abc.ABC):
    """One pipeline stage: observe/transform the call around ``call_next``."""

    @abc.abstractmethod
    def handle(self, request: ApiRequest, call_next: Handler) -> ApiResponse:
        """Answer ``request``, calling ``call_next`` to reach the next stage."""


def build_pipeline(middlewares: Sequence[Middleware], terminal: Handler) -> Handler:
    """Compose ``middlewares`` (outermost first) around the terminal handler."""
    handler = terminal
    for middleware in reversed(list(middlewares)):
        def bound(request, _mw=middleware, _next=handler):
            return _mw.handle(request, _next)

        handler = bound
    return handler


class ValidationMiddleware(Middleware):
    """Reject malformed envelopes before they reach anything stateful.

    Version mismatches and payload-shape problems are ``INVALID_ARGUMENT``;
    an unknown method is ``NOT_FOUND`` (the route does not exist).
    """

    #: method -> payload fields that must be present.
    REQUIRED = {
        "predict": ("model_id", "inputs"),
        "predict_batch": ("requests",),
        "personalize": ("user_id",),
    }

    def handle(self, request: ApiRequest, call_next: Handler) -> ApiResponse:
        if request.version != API_VERSION:
            raise InvalidArgumentError(
                f"unsupported API version {request.version!r}; this gateway "
                f"speaks {API_VERSION}"
            )
        if request.method not in METHODS:
            raise NotFoundError(
                f"unknown method {request.method!r}; available: {sorted(METHODS)}"
            )
        missing = [
            field
            for field in self.REQUIRED.get(request.method, ())
            if field not in request.payload
        ]
        if missing:
            raise InvalidArgumentError(
                f"method {request.method!r} payload is missing {missing}"
            )
        if request.method == "predict_batch" and not isinstance(
            request.payload["requests"], (list, tuple)
        ):
            raise InvalidArgumentError("'requests' must be a list of predict payloads")
        return call_next(request)


class _TokenBucket:
    """Classic token bucket: ``rate`` tokens/s refill, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def try_take(self, cost: float, now: float) -> bool:
        self.tokens = min(self.burst, self.tokens + (now - self.updated) * self.rate)
        self.updated = now
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def retry_after_ms(self, cost: float) -> float:
        deficit = max(0.0, cost - self.tokens)
        return (deficit / self.rate) * 1e3 if self.rate > 0 else float("inf")


class RateLimitMiddleware(Middleware):
    """Per-tenant token-bucket rate limiting plus an absolute request quota.

    Traffic-bearing methods (``predict`` / ``predict_batch`` /
    ``personalize``) cost tokens — one per request, so a batch of eight
    costs eight; ``stats`` / ``health`` / ``drain`` are control-plane and
    exempt.  A spent bucket or quota answers ``RESOURCE_EXHAUSTED``
    immediately (with ``retry_after_ms`` in the details): load is shed, never
    queued, so an over-limit tenant can neither hang nor starve the rest.
    """

    METERED = ("predict", "predict_batch", "personalize")

    def __init__(
        self,
        rate_per_s: Optional[float] = None,
        burst: Optional[float] = None,
        quota: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate_per_s is None and quota is None:
            raise ValueError("rate limiting needs rate_per_s and/or quota")
        if rate_per_s is not None and rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be > 0, got {rate_per_s}")
        self.rate_per_s = None if rate_per_s is None else float(rate_per_s)
        if self.rate_per_s is None:
            self.burst = None
        else:
            self.burst = (
                float(burst) if burst is not None else max(1.0, self.rate_per_s)
            )
            if self.burst < 1:
                raise ValueError(f"burst must be >= 1, got {self.burst}")
        if quota is not None and quota < 1:
            raise ValueError(f"quota must be >= 1, got {quota}")
        self.quota = quota
        self.clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, _TokenBucket] = {}
        self._spent: Dict[str, int] = {}
        self.limited = 0

    @staticmethod
    def _cost(request: ApiRequest) -> int:
        if request.method == "predict_batch":
            requests = request.payload.get("requests")
            return max(1, len(requests)) if isinstance(requests, (list, tuple)) else 1
        return 1

    def handle(self, request: ApiRequest, call_next: Handler) -> ApiResponse:
        if request.method not in self.METERED:
            return call_next(request)
        cost = self._cost(request)
        tenant = request.tenant
        with self._lock:
            spent = self._spent.get(tenant, 0)
            if self.quota is not None and spent + cost > self.quota:
                self.limited += 1
                emit("admission_reject", source="gateway", tenant=tenant,
                     reason="quota")
                raise ResourceExhaustedError(
                    f"tenant {tenant!r} exhausted its quota of {self.quota} requests",
                    details={"tenant": tenant, "quota": self.quota, "spent": spent},
                )
            if self.rate_per_s is not None:
                if cost > self.burst:
                    # No amount of waiting refills past the burst capacity:
                    # the call is unsatisfiable, not throttled — answer with
                    # a non-retryable error instead of a finite retry hint
                    # that would loop a well-behaved client forever.
                    raise InvalidArgumentError(
                        f"batch of {cost} requests exceeds the bucket burst "
                        f"capacity {self.burst:g}; split the batch",
                        details={"tenant": tenant, "burst": self.burst},
                    )
                now = self.clock()
                bucket = self._buckets.get(tenant)
                if bucket is None:
                    bucket = self._buckets[tenant] = _TokenBucket(
                        self.rate_per_s, self.burst, now
                    )
                if not bucket.try_take(cost, now):
                    self.limited += 1
                    emit("admission_reject", source="gateway", tenant=tenant,
                         reason="rate_limit")
                    raise ResourceExhaustedError(
                        f"tenant {tenant!r} is over its rate limit "
                        f"({self.rate_per_s:g} req/s, burst {self.burst:g})",
                        details={
                            "tenant": tenant,
                            "retry_after_ms": bucket.retry_after_ms(cost),
                        },
                    )
            self._spent[tenant] = spent + cost
        return call_next(request)

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {
                "limited": self.limited,
                "tenants": len(self._buckets),
                "rate_per_s": self.rate_per_s,
                "burst": self.burst,
                "quota": self.quota,
            }


class DeadlineMiddleware(Middleware):
    """Enforce and propagate the caller's time budget.

    A request with ``deadline_ms`` spends its budget across the whole
    pipeline below this stage: an already-spent budget short-circuits with
    ``DEADLINE_EXCEEDED`` (never dispatching doomed work), and whatever each
    attempt consumes is decremented from the envelope so outer retries —
    and any further hop the request is forwarded to — see only the
    remaining budget.  Requests without a deadline pass through untouched.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock

    def handle(self, request: ApiRequest, call_next: Handler) -> ApiResponse:
        if request.deadline_ms is None:
            return call_next(request)
        if request.deadline_ms <= 0:
            raise DeadlineExceededError(
                "deadline spent before dispatch",
                details={"method": request.method},
            )
        start = self.clock()
        try:
            return call_next(request)
        finally:
            spent_ms = (self.clock() - start) * 1e3
            request.deadline_ms = max(0.0, request.deadline_ms - spent_ms)


class RetryMiddleware(Middleware):
    """Re-attempt transient failures with seeded exponential backoff + jitter.

    Only ``retryable`` taxonomy errors (``UNAVAILABLE``) are re-attempted;
    ``RESOURCE_EXHAUSTED`` and ``DEADLINE_EXCEEDED`` never are — a shed or
    expired request must fail fast, not pile on.  Jitter comes from a seeded
    :class:`random.Random` so runs are reproducible.
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay_s: float = 0.002,
        max_delay_s: float = 0.25,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if base_delay_s < 0 or max_delay_s < base_delay_s:
            raise ValueError("need 0 <= base_delay_s <= max_delay_s")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.max_delay_s = max_delay_s
        self.sleep = sleep
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.retries = 0

    def handle(self, request: ApiRequest, call_next: Handler) -> ApiResponse:
        attempt = 1
        while True:
            try:
                return call_next(request)
            except ApiError as err:
                if not err.retryable or attempt >= self.max_attempts:
                    raise
                emit("retry", method=request.method, attempt=attempt,
                     code=err.code)
            with self._lock:
                self.retries += 1
                # Full jitter: uniform in (0, backoff] — decorrelates herds.
                backoff = min(
                    self.max_delay_s, self.base_delay_s * (2 ** (attempt - 1))
                )
                delay = backoff * self._rng.random()
            # Backoff sleeps spend the caller's budget too: clamp the sleep
            # to what is left and charge it, so the next attempt re-enters
            # the deadline check with the true remainder (and a spent budget
            # terminates the retrying as DEADLINE_EXCEEDED).
            if request.deadline_ms is not None:
                delay = min(delay, max(0.0, request.deadline_ms) / 1e3)
            self.sleep(delay)
            if request.deadline_ms is not None:
                request.deadline_ms = max(0.0, request.deadline_ms - delay * 1e3)
            attempt += 1

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            return {"retries": self.retries, "max_attempts": self.max_attempts}


class MetricsMiddleware(Middleware):
    """Per-route latency histograms and error counters (the gateway's eyes).

    Every call records into its route's :class:`LatencyHistogram`; failures
    count by taxonomy code, split into *rejected* (load shed:
    ``RESOURCE_EXHAUSTED`` / ``UNAVAILABLE``) and *failed* (everything else)
    to match the unified stats schema.  Failure envelopes returned by the
    router (partial batch results) count exactly like raised errors.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._lock = threading.Lock()
        self._latency: Dict[str, LatencyHistogram] = {}
        self._requests: Dict[str, int] = {}
        self._errors: Dict[str, Dict[str, int]] = {}

    def handle(self, request: ApiRequest, call_next: Handler) -> ApiResponse:
        start = self.clock()
        try:
            response = call_next(request)
        except Exception as exc:
            # Record the code the caller will actually see: a raw exception
            # escaping the router is mapped to its taxonomy code by the
            # gateway, so the counters must apply the same mapping.
            code = error_from_exception(exc).code
            self._record(request.method, self.clock() - start, code)
            raise
        code = None
        if not response.ok and response.error is not None:
            code = response.error.get("code", "INTERNAL")
        self._record(request.method, self.clock() - start, code)
        return response

    def _record(self, route: str, elapsed_s: float, code: Optional[str]) -> None:
        with self._lock:
            if route not in self._latency:
                self._latency[route] = LatencyHistogram()
                self._requests[route] = 0
                self._errors[route] = {}
            self._latency[route].record(elapsed_s)
            self._requests[route] += 1
            if code is not None:
                errors = self._errors[route]
                errors[code] = errors.get(code, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        """Gateway-level metrics in the unified schema + per-route detail."""
        with self._lock:
            merged = LatencyHistogram.merged(self._latency.values())
            by_code: Dict[str, int] = {}
            for route_errors in self._errors.values():
                for code, count in route_errors.items():
                    by_code[code] = by_code.get(code, 0) + count
            rejected = sum(by_code.get(code, 0) for code in _SHED_CODES)
            failed = sum(by_code.values()) - rejected
            return {
                "latency": merged.summary(),
                "errors": {
                    "failed": failed,
                    "rejected": rejected,
                    "by_code": dict(sorted(by_code.items())),
                },
                "per_route": {
                    route: {
                        "requests": self._requests[route],
                        "errors": dict(sorted(self._errors[route].items())),
                        "latency": self._latency[route].summary(),
                    }
                    for route in sorted(self._latency)
                },
            }
