"""Request-level trace spans: attribute tail latency to a serving hop.

Every serving request crosses a fixed sequence of seams — gateway route →
middleware chain → cluster frontend → shard queue/batch → engine predict —
and an SLO regression is only actionable once it is pinned to one of them.
This module provides the span plumbing those seams record into:

* :class:`Trace` — the per-request span list.  A trace is *attached* to the
  in-flight message objects (``PredictRequest.trace`` /
  ``PredictResponse.trace``, plain attributes outside the wire dicts) and
  accumulates ``(hop, seconds)`` spans as the request crosses each layer.
* :class:`Span` — explicit context-manager timing into a trace and/or the
  global per-hop aggregator.
* :func:`trace_step` — the decorator face of the same: wrap a function and
  every call records one span under the given hop name (when tracing is on).
* the **global aggregator** — per-hop :class:`LatencyHistogram`\\ s that the
  serving facades surface as the optional ``trace`` block of the unified
  stats schema (per-hop p50/p95/p99).

Tracing is **off by default** and the off path is one module-level boolean
check — no allocation, no clock reads — so the serving path's latency is
unchanged when disabled (``tests/test_trace.py`` pins the pass-through;
crispbench's ``trace.overhead_ratio`` measures what switching it on costs).
Spans record *durations only*, never absolute timeline positions: hops cross
process boundaries (the process shard workers) where monotonic clocks are
not meaningfully comparable, but a duration measured on either side is.

Cross-process propagation rides the existing wire envelopes: the parent
marks the predict frame's payload with ``"trace": true``, the child times
its shard/engine hops into a fresh :class:`Trace`, and the reply payload
carries the spans back (``Trace.to_wire`` / ``Trace.extend_wire``) where the
parent merges them into the original request's trace *before* resolving the
caller's future.

Deterministic JSON faces stay byte-stable: trace data only ever lands in
measured surfaces (the SLO report's ``slo`` block, stats snapshots) and the
wire envelopes only gain their optional trace fields when a trace is
actually present.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "HOPS",
    "HOP_GATEWAY",
    "HOP_MIDDLEWARE",
    "HOP_FRONTEND",
    "HOP_SHARD",
    "HOP_ENGINE",
    "HOP_SERVICE",
    "Trace",
    "Span",
    "trace_step",
    "enable",
    "disable",
    "enabled",
    "tracing",
    "hops_of",
    "aggregate",
    "hop_summaries",
    "reset_aggregator",
    "trace_block",
]

#: Canonical hop names, outermost first.  ``gateway`` is the end-to-end
#: envelope time (the other hops nest inside it); ``service`` is the
#: single-process dispatch hop a :class:`LocalBackend` records where a
#: cluster records ``frontend`` + ``shard``.
HOP_GATEWAY = "gateway"
HOP_MIDDLEWARE = "middleware"
HOP_FRONTEND = "frontend"
HOP_SHARD = "shard"
HOP_ENGINE = "engine"
HOP_SERVICE = "service"
HOPS = (HOP_GATEWAY, HOP_MIDDLEWARE, HOP_FRONTEND, HOP_SHARD, HOP_ENGINE, HOP_SERVICE)

#: The one switch the hot paths check.  Module-level so the disabled cost is
#: a single attribute load per seam.
_ENABLED = False


def enable() -> None:
    """Turn request tracing on process-wide."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn request tracing off (the default)."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether tracing is currently on."""
    return _ENABLED


class tracing:
    """Context manager scoping :func:`enable` to a block (tests, CLI runs)."""

    def __init__(self, on: bool = True) -> None:
        self.on = on
        self._previous = False

    def __enter__(self) -> "tracing":
        global _ENABLED
        self._previous = _ENABLED
        _ENABLED = self.on
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _ENABLED
        _ENABLED = self._previous


class Trace:
    """The span list of one in-flight request.

    Appends are what the serving seams do; everything else is reporting.
    A trace is deliberately tiny (one list) because one is allocated per
    request while tracing is on.
    """

    __slots__ = ("spans",)

    def __init__(self, spans: Optional[List[Tuple[str, float]]] = None) -> None:
        self.spans: List[Tuple[str, float]] = list(spans) if spans else []

    def add(self, hop: str, seconds: float) -> None:
        """Record one span and fold it into the global per-hop aggregator."""
        self.spans.append((hop, float(seconds)))
        aggregate(hop, seconds)

    def hop_ms(self) -> Dict[str, float]:
        """Total milliseconds per hop (spans of the same hop sum)."""
        totals: Dict[str, float] = {}
        for hop, seconds in self.spans:
            totals[hop] = totals.get(hop, 0.0) + seconds * 1e3
        return totals

    def hops(self) -> Tuple[str, ...]:
        """The distinct hop names recorded, in first-seen order."""
        seen: Dict[str, None] = {}
        for hop, _ in self.spans:
            seen.setdefault(hop)
        return tuple(seen)

    # -- wire format ------------------------------------------------------------
    def to_wire(self) -> List[List[object]]:
        """JSON-compatible span list (``[[hop, seconds], ...]``)."""
        return [[hop, seconds] for hop, seconds in self.spans]

    def extend_wire(self, spans: Sequence[Sequence[object]]) -> "Trace":
        """Merge spans that crossed a process/wire boundary into this trace."""
        for hop, seconds in spans:
            self.add(str(hop), float(seconds))
        return self

    @classmethod
    def from_wire(cls, spans: Sequence[Sequence[object]]) -> "Trace":
        return cls().extend_wire(spans)

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{hop}={seconds * 1e3:.2f}ms" for hop, seconds in self.spans)
        return f"Trace({parts})"


class Span:
    """Explicit span timing: ``with Span(trace, 'engine'): ...``.

    ``trace=None`` records into the global aggregator only, which is what
    hop instrumentation without a request context (e.g. warmup probes)
    uses.  A span is always recorded once entered — the enabled() gate
    belongs at the call site, where skipping it is free.
    """

    __slots__ = ("trace", "hop", "_start")

    def __init__(self, trace: Optional[Trace], hop: str) -> None:
        self.trace = trace
        self.hop = hop
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        if self.trace is not None:
            self.trace.add(self.hop, elapsed)
        else:
            aggregate(self.hop, elapsed)


def trace_step(hop: str) -> Callable:
    """Decorator: record each call of the wrapped function as one ``hop`` span.

    When tracing is off the wrapper is a single boolean check around the
    call.  When on, the span lands in the first argument's attached trace if
    it carries one (``request.trace``), otherwise in the global aggregator —
    so the same decorator instruments both request-scoped and free-standing
    steps::

        @trace_step("engine")
        def predict_many(self, batches): ...
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _ENABLED:
                return fn(*args, **kwargs)
            trace = None
            for arg in args[:2]:  # self and/or the request-shaped argument
                candidate = getattr(arg, "trace", None)
                if isinstance(candidate, Trace):
                    trace = candidate
                    break
            with Span(trace, hop):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def hops_of(message) -> Optional[Dict[str, float]]:
    """The per-hop milliseconds of a message's attached trace, if any."""
    trace = getattr(message, "trace", None)
    if isinstance(trace, Trace) and trace.spans:
        return trace.hop_ms()
    return None


# ---------------------------------------------------------------------------
# The global per-hop aggregator (feeds the stats schema's ``trace`` block)
# ---------------------------------------------------------------------------

_AGG_LOCK = threading.Lock()
_AGGREGATOR: Dict[str, "object"] = {}


def aggregate(hop: str, seconds: float) -> None:
    """Fold one span into the process-wide per-hop histograms."""
    # Deferred import: repro.cluster.telemetry must stay importable without
    # this module (and vice versa).
    from .cluster.telemetry import LatencyHistogram

    with _AGG_LOCK:
        histogram = _AGGREGATOR.get(hop)
        if histogram is None:
            histogram = _AGGREGATOR[hop] = LatencyHistogram()
        histogram.record(seconds)


def hop_summaries() -> Dict[str, Dict[str, float]]:
    """Per-hop latency summaries (p50/p95/p99 + mean/max), hop-name sorted."""
    with _AGG_LOCK:
        return {hop: _AGGREGATOR[hop].summary() for hop in sorted(_AGGREGATOR)}


def reset_aggregator() -> None:
    """Drop every accumulated hop histogram (tests / run isolation)."""
    with _AGG_LOCK:
        _AGGREGATOR.clear()


def trace_block() -> Optional[Dict[str, object]]:
    """The optional ``trace`` block of the unified stats schema.

    ``None`` while tracing is off and nothing has been recorded — facades
    then omit the block entirely, keeping pre-trace stats payloads
    unchanged.  Once tracing is (or has been) active the block carries the
    per-hop latency summaries accumulated in this process.
    """
    summaries = hop_summaries()
    if not _ENABLED and not summaries:
        return None
    return {"enabled": _ENABLED, "hops": summaries}
