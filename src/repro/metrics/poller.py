"""TelemetryPoller: the unified stats schema sampled into time series.

One poller watches one stats source — anything with a ``.stats()`` returning
the unified schema (``PersonalizationService``, ``ClusterService``, a
``ServingAPI`` backend, a ``Gateway``) — and folds each snapshot into a
:class:`~repro.metrics.registry.MetricsRegistry` via :func:`record_sample`,
the one mapping shared by the background thread, the scrape-driven
``GET /metrics`` route, and the ``monitor --url`` remote-scrape mode.

Two driving modes:

* **background** — :meth:`start` samples every ``interval_s`` from a daemon
  thread until :meth:`stop` (which takes one final sample, so short runs
  always capture their tail window);
* **manual** — call :meth:`sample` yourself, optionally with an explicit
  ``now``, which is what deterministic tests and the scrape route do.

When a :class:`~repro.metrics.slo.SLOMonitor` is attached, every sample is
followed by a rule-evaluation pass, so alert latency equals poll latency.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

from .registry import MetricsRegistry
from .slo import SLOMonitor

__all__ = ["TelemetryPoller", "record_sample", "burn_rate"]


def _num(block: Dict[str, object], key: str, default: float = 0.0) -> float:
    value = block.get(key, default)
    return float(value) if isinstance(value, (int, float)) else default


def burn_rate(d_completed: float, d_failed: float, d_rejected: float) -> float:
    """The bad-outcome fraction of one interval's outcome deltas (0 when idle)."""
    interval_total = d_completed + d_failed + d_rejected
    return (d_failed + d_rejected) / interval_total if interval_total else 0.0


def record_sample(
    registry: MetricsRegistry, stats: Dict[str, object], now: float
) -> None:
    """Fold one unified-schema stats snapshot into the registry at time ``now``.

    The mapping (all under the registry namespace, default ``repro_``):

    ======================================  =======  ==========================
    metric                                  kind     source
    ======================================  =======  ==========================
    ``requests_total``                      counter  ``latency.count``
    ``errors_total{kind}``                  counter  ``errors.failed/.rejected``
    ``cache_{hits,misses,evictions}_total`` counter  ``cache.*``
    ``latency_ms{quantile}``                gauge    ``latency.p50/p95/p99_ms``
    ``latency_mean_ms`` / ``latency_max_ms``  gauge  ``latency.mean_ms/max_ms``
    ``queue_pending`` / ``queue_max_depth``  gauge   ``queue.*``
    ``cache_hit_rate``                      gauge    ``cache.hit_rate``
    ``shards``                              gauge    ``shards`` (cluster only)
    ``shard_queue_pending{shard}``          gauge    ``per_shard[].pending``
    ``shard_completed_total{shard}``        counter  ``per_shard[].telemetry``
    ``tenant_accuracy{tenant}``             gauge    ``tenants[].accuracy``
    ``tenant_staleness_s{tenant}``          gauge    ``tenants[].staleness_s``
    ``error_burn_rate``                     gauge    derived (per interval)
    ======================================  =======  ==========================

    ``error_burn_rate`` is the derived signal the rejection-burn-rate alert
    rule watches: the fraction of *this interval's* request outcomes that
    were bad, ``(Δfailed + Δrejected) / (Δcompleted + Δfailed + Δrejected)``
    — the deltas the counter clamp just applied, so a long-healthy history
    cannot dilute a fresh outage.
    """
    latency = stats.get("latency") or {}
    cache = stats.get("cache") or {}
    queue = stats.get("queue") or {}
    errors = stats.get("errors") or {}

    d_completed = registry.counter(
        "requests_total", "Completed requests observed via latency.count"
    ).observe_total(_num(latency, "count"), t=now)
    errors_total = registry.counter(
        "errors_total", "Failed and rejected requests, by kind"
    )
    d_failed = errors_total.observe_total(_num(errors, "failed"), t=now, kind="failed")
    d_rejected = errors_total.observe_total(
        _num(errors, "rejected"), t=now, kind="rejected"
    )

    registry.counter("cache_hits_total", "Engine cache hits").observe_total(
        _num(cache, "hits"), t=now
    )
    registry.counter("cache_misses_total", "Engine cache misses").observe_total(
        _num(cache, "misses"), t=now
    )
    registry.counter("cache_evictions_total", "Engine cache evictions").observe_total(
        _num(cache, "evictions"), t=now
    )

    quantiles = registry.gauge(
        "latency_ms", "Latency percentiles from the facade reservoir"
    )
    for quantile in ("p50", "p95", "p99"):
        key = f"{quantile}_ms"
        if key in latency:
            quantiles.set(_num(latency, key), t=now, quantile=quantile)
    registry.gauge("latency_mean_ms", "Mean request latency").set(
        _num(latency, "mean_ms"), t=now
    )
    registry.gauge("latency_max_ms", "Max request latency").set(
        _num(latency, "max_ms"), t=now
    )
    registry.gauge("queue_pending", "Requests queued across the fleet").set(
        _num(queue, "pending"), t=now
    )
    registry.gauge("queue_max_depth", "High-water queue depth seen").set(
        _num(queue, "max_depth"), t=now
    )
    registry.gauge("cache_hit_rate", "Engine cache hit rate").set(
        _num(cache, "hit_rate"), t=now
    )

    if "shards" in stats:
        registry.gauge("shards", "Live shard count").set(
            float(stats["shards"]), t=now
        )
    shard_pending = None
    shard_completed = None
    for shard in stats.get("per_shard") or []:
        if not isinstance(shard, dict):
            continue
        shard_id = str(shard.get("shard"))
        if shard_pending is None:
            shard_pending = registry.gauge(
                "shard_queue_pending", "Queued requests on one shard"
            )
            shard_completed = registry.counter(
                "shard_completed_total", "Requests completed by one shard"
            )
        shard_pending.set(_num(shard, "pending"), t=now, shard=shard_id)
        telemetry = shard.get("telemetry") or {}
        shard_completed.observe_total(
            _num(telemetry, "completed"), t=now, shard=shard_id
        )

    # Optional per-tenant lifecycle block (served-head accuracy/staleness):
    # stats sources without it pay nothing, sources with it get the labelled
    # gauges the accuracy-drop rule and the DriftDetector watch.
    tenant_accuracy = None
    tenant_staleness = None
    for row in stats.get("tenants") or []:
        if not isinstance(row, dict) or "tenant" not in row:
            continue
        tenant = str(row.get("tenant"))
        if tenant_accuracy is None:
            tenant_accuracy = registry.gauge(
                "tenant_accuracy",
                "Served-head accuracy over the tenant's recent window",
            )
            tenant_staleness = registry.gauge(
                "tenant_staleness_s",
                "Seconds since the tenant's active version was personalized",
            )
        tenant_accuracy.set(_num(row, "accuracy"), t=now, tenant=tenant)
        tenant_staleness.set(_num(row, "staleness_s"), t=now, tenant=tenant)

    registry.gauge(
        "error_burn_rate",
        "Fraction of this interval's outcomes that failed or were rejected",
    ).set(burn_rate(d_completed, d_failed, d_rejected), t=now)


class TelemetryPoller:
    """Samples one stats source into a registry on a fixed interval."""

    def __init__(
        self,
        target,
        registry: Optional[MetricsRegistry] = None,
        interval_s: float = 0.25,
        monitor: Optional[SLOMonitor] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if not hasattr(target, "stats"):
            raise TypeError(
                f"poller target {type(target).__name__} has no stats() method"
            )
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.target = target
        self.registry = registry if registry is not None else MetricsRegistry()
        self.interval_s = float(interval_s)
        self.monitor = monitor
        self.clock = clock
        self.samples = 0
        self.poll_errors = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._sample_lock = threading.Lock()
        self._subscribers: list = []

    def subscribe(self, callback) -> None:
        """Observe every sample as ``callback(stats, t)`` after rule evaluation.

        This is the seam a control loop consumes: the
        :class:`~repro.autoscale.Autoscaler` subscribes its ``observe`` here
        so every poll becomes one controller tick.  Callbacks run outside the
        sample lock (they may take arbitrarily long — a scale-in drains a
        shard) and a callback failure is counted in ``poll_errors`` instead
        of killing the poll loop.
        """
        self._subscribers.append(callback)

    def sample(self, now: Optional[float] = None) -> Optional[Dict[str, object]]:
        """Take one sample (and evaluate alert rules); returns the raw stats.

        A stats() failure — e.g. racing a shard teardown — is counted in
        ``poll_errors`` and returns ``None`` instead of killing the poll
        loop: observability must survive exactly the conditions it exists
        to observe.
        """
        t = self.clock() if now is None else float(now)
        try:
            stats = self.target.stats()
        except Exception:
            self.poll_errors += 1
            return None
        with self._sample_lock:
            record_sample(self.registry, stats, t)
            self.samples += 1
            if self.monitor is not None:
                self.monitor.evaluate(now=t)
        for callback in list(self._subscribers):
            try:
                callback(stats, t)
            except Exception:
                self.poll_errors += 1
        return stats

    @property
    def running(self) -> bool:
        return self._thread is not None

    def start(self) -> "TelemetryPoller":
        """Sample every ``interval_s`` from a daemon thread (idempotent).

        Takes one priming sample synchronously before the thread launches:
        it sets every counter's raw baseline at attach time, so the *next*
        sample's deltas (and the burn-rate gauge derived from them) are
        honest even when the whole run fits inside one poll interval.
        """
        if self._thread is None:
            self.sample()
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-telemetry-poller", daemon=True
            )
            self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def stop(self, final_sample: bool = True) -> None:
        """Stop the thread; by default take one last sample on the way out.

        The final sample is what lets short deterministic runs — shorter
        than one poll interval — still land their whole story in the series
        (and gives the SLO monitor one guaranteed post-run evaluation).
        """
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
        if final_sample:
            self.sample()

    def exposition(self, sample: bool = False) -> str:
        """The registry as Prometheus text; optionally sample first.

        ``sample=True`` is the scrape-driven mode ``GET /metrics`` uses when
        no background poller is attached: each scrape is a sample, exactly
        how Prometheus expects a target to behave.  This is also the
        loopback equivalent of the HTTP route — same bytes, no socket.
        """
        if sample:
            self.sample()
        return self.registry.render()

    def __enter__(self) -> "TelemetryPoller":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
