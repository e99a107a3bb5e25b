"""Labeled metric registry over ring-buffer time series.

The continuous half of the observability story: where the unified stats
schema answers "what is the state right now", the registry records *how the
system evolves* — every metric is a family of labeled series, every series a
bounded ring buffer of ``(t, value)`` points.  The
:class:`~repro.metrics.poller.TelemetryPoller` feeds it from any
``ServingAPI`` facade; the :class:`~repro.metrics.slo.SLOMonitor` evaluates
alert rules against it; ``GET /metrics`` renders it in Prometheus text
format.

Determinism is a first-class contract here, exactly as elsewhere in the
repo: the clock is injectable, samples recorded with explicit timestamps
produce byte-identical :meth:`MetricsRegistry.render` /
:meth:`MetricsRegistry.to_dict` output across runs
(``tests/test_metrics_plane.py``: ``TestExposition`` and
``test_deterministic_exposition_is_byte_stable`` hold it).

Counters deserve one note: the raw counters in a stats payload are *not*
monotonic cluster-wide — removing a dead shard drops its counts from the
totals.  :meth:`Counter.observe_total` therefore folds raw readings in with
a positive-delta clamp, so the published series never decreases (the
Prometheus counter contract) even while the fleet underneath churns.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "TimeSeries",
    "Metric",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "DEFAULT_WINDOW",
]

#: Ring-buffer capacity per series: enough for ~2 minutes at a 250ms poll.
DEFAULT_WINDOW = 512

#: A canonical label set: sorted ``(key, value)`` pairs, hashable.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:")


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name {name!r}")
    return name


class TimeSeries:
    """A bounded ring buffer of ``(t, value)`` points (oldest dropped first)."""

    __slots__ = ("points",)

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.points: Deque[Tuple[float, float]] = deque(maxlen=window)

    def record(self, t: float, value: float) -> None:
        self.points.append((float(t), float(value)))

    def last(self) -> Optional[Tuple[float, float]]:
        return self.points[-1] if self.points else None

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def tail(self, n: int) -> List[float]:
        """The last ``n`` recorded values (fewer when the series is young)."""
        if n >= len(self.points):
            return self.values()
        return [v for _, v in list(self.points)[-n:]]

    def __len__(self) -> int:
        return len(self.points)


class _Series:
    """One labeled instance of a metric: current value + its history."""

    __slots__ = ("labels", "value", "raw", "ts")

    def __init__(self, labels: LabelKey, window: int) -> None:
        self.labels = labels
        self.value = 0.0
        self.raw: Optional[float] = None  # last raw reading (delta clamp)
        self.ts = TimeSeries(window)


class Metric:
    """A named family of labeled series sharing one help string and kind."""

    kind = "untyped"

    def __init__(self, name: str, help: str, window: int = DEFAULT_WINDOW) -> None:
        self.name = _check_name(name)
        self.help = help
        self.window = window
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, _Series] = {}

    def _get(self, labels: Mapping[str, str]) -> _Series:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series(key, self.window)
        return series

    def series(self, **labels: str) -> Optional[TimeSeries]:
        """The history ring for one label set (``None`` if never recorded)."""
        with self._lock:
            found = self._series.get(_label_key(labels))
            return found.ts if found is not None else None

    def samples(self) -> List[Tuple[LabelKey, float]]:
        """Current ``(labels, value)`` per series, sorted by label set."""
        with self._lock:
            return sorted(
                (series.labels, series.value) for series in self._series.values()
            )

    def all_series(self) -> List[Tuple[LabelKey, TimeSeries]]:
        with self._lock:
            return sorted(
                ((s.labels, s.ts) for s in self._series.values()),
                key=lambda item: item[0],
            )


class Counter(Metric):
    """A monotonically non-decreasing cumulative metric."""

    kind = "counter"

    def inc(self, amount: float = 1.0, t: Optional[float] = None, **labels: str) -> None:
        if amount < 0:
            raise ValueError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            series = self._get(labels)
            series.value += float(amount)
            series.ts.record(self._now(t), series.value)

    def observe_total(
        self, raw: float, t: Optional[float] = None, **labels: str
    ) -> float:
        """Fold one *raw cumulative reading* in; returns the applied delta.

        The clamp: the published value grows by ``max(0, raw - last_raw)``,
        so a raw counter that drops (a dead shard leaving the totals, a
        restarted backend) flattens the series instead of bending it
        backwards.  The very first reading establishes the baseline — its
        delta is 0, which keeps attach-time derived rates (burn rate) from
        spiking on whatever history predates the poller.
        """
        with self._lock:
            series = self._get(labels)
            if series.raw is None:
                delta = 0.0
                series.value = float(raw)
            else:
                delta = max(0.0, float(raw) - series.raw)
                series.value += delta
            series.raw = float(raw)
            series.ts.record(self._now(t), series.value)
            return delta

    @staticmethod
    def _now(t: Optional[float]) -> float:
        return time.time() if t is None else t


class Gauge(Metric):
    """A point-in-time measurement that can go up and down."""

    kind = "gauge"

    def set(self, value: float, t: Optional[float] = None, **labels: str) -> None:
        with self._lock:
            series = self._get(labels)
            series.value = float(value)
            series.ts.record(time.time() if t is None else t, series.value)


class MetricsRegistry:
    """All metrics of one serving deployment, under one namespace.

    ``counter`` / ``gauge`` are get-or-create: asking twice for the same
    name returns the same object (a kind conflict raises), so independent
    samplers can share a registry without coordination.
    """

    def __init__(
        self,
        namespace: str = "repro",
        window: int = DEFAULT_WINDOW,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.namespace = _check_name(namespace) if namespace else ""
        self.window = window
        self.clock = clock
        self._lock = threading.Lock()
        self._metrics: Dict[str, Metric] = {}

    def qualify(self, name: str) -> str:
        """The fully-qualified (namespaced) metric name."""
        if self.namespace and not name.startswith(self.namespace + "_"):
            return f"{self.namespace}_{name}"
        return name

    def _register(self, cls, name: str, help: str) -> Metric:
        full = self.qualify(name)
        with self._lock:
            metric = self._metrics.get(full)
            if metric is None:
                metric = self._metrics[full] = cls(full, help, window=self.window)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {full!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def get(self, name: str) -> Optional[Metric]:
        with self._lock:
            return self._metrics.get(self.qualify(name))

    def metrics(self) -> List[Metric]:
        """Every registered metric, sorted by name (the exposition order)."""
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def series(self, name: str, **labels: str) -> Optional[TimeSeries]:
        metric = self.get(name)
        return metric.series(**labels) if metric is not None else None

    def render(self) -> str:
        """Prometheus text exposition of the current values (byte-stable)."""
        from .exposition import render_registry

        return render_registry(self)

    def to_dict(self) -> Dict[str, object]:
        """The full registry — values *and* ring buffers — as JSON.

        Sorted at every level, so ``json.dumps(..., sort_keys=True)`` of two
        registries fed identical (stats, t) sequences is byte-identical.
        """
        payload: Dict[str, object] = {}
        for metric in self.metrics():
            payload[metric.name] = {
                "kind": metric.kind,
                "help": metric.help,
                "series": [
                    {
                        "labels": {k: v for k, v in labels},
                        "value": ts.last()[1] if len(ts) else 0.0,
                        "points": [[t, v] for t, v in ts.points],
                    }
                    for labels, ts in metric.all_series()
                ],
            }
        return payload

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-series last/min/max/samples — the SLOReport's compact block."""
        out: Dict[str, Dict[str, float]] = {}
        for metric in self.metrics():
            for labels, ts in metric.all_series():
                if not len(ts):
                    continue
                rendered = metric.name
                if labels:
                    inner = ",".join(f'{k}="{v}"' for k, v in labels)
                    rendered = f"{metric.name}{{{inner}}}"
                values = ts.values()
                out[rendered] = {
                    "last": values[-1],
                    "min": min(values),
                    "max": max(values),
                    "samples": len(values),
                }
        return out
