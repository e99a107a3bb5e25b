"""Declarative SLO alert rules evaluated against the metric time series.

An :class:`AlertRule` names a metric (optionally a label subset), a
comparison, a threshold, and a ``for_samples`` hold count: the rule fires
for a series when the condition has held for that many *consecutive* recent
samples — the classic "for:" debounce, in samples rather than wall time so
deterministic tests can drive it tick by tick.

The :class:`SLOMonitor` owns the rule set and a per-(rule, series) firing
state machine.  Each :meth:`evaluate` pass emits typed :class:`Alert`
transitions — ``firing`` on entry, ``resolved`` on exit — into the alert
history, the structured event log (kind ``alert``), and any subscribed
callbacks.  That subscription channel is the seam the ROADMAP's closed-loop
autoscaler will consume: an alert stream, not a dashboard screenshot.

Three rule shapes ship as factories, matching the serving SLOs the loadgen
scenarios exercise:

* :func:`p99_over` — ``latency_ms{quantile="p99"}`` above a threshold;
* :func:`rejection_burn_rate` — ``error_burn_rate`` (the per-interval
  fraction of failed + rejected outcomes) above a ratio;
* :func:`queue_depth_sustained` — ``queue_pending`` at or above a depth;
* :func:`accuracy_drop` — per-tenant ``tenant_accuracy`` below a floor (the
  drift signal :class:`repro.lifecycle.DriftDetector` consumes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..records import Record
from .events import EventLog, emit
from .registry import MetricsRegistry

__all__ = [
    "AlertRule",
    "Alert",
    "Debounce",
    "SLOMonitor",
    "check_rule",
    "holds",
    "p99_over",
    "rejection_burn_rate",
    "queue_depth_sustained",
    "accuracy_drop",
    "default_rules",
]

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}


def check_rule(op: str, for_samples: int) -> None:
    """Validate the comparison and hold count every threshold rule carries."""
    if op not in _OPS:
        raise ValueError(f"unknown op {op!r}; known: {sorted(_OPS)}")
    if for_samples < 1:
        raise ValueError(f"for_samples must be >= 1, got {for_samples}")


def holds(op: str, value: float, threshold: float) -> bool:
    """Whether ``value <op> threshold``, for the ops :func:`check_rule` admits."""
    return _OPS[op](value, threshold)


class Debounce:
    """Per key: "held for N consecutive ticks, then leave it alone until tick K".

    The streak and cooldown tables of the tick-driven controllers (the
    :class:`~repro.autoscale.Autoscaler` keys them by rule name, the
    :class:`~repro.lifecycle.DriftDetector` by tenant), owned here so the
    callers hold neither.  A rest is *exclusive* of its end: ``resting(key,
    tick)`` is ``tick < until``, so a cooldown that also covers the tick it
    expires on is ``rest(key, until + 1)``.
    """

    def __init__(self) -> None:
        self._streaks: Dict[str, int] = {}
        self._rest_until: Dict[str, int] = {}

    def observe(self, key: str, holding: bool) -> int:
        """Grow ``key``'s streak if ``holding`` else reset it; returns the streak."""
        self._streaks[key] = self._streaks.get(key, 0) + 1 if holding else 0
        return self._streaks[key]

    def clear(self, key: Optional[str] = None) -> None:
        """Reset one key's streak, or with no key every streak."""
        for name in self._streaks if key is None else (key,):
            self._streaks[name] = 0

    def streaks(self) -> Dict[str, int]:
        """The live (non-zero) streaks, sorted by key."""
        return {key: n for key, n in sorted(self._streaks.items()) if n}

    def rest(self, key: str, until_tick: int) -> None:
        self._rest_until[key] = until_tick

    def rest_until(self, key: str) -> int:
        return self._rest_until.get(key, 0)

    def resting(self, key: str, tick: int) -> bool:
        return tick < self.rest_until(key)


@dataclass(frozen=True)
class AlertRule(Record):
    """One declarative SLO condition over one metric's series."""

    name: str
    metric: str  #: metric name, without the registry namespace
    op: str  #: one of > >= < <=
    threshold: float
    for_samples: int = 1  #: consecutive samples the condition must hold
    labels: Mapping[str, str] = field(default_factory=dict)  #: series filter
    description: str = ""

    def __post_init__(self) -> None:
        check_rule(self.op, self.for_samples)

    def condition(self, value: float) -> bool:
        return holds(self.op, value, self.threshold)

    def matches(self, labels: Tuple[Tuple[str, str], ...]) -> bool:
        """Whether a series' label set satisfies the rule's label filter."""
        series = dict(labels)
        return all(series.get(k) == str(v) for k, v in self.labels.items())


@dataclass(frozen=True)
class Alert:
    """One typed alert transition: a rule started or stopped firing."""

    rule: str
    metric: str
    labels: Tuple[Tuple[str, str], ...]
    state: str  #: "firing" | "resolved"
    value: float
    threshold: float
    at: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "metric": self.metric,
            "labels": {k: v for k, v in self.labels},
            "state": self.state,
            "value": self.value,
            "threshold": self.threshold,
            "at": self.at,
        }


class SLOMonitor:
    """Evaluates alert rules against a registry; emits alert transitions."""

    def __init__(
        self,
        registry: MetricsRegistry,
        rules: Tuple[AlertRule, ...] = (),
        event_log: Optional[EventLog] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.registry = registry
        self.rules: Tuple[AlertRule, ...] = tuple(rules)
        self.event_log = event_log
        self.clock = clock
        self.alerts: List[Alert] = []  #: full transition history, in order
        self._firing: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], Alert] = {}
        self._subscribers: List[Callable[[Alert], None]] = []

    def subscribe(self, callback: Callable[[Alert], None]) -> None:
        """Observe every alert transition (the autoscaler-to-be's feed)."""
        self._subscribers.append(callback)

    def _emit(self, alert: Alert) -> None:
        self.alerts.append(alert)
        # An injected log is used alone; otherwise the process-wide seam (a
        # no-op unless a log is installed), like every other producer.
        publish = self.event_log.emit if self.event_log is not None else emit
        publish("alert", ts=alert.at, **alert.to_dict())
        for subscriber in self._subscribers:
            subscriber(alert)

    def evaluate(self, now: Optional[float] = None) -> List[Alert]:
        """One rule pass; returns the transitions *this* pass produced."""
        at = self.clock() if now is None else float(now)
        transitions: List[Alert] = []
        for rule in self.rules:
            metric = self.registry.get(rule.metric)
            if metric is None:
                continue
            for labels, ts in metric.all_series():
                if not rule.matches(labels):
                    continue
                window = ts.tail(rule.for_samples)
                holding = len(window) >= rule.for_samples and all(
                    rule.condition(v) for v in window
                )
                key = (rule.name, labels)
                active = self._firing.get(key)
                if holding and active is None:
                    alert = Alert(
                        rule=rule.name,
                        metric=metric.name,
                        labels=labels,
                        state="firing",
                        value=window[-1],
                        threshold=rule.threshold,
                        at=at,
                    )
                    self._firing[key] = alert
                    self._emit(alert)
                    transitions.append(alert)
                elif not holding and active is not None:
                    del self._firing[key]
                    resolved = Alert(
                        rule=rule.name,
                        metric=metric.name,
                        labels=labels,
                        state="resolved",
                        value=window[-1] if window else 0.0,
                        threshold=rule.threshold,
                        at=at,
                    )
                    self._emit(resolved)
                    transitions.append(resolved)
        return transitions

    def active(self) -> List[Alert]:
        """Currently-firing alerts, sorted by (rule, labels)."""
        return [self._firing[key] for key in sorted(self._firing)]

    @property
    def fired(self) -> int:
        """How many times any rule transitioned to firing."""
        return sum(1 for alert in self.alerts if alert.state == "firing")

    def to_dict(self) -> Dict[str, object]:
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "active": [alert.to_dict() for alert in self.active()],
            "history": [alert.to_dict() for alert in self.alerts],
            "fired": self.fired,
        }


# -- rule factories (the alert vocabulary the CLI exposes) --------------------
def p99_over(threshold_ms: float = 250.0, for_samples: int = 2) -> AlertRule:
    """p99 latency above ``threshold_ms`` for ``for_samples`` straight polls."""
    return AlertRule(
        name="p99-over-threshold",
        metric="latency_ms",
        op=">",
        threshold=float(threshold_ms),
        for_samples=for_samples,
        labels={"quantile": "p99"},
        description=f"p99 latency > {threshold_ms:g}ms for {for_samples} samples",
    )


def rejection_burn_rate(max_ratio: float = 0.05, for_samples: int = 1) -> AlertRule:
    """Bad-outcome fraction of an interval above ``max_ratio``.

    Watches ``error_burn_rate`` — failed + rejected over all outcomes,
    per poll interval — so one outage window trips it regardless of how
    much healthy history the counters carry.
    """
    return AlertRule(
        name="rejection-burn-rate",
        metric="error_burn_rate",
        op=">",
        threshold=float(max_ratio),
        for_samples=for_samples,
        description=(
            f"failed+rejected fraction of an interval > {max_ratio:g} "
            f"for {for_samples} sample(s)"
        ),
    )


def queue_depth_sustained(depth: float = 64.0, for_samples: int = 3) -> AlertRule:
    """Fleet-wide pending queue at/above ``depth`` for ``for_samples`` polls."""
    return AlertRule(
        name="queue-depth-sustained",
        metric="queue_pending",
        op=">=",
        threshold=float(depth),
        for_samples=for_samples,
        description=f"pending queue >= {depth:g} for {for_samples} samples",
    )


def accuracy_drop(min_accuracy: float = 0.75, for_samples: int = 2) -> AlertRule:
    """A tenant's served-head accuracy below ``min_accuracy`` for
    ``for_samples`` straight polls.

    ``tenant_accuracy`` is a per-tenant labelled gauge, so each drifting
    tenant fires (and resolves) its own alert; the alert's ``tenant`` label
    tells the lifecycle plane *who* to re-personalize.  Not part of
    :func:`default_rules` — lifecycle-managed runs install it explicitly.
    """
    return AlertRule(
        name="accuracy-drop",
        metric="tenant_accuracy",
        op="<",
        threshold=float(min_accuracy),
        for_samples=for_samples,
        description=(
            f"served-head accuracy < {min_accuracy:g} for {for_samples} samples"
        ),
    )


def default_rules(
    p99_ms: float = 250.0,
    burn_ratio: float = 0.05,
    queue_depth: float = 64.0,
) -> Tuple[AlertRule, ...]:
    """The stock rule set ``loadgen --monitor`` and ``monitor`` install."""
    return (
        p99_over(p99_ms),
        rejection_burn_rate(burn_ratio),
        queue_depth_sustained(queue_depth),
    )
