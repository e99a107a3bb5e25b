"""DriftDetector: per-tenant accuracy streaks over the telemetry feed.

The detector is wired exactly like the :class:`~repro.autoscale.Autoscaler`:
:meth:`attach` subscribes its :meth:`observe` to a
:class:`~repro.metrics.TelemetryPoller`, so every poll becomes one detector
tick; :meth:`wire` optionally subscribes :meth:`on_alert` to an
:class:`~repro.metrics.SLOMonitor` carrying the stock ``accuracy_drop``
rule, for deployments that want the monitor's debounce to be the trigger.

A tick reads the ``tenants`` stats block (what
:class:`~repro.lifecycle.telemetry.LifecycleStatsSource` splices in) and
keeps, per tenant, a consecutive-breach streak with a minimum-sample floor
and a post-detection cooldown — the :class:`~repro.metrics.slo.Debounce`
the autoscaler keys by rule, keyed here by tenant.  When a streak matures
it hands the tenant to the
:class:`~repro.lifecycle.manager.LifecycleManager` (``on_drift``); tenants
mid-canary get their verdict evaluated instead.  The detector holds no
policy of its own: thresholds come from the manager's
:class:`~repro.lifecycle.manager.LifecyclePolicy`, so there is exactly one
place to tune the loop.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..metrics.slo import Debounce
from .manager import LifecycleManager

__all__ = ["DriftDetector"]


class DriftDetector:
    """Turns per-tenant accuracy telemetry into lifecycle triggers."""

    def __init__(
        self,
        manager: LifecycleManager,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.manager = manager
        self.policy = manager.policy
        self.clock = clock
        self.ticks = 0
        self.detections = 0  #: drift signals the manager accepted
        self.verdicts = 0  #: canary promotions + rollbacks triggered here
        self._debounce = Debounce()  #: streak and cooldown per tenant

    # -- wiring (mirrors Autoscaler.attach / .wire) ---------------------------
    def attach(self, poller) -> "DriftDetector":
        """Subscribe to a TelemetryPoller: every poll is one detector tick."""
        poller.subscribe(self.observe)
        return self

    def wire(self, monitor) -> "DriftDetector":
        """Subscribe to an SLOMonitor's alert stream (``accuracy-drop``)."""
        monitor.subscribe(self.on_alert)
        return self

    # -- the tick -------------------------------------------------------------
    def observe(self, stats: Dict[str, object], now: Optional[float] = None) -> None:
        """Poller callback: one tick over the snapshot's ``tenants`` block."""
        rows = stats.get("tenants") or []
        self.tick([row for row in rows if isinstance(row, dict)], now=now)

    def tick(self, rows: List[Dict[str, object]], now: Optional[float] = None) -> None:
        t = self.clock() if now is None else float(now)
        self.ticks += 1
        for row in sorted(rows, key=lambda r: str(r.get("tenant"))):
            tenant = row.get("tenant")
            if not isinstance(tenant, str):
                continue
            state = self.manager.state(tenant)
            if state == "CANARYING":
                if self.manager.evaluate_canary(tenant, now=t) is not None:
                    self.verdicts += 1
                continue
            if state != "SERVING":
                continue
            accuracy = row.get("accuracy")
            requests = row.get("requests", 0)
            if not isinstance(accuracy, (int, float)) or not isinstance(
                requests, (int, float)
            ):
                continue
            streak = self._debounce.observe(
                tenant,
                requests >= self.policy.min_requests
                and accuracy < self.policy.min_accuracy,
            )
            if streak < self.policy.for_samples:
                continue
            if self._debounce.resting(tenant, self.ticks):
                continue
            evidence = {
                "accuracy": round(float(accuracy), 6),
                "requests": int(requests),
                "streak": streak,
                "threshold": self.policy.min_accuracy,
                "tick": self.ticks,
            }
            if self.manager.on_drift(
                tenant, reason="accuracy_drop", evidence=evidence, now=t
            ) is not None:
                # Only an *accepted* signal burns the streak and starts the
                # cooldown; a deferred one (manager waiting for fresher
                # labels) keeps the matured streak so the next tick retries.
                self.detections += 1
                self._debounce.clear(tenant)
                self._debounce.rest(tenant, self.ticks + self.policy.cooldown_ticks)

    # -- the alert path -------------------------------------------------------
    def on_alert(self, alert) -> None:
        """Treat a firing ``accuracy-drop`` alert as a matured drift signal.

        The SLO monitor already debounced (``for_samples`` consecutive
        polls below the floor), so the alert bypasses the local streaks;
        the manager's SERVING-state guard keeps double-wired setups (both
        :meth:`attach` and :meth:`wire`) from opening two cycles.
        """
        if getattr(alert, "rule", None) != "accuracy-drop":
            return
        if getattr(alert, "state", None) != "firing":
            return
        tenant = dict(alert.labels).get("tenant")
        if not tenant:
            return
        evidence = {
            "accuracy": round(float(alert.value), 6),
            "threshold": float(alert.threshold),
            "alert": alert.rule,
        }
        if self.manager.on_drift(
            tenant, reason="accuracy_drop_alert", evidence=evidence, now=alert.at
        ) is not None:
            self.detections += 1

    def to_dict(self) -> Dict[str, object]:
        return {
            "ticks": self.ticks,
            "detections": self.detections,
            "verdicts": self.verdicts,
            "streaks": self._debounce.streaks(),
        }
