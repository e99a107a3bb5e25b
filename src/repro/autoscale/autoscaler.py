"""The Autoscaler: a closed control loop over a scalable shard fleet.

The controller consumes the same unified-schema stats snapshots the
telemetry plane already samples — queue depth, p99 latency, and the
per-interval rejection/failure burn rate — and actuates the scaling seams
the cluster already exposes (:meth:`~repro.cluster.ClusterService.add_shard`
and the graceful-drain :meth:`~repro.cluster.ClusterService.remove_shard`).
Nothing in the loop is new machinery; the PR's work is closing it:

.. code-block:: text

            ┌────────────────────────────────────────────────┐
            │                 TelemetryPoller                 │
            │   stats() ──► record_sample ──► SLOMonitor      │
            └───────┬────────────────────────────┬───────────┘
                    │ subscribe(stats, t)        │ alerts
                    ▼                            ▼
            ┌──────────────┐  alert_actions  ┌────────────┐
            │  Autoscaler  │◄────────────────│  on_alert  │
            │ rules+streaks│                 └────────────┘
            │ cooldown+clamps
            └──────┬───────┘
                   │ add_shard() / remove_shard(id)
                   ▼
            ┌──────────────┐
            │ ClusterService│──► stats() ──► (back to the poller)
            └──────────────┘

Two driving modes, mirroring the poller's:

* **attached** — :meth:`attach` subscribes :meth:`observe` to a
  :class:`~repro.metrics.poller.TelemetryPoller`, so every poll becomes one
  controller tick against the live fleet;
* **scripted** — call :meth:`tick` yourself with a signal dict and an
  explicit ``now``; with an injected clock the full decision log is a pure
  function of the script, byte for byte (the deterministic test suite and
  the CI determinism diff both drive this mode).

The debounce is one :class:`~repro.metrics.slo.Debounce`: per-rule
consecutive-tick streaks, an explicit cooldown window after every applied
action (one fleet-wide rest), and min/max clamps — with the twist that
*suppressed and clamped firings are recorded too*, as first-class
:class:`~repro.autoscale.policy.ScalingDecision` rows, because "the loop
wanted to move and the rails held it" is exactly what an operator debugging
a flapping fleet needs to see.

The scale-in victim is always the highest live shard id: deterministic,
and biased toward the youngest shard, whose engine cache is the coldest.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..metrics.events import emit
from ..metrics.poller import burn_rate
from ..metrics.slo import Debounce
from ..records import RecordLog
from .policy import (
    ACTIONS,
    ScalingDecision,
    ScalingPolicy,
    default_policy,
)

__all__ = ["Autoscaler", "SIGNALS"]

#: The :class:`Debounce` key of the one fleet-wide cooldown.
_FLEET = "fleet"

#: The control-signal vocabulary :meth:`Autoscaler.signals` derives from a
#: unified-schema stats snapshot (rules may also name custom keys when the
#: loop is driven with hand-built signal dicts).
SIGNALS = (
    "queue_pending",     # fleet-wide queued requests (queue.pending)
    "queue_per_shard",   # queue_pending / live shards — size-invariant backlog
    "p99_ms",            # latency.p99_ms when present, else 0
    "error_burn_rate",   # (Δfailed + Δrejected) / Δoutcomes since last tick
    "shards",            # live shard count
)


class Autoscaler:
    """Declarative-policy control loop over anything with the scaling seams.

    ``target`` needs ``shards`` / ``shard_ids()`` / ``add_shard()`` /
    ``remove_shard(id)`` — :class:`~repro.cluster.ClusterService` natively, a
    :class:`~repro.gateway.ClusterBackend` via its ``.cluster``, or the
    thread-free :class:`~repro.autoscale.sim.FleetModel` in tests.
    """

    def __init__(
        self,
        target,
        policy: Optional[ScalingPolicy] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        # A ClusterBackend adapter exposes the scaling seams through its
        # wrapped cluster; unwrap so decisions actuate the real fleet.
        cluster = getattr(target, "cluster", None)
        if cluster is not None and hasattr(cluster, "add_shard"):
            target = cluster
        for attr in ("shards", "shard_ids", "add_shard", "remove_shard"):
            if not hasattr(target, attr):
                raise TypeError(
                    f"autoscaler target {type(target).__name__} has no "
                    f"{attr!r}; it must expose the cluster scaling surface"
                )
        self.target = target
        self.policy = policy if policy is not None else default_policy()
        self.clock = clock
        self.ticks = 0
        self._log: RecordLog[ScalingDecision] = RecordLog()
        self._debounce = Debounce()  #: streaks by rule name, one fleet rest
        self._fleet_log: List[Tuple[float, int]] = []  #: (t, shards) steps
        self._prev_outcomes: Optional[Tuple[float, float, float]] = None
        self._lock = threading.RLock()

    # -- signal extraction -----------------------------------------------------
    def signals(self, stats: Dict[str, object]) -> Dict[str, float]:
        """Derive the control signals from one unified-schema snapshot.

        The burn rate is computed the way
        :func:`~repro.metrics.poller.record_sample` derives it — from the
        *deltas* of the completed/failed/rejected totals since the previous
        tick, clamped non-negative — so a long-healthy history cannot dilute
        a fresh outage.  The first snapshot only sets the baseline.
        """
        latency = stats.get("latency") or {}
        queue = stats.get("queue") or {}
        errors = stats.get("errors") or {}
        shards = float(stats.get("shards", self.target.shards) or 1.0)
        pending = float(queue.get("pending", 0.0) or 0.0)
        totals = (
            float(latency.get("count", 0.0) or 0.0),
            float(errors.get("failed", 0.0) or 0.0),
            float(errors.get("rejected", 0.0) or 0.0),
        )
        with self._lock:
            prev = self._prev_outcomes if self._prev_outcomes else totals
            self._prev_outcomes = totals
        deltas = [max(0.0, cur - old) for cur, old in zip(totals, prev)]
        return {
            "queue_pending": pending,
            "queue_per_shard": pending / max(shards, 1.0),
            "p99_ms": float(latency.get("p99_ms", 0.0) or 0.0),
            "error_burn_rate": burn_rate(*deltas),
            "shards": shards,
        }

    # -- the loop --------------------------------------------------------------
    def observe(
        self, stats: Dict[str, object], now: Optional[float] = None
    ) -> List[ScalingDecision]:
        """One tick from a raw stats snapshot (the poller-subscriber entry)."""
        with self._lock:
            return self.tick(self.signals(stats), now=now)

    def tick(
        self, signals: Dict[str, float], now: Optional[float] = None
    ) -> List[ScalingDecision]:
        """One controller pass over a signal dict; returns new decisions.

        Streak accounting mirrors the SLOMonitor: a rule's streak grows on
        every tick its condition holds and resets the moment it (or its
        signal) goes away.  The first rule in policy order whose streak
        reaches ``for_samples`` fires; its firing is then judged against the
        cooldown window and the min/max clamps, and the verdict — applied,
        ``suppress``, or ``clamp`` — is appended to the decision log.
        """
        with self._lock:
            t = self.clock() if now is None else float(now)
            if not self._fleet_log:
                self._fleet_log.append((t, int(self.target.shards)))
            self.ticks += 1
            fired = None
            for rule in self.policy.rules:
                value = signals.get(rule.signal)
                holding = value is not None and rule.condition(float(value))
                streak = self._debounce.observe(rule.name, holding)
                if fired is None and streak >= rule.for_samples:
                    fired = (rule, float(value))
            if fired is None:
                return []
            rule, value = fired
            decision = self._apply(
                rule.action,
                rule=rule.name,
                signal=rule.signal,
                value=value,
                threshold=rule.threshold,
                step=rule.step,
                at=t,
            )
            if decision.action in ACTIONS:
                # The fleet changed: every rule's evidence described the old
                # one.  Start all streaks over.
                self._debounce.clear()
            else:
                # Suppressed/clamped: re-arm just the rule that fired so the
                # log records one verdict per held window, not one per tick.
                self._debounce.clear(rule.name)
            return [decision]

    def on_alert(self, alert) -> Optional[ScalingDecision]:
        """SLOMonitor hand-off: map one *firing* alert to one scaling action.

        Wired via ``monitor.subscribe(autoscaler.on_alert)`` (see
        :meth:`wire`).  Only ``firing`` transitions of rules listed in the
        policy's ``alert_actions`` act; ``resolved`` transitions are the
        monitor re-arming its own debounce, so a sustained violation scales
        exactly once per alert episode.  The tick cooldown is *not* checked
        here — the monitor's fire-once-until-resolved state machine is the
        hysteresis on this path — but an applied action still starts the
        cooldown so the rule-driven path backs off.
        """
        action = self.policy.alert_actions.get(getattr(alert, "rule", None))
        if action is None or getattr(alert, "state", None) != "firing":
            return None
        with self._lock:
            decision = self._apply(
                action,
                rule=f"alert:{alert.rule}",
                signal=alert.metric,
                value=float(alert.value),
                threshold=float(alert.threshold),
                step=1,
                at=float(alert.at),
                honor_cooldown=False,
            )
            if decision.action in ACTIONS:
                self._debounce.clear()
            return decision

    def _apply(
        self,
        action: str,
        *,
        rule: str,
        signal: str,
        value: float,
        threshold: float,
        step: int,
        at: float,
        honor_cooldown: bool = True,
    ) -> ScalingDecision:
        before = int(self.target.shards)
        if not self._fleet_log:
            self._fleet_log.append((at, before))
        if honor_cooldown and self._debounce.resting(_FLEET, self.ticks):
            decision = ScalingDecision(
                tick=self.ticks, at=at, action="suppress", rule=rule,
                signal=signal, value=value, threshold=threshold,
                shards_before=before, shards_after=before,
                reason=f"cooldown until tick {self._debounce.rest_until(_FLEET) - 1}",
            )
        else:
            delta = step if action == "scale_out" else -step
            after = self.policy.clamp(before + delta)
            if after == before:
                bound = "max_shards" if delta > 0 else "min_shards"
                decision = ScalingDecision(
                    tick=self.ticks, at=at, action="clamp", rule=rule,
                    signal=signal, value=value, threshold=threshold,
                    shards_before=before, shards_after=before,
                    reason=f"at {bound} ({getattr(self.policy, bound)})",
                )
            else:
                if after > before:
                    for _ in range(after - before):
                        self.target.add_shard()
                else:
                    # Deterministic victims: the highest (youngest) live ids.
                    victims = sorted(self.target.shard_ids(), reverse=True)
                    for shard_id in victims[: before - after]:
                        self.target.remove_shard(shard_id)
                # The cooldown holds *through* its last tick, the rest is
                # exclusive of its end: hence the + 1.
                self._debounce.rest(
                    _FLEET, self.ticks + self.policy.cooldown_ticks + 1
                )
                self._fleet_log.append((at, after))
                decision = ScalingDecision(
                    tick=self.ticks, at=at, action=action, rule=rule,
                    signal=signal, value=value, threshold=threshold,
                    shards_before=before, shards_after=after,
                )
        self._log.append(lambda seq: decision)
        emit(
            "autoscale",
            tick=decision.tick,
            action=decision.action,
            rule=decision.rule,
            shards_before=decision.shards_before,
            shards_after=decision.shards_after,
            value=decision.value,
        )
        return decision

    # -- wiring ----------------------------------------------------------------
    def attach(self, poller) -> "Autoscaler":
        """Subscribe to a :class:`TelemetryPoller`: every sample, one tick."""
        poller.subscribe(self.observe)
        return self

    def wire(self, monitor) -> "Autoscaler":
        """Subscribe :meth:`on_alert` to an :class:`SLOMonitor`'s transitions."""
        monitor.subscribe(self.on_alert)
        return self

    # -- accounting ------------------------------------------------------------
    @property
    def fleet_log(self) -> List[Tuple[float, int]]:
        """(t, shards) steps: the initial size plus every applied change."""
        with self._lock:
            return list(self._fleet_log)

    def shard_seconds(self, until: Optional[float] = None) -> float:
        """∫ shards dt over the observed fleet history, up to ``until``.

        The cost integral the autoscaled-vs-static comparison is scored on:
        a static fleet pays ``shards × duration``; the controller's win is
        the area it shaves off while the SLO still holds.
        """
        log = self.fleet_log
        if not log:
            return 0.0
        end = self.clock() if until is None else float(until)
        total = 0.0
        for (t0, n), (t1, _) in zip(log, log[1:]):
            total += n * max(0.0, t1 - t0)
        total += log[-1][1] * max(0.0, end - log[-1][0])
        return total

    @property
    def decisions(self) -> List[ScalingDecision]:
        """Every verdict so far, in order."""
        return self._log.records()

    def action_counts(self) -> Dict[str, int]:
        return self._log.counts("action")

    def decision_log_jsonl(self) -> str:
        """The decision log as JSONL — the CI-diffable determinism artifact."""
        return "".join(line + "\n" for line in self._log.lines())

    def to_dict(self) -> Dict[str, object]:
        fleet_log = self.fleet_log
        return {
            "ticks": self.ticks,
            "shards": int(self.target.shards),
            "policy": self.policy.to_dict(),
            "decisions": [decision.to_dict() for decision in self.decisions],
            "actions": self.action_counts(),
            "fleet_log": [[t, n] for t, n in fleet_log],
            "peak_shards": max((n for _, n in fleet_log), default=0),
        }
