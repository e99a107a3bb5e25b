"""Declarative scaling policies: rules, clamps, cooldown, typed decisions.

A :class:`ScalingRule` is the control-loop analogue of the SLO plane's
:class:`~repro.metrics.slo.AlertRule`: it names a *signal* (a key in the
dictionary the :class:`~repro.autoscale.Autoscaler` derives from each
unified-schema stats snapshot), a comparison, a threshold, and a
``for_samples`` hold count — the same consecutive-sample debounce the
:class:`~repro.metrics.slo.SLOMonitor` uses, in controller ticks rather than
wall time, so deterministic tests can drive it tick by tick.  Unlike an
alert rule it also carries a verdict: the ``action`` ("scale_out" or
"scale_in") and how many shards to move (``step``).

A :class:`ScalingPolicy` bundles the ordered rule set with the safety rails
every production control loop needs:

* ``min_shards`` / ``max_shards`` — hard clamps; a decision that would cross
  a bound is recorded as a ``clamp`` verdict and applies nothing;
* ``cooldown_ticks`` — after an applied action, further rule firings are
  recorded as ``suppress`` verdicts until the cooldown expires, which is the
  hysteresis that keeps the loop from flapping against its own telemetry lag;
* ``alert_actions`` — the SLOMonitor hand-off table, mapping an alert rule
  name (e.g. ``"queue-depth-sustained"``) to an action; the monitor's own
  fire-once-until-resolved state machine then guarantees exactly one action
  per alert episode.

Every verdict — applied, suppressed, or clamped — is recorded as an
immutable :class:`ScalingDecision`; the controller keeps them in a
:class:`~repro.records.RecordLog` of decisions, so a decision log replayed
under an injected clock is byte-stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Tuple

from ..metrics.slo import check_rule, holds
from ..records import Record

__all__ = [
    "ACTIONS",
    "VERDICTS",
    "ScalingRule",
    "ScalingPolicy",
    "ScalingDecision",
    "default_policy",
    "static_policy",
]

#: What a rule may ask for.
ACTIONS = ("scale_out", "scale_in")

#: What a decision may record: an applied action, or why nothing moved.
VERDICTS = ACTIONS + ("suppress", "clamp")

@dataclass(frozen=True)
class ScalingRule(Record):
    """One declarative condition over one control signal, with its verdict."""

    name: str
    signal: str  #: key into the tick's signal dict (see Autoscaler.SIGNALS)
    op: str  #: one of > >= < <=
    threshold: float
    action: str  #: "scale_out" | "scale_in"
    for_samples: int = 1  #: consecutive ticks the condition must hold
    step: int = 1  #: shards to add/remove per applied action
    description: str = ""

    def __post_init__(self) -> None:
        check_rule(self.op, self.for_samples)
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown action {self.action!r}; known: {ACTIONS}"
            )
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")

    def condition(self, value: float) -> bool:
        return holds(self.op, value, self.threshold)


@dataclass(frozen=True)
class ScalingPolicy(Record):
    """An ordered rule set plus the clamps/cooldown safety rails."""

    rules: Tuple[ScalingRule, ...] = ()
    min_shards: int = 1
    max_shards: int = 8
    cooldown_ticks: int = 4  #: ticks an applied action silences the loop for
    #: SLOMonitor hand-off: alert rule name -> action to apply when it fires.
    alert_actions: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise ValueError(f"min_shards must be >= 1, got {self.min_shards}")
        if self.max_shards < self.min_shards:
            raise ValueError(
                f"max_shards must be >= min_shards, got "
                f"{self.max_shards} < {self.min_shards}"
            )
        if self.cooldown_ticks < 0:
            raise ValueError(
                f"cooldown_ticks must be >= 0, got {self.cooldown_ticks}"
            )
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names in policy: {names}")
        for alert, action in self.alert_actions.items():
            if action not in ACTIONS:
                raise ValueError(
                    f"alert_actions[{alert!r}] must be one of {ACTIONS}, "
                    f"got {action!r}"
                )
        # Freeze the mapping into a plain dict copy so policies are value-like.
        object.__setattr__(self, "alert_actions", dict(self.alert_actions))
        object.__setattr__(self, "rules", tuple(self.rules))

    def clamp(self, shards: int) -> int:
        return min(max(shards, self.min_shards), self.max_shards)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ScalingPolicy":
        policy = dict(payload)
        if "rules" in policy:
            policy["rules"] = tuple(map(ScalingRule.from_dict, policy["rules"]))
        return super().from_dict(policy)


@dataclass(frozen=True)
class ScalingDecision(Record):
    """One immutable controller verdict: what fired, and what (if anything) moved.

    ``action`` is an applied ``scale_out``/``scale_in``, or ``suppress``
    (cooldown held it back) / ``clamp`` (a min/max bound did).  ``tick`` and
    ``at`` come from the controller's own counter and injected clock, so a
    scripted run's log is reproducible byte for byte.
    """

    tick: int
    at: float
    action: str  #: one of VERDICTS
    rule: str
    signal: str
    value: float
    threshold: float
    shards_before: int
    shards_after: int
    reason: str = ""


def default_policy(
    min_shards: int = 1,
    max_shards: int = 8,
    cooldown_ticks: int = 4,
    queue_high: float = 4.0,
    queue_low: float = 0.5,
    p99_ms: float = 250.0,
    burn_ratio: float = 0.1,
) -> ScalingPolicy:
    """The stock policy: queue-pressure/burn/p99 out, long-held idle in.

    The hysteresis lives in the gap between ``queue_high`` and ``queue_low``
    (per-shard backlog, so the thresholds mean the same thing at any fleet
    size) and in the asymmetric hold counts: scale-out reacts in 2 ticks,
    scale-in only after 4 quiet ones.  Rule order is priority order — a tick
    where both directions qualify scales out.
    """
    return ScalingPolicy(
        rules=(
            ScalingRule(
                name="queue-pressure",
                signal="queue_per_shard",
                op=">=",
                threshold=float(queue_high),
                action="scale_out",
                for_samples=2,
                description=f"backlog >= {queue_high:g}/shard for 2 ticks",
            ),
            ScalingRule(
                name="burn-rate",
                signal="error_burn_rate",
                op=">",
                threshold=float(burn_ratio),
                action="scale_out",
                for_samples=1,
                description=f"bad-outcome fraction > {burn_ratio:g} this tick",
            ),
            ScalingRule(
                name="p99-pressure",
                signal="p99_ms",
                op=">",
                threshold=float(p99_ms),
                action="scale_out",
                for_samples=2,
                description=f"p99 > {p99_ms:g}ms for 2 ticks",
            ),
            ScalingRule(
                name="queue-idle",
                signal="queue_per_shard",
                op="<=",
                threshold=float(queue_low),
                action="scale_in",
                for_samples=4,
                description=f"backlog <= {queue_low:g}/shard for 4 ticks",
            ),
        ),
        min_shards=min_shards,
        max_shards=max_shards,
        cooldown_ticks=cooldown_ticks,
        alert_actions={"queue-depth-sustained": "scale_out"},
    )


def static_policy(shards: int) -> ScalingPolicy:
    """A no-op policy pinning the fleet at ``shards`` (the control arm).

    No rules, equal clamps: the controller observes but never moves, which
    is exactly the static fleet the autoscaled-vs-static comparison runs
    against.
    """
    return ScalingPolicy(
        rules=(), min_shards=shards, max_shards=shards, cooldown_ticks=0
    )
