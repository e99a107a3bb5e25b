"""LifecycleManager: the control loop that owns every tenant's state machine.

One manager supervises a fleet: per tenant it holds the current lifecycle
state, and drives the only legal path through it —

``SERVING`` --accuracy drop--> ``DRIFTING`` --> ``REPRUNING`` (build a new
version for the tenant's *observed* class head) --> ``CANARYING`` (seeded
split or shadow rollout via the :class:`~repro.lifecycle.rollout.RolloutTable`)
--> ``PROMOTED`` (canary recovered: :meth:`~repro.serve.registry.ModelRegistry.set_active`
flips the tenant, caches invalidate) or ``ROLLED_BACK`` (one call, stable
keeps serving, canary engines evicted) --> back to ``SERVING``.

Everything the manager does is audited: each edge is one
:class:`~repro.lifecycle.audit.LifecycleTransition` in the
:class:`~repro.lifecycle.audit.AuditLog` and one ``lifecycle`` event on the
structured event log.  With an injected virtual ``clock`` the whole loop —
detection times, rollout decisions, audit records — is a pure function of
the workload seed, which is what the byte-identical-runs CI gate checks.

Re-pruning runs synchronously by default (deterministic replay) or on a
background thread (``background=True``): serving never blocks on a rebuild
either way, because traffic keeps resolving to the stable version until the
canary is installed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..records import Record
from ..serve.registry import ModelRegistry
from .audit import AuditLog
from .rollout import ROLLOUT_MODES, RolloutTable, split_arm
from .telemetry import AccuracyTracker

__all__ = ["LifecyclePolicy", "LifecycleManager"]


@dataclass(frozen=True)
class LifecyclePolicy(Record):
    """The knobs of one lifecycle control loop (all deterministic)."""

    min_accuracy: float = 0.75  #: served-head accuracy floor
    for_samples: int = 2  #: consecutive low-accuracy ticks before drift fires
    min_requests: int = 4  #: window samples required before judging a tenant
    cooldown_ticks: int = 2  #: detector ticks to hold off after a detection
    canary_fraction: float = 0.5  #: share of traffic the canary receives
    canary_min_requests: int = 4  #: canary-arm samples before the verdict
    promote_margin: float = 0.0  #: extra accuracy the canary must clear
    rollout_mode: str = "split"  #: "split" routes, "shadow" duplicates
    rollout_seed: int = 0  #: seeds the per-request hash split
    max_versions: int = 8  #: version-stack cap per tenant (runaway guard)

    def __post_init__(self) -> None:
        if not 0.0 < self.min_accuracy <= 1.0:
            raise ValueError(f"min_accuracy must be in (0, 1], got {self.min_accuracy}")
        if not 0.0 < self.canary_fraction <= 1.0:
            raise ValueError(
                f"canary_fraction must be in (0, 1], got {self.canary_fraction}"
            )
        if self.rollout_mode not in ROLLOUT_MODES:
            raise ValueError(
                f"unknown rollout_mode {self.rollout_mode!r}; known: {ROLLOUT_MODES}"
            )
        for name in ("for_samples", "min_requests", "canary_min_requests"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.cooldown_ticks < 0:
            raise ValueError(f"cooldown_ticks must be >= 0, got {self.cooldown_ticks}")
        if self.max_versions < 2:
            raise ValueError(f"max_versions must be >= 2, got {self.max_versions}")


class LifecycleManager:
    """Per-tenant lifecycle state machine over a versioned registry.

    ``repersonalize(tenant, target_classes, version)`` builds the new
    module for a drifted tenant — the production implementation re-runs
    CRISP pruning on fresh data; the synthetic harness rebuilds a
    magnitude-masked model whose metadata head matches ``target_classes``.
    It may return either a module or a ``(module, metadata)`` pair.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        repersonalize: Callable,
        policy: Optional[LifecyclePolicy] = None,
        rollout: Optional[RolloutTable] = None,
        tracker: Optional[AccuracyTracker] = None,
        audit: Optional[AuditLog] = None,
        clock: Callable[[], float] = time.time,
        background: bool = False,
    ) -> None:
        self.registry = registry
        self.repersonalize = repersonalize
        self.policy = policy or LifecyclePolicy()
        self.rollout = rollout if rollout is not None else RolloutTable()
        self.tracker = tracker if tracker is not None else AccuracyTracker()
        self.audit = audit if audit is not None else AuditLog()
        self.clock = clock
        self.background = background
        self._states: Dict[str, str] = {}
        self._lock = threading.RLock()
        self.cycles = 0  #: completed lifecycle cycles (promoted or rolled back)
        self.promoted = 0
        self.rolled_back = 0

    # -- state ----------------------------------------------------------------
    def state(self, tenant: str) -> str:
        with self._lock:
            return self._states.get(tenant, "SERVING")

    def states(self) -> Dict[str, str]:
        with self._lock:
            return dict(self._states)

    def _transition(self, tenant: str, to_state: str, reason: str,
                    now: float, details: Optional[Dict[str, object]] = None):
        with self._lock:
            from_state = self._states.get(tenant, "SERVING")
            record = self.audit.append(
                at=now, tenant=tenant, from_state=from_state,
                to_state=to_state, reason=reason, details=details,
            )
            self._states[tenant] = to_state
        return record

    # -- telemetry ------------------------------------------------------------
    def _classes(self, model_id: str) -> List[int]:
        if model_id not in self.registry:
            return []
        return [int(c) for c in self.registry.get(model_id).metadata.get("classes", [])]

    def observe_prediction(
        self,
        tenant: str,
        request_id: Optional[str],
        served_id: str,
        label: Optional[int],
    ) -> Optional[bool]:
        """Score one served prediction; returns the hit verdict (or None).

        During a ``shadow`` rollout the canary never serves user traffic,
        so its score is the *counterfactual*: for every request the split
        hash assigns to the canary, judge the canary's head against the
        same label the stable version was scored on.
        """
        if label is None:
            return None
        entry = self.rollout.entry(tenant)
        hit = int(label) in self._classes(served_id)
        active = (
            self.registry.active_version(tenant)
            if tenant in self.registry else served_id
        )
        active_hit = int(label) in self._classes(active)
        arm = "stable"
        if entry is not None:
            if entry.mode == "split":
                arm = "canary" if served_id == entry.canary else "stable"
            elif split_arm(entry.seed, tenant, request_id, entry.fraction) == "canary":
                self.tracker.record(
                    tenant, int(label) in self._classes(entry.canary), arm="canary"
                )
        self.tracker.record(
            tenant, hit, arm=arm, label=int(label), label_hit=active_hit
        )
        return hit

    def tenant_rows(self, now: Optional[float] = None) -> List[Dict[str, object]]:
        """The per-tenant ``tenants`` stats block (sorted, JSON-stable)."""
        t = self.clock() if now is None else float(now)
        rows = []
        for tenant in self.tracker.tenants():
            accuracy = self.tracker.accuracy(tenant, "stable")
            if accuracy is None:
                continue
            active = (
                self.registry.active_version(tenant)
                if tenant in self.registry else tenant
            )
            personalized_at = 0.0
            if active in self.registry:
                personalized_at = float(
                    self.registry.get(active).metadata.get("personalized_at", 0.0)
                )
            row: Dict[str, object] = {
                "tenant": tenant,
                "accuracy": round(accuracy, 6),
                "requests": self.tracker.samples(tenant, "stable"),
                "staleness_s": round(max(0.0, t - personalized_at), 6),
                "state": self.state(tenant),
                "active_version": active,
            }
            canary_accuracy = self.tracker.accuracy(tenant, "canary")
            if canary_accuracy is not None:
                row["canary_accuracy"] = round(canary_accuracy, 6)
                row["canary_requests"] = self.tracker.samples(tenant, "canary")
            rows.append(row)
        return rows

    # -- the drift -> canary path ---------------------------------------------
    def on_drift(
        self,
        tenant: str,
        reason: str = "accuracy_drop",
        evidence: Optional[Dict[str, object]] = None,
        now: Optional[float] = None,
    ) -> Optional[str]:
        """Open a lifecycle cycle for ``tenant``; returns the canary id.

        Ignored (returns ``None``) unless the tenant is ``SERVING`` — a
        drift signal arriving mid-cycle is the same drift, already being
        handled.  Synchronous by default; with ``background=True`` the
        re-prune runs on a daemon thread and traffic keeps resolving to
        the stable version until the canary is installed.
        """
        t = self.clock() if now is None else float(now)
        with self._lock:
            if self.state(tenant) != "SERVING" or tenant not in self.registry:
                return None
            if len(self.registry.versions(tenant)) >= self.policy.max_versions:
                return None
            head_size = max(1, len(self._classes(self.registry.active_version(tenant))))
            # A canary built toward a half-stale head burns a whole rollout
            # cycle, so the target comes from miss-first evidence (see
            # AccuracyTracker.target_estimate); [] means "not enough fresh
            # labels yet" — stay SERVING and let the detector retry.
            target = self.tracker.target_estimate(tenant, head_size)
            if not target:
                return None  # evidence too thin to re-personalize toward
            self._transition(tenant, "DRIFTING", reason, t, evidence)
            self._transition(
                tenant, "REPRUNING", "repersonalize", t,
                {"target_classes": target},
            )
        if self.background:
            thread = threading.Thread(
                target=self._install_canary, args=(tenant, target, t),
                name=f"repro-reprune-{tenant}", daemon=True,
            )
            thread.start()
            return "pending"
        return self._install_canary(tenant, target, t)

    def _install_canary(self, tenant: str, target: List[int], now: float) -> str:
        """Build + register the new version, then start its rollout."""
        version = len(self.registry.versions(tenant)) + 1
        built = self.repersonalize(tenant, target, version)
        module, metadata = built if isinstance(built, tuple) else (built, {})
        metadata = dict(metadata)
        metadata.setdefault("classes", sorted(int(c) for c in target))
        metadata["version"] = version
        metadata["personalized_at"] = float(now)
        with self._lock:
            stable = self.registry.active_version(tenant)
            canary = self.registry.register_version(tenant, module, metadata=metadata)
            self.rollout.start(
                tenant, stable=stable, canary=canary,
                fraction=self.policy.canary_fraction,
                mode=self.policy.rollout_mode,
                seed=self.policy.rollout_seed,
            )
            self.tracker.reset_arm(tenant, "canary")
            self._transition(
                tenant, "CANARYING", "canary_started", now,
                {
                    "stable": stable,
                    "canary": canary,
                    "fraction": self.policy.canary_fraction,
                    "mode": self.policy.rollout_mode,
                },
            )
        return canary

    # -- the canary verdict ---------------------------------------------------
    def evaluate_canary(self, tenant: str, now: Optional[float] = None) -> Optional[str]:
        """Judge an in-flight canary; returns "promoted"/"rolled_back"/None.

        ``None`` means "keep canarying" — not enough canary-arm samples
        yet.  The verdict is pure window arithmetic: promote when the
        canary's served-head accuracy clears the policy floor (plus
        margin), roll back when a full window failed to.
        """
        t = self.clock() if now is None else float(now)
        with self._lock:
            if self.state(tenant) != "CANARYING":
                return None
            entry = self.rollout.entry(tenant)
            if entry is None:  # table cleared out from under us: recover
                self._states[tenant] = "SERVING"
                return None
            samples = self.tracker.samples(tenant, "canary")
            if samples < self.policy.canary_min_requests:
                return None
            accuracy = self.tracker.accuracy(tenant, "canary") or 0.0
            verdict = {
                "canary": entry.canary,
                "canary_accuracy": round(accuracy, 6),
                "canary_requests": samples,
                "threshold": self.policy.min_accuracy,
            }
            if accuracy >= self.policy.min_accuracy + self.policy.promote_margin:
                self._promote(tenant, entry, t, verdict)
                return "promoted"
            self._rollback(tenant, entry, "canary_below_floor", t, verdict)
            return "rolled_back"

    def _promote(self, tenant: str, entry, now: float, details: Dict[str, object]) -> None:
        self.rollout.finish(tenant)
        self.registry.set_active(tenant, entry.canary)
        self._transition(tenant, "PROMOTED", "canary_recovered", now, details)
        self._transition(tenant, "SERVING", "cycle_complete", now)
        self.tracker.reset_tenant(tenant)
        self.promoted += 1
        self.cycles += 1

    def _rollback(self, tenant: str, entry, reason: str, now: float,
                  details: Dict[str, object]) -> None:
        self.rollout.clear(tenant)
        # Re-asserting the stable version notifies cache subscribers, which
        # evict every cached version of the tenant — including the abandoned
        # canary's engines.
        self.registry.set_active(tenant, entry.stable)
        self._transition(tenant, "ROLLED_BACK", reason, now, details)
        self._transition(tenant, "SERVING", "cycle_complete", now)
        self.tracker.reset_arm(tenant, "canary")
        self.rolled_back += 1
        self.cycles += 1

    def rollback(self, tenant: str, reason: str = "manual",
                 now: Optional[float] = None) -> bool:
        """One-call rollback of an in-flight canary; returns whether it acted.

        After this returns, every subsequent request for ``tenant``
        resolves to the stable version and serves its bit-exact responses
        (stale canary engines are evicted via the registry's version-change
        subscription).
        """
        t = self.clock() if now is None else float(now)
        with self._lock:
            if self.state(tenant) != "CANARYING":
                return False
            entry = self.rollout.entry(tenant)
            if entry is None:
                self._states[tenant] = "SERVING"
                return False
            self._rollback(tenant, entry, reason, t, {"canary": entry.canary})
            return True

    # -- introspection --------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "policy": self.policy.to_dict(),
            "states": {t: s for t, s in sorted(self.states().items())},
            "cycles": self.cycles,
            "promoted": self.promoted,
            "rolled_back": self.rolled_back,
            "transitions": len(self.audit),
            "rollout": self.rollout.counts(),
        }
