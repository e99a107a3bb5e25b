"""Deterministic lifecycle replay: the whole control loop, virtually clocked.

Drives a drift workload synchronously through the full production stack —
``Gateway(PersonalizationService)`` with the
:class:`~repro.lifecycle.rollout.RolloutMiddleware` installed, telemetry
sampled by a real :class:`~repro.metrics.TelemetryPoller` into a real
:class:`~repro.metrics.SLOMonitor` carrying the stock ``accuracy_drop``
rule, the :class:`~repro.lifecycle.detector.DriftDetector` subscribed to the
poller exactly as the autoscaler is — but with *virtual time*: the clock
every component sees is the workload's arrival offset, and poller samples
are taken every ``tick_every`` requests instead of from a thread.

That makes a lifecycle run a pure function of the seed: the drift schedule,
detection tick, rollout split decisions, audit log, and event stream are
byte-identical across same-seed runs (the CI gate diffs them), while the
live wiring (`detector.attach(poller)`, background threads, wall clocks)
stays the deployment story.

:func:`run_lifecycle_compare` replays the same workload twice — lifecycle
disabled (static: v1 serves forever) and enabled — and reports the
served-head accuracy delta, which is the experiment the ``lifecycle-compare``
pipeline preset packages; ``tests/test_lifecycle.py::TestLifecycleHarness``
holds it to the claim (managed beats static and promotes, same-seed replays
byte-identical).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from ..gateway.gateway import Gateway, GatewayConfig
from ..gateway.wire import ApiRequest
from ..loadgen.popularity import ClassDriftPopularity
from ..loadgen.scenario import build_scenario
from ..metrics.events import EventLog, event_log
from ..metrics.poller import TelemetryPoller
from ..metrics.registry import MetricsRegistry
from ..metrics.slo import SLOMonitor, accuracy_drop
from ..records import round6
from ..serve.service import PersonalizationService, ServiceConfig
from ..serve.types import PredictResponse
from .audit import AuditLog
from .detector import DriftDetector
from .fleet import drift_fleet, synthetic_repersonalizer
from .manager import LifecycleManager, LifecyclePolicy
from .rollout import RolloutMiddleware, RolloutTable
from .telemetry import AccuracyTracker, LifecycleStatsSource

__all__ = ["run_lifecycle_replay", "run_lifecycle_compare", "score_lifecycle"]


def _window_accuracy(hits: List[bool], window: int) -> Optional[float]:
    tail = hits[-window:] if window else hits
    if not tail:
        return None
    return round6(sum(tail) / len(tail))


def run_lifecycle_replay(
    scenario: str = "drift-step",
    tenants: int = 4,
    requests: int = 192,
    seed: int = 0,
    lifecycle: bool = True,
    policy: Optional[LifecyclePolicy] = None,
    tick_every: int = 4,
    window: int = 6,
    cache_capacity: int = 4,
    final_window: int = 24,
) -> Dict[str, object]:
    """One synchronous, virtually-clocked replay; returns a JSON-stable dict.

    ``lifecycle=False`` is the static arm: the identical stack and scoring,
    but no detector ticks — v1 serves the whole run, which is exactly what
    PRs 1–9 did for every tenant.
    """
    preset = build_scenario(scenario, requests=requests)
    if not isinstance(preset.popularity, ClassDriftPopularity):
        raise ValueError(
            f"scenario {scenario!r} has no class-drift schedule; "
            "use a drift-* preset"
        )
    registry, model_ids = drift_fleet(preset.popularity, tenants=tenants, seed=seed)
    workload = preset.synthesize(model_ids, seed=seed)

    # Virtual time: every clock in the stack reads the current arrival offset.
    now = {"t": 0.0}
    clock = lambda: now["t"]  # noqa: E731

    pol = policy or LifecyclePolicy()
    events = EventLog(capacity=16384, clock=clock)
    tracker = AccuracyTracker(window=window)
    table = RolloutTable()
    audit = AuditLog()
    manager = LifecycleManager(
        registry,
        synthetic_repersonalizer(registry, seed=seed),
        policy=pol,
        rollout=table,
        tracker=tracker,
        audit=audit,
        clock=clock,
    )
    service = PersonalizationService(
        ServiceConfig(cache_capacity=cache_capacity), registry=registry
    )
    gateway = Gateway(
        service,
        GatewayConfig(),
        middlewares=[RolloutMiddleware(table, resolve=registry.resolve)],
    )
    metrics = MetricsRegistry()
    monitor = SLOMonitor(
        metrics,
        rules=(accuracy_drop(pol.min_accuracy, pol.for_samples),),
        event_log=events,
        clock=clock,
    )
    poller = TelemetryPoller(
        LifecycleStatsSource(gateway, manager.tenant_rows),
        registry=metrics,
        monitor=monitor,
        clock=clock,
    )
    detector = DriftDetector(manager, clock=clock)
    if lifecycle:
        detector.attach(poller)

    completed = failed = 0
    hits: List[bool] = []
    digest = hashlib.sha256()
    trajectory: List[float] = []
    segment: List[bool] = []

    with event_log(events):
        for item in workload.scheduled:
            now["t"] = item.at
            response = gateway.handle(
                ApiRequest(
                    "predict",
                    item.request.to_dict(),
                    request_id=item.request.request_id,
                    tenant=item.request.model_id,
                )
            )
            if not response.ok:
                failed += 1
                continue
            completed += 1
            body = PredictResponse.from_dict(response.payload["response"])
            served_id = body.model_id
            digest.update(f"{item.request.request_id}|{served_id}|".encode())
            digest.update(body.logits.round(6).tobytes())
            hit = manager.observe_prediction(
                item.request.model_id, item.request.request_id, served_id, item.label
            )
            if hit is not None:
                hits.append(hit)
                segment.append(hit)
            if completed % tick_every == 0:
                poller.sample(now=item.at)
                if segment:
                    trajectory.append(round6(sum(segment) / len(segment)))
                    segment = []
        # Tail flush: one final sample so short runs land their last window.
        poller.sample(now=now["t"])
        if segment:
            trajectory.append(round6(sum(segment) / len(segment)))

    return {
        "scenario": scenario,
        "requests": len(workload.scheduled),
        "tenants": tenants,
        "seed": seed,
        "lifecycle": bool(lifecycle),
        "policy": pol.to_dict(),
        "plan_digest": workload.digest(),
        "outcomes": {"completed": completed, "failed": failed},
        "predictions_digest": digest.hexdigest(),
        "accuracy": {
            "overall": _window_accuracy(hits, 0),
            "first_window": _window_accuracy(hits[:final_window], 0),
            "final_window": _window_accuracy(hits, final_window),
            "trajectory": trajectory,
        },
        "audit": [t.to_dict() for t in audit.transitions],
        "audit_jsonl": audit.to_jsonl(),
        "decisions_jsonl": table.decision_log_jsonl(),
        "rollout": table.counts(),
        "manager": manager.to_dict(),
        "detector": detector.to_dict(),
        "alerts_fired": monitor.fired,
        "events": events.counts(),
        "samples": poller.samples,
    }


def score_lifecycle(
    static: Dict[str, object], managed: Dict[str, object]
) -> Dict[str, object]:
    """Score a static and a managed replay of one workload: accuracy
    recovered at held SLO (the ``lifecycle-compare`` experiment's verdict)."""
    static_final = static["accuracy"]["final_window"] or 0.0
    managed_final = managed["accuracy"]["final_window"] or 0.0
    slo_held = (
        managed["outcomes"]["failed"] == 0
        and managed["outcomes"]["completed"] == managed["requests"]
    )
    return {
        "static_final_accuracy": round6(static_final),
        "managed_final_accuracy": round6(managed_final),
        "accuracy_delta": round6(managed_final - static_final),
        "promoted": managed["manager"]["promoted"],
        "rolled_back": managed["manager"]["rolled_back"],
        "slo_held": slo_held,
        "lifecycle_wins": bool(managed_final > static_final and slo_held),
    }


def run_lifecycle_compare(
    scenario: str = "drift-step",
    tenants: int = 4,
    requests: int = 192,
    seed: int = 0,
    policy: Optional[LifecyclePolicy] = None,
    **kwargs,
) -> Dict[str, object]:
    """Static vs lifecycle-managed replay of the same drift workload."""
    static = run_lifecycle_replay(
        scenario, tenants=tenants, requests=requests, seed=seed,
        lifecycle=False, policy=policy, **kwargs,
    )
    managed = run_lifecycle_replay(
        scenario, tenants=tenants, requests=requests, seed=seed,
        lifecycle=True, policy=policy, **kwargs,
    )
    return {
        "scenario": scenario,
        "requests": requests,
        "tenants": tenants,
        "seed": seed,
        "static": static,
        "managed": managed,
        "compare": score_lifecycle(static, managed),
    }
