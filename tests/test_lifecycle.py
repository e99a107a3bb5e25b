"""Tests for repro.lifecycle: drift detection, re-pruning, versioned rollout.

Covers the full tentpole surface — the class-drift schedule, registry
versioning with save/load round-trips, engine-cache invalidation on
promote/rollback, the audited state machine, miss-first drift-target
estimation, the detector wired to a real telemetry poller, and the
end-to-end harness claims (managed beats static, byte-determinism,
one-call bit-exact rollback through the gateway).
"""

import json

import numpy as np
import pytest

from repro.lifecycle import (
    STATES,
    TRANSITIONS,
    AccuracyTracker,
    AuditLog,
    DriftDetector,
    LifecycleManager,
    LifecyclePolicy,
    LifecycleStatsSource,
    LifecycleTransition,
    RolloutMiddleware,
    RolloutTable,
    drift_fleet,
    run_lifecycle_compare,
    run_lifecycle_replay,
    split_arm,
    synthetic_repersonalizer,
)
from repro.gateway.api import LocalBackend
from repro.gateway.gateway import Gateway, GatewayConfig
from repro.gateway.wire import ApiRequest
from repro.loadgen import build_scenario
from repro.loadgen.popularity import ClassDriftPopularity
from repro.metrics.poller import TelemetryPoller
from repro.metrics.registry import MetricsRegistry
from repro.metrics.slo import SLOMonitor, accuracy_drop
from repro.nn.models import build_model
from repro.pipeline.presets import PIPELINES
from repro.serve.cache import EngineCache
from repro.serve.registry import ModelRegistry
from repro.serve.service import PersonalizationService, ServiceConfig
from repro.serve.types import PredictResponse


def tiny_registry(tenants=1, num_classes=6):
    """A registry of explicit ``tenant-<i>`` ids with phase-0 heads 0..2."""
    registry = ModelRegistry()
    ids = []
    for i in range(tenants):
        module = build_model(
            "resnet_tiny", num_classes=num_classes, input_size=12, seed=i
        )
        model_id = registry.register(
            module,
            model_id=f"tenant-{i}",
            metadata={"classes": [0, 1, 2], "version": 1, "personalized_at": 0.0},
        )
        ids.append(model_id)
    return registry, ids


def make_manager(registry, clock=None, **policy_kwargs):
    policy = LifecyclePolicy(**policy_kwargs) if policy_kwargs else LifecyclePolicy()
    return LifecycleManager(
        registry,
        synthetic_repersonalizer(registry, seed=0),
        policy=policy,
        clock=clock or (lambda: 0.0),
    )


def feed_misses(tracker, tenant, labels, n=12):
    """``n`` served requests whose labels the active head does not cover."""
    for i in range(n):
        tracker.record(tenant, False, label=labels[i % len(labels)], label_hit=False)


class TestClassDriftPopularity:
    def test_hot_classes_pure_and_disjoint_phases(self):
        pop = ClassDriftPopularity()
        first = pop.hot_classes(0, 0)
        assert first == pop.hot_classes(0, 0)
        assert len(first) == pop.head_size
        assert all(0 <= c < pop.num_classes for c in first)
        # num_classes=6, head_size=3: one rotation replaces the whole head.
        assert set(first).isdisjoint(pop.hot_classes(0, 1))

    def test_labels_track_the_current_hot_set(self):
        pop = ClassDriftPopularity(shift_every=8)
        rng = np.random.default_rng(0)
        tenant_seq = pop.sequence(32, 4, rng)
        labels = pop.labels(32, 4, tenant_seq, rng)
        for i, label in enumerate(labels):
            hot = pop.hot_classes(int(tenant_seq[i]), i // pop.shift_every)
            assert label in hot

    def test_drift_scenario_synthesis_is_deterministic(self):
        ids = [f"tenant-{i}" for i in range(3)]
        one = build_scenario("drift-step", requests=48).synthesize(ids, seed=7)
        two = build_scenario("drift-step", requests=48).synthesize(ids, seed=7)
        assert one.digest() == two.digest()
        assert [item.label for item in one.scheduled] == [
            item.label for item in two.scheduled
        ]


class TestRegistryVersioning:
    def test_version_ids_stable_and_promotion_explicit(self):
        registry, (tenant,) = tiny_registry()
        v2 = registry.register_version(
            tenant,
            build_model("resnet_tiny", num_classes=6, input_size=12, seed=9),
            metadata={"classes": [3, 4, 5], "version": 2},
        )
        assert v2 == f"{tenant}@v2"
        assert registry.versions(tenant) == [tenant, v2]
        # Registering a version must not flip traffic by itself.
        assert registry.active_version(tenant) == tenant
        assert registry.resolve(tenant) == tenant
        registry.set_active(tenant, v2)
        assert registry.resolve(tenant) == v2
        with pytest.raises(KeyError):
            registry.set_active(tenant, "tenant-0@v99")

    def test_save_load_round_trips_after_unregister(self, tmp_path):
        registry, (tenant,) = tiny_registry()
        v2 = registry.register_version(
            tenant,
            build_model("resnet_tiny", num_classes=6, input_size=12, seed=9),
            metadata={"classes": [3, 4, 5]},
        )
        v3 = registry.register_version(
            tenant,
            build_model("resnet_tiny", num_classes=6, input_size=12, seed=10),
            metadata={"classes": [1, 3, 5]},
        )
        registry.set_active(tenant, v3)
        # Dropping the active version falls back to the newest survivor.
        registry.unregister(v3)
        assert registry.versions(tenant) == [tenant, v2]
        assert registry.active_version(tenant) == v2

        registry.save(tmp_path / "reg")
        loaded = ModelRegistry.load(tmp_path / "reg")
        assert loaded.ids() == registry.ids()
        assert loaded.versions(tenant) == [tenant, v2]
        assert loaded.active_version(tenant) == v2
        assert loaded.get(v2).metadata["classes"] == [3, 4, 5]

    def test_ids_ordering_deterministic_across_loads(self, tmp_path):
        registry, ids = tiny_registry(tenants=3)
        for tenant in ids:
            registry.register_version(
                tenant,
                build_model("resnet_tiny", num_classes=6, input_size=12, seed=42),
                metadata={"classes": [3, 4, 5]},
            )
        registry.save(tmp_path / "reg")
        first = ModelRegistry.load(tmp_path / "reg")
        second = ModelRegistry.load(tmp_path / "reg")
        assert first.ids() == second.ids() == registry.ids()
        for tenant in ids:
            assert first.versions(tenant) == second.versions(tenant)

    def test_unregister_base_drops_whole_history(self):
        registry, (tenant,) = tiny_registry()
        v2 = registry.register_version(
            tenant,
            build_model("resnet_tiny", num_classes=6, input_size=12, seed=9),
        )
        registry.unregister(tenant)
        assert tenant not in registry
        assert v2 not in registry


class TestEngineCacheInvalidation:
    def test_active_version_flip_evicts_every_tenant_version(self):
        registry, (tenant,) = tiny_registry()
        cache = EngineCache(registry, capacity=4)
        cache.get(tenant)
        v2 = registry.register_version(
            tenant,
            build_model("resnet_tiny", num_classes=6, input_size=12, seed=9),
            metadata={"classes": [3, 4, 5]},
        )
        cache.get(v2)
        assert tenant in cache and v2 in cache

        registry.set_active(tenant, v2)  # promote
        assert tenant not in cache and v2 not in cache

        cache.get(tenant)
        cache.get(v2)
        # Rollback re-asserts the same active version: subscribers must
        # still fire so the abandoned canary's engines are dropped.
        registry.set_active(tenant, v2)
        assert tenant not in cache and v2 not in cache

    def test_promote_then_rollback_never_serves_stale_engine(self):
        registry, (tenant,) = tiny_registry()
        cache = EngineCache(registry, capacity=4)
        manager = make_manager(registry)
        feed_misses(manager.tracker, tenant, [3, 4, 5])
        canary = manager.on_drift(tenant, now=1.0)
        assert canary == f"{tenant}@v2"
        cache.get(tenant)
        cache.get(canary)
        assert manager.rollback(tenant, now=2.0)
        assert canary not in cache and tenant not in cache
        assert manager.state(tenant) == "SERVING"
        assert registry.resolve(tenant) == tenant


class TestAuditLog:
    def test_illegal_edges_raise(self):
        with pytest.raises(ValueError):
            LifecycleTransition(0, 0.0, "t", "SERVING", "CANARYING", "skip")
        with pytest.raises(ValueError):
            LifecycleTransition(0, 0.0, "t", "PROMOTED", "DRIFTING", "bad")
        with pytest.raises(ValueError):
            LifecycleTransition(0, 0.0, "t", "RETIRED", "SERVING", "bad")
        for from_state, to_states in TRANSITIONS.items():
            assert from_state in STATES
            for to_state in to_states:
                LifecycleTransition(0, 0.0, "t", from_state, to_state, "ok")

    def test_jsonl_round_trip_is_byte_stable(self):
        audit = AuditLog()
        audit.append(0.5, "tenant-0", "SERVING", "DRIFTING", "accuracy_drop",
                     {"accuracy": 0.2})
        audit.append(0.5, "tenant-0", "DRIFTING", "REPRUNING", "repersonalize",
                     {"target_classes": [3, 4, 5]})
        audit.append(0.6, "tenant-0", "REPRUNING", "CANARYING", "canary_started")
        text = audit.to_jsonl()
        replayed = AuditLog.replay(text.splitlines())
        assert replayed.to_jsonl() == text
        assert replayed.states_seen("tenant-0") == [
            "DRIFTING", "REPRUNING", "CANARYING",
        ]
        assert [json.loads(line)["seq"] for line in text.splitlines()] == [0, 1, 2]

    def test_replay_rejects_a_corrupted_log_naming_the_line(self):
        audit = AuditLog()
        audit.append(0.5, "t", "SERVING", "DRIFTING", "accuracy_drop")
        audit.append(0.5, "t", "DRIFTING", "REPRUNING", "repersonalize")
        first, second = audit.to_jsonl().splitlines()

        def edited(line, drop=(), **changes):
            payload = {**json.loads(line), **changes}
            return json.dumps({k: v for k, v in payload.items() if k not in drop})

        cases = {
            "line 1: seq 1 is not the next one": [second, first],  # reordered
            "line 3: seq 0 is not the next one": [first, second, first, second],
            "line 2: Unterminated string": [first, second[:-5]],  # truncated
            r"line 2: .*missing fields \['tenant'\]": [first, edited(second, drop=("tenant",))],
            r"line 1: .*unexpected fields \['shard'\]": [edited(first, shard=3)],
            "line 2: illegal transition DRIFTING -> PROMOTED": [
                first, edited(second, to_state="PROMOTED"),
            ],
        }
        for message, lines in cases.items():
            with pytest.raises(ValueError, match=message):
                AuditLog.replay(lines)


class TestAccuracyTracker:
    def test_windowed_accuracy_per_arm(self):
        tracker = AccuracyTracker(window=4)
        for hit in (True, True, False, True):
            tracker.record("t", hit)
        tracker.record("t", False, arm="canary")
        assert tracker.accuracy("t") == 0.75
        assert tracker.accuracy("t", "canary") == 0.0
        assert tracker.samples("t") == 4
        tracker.record("t", False)  # rolls the oldest True out
        assert tracker.accuracy("t") == 0.5

    def test_target_estimate_prefers_misses(self):
        tracker = AccuracyTracker(window=6)
        for label in (0, 1, 2, 0, 1, 2):  # pre-drift traffic, all covered
            tracker.record("t", True, label=label, label_hit=True)
        for label in (3, 4, 5, 3, 4, 5):  # post-drift, all missed
            tracker.record("t", False, label=label, label_hit=False)
        # The stale covered labels must not leak into the target.
        assert tracker.target_estimate("t", 3) == [3, 4, 5]

    def test_target_estimate_fills_overlap_from_recent_hits(self):
        tracker = AccuracyTracker(window=6)
        # Partial drift: new head {2, 3, 4} shares class 2 with the old one.
        for label, covered in ((0, True), (3, False), (2, True), (4, False),
                               (2, True), (3, False)):
            tracker.record("t", covered, label=label, label_hit=covered)
        assert tracker.target_estimate("t", 3) == [2, 3, 4]

    def test_target_estimate_defers_on_thin_evidence(self):
        tracker = AccuracyTracker(window=6)
        tracker.record("t", False, label=3, label_hit=False)
        tracker.record("t", False, label=4, label_hit=False)
        assert tracker.target_estimate("t", 3) == []

    def test_target_estimate_shrunk_head_needs_full_miss_window(self):
        tracker = AccuracyTracker(window=3, label_window=6)
        for i in range(5):  # one short of the full label window
            tracker.record("t", False, label=[3, 4][i % 2], label_hit=False)
        assert tracker.target_estimate("t", 3) == []
        tracker.record("t", False, label=3, label_hit=False)
        assert tracker.target_estimate("t", 3) == [3, 4]

    def test_reset_tenant_clears_label_history(self):
        tracker = AccuracyTracker(window=4)
        feed_misses(tracker, "t", [3, 4, 5])
        assert tracker.target_estimate("t", 3) == [3, 4, 5]
        tracker.reset_tenant("t")
        assert tracker.target_estimate("t", 3) == []
        assert tracker.head_estimate("t", 3) == []
        assert tracker.accuracy("t") is None


class TestLifecycleManager:
    def test_full_cycle_promotes_and_flips_active(self):
        registry, (tenant,) = tiny_registry()
        manager = make_manager(registry)
        feed_misses(manager.tracker, tenant, [3, 4, 5])
        canary = manager.on_drift(tenant, now=1.0)
        assert canary == f"{tenant}@v2"
        assert manager.state(tenant) == "CANARYING"
        assert registry.get(canary).metadata["classes"] == [3, 4, 5]
        # Traffic still resolves to stable until the verdict.
        assert registry.resolve(tenant) == tenant
        for _ in range(4):
            manager.tracker.record(tenant, True, arm="canary")
        assert manager.evaluate_canary(tenant, now=2.0) == "promoted"
        assert registry.resolve(tenant) == canary
        assert manager.state(tenant) == "SERVING"
        assert manager.promoted == 1 and manager.cycles == 1
        assert manager.audit.states_seen(tenant) == [
            "DRIFTING", "REPRUNING", "CANARYING", "PROMOTED", "SERVING",
        ]

    def test_failed_canary_rolls_back(self):
        registry, (tenant,) = tiny_registry()
        manager = make_manager(registry)
        feed_misses(manager.tracker, tenant, [3, 4, 5])
        canary = manager.on_drift(tenant, now=1.0)
        for _ in range(4):
            manager.tracker.record(tenant, False, arm="canary")
        assert manager.evaluate_canary(tenant, now=2.0) == "rolled_back"
        assert registry.resolve(tenant) == tenant
        assert manager.rolled_back == 1
        assert "ROLLED_BACK" in manager.audit.states_seen(tenant)
        # The abandoned canary stays registered for post-mortem inspection.
        assert canary in registry

    def test_on_drift_defers_without_label_evidence(self):
        registry, (tenant,) = tiny_registry()
        manager = make_manager(registry)
        for _ in range(8):
            manager.tracker.record(tenant, False)  # misses but no labels
        assert manager.on_drift(tenant, now=1.0) is None
        assert manager.state(tenant) == "SERVING"
        assert len(manager.audit) == 0

    def test_mid_cycle_drift_signal_ignored(self):
        registry, (tenant,) = tiny_registry()
        manager = make_manager(registry)
        feed_misses(manager.tracker, tenant, [3, 4, 5])
        assert manager.on_drift(tenant, now=1.0) is not None
        assert manager.on_drift(tenant, now=1.1) is None


class TestDriftDetector:
    def rows(self, tenant, accuracy, requests=8):
        return [{"tenant": tenant, "accuracy": accuracy, "requests": requests}]

    def test_streak_needs_min_requests_and_for_samples(self):
        registry, (tenant,) = tiny_registry()
        manager = make_manager(registry)
        detector = DriftDetector(manager, clock=lambda: 0.0)
        feed_misses(manager.tracker, tenant, [3, 4, 5])
        detector.tick(self.rows(tenant, 0.1, requests=2))  # below sample floor
        detector.tick(self.rows(tenant, 0.1))
        assert manager.state(tenant) == "SERVING"  # streak 1 < for_samples
        detector.tick(self.rows(tenant, 0.1))
        assert manager.state(tenant) == "CANARYING"
        assert detector.detections == 1

    def test_deferred_signal_keeps_streak_and_retries(self):
        registry, (tenant,) = tiny_registry()
        manager = make_manager(registry)
        detector = DriftDetector(manager, clock=lambda: 0.0)
        # Streak matures but the tracker has no labels: the manager defers.
        detector.tick(self.rows(tenant, 0.1))
        detector.tick(self.rows(tenant, 0.1))
        assert detector.detections == 0
        assert manager.state(tenant) == "SERVING"
        # Fresh labels arrive; the very next tick must fire without
        # rebuilding the streak from zero.
        feed_misses(manager.tracker, tenant, [3, 4, 5])
        detector.tick(self.rows(tenant, 0.1))
        assert detector.detections == 1
        assert manager.state(tenant) == "CANARYING"

    def test_recovered_accuracy_resets_streak(self):
        registry, (tenant,) = tiny_registry()
        manager = make_manager(registry)
        detector = DriftDetector(manager, clock=lambda: 0.0)
        feed_misses(manager.tracker, tenant, [3, 4, 5])
        detector.tick(self.rows(tenant, 0.1))
        detector.tick(self.rows(tenant, 0.9))  # recovery
        detector.tick(self.rows(tenant, 0.1))
        assert manager.state(tenant) == "SERVING"


class TestDetectorViaTelemetryPlane:
    """The production wiring: poller -> monitor -> detector, virtually clocked."""

    class _EmptyBase:
        def stats(self):
            return {}

    def build_plane(self, wire_alerts=False):
        registry, (tenant,) = tiny_registry()
        now = {"t": 0.0}
        manager = make_manager(registry, clock=lambda: now["t"])
        metrics = MetricsRegistry()
        monitor = SLOMonitor(
            metrics,
            rules=(accuracy_drop(manager.policy.min_accuracy,
                                 manager.policy.for_samples),),
            clock=lambda: now["t"],
        )
        poller = TelemetryPoller(
            LifecycleStatsSource(self._EmptyBase(), manager.tenant_rows),
            registry=metrics,
            monitor=monitor,
            clock=lambda: now["t"],
        )
        detector = DriftDetector(manager, clock=lambda: now["t"])
        if wire_alerts:
            detector.wire(monitor)
        else:
            detector.attach(poller)
        return registry, tenant, manager, monitor, poller, detector, now

    def test_attached_detector_opens_cycle_from_poller_samples(self):
        registry, tenant, manager, monitor, poller, detector, now = (
            self.build_plane()
        )
        feed_misses(manager.tracker, tenant, [3, 4, 5])
        for t in (1.0, 2.0):
            now["t"] = t
            poller.sample(now=t)
        assert detector.ticks == 2
        assert manager.state(tenant) == "CANARYING"
        assert monitor.fired >= 1  # the stock accuracy_drop rule also saw it
        alert = monitor.alerts[0]
        assert alert.rule == "accuracy-drop"
        assert dict(alert.labels)["tenant"] == tenant

    def test_alert_wired_detector_opens_cycle_from_slo_monitor(self):
        registry, tenant, manager, monitor, poller, detector, now = (
            self.build_plane(wire_alerts=True)
        )
        feed_misses(manager.tracker, tenant, [3, 4, 5])
        for t in (1.0, 2.0):
            now["t"] = t
            poller.sample(now=t)
        assert manager.state(tenant) == "CANARYING"
        assert detector.detections == 1
        assert manager.audit.entries(tenant)[0].reason == "accuracy_drop_alert"


class TestGatewayRollback:
    """One-call rollback restores bit-exact stable responses end to end."""

    def build_stack(self):
        pop = ClassDriftPopularity()
        registry, (tenant,) = drift_fleet(pop, tenants=1, seed=0)
        table = RolloutTable()
        manager = LifecycleManager(
            registry,
            synthetic_repersonalizer(registry, seed=0),
            rollout=table,
            clock=lambda: 0.0,
        )
        service = PersonalizationService(
            ServiceConfig(cache_capacity=4), registry=registry
        )
        gateway = Gateway(
            LocalBackend(service),
            GatewayConfig(),
            middlewares=[RolloutMiddleware(table, resolve=registry.resolve)],
        )
        return pop, registry, tenant, table, manager, gateway

    def predict(self, gateway, tenant, inputs, request_id):
        response = gateway.handle(
            ApiRequest(
                "predict",
                {"model_id": tenant, "inputs": inputs},
                request_id=request_id,
                tenant=tenant,
            )
        )
        assert response.ok, response.error
        body = PredictResponse.from_dict(response.payload["response"])
        return body.logits.tobytes(), body.model_id

    def test_rollback_restores_bit_exact_stable_responses(self):
        pop, registry, tenant, table, manager, gateway = self.build_stack()
        inputs = np.random.default_rng(3).normal(size=(1, 3, 12, 12)).tolist()
        baseline, served = self.predict(gateway, tenant, inputs, "req-base")
        assert served == tenant

        new_head = pop.hot_classes(0, 1)
        feed_misses(manager.tracker, tenant, new_head)
        canary = manager.on_drift(tenant, now=1.0)
        assert canary == f"{tenant}@v2"

        canary_rid = next(
            f"req-{i}" for i in range(1000)
            if split_arm(0, tenant, f"req-{i}", 0.5) == "canary"
        )
        canary_bytes, canary_served = self.predict(
            gateway, tenant, inputs, canary_rid
        )
        assert canary_served == canary
        assert canary_bytes != baseline  # v2 really has different weights

        assert manager.rollback(tenant, now=2.0)
        assert table.entry(tenant) is None
        for request_id in ("req-base", canary_rid):
            logits, served = self.predict(gateway, tenant, inputs, request_id)
            assert served == tenant
            assert logits == baseline


class TestLifecycleHarness:
    def test_managed_beats_static_and_promotes(self):
        payload = run_lifecycle_compare(tenants=4, requests=128, seed=0)
        cmp_block = payload["compare"]
        assert cmp_block["lifecycle_wins"]
        assert cmp_block["managed_final_accuracy"] > cmp_block["static_final_accuracy"]
        assert cmp_block["managed_final_accuracy"] >= 0.75  # recovered, not merely ahead
        assert cmp_block["promoted"] >= 1
        assert cmp_block["slo_held"]
        # The static arm never transitions; the managed arm's audit shows a
        # complete DRIFTING -> ... -> PROMOTED cycle for some tenant.
        assert payload["static"]["audit"] == []
        managed_audit = AuditLog.replay(
            payload["managed"]["audit_jsonl"].splitlines()
        )
        promoted_tenants = {
            t.tenant for t in managed_audit.transitions if t.to_state == "PROMOTED"
        }
        assert promoted_tenants
        tenant = sorted(promoted_tenants)[0]
        seen = managed_audit.states_seen(tenant)
        assert {"DRIFTING", "REPRUNING", "CANARYING", "PROMOTED"} <= set(seen)
        assert seen.index("DRIFTING") < seen.index("PROMOTED")

    def test_same_seed_replays_are_byte_identical(self):
        one = run_lifecycle_replay(tenants=4, requests=128, seed=0)
        two = run_lifecycle_replay(tenants=4, requests=128, seed=0)
        assert one["predictions_digest"] == two["predictions_digest"]
        assert one["audit_jsonl"] == two["audit_jsonl"]
        assert one["decisions_jsonl"] == two["decisions_jsonl"]
        assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)

    def test_non_drift_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_lifecycle_replay(scenario="steady-uniform", requests=8)

    def test_lifecycle_compare_pipeline_registered(self):
        steps = PIPELINES["lifecycle-compare"](smoke=True)
        names = [step.name for step in steps]
        assert names == ["scenario", "static", "managed", "compare"]
