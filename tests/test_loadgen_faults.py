"""Fault-injection regression tests: chaos against the sharded runtime.

The invariants under test are the serving runtime's failure contract:

* killing a shard mid-flight surfaces a *clean error* (a
  :class:`ShardKilledError`-failed future), never a hang — for requests
  already queued on the dead shard and for traffic that keeps arriving;
* healing (``remove_shard``) reroutes the dead shard's tenants and the
  rerouted predictions stay bit-exact with the unsharded service;
* a slowed shard backs up its queue until admission control sheds load
  with 503s, and recovers once restored;
* a poisoned engine-cache entry fails its batch cleanly and is rebuilt
  after eviction, again bit-exact;
* a full chaos scenario through the :class:`LoadDriver` ends with zero
  hung futures and a cluster-level merged p99 in the SLOReport.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterService, ShardKilledError, ShardOverloadError
from repro.loadgen import (
    DriverConfig,
    FaultInjector,
    LoadDriver,
    PoisonedEngineError,
    build_scenario,
    synthetic_fleet,
)
from repro.serve import PersonalizationService, PredictRequest, ServiceConfig


def _stream(model_ids, requests=12, seed=0, batch=1, prefix="f"):
    rng = np.random.default_rng(seed)
    return [
        PredictRequest(
            model_ids[i % len(model_ids)],
            rng.normal(size=(batch, 3, 12, 12)),
            request_id=f"{prefix}-{i:04d}",
        )
        for i in range(requests)
    ]


class TestKillShard:
    def test_kill_fails_pending_futures_cleanly(self):
        """Queued work on a killed shard errors out instead of hanging."""
        registry, model_ids = synthetic_fleet(tenants=4, seed=0)
        cluster = ClusterService(
            ClusterConfig(shards=2), registry=registry, start=False
        )
        try:
            victim = cluster.worker_for(model_ids[0]).shard_id
            pending = [
                cluster.submit(r)
                for r in _stream([model_ids[0]], requests=4)
            ]
            cluster.kill_shard(victim)
            for future in pending:
                with pytest.raises(ShardKilledError, match="killed"):
                    future.result(timeout=5)
        finally:
            cluster.shutdown()

    def test_kill_mid_flight_with_live_workers(self):
        """A running shard dies under load: every future resolves, none hang."""
        registry, model_ids = synthetic_fleet(tenants=6, seed=0)
        with ClusterService(
            ClusterConfig(shards=3, flush_interval_s=0.01), registry=registry
        ) as cluster:
            injector = FaultInjector(cluster)
            futures = [cluster.submit(r) for r in _stream(model_ids, requests=18)]
            killed = injector.kill_shard(1)
            futures += [
                cluster.submit(r)
                for r in _stream(model_ids, requests=18, seed=1, prefix="g")
            ]
            resolved = ok = failed = 0
            for future in futures:
                try:
                    response = future.result(timeout=10)
                except ShardKilledError:
                    failed += 1
                else:
                    assert response.status == 200
                    ok += 1
                resolved += 1
            assert resolved == 36  # zero hung futures
            assert ok > 0
            # Post-kill traffic to the dead shard's tenants fails fast too.
            victim_tenant = next(
                m for m in model_ids if cluster.worker_for(m).shard_id == killed
            )
            start = time.monotonic()
            with pytest.raises(ShardKilledError):
                cluster.submit(_stream([victim_tenant], requests=1)[0]).result(timeout=5)
            assert time.monotonic() - start < 1.0

    def test_heal_reroutes_bit_exact_with_unsharded_service(self):
        """Satellite criterion: remove_shard + re-route keeps predictions
        bit-exact with the single-process service."""
        registry, model_ids = synthetic_fleet(tenants=6, seed=0)
        requests = _stream(model_ids, requests=12)
        single = PersonalizationService(ServiceConfig(cache_capacity=6), registry=registry)
        expected = single.predict_batch(requests)
        with ClusterService(ClusterConfig(shards=3), registry=registry) as cluster:
            injector = FaultInjector(cluster)
            injector.kill_shard(1)
            assert injector.heal_shard() is not None  # dead shard off the ring
            assert cluster.shards == 2
            responses = cluster.predict_batch(requests, timeout=30)
        for a, b in zip(expected, responses):
            assert b.status == 200
            np.testing.assert_array_equal(a.logits, b.logits)
            np.testing.assert_array_equal(a.classes, b.classes)

    def test_heal_on_a_one_shard_fleet_is_a_tolerant_no_op(self):
        """The chaos layer must not crash where the system cannot fail over."""
        registry, model_ids = synthetic_fleet(tenants=2, seed=0)
        with ClusterService(ClusterConfig(shards=1), registry=registry) as cluster:
            injector = FaultInjector(cluster)
            injector.kill_shard(0)
            assert injector.heal_shard() is None  # outage persists, no raise
            assert cluster.shards == 1
            with pytest.raises(ShardKilledError):
                cluster.submit(_stream(model_ids, requests=1)[0]).result(timeout=5)

    def test_kill_is_idempotent_and_validated(self):
        registry, _ = synthetic_fleet(tenants=2, seed=0)
        cluster = ClusterService(ClusterConfig(shards=2), registry=registry)
        try:
            cluster.kill_shard(0)
            cluster.kill_shard(0)  # idempotent
            with pytest.raises(KeyError):
                cluster.kill_shard(9)
        finally:
            cluster.shutdown()


class TestSlowShard:
    def test_slowdown_triggers_admission_control_and_recovers(self):
        registry, model_ids = synthetic_fleet(tenants=1, seed=0)
        with ClusterService(
            ClusterConfig(shards=1, max_pending=64, high_water=2, flush_interval_s=0.0),
            registry=registry,
        ) as cluster:
            injector = FaultInjector(cluster)
            injector.slow_shard(0, delay_s=0.05)
            futures = [cluster.submit(r) for r in _stream(model_ids, requests=12)]
            results = [f.exception(timeout=30) or f.result() for f in futures]
            rejected = [r for r in results if isinstance(r, ShardOverloadError)]
            served = [r for r in results if not isinstance(r, ShardOverloadError)]
            assert rejected, "backlog above high_water must shed load with 503s"
            assert all(r.http_status == 503 for r in rejected)
            assert all(r.status == 200 for r in served)
            injector.restore_shard(0)
            cluster.drain()
            # Restored shard serves normally again.
            request = PredictRequest(model_ids[0], _stream(model_ids)[0].inputs)
            response = cluster.predict(request, timeout=10)
            assert response.status == 200


class TestPoisonCache:
    def test_poisoned_entry_fails_cleanly_then_rebuilds_bit_exact(self):
        registry, model_ids = synthetic_fleet(tenants=2, seed=0)
        request = _stream([model_ids[0]], requests=1)[0]
        single = PersonalizationService(ServiceConfig(cache_capacity=2), registry=registry)
        expected = single.predict(PredictRequest(model_ids[0], request.inputs))
        with ClusterService(ClusterConfig(shards=2), registry=registry) as cluster:
            injector = FaultInjector(cluster)
            # Warm, then poison the live entry.
            response = cluster.predict(PredictRequest(model_ids[0], request.inputs), timeout=10)
            assert response.status == 200
            injector.poison_cache(model_ids[0])
            future = cluster.submit(_stream([model_ids[0]], requests=1, seed=2)[0])
            with pytest.raises(PoisonedEngineError):
                future.result(timeout=10)
            # Heal: evict the poisoned entry; the rebuild serves correct bits.
            injector.heal_cache(model_ids[0])
            response = cluster.predict(PredictRequest(model_ids[0], request.inputs), timeout=10)
            assert response.status == 200
            np.testing.assert_array_equal(response.logits, expected.logits)


class TestChaosScenarios:
    def test_shard_failure_scenario_end_to_end(self):
        """Acceptance criterion: a shard kill mid-run with zero hung futures
        and a cluster-level merged p99 in the SLOReport."""
        registry, model_ids = synthetic_fleet(tenants=6, seed=0)
        workload = build_scenario("shard-failure").synthesize(model_ids, seed=0)
        with ClusterService(
            ClusterConfig(shards=3, cache_capacity=2, max_pending=256), registry=registry
        ) as cluster:
            report = LoadDriver(cluster, DriverConfig(time_scale=1.0)).run(workload)
        assert report.hung == 0, "a shard kill must never strand a future"
        assert report.completed + report.failed + report.rejected == len(workload)
        assert report.completed > 0
        payload = report.to_dict(timing=True)
        assert payload["slo"]["cluster"]["latency"]["p99_ms"] >= 0.0
        assert {"kill_shard", "heal_shard"} == {
            e["action"] for e in payload["slo"]["fault_log"]
        }

    def test_slow_shard_scenario_recovers(self):
        registry, model_ids = synthetic_fleet(tenants=4, seed=0)
        workload = build_scenario("slow-shard", requests=24).synthesize(model_ids, seed=0)
        with ClusterService(
            ClusterConfig(shards=2, cache_capacity=2, max_pending=256, high_water=4),
            registry=registry,
        ) as cluster:
            report = LoadDriver(cluster).run(workload)
            # End-of-run hygiene: the injected slowdown was cleared.
            assert all(w.chaos_delay_s == 0.0 for w in cluster._workers.values())
        assert report.hung == 0
        assert report.completed + report.failed + report.rejected == 24

    def test_slow_shard_scenario_rejects_through_the_cli_runner(self):
        """Regression: the preset must genuinely trip admission control when
        run exactly the way the CLI runs it (scenario-declared high_water)."""
        from repro.experiments.loadgen_cli import LoadgenConfig, run_loadgen

        report, payload = run_loadgen(
            LoadgenConfig(scenario="slow-shard", shards=2, tenants=4)
        )
        assert report.hung == 0
        assert report.rejected > 0, "a slowed shard above high_water must 503"
        assert report.completed + report.rejected + report.failed == 48
        assert "outcomes" not in payload  # chaos counts stay measured-only

    def test_late_and_stall_skipped_faults_still_fire(self):
        """Regression: events past the last submission index must fire."""
        from repro.loadgen import FaultEvent, Scenario, ConstantRate, UniformPopularity

        scenario = Scenario(
            name="late-heal",
            arrivals=ConstantRate(rate=1000.0),
            popularity=UniformPopularity(),
            requests=8,
            faults=(
                FaultEvent(at_request=4, action="kill_shard", target=1),
                FaultEvent(at_request=100, action="heal_shard"),  # past the end
            ),
        )
        registry, model_ids = synthetic_fleet(tenants=4, seed=0)
        workload = scenario.synthesize(model_ids, seed=0)
        with ClusterService(ClusterConfig(shards=3), registry=registry) as cluster:
            report = LoadDriver(cluster).run(workload)
            assert cluster.shards == 2  # the late heal removed the corpse
        assert [e["action"] for e in report.fault_log] == ["kill_shard", "heal_shard"]
        assert report.hung == 0

    def test_cache_poison_scenario_heals(self):
        registry, model_ids = synthetic_fleet(tenants=4, seed=0)
        workload = build_scenario("cache-poison", requests=24).synthesize(model_ids, seed=0)
        with ClusterService(
            ClusterConfig(shards=2, cache_capacity=2, max_pending=256), registry=registry
        ) as cluster:
            report = LoadDriver(cluster).run(workload)
        assert report.hung == 0
        assert report.completed + report.failed + report.rejected == 24
        assert report.completed > 0
