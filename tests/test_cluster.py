"""Tests for the sharded concurrent serving runtime (:mod:`repro.cluster`)."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster import (
    WORKER_KINDS,
    ClusterConfig,
    ClusterService,
    ConsistentHashRouter,
    LatencyHistogram,
    ProcessShardWorker,
    RejectedResponse,
    ShardKilledError,
    ShardOverloadError,
    ShardTelemetry,
    ShardWorker,
    merge_snapshots,
)
from repro.cluster.telemetry import assert_stats_schema
from repro.errors import UnavailableError
from repro.gateway import ClusterBackend, Gateway, GatewayClient, LoopbackTransport
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.serve import (
    EngineSpec,
    ModelRegistry,
    PersonalizationService,
    PredictRequest,
    ServiceConfig,
)
from repro.shm import SharedWeightStore

SPEC = EngineSpec(backend="fast", weight_format="csr")

#: A flush interval long enough that "waited it out" and "did not" cannot be
#: confused on a loaded runner.
LONG_FLUSH_S = 0.25


def _sparsified_model(seed=0, num_classes=6, input_size=12):
    """A tiny model with magnitude masks installed (no training needed)."""
    model = build_model("resnet_tiny", num_classes=num_classes, input_size=input_size, seed=seed)
    for layer in prunable_layers(model).values():
        w = layer.weight.data
        layer.weight.set_mask((np.abs(w) >= np.quantile(np.abs(w), 0.7)).astype(np.float64))
    return model


def _fleet(tenants=6):
    """Register ``tenants`` sparsified models; returns (registry, model_ids)."""
    registry = ModelRegistry()
    ids = [
        registry.register(_sparsified_model(seed=s), spec=SPEC, model_id=f"tenant-{s}")
        for s in range(tenants)
    ]
    return registry, ids


def _stream(model_ids, requests=24, seed=0):
    """Round-robin mixed-tenant stream of single-image requests."""
    rng = np.random.default_rng(seed)
    return [
        PredictRequest(
            model_ids[i % len(model_ids)],
            rng.normal(size=(1, 3, 12, 12)),
            request_id=f"r-{i:04d}",
        )
        for i in range(requests)
    ]


class TestConsistentHashRouter:
    KEYS = [f"tenant-{i}" for i in range(64)]

    def test_routing_is_deterministic_across_instances(self):
        a = ConsistentHashRouter(range(4))
        b = ConsistentHashRouter(range(4))
        assert [a.route(k) for k in self.KEYS] == [b.route(k) for k in self.KEYS]

    def test_assignments_partition_all_keys(self):
        router = ConsistentHashRouter(range(3))
        table = router.assignments(self.KEYS)
        assert set(table) == {0, 1, 2}
        assert sorted(k for keys in table.values() for k in keys) == sorted(self.KEYS)

    def test_add_shard_moves_keys_only_to_the_new_shard(self):
        router = ConsistentHashRouter(range(4))
        before = {k: router.route(k) for k in self.KEYS}
        router.add_shard(4)
        after = {k: router.route(k) for k in self.KEYS}
        moved = {k for k in self.KEYS if before[k] != after[k]}
        assert moved, "some keys should land on the new shard"
        assert all(after[k] == 4 for k in moved)  # survivors keep their keys
        assert len(moved) < len(self.KEYS) / 2  # ~1/(shards+1), not a reshuffle

    def test_remove_shard_moves_only_its_keys(self):
        router = ConsistentHashRouter(range(4))
        before = {k: router.route(k) for k in self.KEYS}
        router.remove_shard(2)
        after = {k: router.route(k) for k in self.KEYS}
        for key in self.KEYS:
            if before[key] != 2:
                assert after[key] == before[key]
            else:
                assert after[key] != 2

    def test_membership_errors(self):
        router = ConsistentHashRouter([0])
        with pytest.raises(ValueError):
            router.add_shard(0)
        with pytest.raises(KeyError):
            router.remove_shard(9)
        with pytest.raises(ValueError):
            ConsistentHashRouter(replicas=0)

    def test_empty_ring_cannot_route(self):
        with pytest.raises(RuntimeError):
            ConsistentHashRouter().route("tenant-0")
        with pytest.raises(RuntimeError):
            ConsistentHashRouter().balanced_assignments(["tenant-0"])

    def test_balanced_assignments_respect_pigeonhole_bound(self):
        router = ConsistentHashRouter(range(4))
        table = router.balanced_assignments(self.KEYS)
        assert sorted(k for keys in table.values() for k in keys) == sorted(self.KEYS)
        assert max(len(keys) for keys in table.values()) == len(self.KEYS) // 4

    def test_balanced_assignments_deterministic_across_instances(self):
        a = ConsistentHashRouter(range(3)).balanced_assignments(self.KEYS)
        b = ConsistentHashRouter(range(3)).balanced_assignments(self.KEYS)
        assert a == b

    def test_balanced_assignments_follow_the_ring_when_room_allows(self):
        router = ConsistentHashRouter(range(4))
        # With a slack bound the placement degenerates to plain routing
        # (same partition; balanced_assignments lists keys in ring order).
        table = router.balanced_assignments(self.KEYS, max_load=len(self.KEYS))
        plain = router.assignments(self.KEYS)
        assert {s: set(keys) for s, keys in table.items()} == {
            s: set(keys) for s, keys in plain.items()
        }
        with pytest.raises(ValueError):
            router.balanced_assignments(self.KEYS, max_load=0)

    def test_balanced_assignments_overflow_falls_back_to_ring_owner(self):
        router = ConsistentHashRouter(range(2))
        # A bound below the pigeonhole minimum cannot be honoured; keys still
        # all get placed (on their plain ring owner once every shard is full).
        table = router.balanced_assignments(self.KEYS, max_load=1)
        assert sorted(k for keys in table.values() for k in keys) == sorted(self.KEYS)


class TestShardWorker:
    def test_staged_queue_fuses_cotenant_requests(self):
        registry, model_ids = _fleet(tenants=2)
        worker = ShardWorker(0, registry, cache_capacity=2)
        requests = _stream(model_ids, requests=6)
        futures = [worker.submit(r) for r in requests]  # staged before start
        worker.start()
        responses = [f.result(timeout=10) for f in futures]
        worker.stop()

        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        # All six were queued before the drain began, so the deadline trigger
        # collects them into one flush and each tenant's trio fuses.
        assert all(r.batched_with == 3 for r in responses)
        snapshot = worker.telemetry.snapshot()
        assert snapshot["submitted"] == 6 and snapshot["completed"] == 6
        assert snapshot["batch_size"]["max"] == 6  # one drain of the staged queue
        assert snapshot["latency"]["count"] == 6

    def test_bounded_queue_overload(self):
        registry, model_ids = _fleet(tenants=1)
        worker = ShardWorker(0, registry, max_pending=2)  # never started
        requests = _stream(model_ids, requests=3)
        worker.submit(requests[0])
        worker.submit(requests[1])
        with pytest.raises(ShardOverloadError):
            worker.submit(requests[2])
        assert worker.telemetry.snapshot()["rejected"] == 1

    def test_unknown_model_fails_future_not_batch(self):
        registry, model_ids = _fleet(tenants=1)
        worker = ShardWorker(0, registry)
        good = worker.submit(_stream(model_ids, requests=1)[0])
        bad = worker.submit(PredictRequest("ghost", np.zeros((1, 3, 12, 12))))
        worker.start()
        # The unknown id fails its own future; nothing poisons the shard loop.
        with pytest.raises(KeyError):
            bad.result(timeout=10)
        worker.stop()
        assert not worker.is_alive()

    def test_stop_fails_stranded_futures_instead_of_leaking(self):
        registry, model_ids = _fleet(tenants=1)
        worker = ShardWorker(0, registry)
        future = worker.submit(_stream(model_ids, requests=1)[0])
        worker.stop()  # never started: nothing will ever drain the queue
        with pytest.raises(RuntimeError, match="shut down"):
            future.result(timeout=1)
        assert worker.telemetry.snapshot()["failed"] == 1

    def test_staged_pair_goes_as_one_batch_without_waiting_for_more(self):
        """Stamps 1 and 2, both already in the queue: the batch is complete
        the moment the second is read, long before the flush interval ends."""
        registry, model_ids = _fleet(tenants=1)
        worker = ShardWorker(0, registry, flush_interval_s=LONG_FLUSH_S)
        futures = [worker.submit(r) for r in _stream(model_ids, requests=2)]
        start = time.monotonic()
        worker.start()
        assert all(f.result(timeout=10).batched_with == 2 for f in futures)
        elapsed = time.monotonic() - start
        worker.stop()
        assert worker.telemetry.snapshot()["batch_size"]["histogram"] == {"2": 1}
        assert elapsed < LONG_FLUSH_S - 0.05


class TestBothWorkerKinds:
    """What thread and process workers promise alike, asserted once per kind."""

    @staticmethod
    def _cluster(registry, workers, shards=2, **config):
        config.setdefault("cache_capacity", 4)
        return ClusterService(
            ClusterConfig(shards=shards, workers=workers, **config), registry=registry
        )

    @pytest.mark.parametrize("workers", WORKER_KINDS)
    def test_submit_after_stop_raises(self, workers):
        registry, model_ids = _fleet(tenants=1)
        store = SharedWeightStore(registry)
        worker = (
            ShardWorker(0, registry) if workers == "threaded" else ProcessShardWorker(0, store)
        )
        worker.start()
        worker.stop()
        with pytest.raises(UnavailableError):  # still a RuntimeError
            worker.submit(_stream(model_ids, requests=1)[0])
        store.close()

    @pytest.mark.parametrize("workers", WORKER_KINDS)
    def test_stats_satisfy_the_unified_serving_schema(self, workers):
        registry, model_ids = _fleet(tenants=2)
        with self._cluster(registry, workers) as cluster:
            cluster.predict_batch(_stream(model_ids, requests=8), timeout=60)
            stats = cluster.stats()
        assert_stats_schema(stats)
        assert stats["workers"] == workers

    @pytest.mark.parametrize("workers", WORKER_KINDS)
    def test_kill_fails_inflight_futures_without_hanging(self, workers):
        registry, model_ids = _fleet(tenants=2)
        with self._cluster(registry, workers, shards=1) as cluster:
            worker = cluster.worker(cluster.shard_ids()[0])
            worker.chaos_delay_s = 0.5  # guarantee work is in flight
            futures = [cluster.submit(r) for r in _stream(model_ids, requests=6)]
            cluster.kill_shard(worker.shard_id)
            for future in futures:
                with pytest.raises((ShardKilledError, UnavailableError)):
                    response = future.result(timeout=10)
                    raise AssertionError(f"future resolved: {response!r}")
            assert not worker.is_alive()
            # Late traffic fails fast with the same surface, never hangs.
            with pytest.raises((ShardKilledError, UnavailableError)):
                cluster.submit(_stream(model_ids, requests=1)[0]).result(timeout=10)

    @pytest.mark.parametrize("workers", WORKER_KINDS)
    def test_a_refused_request_is_counted_once(self, workers):
        """Regression: on the queue-full race path (the frontend's depth check
        passes, the shard's own bound refuses) both the worker and the
        frontend used to count the refusal."""
        registry, model_ids = _fleet(tenants=1)
        requests = _stream(model_ids, requests=3)
        with self._cluster(registry, workers, shards=1, max_pending=2) as cluster:
            worker = cluster.worker(cluster.shard_ids()[0])
            worker.begin_window()  # held predicts stay pending, on both kinds
            staged = [cluster.submit(r) for r in requests[:2]]
            assert worker.pending() == 2
            worker.pending = lambda: 0  # the depth check loses the race
            refused = cluster.submit(requests[2]).result(timeout=1)
            del worker.pending
            assert isinstance(refused, RejectedResponse) and refused.status == 503
            worker.end_window()
            assert all(f.result(timeout=30).status == 200 for f in staged)
            stats = cluster.stats()
        assert stats["per_shard"][0]["telemetry"]["rejected"] == 1
        assert stats["errors"]["rejected"] == 1


    @pytest.mark.parametrize("workers", WORKER_KINDS)
    def test_a_lone_request_does_not_wait_out_the_flush_interval(self, workers):
        """Regression: a caller alone on its shard used to wait the whole
        ``flush_interval_s`` to be fused with nobody (2.5x margin here)."""
        registry, model_ids = _fleet(tenants=1)
        model_id, batch = model_ids[0], _stream(model_ids, requests=1)[0].inputs
        with self._cluster(registry, workers, shards=1, flush_interval_s=LONG_FLUSH_S) as cluster:
            client = GatewayClient(LoopbackTransport(Gateway(ClusterBackend(cluster))))
            for predict in (cluster.predict, client.predict):
                predict(model_id, batch)  # warm: engine built, weights installed
                start = time.monotonic()
                assert predict(model_id, batch).status == 200
                assert time.monotonic() - start < 0.1, predict
            assert cluster.stats()["totals"]["batch_size"]["max"] == 1

    @pytest.mark.parametrize("workers", WORKER_KINDS)
    def test_company_the_front_admitted_is_waited_for(self, workers):
        """The first-admitted predict (stamp 1) reaches the inbox 50 ms after
        the second (stamp 2): the loop, holding a 2, waits for it, and goes
        the moment it has both — one dispatch of 2, not two of 1."""
        registry, model_ids = _fleet(tenants=1)
        warm, first, second = _stream(model_ids, requests=3)
        with self._cluster(registry, workers, shards=1, flush_interval_s=LONG_FLUSH_S) as cluster:
            assert cluster.submit(warm).result(timeout=30).status == 200
            worker = cluster.worker(cluster.shard_ids()[0])
            post, late = worker._post, []
            worker._post = lambda op: (late.append if op.admitted == 1 else post)(op)
            futures = [cluster.submit(first), cluster.submit(second)]
            del worker._post
            time.sleep(0.05)
            start = time.monotonic()
            post(*late)
            assert all(f.result(timeout=30).batched_with == 2 for f in futures)
            assert time.monotonic() - start < 0.1
            histogram = cluster.stats()["per_shard"][0]["telemetry"]["batch_size"]["histogram"]
        assert histogram == {"1": 1, "2": 1}


class TestClusterService:
    def test_sharded_predictions_bit_exact_with_single_process(self):
        """Acceptance criterion: same stream, same bits, any deployment."""
        registry, model_ids = _fleet(tenants=6)
        requests = _stream(model_ids, requests=24)
        single = PersonalizationService(ServiceConfig(cache_capacity=6), registry=registry)
        expected = single.predict_batch(requests)
        with ClusterService(
            ClusterConfig(shards=4, cache_capacity=2), registry=registry
        ) as cluster:
            responses = cluster.predict_batch(requests, timeout=30)
            stats = cluster.stats()

        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        assert all(r.status == 200 and r.ok for r in responses)
        for a, b in zip(expected, responses):
            np.testing.assert_array_equal(a.logits, b.logits)
            np.testing.assert_array_equal(a.classes, b.classes)
        totals = stats["totals"]
        assert totals["completed"] == len(requests)
        assert totals["rejected"] == 0 and totals["failed"] == 0

    def test_requests_route_by_balanced_placement(self):
        registry, model_ids = _fleet(tenants=6)
        cluster = ClusterService(
            ClusterConfig(shards=3), registry=registry, start=False
        )
        try:
            table = cluster.router.balanced_assignments(registry.ids())
            for model_id in model_ids:
                owner = cluster.worker_for(model_id).shard_id
                assert model_id in table[owner]
            # No shard exceeds the pigeonhole minimum: 6 tenants / 3 shards.
            loads = [len(cluster.router.balanced_assignments(registry.ids())[s])
                     for s in cluster.router.shard_ids()]
            assert max(loads) == 2
            # Unregistered keys fall back to plain ring routing.
            assert cluster.worker_for("ghost").shard_id == cluster.router.route("ghost")
        finally:
            cluster.shutdown()

    def test_admission_control_rejects_with_503(self):
        registry, model_ids = _fleet(tenants=1)
        cluster = ClusterService(
            ClusterConfig(shards=1, max_pending=4, high_water=1),
            registry=registry,
            start=False,  # nothing drains, so the queue depth is deterministic
        )
        requests = _stream(model_ids, requests=2)
        accepted = cluster.submit(requests[0])
        rejected = cluster.submit(requests[1]).result(timeout=1)
        assert isinstance(rejected, RejectedResponse)
        assert rejected.status == 503 and not rejected.ok
        assert rejected.request_id == requests[1].request_id
        assert rejected.to_dict()["status"] == 503

        cluster.start()  # drain the accepted request, then stop
        assert accepted.result(timeout=10).status == 200
        cluster.shutdown()
        assert cluster.stats()["totals"]["rejected"] == 1

    def test_unknown_model_id_fails_fast(self):
        registry, _ = _fleet(tenants=1)
        with ClusterService(ClusterConfig(shards=2), registry=registry) as cluster:
            future = cluster.submit(PredictRequest("ghost", np.zeros((1, 3, 12, 12))))
            with pytest.raises(KeyError, match="ghost"):
                future.result(timeout=1)

    def test_scale_out_and_in_preserves_predictions(self):
        registry, model_ids = _fleet(tenants=6)
        requests = _stream(model_ids, requests=12)
        single = PersonalizationService(ServiceConfig(cache_capacity=6), registry=registry)
        expected = single.predict_batch(requests)

        with ClusterService(ClusterConfig(shards=2), registry=registry) as cluster:
            baseline = cluster.predict_batch(requests, timeout=30)
            new_shard = cluster.add_shard()
            assert cluster.shards == 3 and new_shard in cluster.router
            scaled_out = cluster.predict_batch(requests, timeout=30)
            cluster.remove_shard(new_shard)
            assert cluster.shards == 2
            scaled_in = cluster.predict_batch(requests, timeout=30)

        for replay in (baseline, scaled_out, scaled_in):
            for a, b in zip(expected, replay):
                np.testing.assert_array_equal(a.logits, b.logits)

    def test_cannot_remove_last_shard(self):
        registry, _ = _fleet(tenants=1)
        cluster = ClusterService(ClusterConfig(shards=1), registry=registry, start=False)
        try:
            with pytest.raises(ValueError):
                cluster.remove_shard(0)
            with pytest.raises(KeyError):
                cluster.remove_shard(7)
        finally:
            cluster.shutdown()

    def test_stats_schema_matches_single_process_service(self):
        registry, model_ids = _fleet(tenants=4)
        single = PersonalizationService(registry=registry)
        requests = _stream(model_ids, requests=8)
        single.predict_batch(requests)
        with ClusterService(ClusterConfig(shards=2), registry=registry) as cluster:
            cluster.predict_batch(requests, timeout=30)
            stats = cluster.stats()

        reference = single.stats()
        for shard in stats["per_shard"]:
            assert set(shard["cache"]) == set(reference["cache"])
            assert set(shard["scheduler"]) == set(reference["scheduler"])
        assert set(stats["cache"]) >= {"hits", "misses", "evictions", "hit_rate"}
        latency = stats["totals"]["latency"]
        assert {"p50_ms", "p95_ms", "p99_ms", "mean_ms", "max_ms"} <= set(latency)
        assert latency["p50_ms"] <= latency["p99_ms"] <= latency["max_ms"] + 1e-9
        batch = stats["totals"]["batch_size"]
        assert batch["dispatches"] >= 2 and batch["mean"] >= 1.0

    def test_predict_sync_and_engine_accessor(self, rng):
        registry, model_ids = _fleet(tenants=2)
        with ClusterService(ClusterConfig(shards=2), registry=registry) as cluster:
            batch = rng.normal(size=(2, 3, 12, 12))
            response = cluster.predict(model_ids[0], batch, timeout=30)
            assert response.model_id == model_ids[0]
            assert response.logits.shape == (2, 6)
            # The engine accessor resolves through the owning shard's cache.
            engine = cluster.engine(model_ids[0])
            assert model_ids[0] in cluster.worker_for(model_ids[0]).cache
            np.testing.assert_array_equal(engine.predict(batch), response.logits)

    def test_personalize_evicts_stale_engines_on_every_shard(self):
        registry, model_ids = _fleet(tenants=2)
        cluster = ClusterService(ClusterConfig(shards=2), registry=registry, start=False)
        try:
            # Warm the tenant's engine on BOTH shards — placement changes can
            # leave a former owner holding a cached engine.
            for worker in cluster._workers.values():
                worker.engine(model_ids[0])
            cluster.service.personalize = lambda request, **kw: model_ids[0]
            assert cluster.personalize(None) == model_ids[0]
            for worker in cluster._workers.values():
                assert model_ids[0] not in worker.cache
        finally:
            cluster.shutdown()

    def test_workloads_from_service_accepts_cluster(self):
        from repro.hw import workloads_from_service

        registry, model_ids = _fleet(tenants=2)
        with ClusterService(ClusterConfig(shards=2), registry=registry) as cluster:
            workloads = workloads_from_service(cluster, model_ids[0], batch=2)
        assert workloads
        assert any(w.weight_density < 1.0 for w in workloads)

    def test_save_load_round_trip(self, tmp_path, rng):
        registry, model_ids = _fleet(tenants=2)
        batch = rng.normal(size=(1, 3, 12, 12))
        with ClusterService(ClusterConfig(shards=2), registry=registry) as cluster:
            expected = cluster.predict(model_ids[0], batch, timeout=30).logits
            cluster.save(tmp_path / "fleet")
        with ClusterService.load(tmp_path / "fleet", ClusterConfig(shards=2)) as reloaded:
            assert reloaded.model_ids() == sorted(model_ids)
            np.testing.assert_allclose(
                reloaded.predict(model_ids[0], batch, timeout=30).logits,
                expected,
                atol=1e-10,
            )

    def test_shutdown_is_graceful_and_final(self):
        registry, model_ids = _fleet(tenants=2)
        cluster = ClusterService(ClusterConfig(shards=2), registry=registry)
        futures = [cluster.submit(r) for r in _stream(model_ids, requests=6)]
        cluster.shutdown()  # drains in-flight work before stopping
        assert all(f.result(timeout=1).status == 200 for f in futures)
        with pytest.raises(RuntimeError):
            cluster.submit(_stream(model_ids, requests=1)[0])
        cluster.shutdown()  # idempotent

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(shards=0)
        with pytest.raises(ValueError):
            ClusterConfig(workers="forked")
        with pytest.raises(ValueError):
            ClusterConfig(max_pending=4, high_water=5)


class TestTelemetry:
    def test_latency_histogram_percentiles(self):
        histogram = LatencyHistogram()
        for ms in range(1, 101):  # 1ms..100ms
            histogram.record(ms / 1e3)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["p50_ms"] == pytest.approx(50.5)
        assert summary["p95_ms"] == pytest.approx(95.05)
        assert summary["p99_ms"] == pytest.approx(99.01)
        assert summary["max_ms"] == pytest.approx(100.0)
        assert summary["mean_ms"] == pytest.approx(50.5)

    def test_histogram_merge_and_reservoir_bound(self):
        a, b = LatencyHistogram(max_samples=4), LatencyHistogram(max_samples=4)
        for value in (0.001, 0.002):
            a.record(value)
        for value in (0.003, 0.004, 0.005, 0.006, 0.007):
            b.record(value)  # overflows the reservoir; lifetime count keeps all
        merged = a.merge(b)
        assert merged.count == 7
        assert merged.max == pytest.approx(0.007)
        assert len(merged._samples) == 4  # bounded reservoir survives the merge

    def test_snapshot_and_merge_schema(self):
        first, second = ShardTelemetry(0), ShardTelemetry(1)
        first.record_submit(3)
        first.record_dispatch(batch_size=3, queue_depth=2)
        for latency in (0.001, 0.002, 0.003):
            first.record_completion(latency)
        second.record_submit(1)
        second.record_reject()
        second.record_dispatch(batch_size=1, queue_depth=0)
        second.record_completion(0.004)

        totals = merge_snapshots([first.snapshot(), second.snapshot()])
        assert totals["shards"] == 2
        assert totals["submitted"] == 4 and totals["completed"] == 4
        assert totals["rejected"] == 1
        assert totals["batch_size"]["dispatches"] == 2
        assert totals["batch_size"]["mean"] == pytest.approx(2.0)
        assert totals["latency"]["count"] == 4
        assert totals["latency"]["max_ms"] == pytest.approx(4.0)
        assert first.snapshot()["batch_size"]["histogram"] == {"3": 1}

    def test_samples_exposes_the_reservoir(self):
        histogram = LatencyHistogram(max_samples=3)
        for value in (0.004, 0.001, 0.002, 0.003):
            histogram.record(value)
        # Sliding window: the oldest observation fell out, order preserved.
        assert histogram.samples() == (0.001, 0.002, 0.003)

    def test_merged_classmethod_is_lossless_and_pure(self):
        shards = [LatencyHistogram(max_samples=4) for _ in range(3)]
        for i, histogram in enumerate(shards):
            for value in range(1, 5):
                histogram.record((10 * i + value) / 1e3)
        merged = LatencyHistogram.merged(shards)
        # Lossless: every resident sample survives (instance merge() would
        # have truncated 12 samples into one shard's 4-slot reservoir)...
        assert len(merged.samples()) == 12
        # ...and pure: the inputs are untouched.
        assert all(len(h.samples()) == 4 for h in shards)
        # Percentiles equal those of one reservoir that saw all samples.
        reference = LatencyHistogram(max_samples=12)
        for histogram in shards:
            for value in histogram.samples():
                reference.record(value)
        assert merged.summary() == reference.summary()

    def test_cluster_percentiles_match_a_single_merged_reservoir(self):
        """Regression: cluster p50/p95/p99 must come from the merged shard
        reservoirs, exactly — not from averaging per-shard summaries."""
        registry, model_ids = _fleet(tenants=6)
        requests = _stream(model_ids, requests=30)
        with ClusterService(
            ClusterConfig(shards=3, cache_capacity=2), registry=registry
        ) as cluster:
            cluster.predict_batch(requests, timeout=30)
            stats = cluster.stats()
            shard_samples = [
                cluster._workers[sid].telemetry.latency.samples()
                for sid in sorted(cluster._workers)
            ]
            merged = cluster.merged_latency()

        reference = LatencyHistogram(max_samples=len(requests))
        for samples in shard_samples:
            for value in samples:
                reference.record(value)
        assert reference.count == len(requests)
        assert merged.summary() == reference.summary()
        assert stats["totals"]["latency"] == reference.summary()
        # The merged percentiles are genuine order statistics of the pooled
        # samples — p99 sits between the pooled p50 and the pooled max.
        latency = stats["totals"]["latency"]
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"] <= latency["max_ms"] + 1e-9
