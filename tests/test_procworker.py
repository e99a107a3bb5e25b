"""Tests for process shard workers (:mod:`repro.cluster.procworker`).

The contract under test is the tentpole one: ``workers="process"`` must be
a drop-in for the threaded shards — same API, same telemetry schema, same
chaos seams, *bit-identical predictions* — while weights cross the process
boundary only as zero-copy shared-memory segments that are all unlinked by
shutdown (graceful or not).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.cluster import (
    WORKER_KINDS,
    ClusterConfig,
    ClusterService,
    ProcessShardWorker,
    ShardOverloadError,
)
from repro.errors import ApiError, InvalidArgumentError, UnavailableError
from repro.gateway import Gateway, GatewayClient, LoopbackTransport
from repro.serve import PersonalizationService, PredictRequest, ServiceConfig
from repro.shm import SharedWeightStore

from test_cluster import _assert_served, _fleet, _stream


def _leaked(store):
    """Names from the store's bookkeeping that still exist in /dev/shm."""
    return [
        name
        for name in store.segment_names(live_only=False)
        if os.path.exists(f"/dev/shm/{name}")
    ]


def _process_cluster(registry, shards=2, **overrides):
    overrides.setdefault("cache_capacity", 4)
    return ClusterService(
        ClusterConfig(shards=shards, workers="process", **overrides), registry=registry
    )


class TestWorkerKindValidation:
    def test_unknown_worker_kind_is_invalid_argument(self):
        with pytest.raises(InvalidArgumentError) as excinfo:
            ClusterConfig(workers="greenlet")
        assert excinfo.value.code == "INVALID_ARGUMENT"
        assert isinstance(excinfo.value, ApiError)
        assert isinstance(excinfo.value, ValueError)  # old except clauses still catch


class TestProcessClusterParity:
    def test_predictions_bit_exact_across_all_three_deployments(self):
        """The acceptance criterion: single, threaded and process serve the
        same bits for the same stream — through ``ClusterService.predict_batch``
        and through the gateway route alike, because both bracket the burst:
        exactly one dispatch per touched shard, whichever the worker kind."""
        registry, model_ids = _fleet(tenants=4)
        requests = _stream(model_ids, requests=24)
        envelope = _stream(model_ids, requests=16, seed=5)
        single = PersonalizationService(ServiceConfig(cache_capacity=4), registry=registry)
        expected = single.predict_batch(requests)
        expected_envelope = single.predict_batch(_stream(model_ids, requests=16, seed=5))

        def dispatches(stats):
            return [s["telemetry"]["batch_size"]["dispatches"] for s in stats["per_shard"]]

        served = {}
        for workers in WORKER_KINDS:
            cluster = ClusterService(
                ClusterConfig(shards=2, cache_capacity=4, workers=workers), registry=registry
            )
            store = cluster._store
            with cluster:
                touched = {cluster.worker_for(r.model_id).shard_id for r in envelope}
                served[workers] = cluster.predict_batch(requests, timeout=60)
                stats = cluster.stats()
                before = dispatches(stats)
                direct = cluster.predict_batch(envelope, timeout=60)
                between = dispatches(cluster.stats())
                client = GatewayClient(LoopbackTransport(Gateway(cluster)))
                routed = client.predict_batch(envelope)
                after = dispatches(cluster.stats())
            one_each = [int(shard_id in touched) for shard_id in sorted(cluster.shard_ids())]
            assert [b - a for a, b in zip(before, between)] == one_each
            assert [b - a for a, b in zip(between, after)] == one_each
            for a, b, c in zip(expected_envelope, direct, routed):
                np.testing.assert_array_equal(a.logits, b.logits)
                np.testing.assert_array_equal(a.logits, c.logits)
            assert stats["totals"]["completed"] == len(requests)
            if store is not None:
                assert not _leaked(store)

        for a, b, c in zip(expected, served["threaded"], served["process"]):
            np.testing.assert_array_equal(a.logits, c.logits)
            np.testing.assert_array_equal(b.logits, c.logits)
            np.testing.assert_array_equal(a.classes, c.classes)

    def test_stats_costs_one_frame_per_shard(self):
        """Regression: ``ClusterService.stats()`` used to ask every child
        three times (stats, telemetry snapshot, latency), each reply carrying
        the whole latency reservoir."""
        registry, model_ids = _fleet(tenants=2)
        frames = []
        with _process_cluster(registry) as cluster:
            _assert_served(cluster.predict_batch(_stream(model_ids, requests=8), timeout=60))
            for shard_id in cluster.shard_ids():
                worker = cluster.worker(shard_id)

                def counted(kind, args=None, timeout=None, _call=worker._call):
                    frames.append(kind)
                    return _call(kind, args, timeout)

                worker._call = counted
            stats = cluster.stats()
            assert frames.count("stats") == cluster.shards == 2
            assert stats["totals"]["latency"]["count"] == 8
            cluster.merged_latency()
            assert frames.count("stats") == 2 * cluster.shards

    def test_burst_fuses_as_one_window_per_shard(self):
        """Window bracketing makes whole-window fusion structural: a 12-
        request burst over one shard dispatches as a single batch no matter
        how the host schedules parent and child."""
        registry, model_ids = _fleet(tenants=2)
        requests = _stream(model_ids, requests=12)
        with _process_cluster(registry, shards=1) as cluster:
            responses = cluster.predict_batch(requests, timeout=60)
            histogram = cluster.stats()["per_shard"][0]["telemetry"]["batch_size"]["histogram"]
        assert all(r.status == 200 for r in responses)
        assert histogram == {"12": 1}

    def test_engine_accessor_serves_the_shared_bytes(self, rng):
        registry, model_ids = _fleet(tenants=2)
        batch = rng.normal(size=(2, 3, 12, 12))
        with _process_cluster(registry) as cluster:
            engine = cluster.engine(model_ids[0])
            np.testing.assert_array_equal(
                engine.predict(batch),
                registry.build_engine(model_ids[0]).predict(batch),
            )

    def test_personalize_republishes_and_evicts(self, rng):
        from test_cluster import _sparsified_model

        registry, model_ids = _fleet(tenants=2)
        batch = rng.normal(size=(1, 3, 12, 12))
        with _process_cluster(registry) as cluster:
            before = cluster.predict(PredictRequest(model_ids[0], batch), timeout=60)
            # Re-register the tenant with different weights (the
            # re-personalization path) through the cluster seam.
            cluster.service.personalize = lambda request, **kw: registry.register(
                _sparsified_model(seed=77),
                spec=registry.get(model_ids[0]).spec,
                model_id=model_ids[0],
            )
            assert cluster.personalize(None) == model_ids[0]
            after = cluster.predict(PredictRequest(model_ids[0], batch), timeout=60)
            oracle = registry.build_engine(model_ids[0]).predict(batch)
        assert not np.array_equal(before.logits, after.logits)
        np.testing.assert_array_equal(after.logits, oracle)


class TestShmLifecycle:
    def test_segments_unlinked_after_graceful_shutdown(self):
        registry, model_ids = _fleet(tenants=3)
        cluster = _process_cluster(registry)
        store = cluster._store
        _assert_served(cluster.predict_batch(_stream(model_ids, requests=6), timeout=60))
        live = store.segment_names()
        assert live and all(os.path.exists(f"/dev/shm/{n}") for n in live)
        cluster.shutdown()
        assert store.refs == 0
        assert store.segment_names(live_only=True) == []
        assert not _leaked(store)

    def test_segments_unlinked_after_abrupt_kill(self):
        registry, model_ids = _fleet(tenants=2)
        cluster = _process_cluster(registry)
        store = cluster._store
        _assert_served(cluster.predict_batch(_stream(model_ids, requests=4), timeout=60))
        for shard_id in list(cluster.shard_ids()):
            cluster.kill_shard(shard_id)
        cluster.shutdown()
        assert store.refs == 0
        assert not _leaked(store)


class TestChaosSeams:
    def test_heal_after_kill_is_bit_exact(self):
        registry, model_ids = _fleet(tenants=4)
        requests = _stream(model_ids, requests=12)
        single = PersonalizationService(ServiceConfig(cache_capacity=4), registry=registry)
        expected = single.predict_batch(requests)
        with _process_cluster(registry, shards=3) as cluster:
            victim = cluster.shard_ids()[0]
            cluster.kill_shard(victim)
            cluster.remove_shard(victim)  # heal: reroute tenants to survivors
            replay = cluster.predict_batch(requests, timeout=60)
            for a, b in zip(expected, replay):
                np.testing.assert_array_equal(a.logits, b.logits)

    def test_poisoned_cache_entry_fails_batch_and_heals(self, rng):
        from repro.loadgen.faults import FaultInjector

        registry, model_ids = _fleet(tenants=2)
        batch = rng.normal(size=(1, 3, 12, 12))
        single = PersonalizationService(ServiceConfig(cache_capacity=4), registry=registry)
        with _process_cluster(registry) as cluster:
            injector = FaultInjector(cluster)
            injector.poison_cache(model_ids[0])
            with pytest.raises(ApiError):
                response = cluster.predict(PredictRequest(model_ids[0], batch), timeout=60)
                if not response.ok:  # pragma: no cover - defensive
                    raise UnavailableError(response.reason)
            injector.heal_cache(model_ids[0])
            healed = cluster.predict(PredictRequest(model_ids[0], batch), timeout=60)
            np.testing.assert_array_equal(
                healed.logits, single.predict(PredictRequest(model_ids[0], batch)).logits
            )

    def test_chaos_delay_slows_dispatch(self):
        registry, model_ids = _fleet(tenants=1)
        with _process_cluster(registry, shards=1) as cluster:
            worker = cluster.worker(cluster.shard_ids()[0])
            worker.chaos_delay_s = 0.2
            assert worker.chaos_delay_s == 0.2
            response = cluster.predict_batch(_stream(model_ids, requests=1), timeout=60)[0]
            assert response.status == 200
            latency = cluster.stats()["totals"]["latency"]
            assert latency["max_ms"] >= 200.0


class TestProcessShardWorkerDirect:
    def test_admission_control_under_held_window(self):
        """Window bracketing makes the overload check deterministic: held
        predicts stay pending until the window closes."""
        registry, model_ids = _fleet(tenants=1)
        store = SharedWeightStore(registry)
        worker = ProcessShardWorker(0, store, max_pending=2)
        try:
            worker.start()
            worker.begin_window()
            requests = _stream(model_ids, requests=3)
            futures = [worker.submit(requests[0]), worker.submit(requests[1])]
            with pytest.raises(ShardOverloadError):
                worker.submit(requests[2])
            assert worker.telemetry.snapshot()["rejected"] == 1
            worker.end_window()
            assert all(f.result(timeout=30).status == 200 for f in futures)
        finally:
            worker.stop()
            store.close()
        assert store.refs == 0

    def test_never_started_worker_fails_fast_and_stops_clean(self):
        registry, model_ids = _fleet(tenants=1)
        store = SharedWeightStore(registry)
        worker = ProcessShardWorker(0, store)
        with pytest.raises(UnavailableError):
            worker.submit(_stream(model_ids, requests=1)[0])
        worker.stop()  # no-op: never acquired a store ref
        worker.kill()
        assert store.refs == 0
        store.close()

    def test_drain_waits_for_queued_work(self):
        registry, model_ids = _fleet(tenants=2)
        store = SharedWeightStore(registry)
        worker = ProcessShardWorker(0, store)
        try:
            worker.start()
            futures = [worker.submit(r) for r in _stream(model_ids, requests=6)]
            worker.drain()
            # FIFO drain proof: every future is already resolved.
            assert all(f.done() for f in futures)
            assert all(f.result(timeout=0).status == 200 for f in futures)
        finally:
            worker.stop()
            store.close()
