"""Concurrency stress tier: hammer the cluster until something reconciles.

Marked ``stress`` — excluded from tier-1 (`pytest -x -q` picks up the
``-m "not stress"`` default from pytest.ini) and run as its own CI job via
``pytest -q -m stress tests``.

The scenario: many frontend threads driving personalize/predict/evict
cycles through :meth:`ClusterService.submit` against a deliberately tiny
:class:`EngineCache` (capacity 1 per shard, so every other dispatch is an
eviction + rebuild) and a short admission queue (so 503s actually happen).
The assertions are the runtime's concurrency contract:

* no deadlock — every thread finishes inside a hard wall-clock budget;
* no dropped futures — every submission resolves to a response, a
  rejection, or an exception;
* the books balance — telemetry counters reconcile exactly with what the
  callers observed: accepted == completed + failed, and every observed
  503 is counted as a rejection.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ClusterService, ShardOverloadError
from repro.loadgen import synthetic_fleet
from repro.serve import PredictRequest

pytestmark = pytest.mark.stress

THREADS = 8
ITERATIONS = 20
REQUESTS_PER_ITERATION = 3
JOIN_TIMEOUT_S = 120.0


@pytest.mark.stress
def test_concurrent_submit_personalize_evict_cycles_reconcile():
    registry, model_ids = synthetic_fleet(tenants=8, seed=0)
    cluster = ClusterService(
        ClusterConfig(
            shards=2,
            cache_capacity=1,  # tiny: every tenant switch is an evict+rebuild
            max_pending=16,
            high_water=8,  # short queue: admission control must fire
            flush_interval_s=0.001,
        ),
        registry=registry,
    )
    # The real personalize path trains a model; the stress tier only needs
    # its service-level effect — "this tenant changed, evict it everywhere".
    cluster.service.personalize = lambda request, **kw: request

    rng = np.random.default_rng(0)
    batches = [rng.normal(size=(1, 3, 12, 12)) for _ in range(4)]
    futures_by_thread = [[] for _ in range(THREADS)]
    errors = []

    def hammer(thread_id: int) -> None:
        try:
            thread_rng = np.random.default_rng(thread_id)
            for iteration in range(ITERATIONS):
                for j in range(REQUESTS_PER_ITERATION):
                    tenant = model_ids[int(thread_rng.integers(0, len(model_ids)))]
                    request = PredictRequest(
                        tenant,
                        batches[int(thread_rng.integers(0, len(batches)))],
                        request_id=f"s{thread_id}-{iteration:03d}-{j}",
                    )
                    futures_by_thread[thread_id].append(
                        (tenant, cluster.submit(request))
                    )
                if iteration % 5 == 4:
                    # Re-personalization storm: evicts the tenant's engine on
                    # every shard while other threads are dispatching to it.
                    victim = model_ids[int(thread_rng.integers(0, len(model_ids)))]
                    cluster.personalize(victim)
        except Exception as exc:  # pragma: no cover - the failure being hunted
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(i,), name=f"stress-{i}")
        for i in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT_S)
    stuck = [t.name for t in threads if t.is_alive()]
    assert not stuck, f"deadlock: threads never finished: {stuck}"
    assert not errors, f"submission threads raised: {errors!r}"

    ok = rejected = failed = unresolved = 0
    for per_thread in futures_by_thread:
        for tenant, future in per_thread:
            try:
                result = future.result(timeout=30)
            except ShardOverloadError as exc:
                assert exc.http_status == 503
                rejected += 1
            except Exception:
                failed += 1
            else:
                assert result.status == 200
                assert result.model_id == tenant
                ok += 1
    total = THREADS * ITERATIONS * REQUESTS_PER_ITERATION
    assert ok + rejected + failed + unresolved == total  # no dropped futures

    cluster.shutdown()
    totals = cluster.stats()["totals"]
    # The books balance: what the workers accepted is exactly what was
    # completed or failed, and every 503 the callers saw was counted.
    assert totals["submitted"] == ok + failed
    assert totals["completed"] == ok
    assert totals["failed"] == failed
    assert totals["rejected"] == rejected
    assert totals["latency"]["count"] == ok


@pytest.mark.stress
def test_concurrent_scale_out_in_under_load_never_drops_a_future():
    """Membership churn (add/remove shard) racing live traffic."""
    registry, model_ids = synthetic_fleet(tenants=6, seed=0)
    cluster = ClusterService(
        ClusterConfig(shards=2, cache_capacity=2, max_pending=512),
        registry=registry,
    )
    futures = []
    stop = threading.Event()
    errors = []

    def traffic() -> None:
        rng = np.random.default_rng(99)
        i = 0
        try:
            while not stop.is_set():
                tenant = model_ids[int(rng.integers(0, len(model_ids)))]
                request = PredictRequest(
                    tenant, rng.normal(size=(1, 3, 12, 12)), request_id=f"c-{i:05d}"
                )
                futures.append(cluster.submit(request))
                i += 1
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    pump = threading.Thread(target=traffic, name="traffic-pump")
    pump.start()
    try:
        for _ in range(3):
            new_shard = cluster.add_shard()
            # Let traffic land on the grown fleet before shrinking it again.
            # (No drain() here: under a continuous pump the queues never
            # empty, by design — remove_shard drains the leaving shard.)
            stop.wait(0.05)
            cluster.remove_shard(new_shard)
    finally:
        stop.set()
        pump.join(timeout=JOIN_TIMEOUT_S)
    assert not pump.is_alive(), "traffic pump deadlocked"
    assert not errors, f"traffic pump raised: {errors!r}"
    cluster.shutdown()

    resolved = clean_errors = 0
    for future in futures:
        # A submit that raced the shard's removal may resolve to a clean
        # shutdown error; what is forbidden is a future that never resolves.
        try:
            result = future.result(timeout=30)
        except ShardOverloadError as exc:
            assert exc.http_status == 503
        except RuntimeError:
            clean_errors += 1
        else:
            assert result.status == 200
        resolved += 1
    assert resolved == len(futures)
    assert clean_errors <= 3  # at most one straggler per removal race


@pytest.mark.stress
def test_closed_loop_callers_on_one_shard_still_fuse():
    """A lone request no longer waits for company, but company is still
    waited for: eight callers that each send their next request the moment
    the last one is answered must keep sharing dispatches.  (A rule that
    dispatches whenever the inbox is momentarily empty reads about 2.1
    requests per dispatch at eight callers on two shards; waiting for the
    callers the front knows of reads about 3.5, like the plain deadline.)"""
    registry, model_ids = synthetic_fleet(tenants=4, seed=0)
    cluster = ClusterService(ClusterConfig(shards=1, cache_capacity=4), registry=registry)
    stop = threading.Event()
    answered = [0] * THREADS
    errors = []

    def caller(thread_id: int) -> None:
        rng = np.random.default_rng(thread_id)
        batch = rng.normal(size=(1, 3, 12, 12))
        try:
            while not stop.is_set():
                tenant = model_ids[int(rng.integers(0, len(model_ids)))]
                request = PredictRequest(tenant, batch)
                assert cluster.predict(request, timeout=30).status == 200
                answered[thread_id] += 1
        except Exception as exc:  # pragma: no cover - the failure being hunted
            errors.append(exc)

    threads = [
        threading.Thread(target=caller, args=(i,), name=f"caller-{i}") for i in range(THREADS)
    ]
    with cluster:
        for thread in threads:
            thread.start()
        stop.wait(1.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
        stuck = [t.name for t in threads if t.is_alive()]
        assert not stuck, f"deadlock: callers never finished: {stuck}"
        assert not errors, f"callers raised: {errors!r}"
        worker = cluster.worker(cluster.shard_ids()[0])
        assert worker.pending() == 0
        totals = cluster.stats()["totals"]
    assert min(answered) > 0
    assert totals["completed"] == totals["submitted"] == sum(answered)
    assert totals["failed"] == 0 and totals["rejected"] == 0
    assert totals["batch_size"]["mean"] >= 1.5
