"""Cluster frontend: the sharded, concurrent `PersonalizationService`.

:class:`ClusterService` is a :class:`~repro.serve.api.ServingAPI`
(``name = "cluster"``) like the single-process
:class:`~repro.serve.service.PersonalizationService`, but answers inference
traffic through a fleet of shard workers (one
:class:`~repro.cluster.loop.ShardLoop` each, on a thread or in a child
process — :data:`WORKER_KINDS`):

* registered tenants are placed on shards by bounded-load consistent hashing
  (:meth:`~repro.cluster.router.ConsistentHashRouter.balanced_assignments`),
  so each shard's engine cache sees a stable, *balanced* tenant subset and
  cache locality survives concurrency — no shard is handed more tenants than
  the pigeonhole minimum, which is what keeps a capacity-bounded cache from
  thrashing; unregistered keys fall back to plain ring routing;
* every submission returns a :class:`~concurrent.futures.Future`
  (:meth:`submit`, what ``LoadDriver`` paces); the synchronous API is a
  thin wait on top;
* admission control refuses work when a shard's pending count reaches the
  high-water mark (or its queue bound): the request's future fails with a
  :class:`~repro.cluster.shard.ShardOverloadError` (``UNAVAILABLE``, 503)
  naming the bound, instead of queueing unboundedly — the same typed error
  every other failure is, so a caller handles one kind of "no";
* :meth:`drain` / :meth:`shutdown` finish in-flight work before stopping,
  and the service is a context manager that shuts down on exit.

The personalization path (training + pruning) stays single-process and is
delegated to an inner ``PersonalizationService`` sharing the cluster's model
registry; what the cluster shards is the serving path, where the traffic is.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Union

from ..errors import (
    InvalidArgumentError,
    NotFoundError,
    UnavailableError,
    error_from_exception,
)
from ..metrics.events import emit
from ..serve.api import BatchResult, ServingAPI, _translated
from ..serve.registry import ModelRegistry
from ..serve.service import PersonalizationService, ServiceConfig
from ..serve.types import PersonalizeRequest, PredictRequest
from ..shm import SharedWeightStore
from .procworker import ProcessShardWorker
from .router import ConsistentHashRouter
from .shard import ShardOverloadError, ShardWorker
from .telemetry import LatencyHistogram, assert_stats_schema, merge_snapshots
from ..trace import HOP_FRONTEND, trace_block

__all__ = ["ClusterConfig", "ClusterService", "WORKER_KINDS"]

#: The two transports of the shard loop.  ``threaded``: in-process
#: :class:`~repro.cluster.shard.ShardWorker` threads; ``process``:
#: :class:`~repro.cluster.procworker.ProcessShardWorker` children serving
#: from zero-copy shared-memory weights — same loop, real multi-core isolation.
WORKER_KINDS = ("threaded", "process")


@dataclass
class ClusterConfig:
    """Deployment shape of a :class:`ClusterService`.

    ``cache_capacity`` / ``max_batch_size`` are *per shard* — the point of
    sharding is that each worker's memory and batch budget stays bounded
    while the fleet's total capacity scales with the shard count.
    """

    shards: int = 2
    workers: str = "threaded"
    cache_capacity: int = 4
    max_batch_size: Optional[int] = None
    max_pending: int = 256  #: bounded queue length per shard
    high_water: Optional[int] = None  #: admission threshold (default: max_pending)
    #: Micro-batching bound per shard: the longest a batch waits for requests
    #: the front has admitted but the loop does not hold yet (a batch that
    #: holds them all, e.g. a lone request, is dispatched at once).
    flush_interval_s: float = 0.002
    poll_interval_s: float = 0.05
    replicas: int = 64  #: hash-ring virtual nodes per shard

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.workers not in WORKER_KINDS:
            # A typed INVALID_ARGUMENT (still a ValueError) so the gateway
            # surfaces a stable error code instead of a bare 500.
            raise InvalidArgumentError(
                f"Unknown worker kind {self.workers!r}; available: {WORKER_KINDS}"
            )
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")
        if self.high_water is None:
            self.high_water = self.max_pending
        if not 1 <= self.high_water <= self.max_pending:
            raise ValueError(
                f"high_water must be in [1, max_pending], got {self.high_water}"
            )


class ClusterService(ServingAPI):
    """Sharded concurrent serving runtime behind the Serving API.

    Example
    -------
    >>> cluster = ClusterService(ClusterConfig(shards=4))
    >>> model_id = cluster.personalize(PersonalizeRequest(user_id=0, num_classes=3))
    >>> future = cluster.submit(PredictRequest(model_id, batch))     # async
    >>> response = cluster.predict(PredictRequest(model_id, batch))  # sync
    >>> responses = cluster.predict_batch(mixed_tenant_requests)
    >>> cluster.close()                                              # graceful drain
    """

    name = "cluster"

    def __init__(
        self,
        cluster: Optional[ClusterConfig] = None,
        config: Optional[ServiceConfig] = None,
        registry: Optional[ModelRegistry] = None,
        service: Optional[PersonalizationService] = None,
        start: bool = True,
    ) -> None:
        self.cluster = cluster or ClusterConfig()
        if service is not None:
            if config is not None or registry is not None:
                raise ValueError("pass either service or (config, registry), not both")
            self.service = service
        else:
            self.service = PersonalizationService(config=config, registry=registry)
        self.registry = self.service.registry
        self.config = self.service.config
        # Process-mode deployments publish weights once, into shared memory;
        # every worker child maps the same segments zero-copy.
        self._store: Optional[SharedWeightStore] = (
            SharedWeightStore(self.registry) if self.cluster.workers == "process" else None
        )
        self._workers: Dict[int, Union[ShardWorker, ProcessShardWorker]] = {}
        self._next_shard_id = 0
        self.router = ConsistentHashRouter(replicas=self.cluster.replicas)
        # Balanced tenant placement, recomputed lazily whenever the
        # registered-tenant set or the shard membership changes.
        self._placement: Dict[str, int] = {}
        self._placement_signature: Optional[tuple] = None
        self._started = False
        self._closed = False
        # Requests failed *at the frontend* (fail-fast submit to a dead
        # shard): no worker telemetry ever sees them, so the frontend counts
        # them itself — otherwise a mid-outage stats() would under-report
        # failures and starve the burn-rate alert of its signal.
        self._frontend_failed = 0
        self._frontend_failed_lock = threading.Lock()
        # All scaling mutations (add/remove/kill) serialize behind this one
        # lock.  Without it a remove_shard's ring-removal + graceful drain
        # can interleave with a concurrent add_shard's ring-insert and the
        # router/worker tables disagree mid-flight; with it each mutation —
        # including the drain a graceful remove performs — is atomic with
        # respect to the others.  Reentrant so a locked caller may compose
        # mutations.
        self._scale_lock = threading.RLock()
        for _ in range(self.cluster.shards):
            self._add_worker()
        if start:
            self.start()

    # -- shard membership -------------------------------------------------------
    def _add_worker(self) -> int:
        with self._scale_lock:
            shard_id = self._next_shard_id
            self._next_shard_id += 1
            # The one place the worker kind matters: which transport carries
            # the shard loop, and where its engines come from.
            if self._store is None:
                kind, source = ShardWorker, self.registry
            else:
                kind, source = ProcessShardWorker, self._store
            worker = kind(
                shard_id,
                source,
                cache_capacity=self.cluster.cache_capacity,
                max_batch_size=self.cluster.max_batch_size,
                max_pending=self.cluster.max_pending,
                flush_interval_s=self.cluster.flush_interval_s,
                poll_interval_s=self.cluster.poll_interval_s,
            )
            self._workers[shard_id] = worker
            self.router.add_shard(shard_id)
            if self._started:
                worker.start()
            emit("shard_add", shard=shard_id, workers=self.cluster.workers,
                 shards=len(self._workers))
            return shard_id

    def add_shard(self) -> int:
        """Scale out by one shard; only rerouted tenants change owner.

        Bounded-load consistent hashing moves roughly 1/(shards+1) of the
        tenants (those whose ring owner becomes the new shard, plus any
        overflow that regains room); the bulk of the surviving shards' cached
        engines stay warm.  Returns the new shard id.
        """
        self._ensure_open()
        return self._add_worker()

    def remove_shard(self, shard_id: int) -> None:
        """Scale in: reroute the shard's tenants, drain it, stop its worker.

        Holds the scale lock across the whole sequence — ring removal *and*
        the graceful drain — so a concurrent ``add_shard`` (an autoscaler
        scaling out while a chaos heal drains a corpse) waits for the drain
        instead of racing the router ring.
        """
        self._ensure_open()
        with self._scale_lock:
            if shard_id not in self._workers:
                raise KeyError(f"unknown shard id {shard_id!r}")
            if len(self._workers) == 1:
                raise ValueError("cannot remove the last shard")
            # Order matters: take the shard off the ring first so no new
            # traffic lands on it, then drain what it already owns.
            self.router.remove_shard(shard_id)
            worker = self._workers.pop(shard_id)
            emit("shard_drain", shard=shard_id, shards=len(self._workers))
            worker.stop(drain=True)

    def kill_shard(self, shard_id: int) -> None:
        """Chaos operation: crash one shard abruptly (no drain, no reroute).

        The shard's pending futures fail with
        :class:`~repro.cluster.shard.ShardKilledError`, and traffic for its
        tenants keeps failing fast (never hanging) until the fleet is healed
        with :meth:`remove_shard`, which takes the corpse off the ring and
        reroutes its tenants to the survivors.  This is the fault-injection
        entry point :class:`repro.loadgen.FaultInjector` drives.
        """
        self._ensure_open()
        with self._scale_lock:
            if shard_id not in self._workers:
                raise KeyError(f"unknown shard id {shard_id!r}")
            self._workers[shard_id].kill()
            emit("shard_kill", shard=shard_id)

    @property
    def shards(self) -> int:
        return len(self._workers)

    def shard_ids(self) -> List[int]:
        """The live shard ids, sorted — the public membership surface.

        Chaos tooling (:class:`repro.loadgen.FaultInjector`) and telemetry
        consumers address shards through this and :meth:`worker` rather than
        the private worker table.
        """
        return sorted(self._workers)

    def worker(self, shard_id: int) -> Union[ShardWorker, ProcessShardWorker]:
        """The live worker for ``shard_id`` (raises ``KeyError`` if unknown)."""
        return self._workers[shard_id]

    def _shard_for(self, model_id: str) -> int:
        """The owning shard under bounded-load placement of the registry.

        The placement table covers exactly the registered model ids and is
        rebuilt when the registry contents or the shard set change (both are
        cheap to fingerprint at this reproduction's fleet sizes).  Keys
        outside the registry route by the plain ring.
        """
        signature = (tuple(self.registry.ids()), tuple(self.router.shard_ids()))
        if signature != self._placement_signature:
            table = self.router.balanced_assignments(signature[0])
            self._placement = {
                model_id: shard_id
                for shard_id, model_ids in table.items()
                for model_id in model_ids
            }
            self._placement_signature = signature
        shard_id = self._placement.get(model_id)
        return self.router.route(model_id) if shard_id is None else shard_id

    def worker_for(self, model_id: str) -> Union[ShardWorker, ProcessShardWorker]:
        """The shard worker owning ``model_id`` under the current placement."""
        return self._workers[self._shard_for(model_id)]

    # -- lifecycle ---------------------------------------------------------------
    def start(self) -> "ClusterService":
        """Start every shard's worker thread / process (idempotent).

        Process mode publishes every registered model's weights into shared
        memory up front: the encode happens once, outside the serving path,
        instead of stalling the first request window per tenant (models
        registered later still publish lazily on first use).
        """
        self._ensure_open()
        if not self._started:
            self._started = True
            if self._store is not None:
                for model_id in self.registry.ids():
                    self._store.ensure(model_id)
            for worker in self._workers.values():
                worker.start()
        return self

    def drain(self) -> None:
        """Block until every shard's queue is empty and answered."""
        for worker in self._workers.values():
            worker.drain()

    def shutdown(self, drain: bool = True) -> None:
        """Stop accepting work and stop every shard (graceful by default).

        Process-mode deployments then unlink every shared-memory segment the
        weight store published — after shutdown, ``/dev/shm`` holds nothing
        of this cluster's.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers.values():
            worker.stop(drain=drain and self._started)
        if self._store is not None:
            self._store.close()

    def close(self) -> None:
        self.shutdown()

    def __enter__(self) -> "ClusterService":
        return self.start()

    def _ensure_open(self) -> None:
        if self._closed:
            raise UnavailableError("ClusterService is shut down")

    # -- personalization ----------------------------------------------------------
    def personalize(self, request: PersonalizeRequest) -> str:
        """Personalize one tenant (delegated to the inner service).

        Every shard's cached engine for the id is evicted afterwards — not
        just the current owner's, since balanced placement can move a tenant
        between shards as the fleet changes and a former owner must never
        serve the pre-refresh weights if the tenant moves back.
        """
        self._ensure_open()
        model_id = self.service.personalize(request)
        with _translated():
            if self._store is not None:
                # Republish eagerly so the fresh weights are already encoded
                # in shared memory when the next request window opens.
                self._store.ensure(model_id)
            for worker in self._workers.values():
                worker.evict(model_id)
        return model_id

    # -- inference ------------------------------------------------------------
    def submit(self, request: PredictRequest) -> Future:
        """Route one request to its shard; returns the response future.

        Admission control: when the owning shard's pending count sits at
        or above the high-water mark (or its queue is outright full), the
        future fails at once with a
        :class:`~repro.cluster.shard.ShardOverloadError` naming that bound,
        instead of queueing unboundedly.  Unknown model ids fail the future
        with :class:`~repro.errors.NotFoundError` (a ``KeyError``) without
        poisoning a shard batch.
        """
        self._ensure_open()
        future: Future = Future()
        if request.model_id not in self.registry:
            future.set_exception(
                NotFoundError(
                    f"Unknown model id {request.model_id!r}; "
                    f"registered: {self.registry.ids()}"
                )
            )
            return future
        worker = self.worker_for(request.model_id)
        if worker.pending() >= self.cluster.high_water:
            worker.telemetry.record_reject()
            reason, error = "high_water", ShardOverloadError.refusing(
                request, f"shard {worker.shard_id!r} at high-water mark "
                f"({self.cluster.high_water} pending)",
            )
        else:
            try:
                return worker.submit(request)
            except ShardOverloadError as exc:
                # Lost the race between the depth check and the shard's own
                # bound, which has already counted the refusal.
                reason, error = "queue_full", exc
            except RuntimeError as exc:
                # The owning shard is down (killed or shut down mid-flight).
                # Fail the future cleanly instead of raising into the caller —
                # the contract is that submit() always returns a future and a
                # dead shard never hangs one.
                with self._frontend_failed_lock:
                    self._frontend_failed += 1
                emit("shard_down", shard=worker.shard_id,
                     model_id=request.model_id, error=type(exc).__name__)
                future.set_exception(exc)
                return future
        emit("admission_reject", source="cluster", shard=worker.shard_id,
             model_id=request.model_id, reason=reason)
        future.set_exception(error)
        return future

    @contextmanager
    def window(self) -> Iterator[None]:
        """Bracket a burst: every shard holds the predicts submitted inside
        the ``with`` block and dispatches them as one flush when it exits.

        The begin/end ops ride the same FIFO channel as the predicts between
        them, so whole-burst fusion is structural (independent of host
        scheduling) on both worker kinds — the property behind bit-exact
        parity with the single-process service.  Unbracketed :meth:`submit`
        streams fuse by the shard loop's batching trigger, i.e. by timing:
        same predictions to ~1e-6, not to the bit.
        """
        workers = list(self._workers.values())
        for worker in workers:
            worker.begin_window()
        try:
            yield
        finally:
            for worker in workers:
                worker.end_window()

    def predict_batch(
        self, requests: Sequence[PredictRequest], timeout: Optional[float] = None
    ) -> List[BatchResult]:
        """Answer a mixed-tenant burst under one deadline: per request, in
        request order, its response or the :class:`~repro.errors.ApiError`
        it hit — the :class:`~repro.serve.api.ServingAPI` batch shape.

        A burst is submitted inside one :meth:`window` before any wait, so
        each shard answers its share with a single fused dispatch; a lone
        request has nothing to fuse and skips the window's per-shard ops.
        One bad request (unknown id, dead shard, refusal) costs exactly its
        own slot.  A traced request records the ``frontend`` hop: batch
        start to its own completion, submit staging plus the wait.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        start = time.perf_counter()
        with _translated(), self.window() if len(requests) > 1 else nullcontext():
            futures = [self.submit(request) for request in requests]
        results: List[BatchResult] = []
        for request, future in zip(requests, futures):
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            try:
                results.append(future.result(remaining))
            except Exception as exc:
                results.append(error_from_exception(exc))
                continue
            if request.trace is not None:
                request.trace.add(HOP_FRONTEND, time.perf_counter() - start)
        return results

    def engine(self, model_id: str):
        """The owning shard's cached engine (the hardware-model bridge).

        Same contract as ``PersonalizationService.engine``, so
        :func:`repro.hw.workload.workloads_from_service` models the engine a
        sharded deployment would actually serve this tenant with.
        """
        self._ensure_open()
        with _translated():
            return self.worker_for(model_id).engine(model_id)

    # -- introspection / persistence -------------------------------------------
    def model_ids(self) -> List[str]:
        return self.registry.ids()

    def health(self) -> Dict[str, object]:
        report = super().health()
        report["shards"] = self.shards
        return report

    def _look(self):
        """``(per-shard stats in shard-id order, merged latency histogram)``
        from one look — one ``stats`` frame, for a process shard — per shard."""
        reports = [self._workers[shard_id].report() for shard_id in sorted(self._workers)]
        return (
            [stats for stats, _ in reports],
            LatencyHistogram.merged(latency for _, latency in reports),
        )

    def merged_latency(self) -> LatencyHistogram:
        """The cluster-level latency histogram: every shard's reservoir, merged.

        A true merge of the per-shard reservoirs (no resampling, no window
        truncation — the merged reservoir is sized to hold every resident
        sample), so the p50/p95/p99 computed from it are exactly what a
        single service recording all completions would report.  This is the
        histogram behind ``stats()["totals"]["latency"]``.
        """
        return self._look()[1]

    def stats(self) -> Dict[str, object]:
        """Cluster report: totals + router + uniform per-shard schema.

        Per-shard ``cache`` and ``scheduler`` blocks carry exactly the same
        keys as ``PersonalizationService.stats()``, so dashboards built for
        the single-process path read shard telemetry unchanged.  The
        ``totals["latency"]`` percentiles come from the merged per-shard
        reservoirs (see :meth:`merged_latency`), not from any attempt to
        combine per-shard percentile summaries.

        The top-level ``latency`` / ``cache`` / ``queue`` / ``errors`` blocks
        follow the unified serving schema
        (:func:`~repro.cluster.telemetry.assert_stats_schema`) shared with
        ``PersonalizationService.stats()`` and ``Gateway.stats()``.
        """
        per_shard, latency = self._look()
        totals = merge_snapshots([shard["telemetry"] for shard in per_shard])
        totals["latency"] = latency.summary()
        cache_totals = {
            key: sum(shard["cache"][key] for shard in per_shard)
            for key in ("resident", "hits", "misses", "evictions")
        }
        lookups = cache_totals["hits"] + cache_totals["misses"]
        cache_totals["hit_rate"] = cache_totals["hits"] / lookups if lookups else 0.0
        payload = {
            "models": len(self.registry),
            "shards": self.shards,
            "workers": self.cluster.workers,
            "router": self.router.stats(),
            "latency": totals["latency"],
            "cache": cache_totals,
            "queue": {
                "pending": sum(shard["pending"] for shard in per_shard),
                "max_depth": totals["queue_depth"]["max"],
            },
            "errors": {
                # Worker-recorded failures plus the frontend's fail-fast
                # count (dead-shard submits never reach worker telemetry).
                "failed": totals["failed"] + self._frontend_failed,
                "rejected": totals["rejected"],
                "frontend_failed": self._frontend_failed,
            },
            "totals": totals,
            "per_shard": per_shard,
        }
        # Optional per-hop trace block (parent-process aggregator): absent
        # until tracing has been active, so pre-trace payloads are unchanged.
        block = trace_block()
        if block is not None:
            payload["trace"] = block
        return assert_stats_schema(payload)

    def save(self, root) -> None:
        """Persist every registered model (same layout as the inner service)."""
        self.service.save(root)

    @classmethod
    def load(
        cls,
        root,
        cluster: Optional[ClusterConfig] = None,
        config: Optional[ServiceConfig] = None,
    ) -> "ClusterService":
        """Rebuild a cluster over a registry directory written by :meth:`save`."""
        return cls(cluster=cluster, config=config, registry=ModelRegistry.load(root))
