"""Sharded concurrent serving runtime layered on :mod:`repro.serve`.

The single-process :class:`~repro.serve.PersonalizationService` is one
engine cache, one scheduler, one thread.  This package partitions the
per-user engines across worker shards so cache locality and fused dispatch
survive concurrent multi-tenant traffic — the shard-by-tenant idiom of
production model serving:

* :mod:`repro.cluster.router` — :class:`ConsistentHashRouter`: deterministic
  tenant → shard placement with minimal movement on scale out/in.
* :mod:`repro.cluster.loop` — :class:`~repro.cluster.loop.ShardLoop`: what
  one shard does — a private engine cache + micro-batching scheduler serving
  ops on a complete-, deadline- or max-batch trigger, with window bracketing
  for bursts — written once for both worker kinds.
* :mod:`repro.cluster.shard` — :class:`ShardWorker`: the loop on a thread,
  fed from a queue (plus what both kinds share: admission, errors).
* :mod:`repro.cluster.procworker` — :class:`ProcessShardWorker`: the loop in
  a ``multiprocessing`` child, fed over a pipe and serving zero-copy from
  :mod:`repro.shm` shared-memory weight segments — shards that truly run on
  separate cores (``ClusterConfig(workers="process")``).
* :mod:`repro.cluster.frontend` — :class:`ClusterService`: a
  :class:`~repro.serve.api.ServingAPI` (``Gateway(cluster)``,
  ``LoadDriver(cluster)``) with futures for async completion, admission
  control and graceful drain/shutdown.  Every outcome is a response or an
  :class:`~repro.errors.ApiError` raised or failed into the future — a
  refusal is a :class:`ShardOverloadError` (``UNAVAILABLE``, 503).
* :mod:`repro.cluster.telemetry` — per-shard counters, latency percentiles
  (p50/p95/p99), queue-depth and batch-size distributions, merged into
  cluster totals by :meth:`ClusterService.stats`.

Quickstart::

    from repro.cluster import ClusterConfig, ClusterService

    with ClusterService(ClusterConfig(shards=4, cache_capacity=4)) as cluster:
        model_id = cluster.personalize(PersonalizeRequest(user_id=0, num_classes=3))
        responses = cluster.predict_batch(mixed_requests)   # routed + fused
        print(cluster.stats()["totals"]["latency"])         # p50/p95/p99
"""

from .frontend import WORKER_KINDS, ClusterConfig, ClusterService
from .procworker import ProcessShardWorker
from .router import ConsistentHashRouter
from .shard import ShardKilledError, ShardOverloadError, ShardWorker
from .telemetry import LatencyHistogram, ShardTelemetry, merge_snapshots

__all__ = [
    "ClusterConfig",
    "ClusterService",
    "WORKER_KINDS",
    "ConsistentHashRouter",
    "ShardWorker",
    "ProcessShardWorker",
    "ShardOverloadError",
    "ShardKilledError",
    "LatencyHistogram",
    "ShardTelemetry",
    "merge_snapshots",
]
