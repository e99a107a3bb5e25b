"""Request-replay demo of the multi-tenant serving stack (CLI ``serve``).

Personalizes a handful of users end to end through the
:class:`~repro.serve.PersonalizationService`, records a mixed-tenant request
stream over their validation data, and replays it twice:

* **per-request** — every request submitted and flushed on its own (the
  pre-serving pattern: one engine lookup + one forward per request);
* **micro-batched** — the whole stream submitted, then one flush, so the
  :class:`~repro.serve.BatchScheduler` fuses each tenant's requests into a
  single dispatch.

Both replays go through the service's Serving API v2 surface
(:class:`~repro.serve.api.ServingAPI`), and the stream is additionally
replayed through a full :class:`~repro.gateway.Gateway` loopback wire
round-trip (envelope → middleware → router → backend and back) to show the
gateway's overhead next to the raw facade.  With ``shards > 1`` the
identical stream is replayed once more through a
:class:`~repro.cluster.ClusterService` (consistent-hash routing, one worker
thread per shard), and the cluster's telemetry — per-shard latency
percentiles, queue depths, batch-size distribution — joins the report.

All replays produce identical predictions; the demo prints the per-request
rows, the cache/scheduler counters and the throughput comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..cluster import WORKER_KINDS, ClusterConfig, ClusterService
from ..gateway import Gateway, GatewayClient, LoopbackTransport
from ..serve import EngineSpec, PersonalizeRequest, PredictRequest
from .common import ExperimentScale, TINY_SCALE, emit_json, flag, format_table, make_service

__all__ = ["ServeDemoConfig", "run_serve_demo", "print_serve_demo"]


@dataclass
class ServeDemoConfig:
    """Knobs of the request-replay demo."""

    users: int = flag("--serve-users", default=2, help="tenants to personalize (default: 2)")
    num_user_classes: int = 3
    requests: int = flag(
        "--serve-requests", default=12, help="requests to replay (default: 12)"
    )
    request_batch: int = 1  #: images per request (real traffic is single-image)
    cache_capacity: int = flag(
        "--serve-capacity", default=2,
        help="engine cache capacity, per process or per shard (default: 2)",
    )
    shards: int = flag(
        "--shards", default=1,
        help="serving shards; > 1 also replays the stream through the "
        "repro.cluster sharded runtime (default: 1)",
    )
    workers: str = flag(
        "--workers", default="threaded", choices=WORKER_KINDS,
        help="cluster worker execution model: GIL-sharing shard threads, or "
        "shard processes serving zero-copy from shared-memory weights "
        "(default: threaded)",
    )
    target_sparsity: float = 0.8
    scale: ExperimentScale = TINY_SCALE
    engine: EngineSpec = field(default_factory=lambda: EngineSpec(block_size=8))
    seed: int = 0
    stats_json: Optional[str] = flag(
        "--stats-json", metavar="PATH",
        help="write the serve replay's service/cluster telemetry to PATH as JSON",
    )

    def __post_init__(self) -> None:
        for name in (
            "users", "num_user_classes", "requests", "request_batch", "cache_capacity", "shards",
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.workers not in WORKER_KINDS:
            raise ValueError(f"workers must be one of {WORKER_KINDS}, got {self.workers!r}")


def _request_stream(service, config: ServeDemoConfig, model_ids: List[str]) -> List[PredictRequest]:
    """A round-robin mixed-tenant request stream over each user's val split."""
    dataset = service.dataset(config.seed)
    rng = np.random.default_rng(config.seed)
    per_user_images = []
    for model_id in model_ids:
        profile = service.registry.get(model_id).profile
        images, _ = dataset.split("val", classes=profile.preferred_classes)
        per_user_images.append(images)
    requests = []
    for i in range(config.requests):
        images = per_user_images[i % len(model_ids)]
        picks = rng.integers(0, len(images), size=config.request_batch)
        requests.append(
            PredictRequest(model_ids[i % len(model_ids)], images[picks], request_id=f"replay-{i:04d}")
        )
    return requests


def run_serve_demo(config: Optional[ServeDemoConfig] = None) -> Dict:
    """Run the demo; returns rows, timings and service counters."""
    config = config or ServeDemoConfig()
    service = make_service(
        config.scale,
        cache_capacity=config.cache_capacity,
        engine=config.engine,
        seed=config.seed,
    )

    model_ids = [
        service.personalize(
            PersonalizeRequest(
                user_id=user_id,
                num_classes=config.num_user_classes,
                target_sparsity=config.target_sparsity,
                seed=config.seed,
                engine=config.engine,
            )
        )
        for user_id in range(config.users)
    ]

    requests = _request_stream(service, config, model_ids)

    # Warm both dispatch shapes (engine build + im2col workspaces) so the
    # timed replays compare steady-state serving, not first-call allocation.
    service.predict_batch(list(requests))
    service.predict(requests[0])

    # Per-request replay: one flush per request (no micro-batching possible).
    start = time.perf_counter()
    solo = [service.predict(r) for r in requests]
    per_request_s = time.perf_counter() - start

    # Micro-batched replay of the identical stream.
    start = time.perf_counter()
    batched = service.predict_batch(requests)
    batched_s = time.perf_counter() - start

    # Gateway replay: the same stream through the full loopback wire
    # (JSON envelope -> middleware -> router -> backend), per request.
    gateway = Gateway(service)
    client = GatewayClient(LoopbackTransport(gateway))
    start = time.perf_counter()
    gatewayed = [
        client.predict(r.model_id, r.inputs, request_id=r.request_id)
        for r in requests
    ]
    gateway_s = time.perf_counter() - start
    for a, b, c in zip(solo, batched, gatewayed):
        np.testing.assert_array_equal(a.classes, b.classes)
        np.testing.assert_array_equal(a.classes, c.classes)

    cluster_report = None
    if config.shards > 1:
        with ClusterService(
            ClusterConfig(
                shards=config.shards,
                workers=config.workers,
                cache_capacity=config.cache_capacity,
            ),
            service=service,
        ) as cluster:
            warm = cluster.predict_batch(requests)  # warm per-shard engines
            start = time.perf_counter()
            clustered = cluster.predict_batch(requests)
            cluster_s = time.perf_counter() - start
            for a, b in zip(batched * 2, warm + clustered):
                if isinstance(b, Exception):  # the ApiError that request hit
                    raise b
                np.testing.assert_array_equal(a.classes, b.classes)
            cluster_report = {
                "shards": config.shards,
                "workers": config.workers,
                "cluster_s": cluster_s,
                "stats": cluster.stats(),
            }

    rows = [
        {
            "request": r.request_id,
            "model_id": r.model_id,
            "images": resp.logits.shape[0],
            "batched_with": resp.batched_with,
            "top_class": int(resp.classes[0]),
        }
        for r, resp in zip(requests, batched)
    ]
    return {
        "model_ids": model_ids,
        "rows": rows,
        "timings": {
            "per_request_s": per_request_s,
            "batched_s": batched_s,
            "speedup": per_request_s / max(batched_s, 1e-12),
            "gateway_s": gateway_s,
        },
        "stats": service.stats(),
        "gateway": gateway.stats()["gateway"],
        "cluster": cluster_report,
    }


def print_serve_demo(config: Optional[ServeDemoConfig] = None) -> Dict:
    """CLI printer: replay table, counters and the throughput comparison.

    With ``stats_json`` it also writes the machine-readable telemetry:
    timings, the single-process service counters, and — when the replay ran
    sharded — the full cluster stats.
    """
    config = config or ServeDemoConfig()
    report = run_serve_demo(config)
    print(f"tenants: {', '.join(report['model_ids'])}")
    print(format_table(report["rows"]))
    stats = report["stats"]
    print(f"\ncache:     {stats['cache']}")
    print(f"scheduler: {stats['scheduler']}")
    t = report["timings"]
    print(
        f"\nreplay: per-request {t['per_request_s'] * 1e3:.1f}ms, "
        f"micro-batched {t['batched_s'] * 1e3:.1f}ms "
        f"({t['speedup']:.1f}x, identical predictions)"
    )
    gateway = report["gateway"]
    print(
        f"gateway: loopback wire replay {t['gateway_s'] * 1e3:.1f}ms "
        f"({gateway['per_route']['predict']['requests']} calls through "
        "validation/metrics middleware, identical predictions)"
    )
    cluster = report.get("cluster")
    if cluster is not None:
        cstats = cluster["stats"]
        latency = cstats["totals"]["latency"]
        print(
            f"cluster: {cluster['shards']} {cluster['workers']} shards, "
            f"{cluster['cluster_s'] * 1e3:.1f}ms replay (identical predictions)"
        )
        print(
            f"  latency p50 {latency['p50_ms']:.1f}ms / p95 {latency['p95_ms']:.1f}ms "
            f"/ p99 {latency['p99_ms']:.1f}ms; "
            f"cache hit rate {cstats['cache']['hit_rate']:.2f}"
        )
        for shard in cstats["per_shard"]:
            telemetry = shard["telemetry"]
            print(
                f"  shard {shard['shard']}: {telemetry['completed']} served, "
                f"{telemetry['rejected']} rejected, "
                f"mean batch {telemetry['batch_size']['mean']:.1f}, "
                f"max queue {telemetry['queue_depth']['max']}"
            )
    emit_json(
        {key: report[key] for key in ("timings", "stats", "gateway", "cluster")},
        config.stats_json,
    )
    return report
