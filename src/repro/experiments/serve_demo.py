"""Request-replay demo of the multi-tenant serving stack (CLI ``serve``).

Personalizes a handful of users end to end through the
:class:`~repro.serve.PersonalizationService`, synthesizes one
``steady-uniform`` workload over their models, and replays it with
:class:`~repro.loadgen.LoadDriver` on every serving surface:

* ``local`` — the service itself;
* ``loopback`` — a :class:`~repro.gateway.GatewayClient` over the loopback
  wire (envelope → middleware → router → service and back);
* ``cluster`` — with ``shards > 1``, a :class:`~repro.cluster.ClusterService`
  over the same service (consistent-hash routing, threaded or process shards).

Each surface's :class:`~repro.loadgen.SLOReport` is printed.  Every surface
must complete every request with the same quantized predictions digest;
otherwise the command exits non-zero naming each surface's digest.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..cluster import WORKER_KINDS, ClusterConfig, ClusterService
from ..gateway import Gateway, GatewayClient, LoopbackTransport
from ..loadgen import LoadDriver, SLOReport, build_scenario
from ..serve import EngineSpec, PersonalizeRequest
from .common import ExperimentScale, TINY_SCALE, emit_json, flag, make_service

__all__ = ["ServeDemoConfig", "run_serve_demo", "print_serve_demo"]


@dataclass
class ServeDemoConfig:
    """Knobs of the request-replay demo."""

    users: int = flag("--serve-users", default=2, help="tenants to personalize (default: 2)")
    num_user_classes: int = 3
    requests: int = flag("--serve-requests", default=12, help="requests to replay (default: 12)")
    cache_capacity: int = flag(
        "--serve-capacity", default=2,
        help="engine cache capacity, per process or per shard (default: 2)",
    )
    shards: int = flag(
        "--shards", default=1,
        help="serving shards; > 1 also replays the workload through the "
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
        help="write each serve surface's measured SLO report to PATH as JSON",
    )

    def __post_init__(self) -> None:
        for name in ("users", "num_user_classes", "requests", "cache_capacity", "shards"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.workers not in WORKER_KINDS:
            raise ValueError(f"workers must be one of {WORKER_KINDS}, got {self.workers!r}")


def run_serve_demo(config: Optional[ServeDemoConfig] = None) -> Dict[str, SLOReport]:
    """Personalize the users and replay one workload on every surface.

    Returns surface name -> its report, in replay order.
    """
    config = config or ServeDemoConfig()
    service = make_service(
        config.scale, cache_capacity=config.cache_capacity, engine=config.engine, seed=config.seed
    )
    model_ids = [
        service.personalize(PersonalizeRequest(
            user_id=user_id, num_classes=config.num_user_classes,
            target_sparsity=config.target_sparsity, seed=config.seed, engine=config.engine,
        ))
        for user_id in range(config.users)
    ]
    size = service.dataset(config.seed).image_size
    workload = build_scenario("steady-uniform", requests=config.requests).synthesize(
        model_ids, seed=config.seed, input_shape=(3, size, size)
    )
    surfaces = {"local": service, "loopback": GatewayClient(LoopbackTransport(Gateway(service)))}
    with contextlib.ExitStack() as stack:
        if config.shards > 1:
            # A queue bound as large as the workload: no request is shed.
            surfaces["cluster"] = stack.enter_context(ClusterService(
                ClusterConfig(
                    shards=config.shards, workers=config.workers,
                    cache_capacity=config.cache_capacity, max_pending=max(256, len(workload)),
                ),
                service=service,
            ))
        return {
            name: LoadDriver(target, time_scale=0).run(workload)
            for name, target in surfaces.items()
        }


def print_serve_demo(config: Optional[ServeDemoConfig] = None) -> Dict[str, SLOReport]:
    """CLI printer: each surface's report, then the one digest they share.

    ``SystemExit`` naming every surface's outcome and digest when a surface
    did not complete every request or read a different digest.  With
    ``stats_json`` it first writes ``{surface: measured report}``.
    """
    config = config or ServeDemoConfig()
    reports = run_serve_demo(config)
    for name, report in reports.items():
        print(f"[{name}]\n{report.render()}")
    emit_json({name: r.to_dict(timing=True) for name, r in reports.items()}, config.stats_json)
    digests = {name: r.predictions_digest() for name, r in reports.items()}
    if len(set(digests.values())) > 1 or any(r.completed != r.requests for r in reports.values()):
        raise SystemExit("serve: surfaces disagree: " + ", ".join(
            f"{name} {r.completed}/{r.requests} ok, digest {digests[name]}"
            for name, r in reports.items()
        ))
    print(f"\npredictions digest {digests['local']}: equal on {len(reports)} surfaces "
          f"({', '.join(reports)})")
    return reports
