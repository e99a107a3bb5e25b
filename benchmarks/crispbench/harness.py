"""Set-up, deployment and the closed-loop caller of every workload.

One caller thread drives the program (``nproc`` is 2 on the reference host;
the shards or the HTTP server take the other core).  Everything sent comes
from the :class:`~.plan.Plan`; everything received is kept and checked after
the window, off the clock.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import ClusterConfig, ClusterService
from repro.gateway import ClusterBackend, Gateway, GatewayClient, LoopbackTransport, serve_http
from repro.metrics import TelemetryPoller
from repro.serve import (
    EngineSpec,
    PersonalizationService,
    PersonalizeRequest,
    PredictRequest,
    ServiceConfig,
    clear_universal_model_cache,
)

from . import check
from .measure import Stopwatch, clock, percentile
from .plan import Plan, Profile
from .registry import AGREEMENT_SAMPLE, SHARDS, TARGET_SPARSITY, Workload

SPEC = EngineSpec(backend="fast", weight_format="crisp", n=2, m=4, block_size=16)


def personalize_request(profile: Profile) -> PersonalizeRequest:
    return PersonalizeRequest(
        user_id=profile.user_id,
        preferred_classes=list(profile.classes),
        target_sparsity=TARGET_SPARSITY,
    )


@dataclass
class Deployment:
    """A started gateway over a started cluster, and the client that calls it."""

    service: PersonalizationService
    cluster: ClusterService
    gateway: Gateway
    client: GatewayClient
    fleet_ids: List[str]
    start_s: float  #: wall time of cluster start (publishes shm segments)
    server: object = None
    poller: Optional[TelemetryPoller] = None

    def close(self) -> None:
        self.client.close()
        if self.poller is not None:
            self.poller.stop(final_sample=False)
        if self.server is not None:
            self.server.stop()
        self.gateway.close()  # shuts the cluster down and unlinks its segments


def build_fleet(workload: Workload, plan: Plan) -> Tuple[PersonalizationService, List[str]]:
    """Pre-train the universal model and CRISP-prune one model per fleet tenant."""
    clear_universal_model_cache()  # every set-up pays the pre-train
    service = PersonalizationService(
        ServiceConfig(engine=SPEC, cache_capacity=workload.cache_capacity)
    )
    return service, [service.personalize(personalize_request(p)) for p in plan.fleet]


def deploy(
    workload: Workload,
    service: PersonalizationService,
    fleet_ids: List[str],
    workers: Optional[str] = None,
) -> Deployment:
    started = clock()
    cluster = ClusterService(
        ClusterConfig(
            shards=SHARDS,
            workers=workers or workload.workers,
            cache_capacity=workload.cache_capacity,
        ),
        service=service,
    )
    start_s = clock() - started
    gateway = Gateway(ClusterBackend(cluster))
    server = poller = None
    if workload.transport == "http":
        if workload.poller_hz:
            poller = TelemetryPoller(gateway, interval_s=1.0 / workload.poller_hz)
        server = serve_http(gateway, metrics=poller)
        if poller is not None:
            poller.start()
        transport = server.transport()
    else:
        transport = LoopbackTransport(gateway)
    return Deployment(
        service=service,
        cluster=cluster,
        gateway=gateway,
        client=GatewayClient(transport),
        fleet_ids=fleet_ids,
        start_s=start_s,
        server=server,
        poller=poller,
    )


@dataclass
class Op:
    """One operation as the caller saw it."""

    latency_s: float
    ok: bool
    error: Optional[str] = None


@dataclass
class Round:
    ops: List[Op]
    wall_s: float
    cpu_s: float

    def summary(self, tail_q: float) -> Dict[str, float]:
        good = [op.latency_s for op in self.ops if op.ok]
        if not good:  # nothing answered: the run is reported incorrect, not crashed
            return dict.fromkeys(
                ("throughput_ops", "latency_p50_ms", "latency_tail_ms", "cpu_ms_per_op"), 0.0
            )
        return {
            "throughput_ops": len(good) / self.wall_s,
            "latency_p50_ms": statistics.median(good) * 1e3,
            "latency_tail_ms": percentile(good, tail_q) * 1e3,
            "cpu_ms_per_op": self.cpu_s / len(self.ops) * 1e3,
        }


@dataclass
class Caller:
    """The closed loop: sends the plan's next operation when the last one is answered."""

    workload: Workload
    plan: Plan
    deployment: Deployment
    next_op: int = 0
    #: (model_id, input, served logits) of the first requests, for the reference check
    sample: List[Tuple[str, np.ndarray, np.ndarray]] = field(default_factory=list)
    #: model ids personalized through the gateway (onboard)
    onboarded: List[str] = field(default_factory=list)
    first_predict_s: List[float] = field(default_factory=list)

    # -- one operation per kind ----------------------------------------------
    def _predict(self, index: int, watch: Optional[Stopwatch]) -> Op:
        model_id = self.deployment.fleet_ids[self.plan.tenant_of(index)]
        image = self.plan.input_of(index)
        request_id = f"op{index}"
        started = clock()
        response = self.deployment.client.predict(model_id, image, request_id=request_id)
        latency = clock() - started
        self._keep(model_id, image, response.logits)
        if check.malformed(response, request_id, model_id):
            return Op(latency, False, "malformed reply")
        return Op(latency, True)

    def _envelope(self, index: int, watch: Optional[Stopwatch]) -> Op:
        ids = self.deployment.fleet_ids
        requests = [
            PredictRequest(ids[self.plan.tenant_of(k)], self.plan.input_of(k), f"op{index}.{j}")
            for j, k in enumerate(self.plan.requests_of(index))
        ]
        started = clock()
        responses = self.deployment.client.predict_batch(requests)
        latency = clock() - started
        error = None
        if len(responses) != len(requests):
            error = "short envelope"
        for request, response in zip(requests, responses):
            if isinstance(response, Exception):
                error = error or type(response).__name__
            elif check.malformed(response, request.request_id, request.model_id):
                error = error or "malformed reply"
            else:
                self._keep(request.model_id, request.inputs[0], response.logits)
        return Op(latency, error is None, error)

    def _personalize(self, index: int, watch: Optional[Stopwatch]) -> Op:
        profile = self.plan.new_users[index]
        started = clock()
        model_id = self.deployment.client.personalize(personalize_request(profile))
        latency = clock() - started
        if watch is not None:
            watch.pause()
        # The new tenant's first predict: cold engine build + forward, off the clock.
        image = self.plan.input_of(index)
        request_id = f"first{index}"
        started = clock()
        response = self.deployment.client.predict(model_id, image, request_id=request_id)
        self.first_predict_s.append(clock() - started)
        self.onboarded.append(model_id)
        self._keep(model_id, image, response.logits)
        bad = check.malformed(response, request_id, model_id)
        if watch is not None:
            watch.resume()
        return Op(latency, not bad, "malformed first predict" if bad else None)

    def _keep(self, model_id: str, image: np.ndarray, logits: np.ndarray) -> None:
        if len(self.sample) < AGREEMENT_SAMPLE:
            self.sample.append((model_id, image, np.array(logits)))

    def one(self, watch: Optional[Stopwatch] = None) -> Op:
        send = getattr(self, f"_{self.workload.op}")  # _predict, _envelope or _personalize
        index = self.next_op
        self.next_op += 1
        try:
            return send(index, watch)
        except Exception as exc:  # a failed operation is a result, not a crash
            if watch is not None and not watch.running:
                watch.resume()
            return Op(0.0, False, f"{type(exc).__name__}: {exc}")

    # -- windows ----------------------------------------------------------------
    def warm_up(self) -> None:
        """Touch every tenant twice so caches are full and lazy set-up is done."""
        client, ids = self.deployment.client, self.deployment.fleet_ids
        if self.workload.op == "personalize":
            self.one()
            return
        touches = [t for _ in range(2) for t in range(len(ids))]
        if self.workload.op == "envelope":
            size = self.plan.envelope
            for start in range(0, len(touches), size):
                chunk = touches[start:start + size]
                client.predict_batch([
                    PredictRequest(ids[t], self.plan.input_of(j), f"warm{start}.{j}")
                    for j, t in enumerate(chunk)
                ])
        else:
            for j, t in enumerate(touches):
                client.predict(ids[t], self.plan.input_of(j), request_id=f"warm{j}")

    def round(self, seconds: float) -> Round:
        watch = Stopwatch()
        ops: List[Op] = []
        while watch.elapsed() < seconds:
            ops.append(self.one(watch))
        watch.stop()
        return Round(ops, watch.wall_s, watch.cpu_s)


def set_up(workload: Workload, plan: Plan) -> Tuple[Caller, float]:
    """One complete set-up; returns the warmed caller and the seconds it took."""
    started = clock()
    service, fleet_ids = build_fleet(workload, plan)
    caller = Caller(workload, plan, deploy(workload, service, fleet_ids))
    caller.warm_up()
    return caller, clock() - started
