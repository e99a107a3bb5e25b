"""The load driver: replay a synthesized workload against a serving target.

:class:`LoadDriver` drives a :class:`~repro.serve.api.ServingAPI` or a
:class:`~repro.gateway.GatewayClient` through one loop over one surface,
``submit(request) -> Future``: a :class:`~repro.cluster.ClusterService`
returns its futures at once, a :class:`~repro.serve.PersonalizationService`
or a wire client resolves each before returning.  Every run records
:class:`~repro.loadgen.report.RequestOutcome` streams into an
:class:`~repro.loadgen.report.SLOReport`.

One outcome rule, whatever the target: a request whose error is an
admission refusal (:class:`~repro.cluster.ShardOverloadError`) or a quota
(:class:`~repro.errors.ResourceExhaustedError`, e.g. the gateway's rate
limiter) is *rejected* — load shed, by design — and any other error, a dead
shard or an unknown tenant included, is *failed*.

Pacing: open-loop workloads sleep until each request's virtual arrival
offset times ``time_scale``.  ``time_scale=1`` replays the scenario's
virtual clock in real time; ``0`` disables pacing entirely (maximum-ingest
mode).  Closed-loop workloads instead hold at most ``concurrency`` requests
in flight.

Faults: events fire *between* submissions, keyed by request index, through
a :class:`~repro.loadgen.faults.FaultInjector` — deterministic placement in
the request stream even though their wall-clock moment varies.  They need a
:class:`~repro.cluster.ClusterService` target: the injector kills, slows and
poisons its shards.

Every submitted future is awaited under one deadline,
:data:`HANG_TIMEOUT_S`; one that never resolves is reported as *hung*
(status 408) rather than blocking the run — ``report.hung == 0`` is the
no-leaked-futures invariant the chaos tests assert.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Dict, List, Optional, Tuple

from ..cluster.frontend import ClusterService
from ..cluster.shard import ShardOverloadError
from ..errors import ResourceExhaustedError
from ..serve.api import ServingAPI
from .. import trace as _trace
from ..trace import Trace, hops_of
from .faults import FaultInjector
from .report import (
    STATUS_FAILED,
    STATUS_HUNG,
    STATUS_OK,
    STATUS_REJECTED,
    RequestOutcome,
    SLOReport,
)
from .scenario import Workload

__all__ = ["HANG_TIMEOUT_S", "LoadDriver"]

#: Hard deadline, in seconds, for the slowest future of a run (and for a
#: closed-loop window slot); past it a request is reported as hung.
HANG_TIMEOUT_S = 30.0

#: The errors that count as shed load (*rejected*) rather than *failed*.
_REFUSALS = (ShardOverloadError, ResourceExhaustedError)


class LoadDriver:
    """Replays workloads against one Serving API v2 target and scores the run.

    ``time_scale`` is the virtual→wall multiplier of open-loop pacing
    (0 = no pacing).
    """

    def __init__(self, target, time_scale: float = 1.0) -> None:
        # Deferred import: repro.gateway layers on repro.loadgen's siblings.
        from ..gateway.client import GatewayClient

        if not isinstance(target, (ServingAPI, GatewayClient)):
            raise TypeError(
                f"LoadDriver drives a ServingAPI or a GatewayClient, not "
                f"{type(target).__name__}"
            )
        if time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {time_scale}")
        self.target = target
        self.time_scale = time_scale

    # -- report scaffolding ------------------------------------------------------
    def _cluster_stats(self) -> Optional[Dict]:
        """The target's stats if they carry the cluster schema (``totals`` /
        ``per_shard``), the only ones the SLO report's cluster block reads.
        A wire client reports the remote deployment's."""
        stats = self.target.stats()
        return stats if "totals" in stats else None

    def _new_report(self, workload: Workload) -> SLOReport:
        """The empty report, with the planned request count per shard.

        Deterministic: placement depends only on the registry contents and
        the shard set, and the workload's tenant sequence is seeded.  Any
        target but a cluster is one opaque endpoint, planned as shard "0";
        its shard count comes from its stats so a wire client in front of a
        cluster does not claim 1.
        """
        if isinstance(self.target, ClusterService):
            shards = self.target.shards
            planned = {str(shard_id): 0 for shard_id in self.target.shard_ids()}
            for item in workload.scheduled:
                planned[str(self.target.worker_for(item.request.model_id).shard_id)] += 1
        else:
            stats = self._cluster_stats()
            shards = stats.get("shards", 1) if stats else 1
            planned = {"0": len(workload)}
        return SLOReport(
            scenario=workload.scenario.to_dict(),
            plan=workload.plan_dict(),
            shards=shards,
            per_shard_planned=planned,
        )

    # -- the replay --------------------------------------------------------------
    def _fire_faults(
        self, injector: Optional[FaultInjector], faults, index: int, workload: Workload,
        report: SLOReport,
    ) -> None:
        for event in faults.get(index, ()):
            entry = injector.fire(event, workload.model_ids)
            report.fault_log.append(entry)

    def run(self, workload: Workload) -> SLOReport:
        """Replay ``workload`` and return its :class:`SLOReport`."""
        if workload.faults and not isinstance(self.target, ClusterService):
            raise ValueError(
                "fault-injection scenarios need a ClusterService target (the "
                "injector kills, slows and poisons its shards)"
            )
        report = self._new_report(workload)
        injector = FaultInjector(self.target) if workload.faults else None
        faults: Dict[int, List] = {}
        for event in workload.faults:
            faults.setdefault(event.at_request, []).append(event)

        window = (
            threading.Semaphore(workload.concurrency) if workload.closed_loop else None
        )
        scale = self.time_scale
        inflight: List[Tuple[str, str, float, Dict[str, float], Future]] = []
        start = time.perf_counter()
        stalled_from = None
        fired_through = -1
        for index, item in enumerate(workload.scheduled):
            self._fire_faults(injector, faults, index, workload, report)
            fired_through = index
            if window is not None:
                # Closed loop: wait for a slot, not for a timestamp.
                if not window.acquire(timeout=HANG_TIMEOUT_S):
                    # The window never freed: the outstanding futures are
                    # stuck.  Stop submitting, but account for the whole
                    # unsubmitted tail — silence would misreport the stall.
                    stalled_from = index
                    break
            elif scale > 0:
                target = start + item.at * scale
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            if _trace.enabled():
                # Span collector for this request: in-process seams record
                # into it (shard/engine child-side spans are merged back
                # before the future resolves); a wire client instead flags
                # the envelope and rebuilds the spans from the reply.
                item.request.trace = Trace()
            submitted = time.perf_counter()
            future = self.target.submit(item.request)
            marks: Dict[str, float] = {}

            def _on_done(f: Future, marks: Dict[str, float] = marks) -> None:
                marks["done"] = time.perf_counter()
                if window is not None:
                    window.release()

            future.add_done_callback(_on_done)
            inflight.append(
                (item.request.request_id, item.request.model_id, submitted, marks, future)
            )
        if stalled_from is not None:
            for item in workload.scheduled[stalled_from:]:
                report.record(
                    RequestOutcome(
                        item.request.request_id,
                        item.request.model_id,
                        STATUS_HUNG,
                        error="ClosedLoopStall",
                    )
                )
        # Sweep the rest of the schedule, in order: events past the last
        # submission index (late faults) and any skipped by a stall break
        # still fire exactly once — the fault_log must reflect the whole
        # declared schedule, executed or the run cannot be reasoned about.
        for index in sorted(faults):
            if index > fired_through:
                self._fire_faults(injector, faults, index, workload, report)

        deadline = time.perf_counter() + HANG_TIMEOUT_S
        last_done = start
        for request_id, model_id, submitted, marks, future in inflight:
            remaining = max(0.0, deadline - time.perf_counter())
            try:
                result = future.result(timeout=remaining)
            except Exception as exc:
                if not future.done():
                    # The run's deadline passed, not the request's own: a
                    # request that failed with a timeout error still resolved.
                    report.record(
                        RequestOutcome(request_id, model_id, STATUS_HUNG, error="TimeoutError")
                    )
                    continue
                result = exc
            done = marks.get("done", time.perf_counter())
            last_done = max(last_done, done)
            latency = done - submitted
            if isinstance(result, Exception):
                status = STATUS_REJECTED if isinstance(result, _REFUSALS) else STATUS_FAILED
                report.record(
                    RequestOutcome(
                        request_id, model_id, status, latency, error=type(result).__name__
                    )
                )
            else:
                report.record(
                    RequestOutcome(request_id, model_id, STATUS_OK, latency, hops=hops_of(result))
                )
                report.record_prediction(request_id, result.logits)
        report.elapsed_s = max(last_done - start, 1e-12)
        if injector is not None:
            injector.restore_all()
        report.cluster_stats = self._cluster_stats()
        return report
