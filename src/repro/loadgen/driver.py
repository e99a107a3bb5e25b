"""The load driver: replay a synthesized workload against a serving target.

:class:`LoadDriver` drives a :class:`~repro.serve.api.ServingAPI` or a
:class:`~repro.gateway.GatewayClient`.  A target exposing the async
``submit(request) -> Future`` surface (a
:class:`~repro.cluster.ClusterService`, ``LoadDriver(cluster)``) is driven
asynchronously with open-loop pacing or closed-loop windowing, and
synchronous targets — a :class:`~repro.serve.PersonalizationService` or a
:class:`~repro.gateway.GatewayClient` pointed at a loopback or HTTP
transport — are driven call-by-call.  Both paths record identical
:class:`~repro.loadgen.report.RequestOutcome` streams into an
:class:`~repro.loadgen.report.SLOReport`.

Outcome statuses: on the async path a future that fails with the cluster's
admission refusal (:class:`~repro.cluster.ShardOverloadError`) counts as
*rejected* (load shed, by design) and any other exception — a dead shard
included — as *failed*.  On the sync path the error arrives by code:
``RESOURCE_EXHAUSTED`` / ``UNAVAILABLE`` are *rejected*, everything else
*failed*.

Pacing: open-loop workloads sleep until each request's virtual arrival
offset times ``time_scale``.  ``time_scale=1`` replays the scenario's
virtual clock in real time; ``0`` disables pacing entirely (maximum-ingest
mode, what the throughput benchmarks use).

Faults: events fire *between* submissions, keyed by request index, through
a :class:`~repro.loadgen.faults.FaultInjector` — deterministic placement in
the request stream even though their wall-clock moment varies.

Every submitted future is awaited with a hard deadline; one that never
resolves is reported as *hung* (status 408) rather than blocking the run —
``report.hung == 0`` is the no-leaked-futures invariant the chaos tests
assert.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster.shard import ShardOverloadError
from ..errors import ApiError
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

__all__ = ["DriverConfig", "LoadDriver"]


@dataclass
class DriverConfig:
    """Replay knobs (orthogonal to the scenario being replayed)."""

    time_scale: float = 1.0  #: virtual→wall multiplier; 0 = no pacing
    timeout_s: float = 30.0  #: hard deadline for the slowest future
    record_cluster_stats: bool = True  #: attach ClusterService.stats() to the report

    def __post_init__(self) -> None:
        if self.time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {self.time_scale}")
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")


class LoadDriver:
    """Replays workloads against one Serving API v2 target and scores the run."""

    def __init__(self, target, config: Optional[DriverConfig] = None) -> None:
        # Deferred import: repro.gateway layers on repro.loadgen's siblings.
        from ..gateway.client import GatewayClient

        if not isinstance(target, (ServingAPI, GatewayClient)):
            raise TypeError(
                f"LoadDriver drives a ServingAPI or a GatewayClient, not "
                f"{type(target).__name__}"
            )
        self.target = target
        self._wire_client = isinstance(target, GatewayClient)
        self.config = config or DriverConfig()

    # -- report scaffolding ------------------------------------------------------
    def _is_async(self) -> bool:
        return hasattr(self.target, "submit")

    def _per_shard_planned(self, workload: Workload) -> Dict[str, int]:
        """Planned request count per shard under the current placement.

        Deterministic: placement depends only on the registry contents and
        the shard set, and the workload's tenant sequence is seeded.
        """
        if not hasattr(self.target, "worker_for"):
            return {"0": len(workload)}
        counts: Dict[str, int] = {
            str(shard_id): 0 for shard_id in self.target.shard_ids()
        }
        for item in workload.scheduled:
            shard = self.target.worker_for(item.request.model_id).shard_id
            counts[str(shard)] += 1
        return counts

    def _cluster_stats(self) -> Optional[Dict]:
        """The target's cluster-shaped stats, if it exposes any.

        Wire clients (``GatewayClient``) report the remote deployment's
        stats dict; only dicts carrying the cluster schema (``totals`` /
        ``per_shard``) are usable by the SLO report's cluster block.
        """
        if not hasattr(self.target, "stats"):
            return None
        stats = self.target.stats()
        if isinstance(stats, dict) and "totals" in stats:
            return stats
        return None

    def _new_report(self, workload: Workload) -> SLOReport:
        shards = getattr(self.target, "shards", None)
        if not isinstance(shards, int):
            # A wire client has no local topology; ask the deployment's
            # stats for its shard count so the report doesn't claim 1.
            stats = self._cluster_stats()
            shards = stats.get("shards", 1) if stats else 1
        return SLOReport(
            scenario=workload.scenario.to_dict(),
            plan=workload.plan_dict(),
            shards=shards if isinstance(shards, int) else 1,
            per_shard_planned=self._per_shard_planned(workload),
        )

    # -- the replay --------------------------------------------------------------
    def run(self, workload: Workload) -> SLOReport:
        """Replay ``workload`` and return its :class:`SLOReport`."""
        if workload.faults and not self._is_async():
            raise ValueError(
                "fault-injection scenarios need a ClusterService-backed "
                "target (the synchronous facades have no shards to break)"
            )
        report = self._new_report(workload)
        if self._is_async():
            self._run_async(workload, report)
        else:
            self._run_sync(workload, report)
        return report

    def _fire_faults(
        self, injector: Optional[FaultInjector], faults, index: int, workload: Workload,
        report: SLOReport,
    ) -> None:
        for event in faults.get(index, ()):
            entry = injector.fire(event, workload.model_ids)
            report.fault_log.append(entry)

    def _run_async(self, workload: Workload, report: SLOReport) -> None:
        injector = FaultInjector(self.target) if workload.faults else None
        faults: Dict[int, List] = {}
        for event in workload.faults:
            faults.setdefault(event.at_request, []).append(event)

        window = (
            threading.Semaphore(workload.concurrency) if workload.closed_loop else None
        )
        scale = self.config.time_scale
        inflight: List[Tuple[str, str, float, Dict[str, float], Future]] = []
        start = time.perf_counter()
        stalled_from = None
        fired_through = -1
        for index, item in enumerate(workload.scheduled):
            self._fire_faults(injector, faults, index, workload, report)
            fired_through = index
            if window is not None:
                # Closed loop: wait for a slot, not for a timestamp.
                if not window.acquire(timeout=self.config.timeout_s):
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
                # Span collector for this request: the cluster seams record
                # into it (shard/engine child-side spans are merged back
                # before the future resolves).
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

        deadline = time.perf_counter() + self.config.timeout_s
        last_done = start
        for request_id, model_id, submitted, marks, future in inflight:
            remaining = max(0.0, deadline - time.perf_counter())
            try:
                result = future.result(timeout=remaining)
            except FutureTimeoutError:
                report.record(
                    RequestOutcome(request_id, model_id, STATUS_HUNG, error="TimeoutError")
                )
                continue
            except Exception as exc:
                result = exc
            done = marks.get("done", time.perf_counter())
            last_done = max(last_done, done)
            latency = done - submitted
            if isinstance(result, ShardOverloadError):
                report.record(RequestOutcome(request_id, model_id, STATUS_REJECTED, latency))
            elif isinstance(result, Exception):
                report.record(
                    RequestOutcome(
                        request_id, model_id, STATUS_FAILED, latency, error=type(result).__name__
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
        if self.config.record_cluster_stats:
            report.cluster_stats = self._cluster_stats()

    def _predict_one(self, request):
        """One synchronous call through whichever facade shape the target has."""
        if self._wire_client:
            # GatewayClient keeps the classic (model_id, batch) convention.
            return self.target.predict(
                request.model_id, request.inputs, request_id=request.request_id
            )
        return self.target.predict(request)

    @staticmethod
    def _error_status(exc: Exception) -> int:
        """Map an exception to an outcome status (shed load is *rejected*)."""
        if isinstance(exc, ApiError) and exc.code in (
            "RESOURCE_EXHAUSTED",
            "UNAVAILABLE",
        ):
            return STATUS_REJECTED
        return STATUS_FAILED

    def _run_sync(self, workload: Workload, report: SLOReport) -> None:
        """Call-by-call replay for targets without an async submit surface."""
        scale = self.config.time_scale
        start = time.perf_counter()
        for item in workload.scheduled:
            if not workload.closed_loop and scale > 0:
                target = start + item.at * scale
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            if _trace.enabled() and not self._wire_client:
                # In-process facades record into an attached collector; a
                # wire client instead flags the envelope and rebuilds the
                # spans from the reply (see GatewayClient.predict).
                item.request.trace = Trace()
            submitted = time.perf_counter()
            try:
                response = self._predict_one(item.request)
            except Exception as exc:
                report.record(
                    RequestOutcome(
                        item.request.request_id,
                        item.request.model_id,
                        self._error_status(exc),
                        latency_s=time.perf_counter() - submitted,
                        error=type(exc).__name__,
                    )
                )
                continue
            latency = time.perf_counter() - submitted
            report.record(
                RequestOutcome(
                    item.request.request_id,
                    item.request.model_id,
                    STATUS_OK,
                    latency,
                    hops=hops_of(response) or hops_of(item.request),
                )
            )
            report.record_prediction(item.request.request_id, response.logits)
        report.elapsed_s = max(time.perf_counter() - start, 1e-12)
        # Wire clients see the remote cluster's stats too — the SLO artifact
        # keeps its cluster block (merged p99, per-shard completions)
        # whichever transport carried the replay.
        if self.config.record_cluster_stats:
            report.cluster_stats = self._cluster_stats()
