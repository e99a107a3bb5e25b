"""Federated serving: one ServingAPI over N clusters, with tenant affinity.

A :class:`FederatedBackend` is the multi-cluster analogue of the cluster's
own shard router, one level up: member *clusters* (each any
:class:`~repro.gateway.ServingAPI` — a :class:`~repro.gateway.ClusterBackend`
in production, a fake in tests) sit on a consistent-hash ring keyed by member
name, and every tenant gets a sticky **home** cluster.  The affinity contract
is the whole point: a tenant's engine cache, its personalized weights, its
latency history all live where its traffic lands, so the federation never
*splits* a tenant across clusters — a tenant is served by exactly one member
until a topology change (its home leaving) forces a re-home.

The one exception is **spillover**: when the home answers
``RESOURCE_EXHAUSTED`` — a quota/capacity signal, not a failure — the request
(not the tenant) is served by the next member in ring order, counted and
emitted as a ``spillover`` event.  Any other error propagates untouched:
``UNAVAILABLE`` is retryable *at the same home* (the gateway's retry
middleware owns that), and failing over on it would silently migrate tenants
on transient blips, defeating the affinity contract.

Because it *is* a ``ServingAPI``, the federation drops into everything built
for one cluster unchanged: ``Gateway(FederatedBackend(...))`` serves it over
HTTP, the ``TelemetryPoller`` samples its merged stats (schema-validated by
:func:`~repro.cluster.telemetry.assert_stats_schema`), and an
:class:`~repro.autoscale.Autoscaler` can watch the merged signals.

:class:`CapacityGate` is the deterministic capacity harness: it wraps any
backend and converts programmed or in-flight-limit overload into
``RESOURCE_EXHAUSTED``, which is how the spillover tests (and demos) push a
member to its quota without racing real queues.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

from ..cluster.router import ConsistentHashRouter
from ..cluster.telemetry import LatencyHistogram, assert_stats_schema
from ..errors import ApiError, NotFoundError, ResourceExhaustedError
from ..metrics.events import emit
from ..serve.types import PersonalizeRequest, PredictRequest, PredictResponse
from ..gateway.api import BatchResult, ServingAPI, as_serving_api

__all__ = ["FederatedBackend", "CapacityGate"]


class FederatedBackend(ServingAPI):
    """Tenant-affine routing over named member clusters, with spillover."""

    name = "federated"

    def __init__(self, members=None, replicas: int = 64) -> None:
        self._lock = threading.RLock()
        self._members: Dict[str, ServingAPI] = {}
        self._ring: ConsistentHashRouter = ConsistentHashRouter(replicas=replicas)
        self._homes: Dict[str, str] = {}  #: model_id -> member name (sticky)
        self.spillovers = 0
        self.spillovers_by_member: Dict[str, int] = {}
        self.rehomes = 0
        if members:
            pairs = members.items() if hasattr(members, "items") else members
            for member_name, backend in pairs:
                self.add_member(member_name, backend)

    # -- membership ------------------------------------------------------------
    def add_member(self, member_name: str, backend) -> ServingAPI:
        """Join ``backend`` (anything ``as_serving_api`` accepts) as a member.

        Joining moves ring territory but not tenants: existing homes are
        sticky, so only tenants first seen after the join can land on the
        new member.  That asymmetry is deliberate — rebalancing live tenants
        means cold caches, and the ring only exists to place *new* ones.
        """
        if not member_name or not isinstance(member_name, str):
            raise ValueError(f"member name must be a non-empty str, got {member_name!r}")
        backend = as_serving_api(backend)
        with self._lock:
            self._ring.add_shard(member_name)  # ValueError on duplicate
            self._members[member_name] = backend
        return backend

    def remove_member(self, member_name: str) -> ServingAPI:
        """Detach a member; its tenants re-home on next use.  Not closed here:
        the caller decides whether the cluster dies or just leaves the ring."""
        with self._lock:
            if member_name not in self._members:
                raise KeyError(f"unknown member {member_name!r}")
            if len(self._members) == 1:
                raise ValueError("cannot remove the last member of a federation")
            self._ring.remove_shard(member_name)
            backend = self._members.pop(member_name)
            orphaned = [m for m, home in self._homes.items() if home == member_name]
            for model_id in orphaned:
                del self._homes[model_id]
            self.rehomes += len(orphaned)
        return backend

    def member_names(self) -> List[str]:
        with self._lock:
            return sorted(self._members)

    def homes(self) -> Dict[str, str]:
        """The current tenant -> member assignment (a copy)."""
        with self._lock:
            return dict(self._homes)

    # -- routing ---------------------------------------------------------------
    def _home_for(self, key: str, record_as: Optional[str] = None) -> str:
        """The sticky home member for ``key``, assigning via the ring on first
        use.  ``record_as`` additionally pins a second key (a freshly minted
        model id) to the same member."""
        with self._lock:
            if not self._members:
                raise NotFoundError("federation has no members")
            home = self._homes.get(key)
            if home is None or home not in self._members:
                home = self._ring.route(key)
                self._homes[key] = home
            if record_as is not None:
                self._homes[record_as] = home
            return home

    def _spill_order(self, home: str) -> List[Tuple[str, ServingAPI]]:
        """The members after ``home`` in sorted-name cyclic order (no home)."""
        with self._lock:
            ordered = sorted(self._members)
            pivot = ordered.index(home) if home in ordered else 0
            names = ordered[pivot + 1 :] + ordered[:pivot]
            return [(member_name, self._members[member_name]) for member_name in names]

    def _member(self, member_name: str) -> ServingAPI:
        with self._lock:
            return self._members[member_name]

    # -- ServingAPI surface ----------------------------------------------------
    def personalize(self, request: PersonalizeRequest) -> str:
        """Build the tenant's model on the home its *user* hashes to, and pin
        the returned model id there — affinity starts at birth."""
        home = self._home_for(f"user:{request.user_id}")
        model_id = self._member(home).personalize(request)
        with self._lock:
            self._homes[model_id] = home
        return model_id

    def predict(
        self, request: PredictRequest, timeout: Optional[float] = None
    ) -> PredictResponse:
        home = self._home_for(request.model_id)
        try:
            return self._member(home).predict(request, timeout)
        except ResourceExhaustedError as exc:
            return self._spillover(request, home, timeout, exc)
        except NotFoundError as exc:
            return self._rehome(request.model_id, home, exc).predict(request, timeout)

    def _spillover(
        self,
        request: PredictRequest,
        home: str,
        timeout: Optional[float],
        cause: ResourceExhaustedError,
    ) -> PredictResponse:
        """Serve one request off-home because the home's capacity is spent.

        The home assignment does NOT move — the next request tries home
        first again.  Spillover is per-request relief, not migration.
        """
        for member_name, backend in self._spill_order(home):
            try:
                response = backend.predict(request, timeout)
            except ResourceExhaustedError:
                continue  # this member is out of quota too; keep walking
            with self._lock:
                self.spillovers += 1
                self.spillovers_by_member[member_name] = (
                    self.spillovers_by_member.get(member_name, 0) + 1
                )
            emit(
                "spillover",
                model_id=request.model_id,
                request_id=request.request_id,
                home=home,
                via=member_name,
            )
            return response
        raise cause  # the whole federation is out of capacity

    def _rehome(self, model_id: str, home: str, cause: NotFoundError) -> ServingAPI:
        """Separate-registry support: the ring guessed a member that has never
        heard of this tenant.  Move the home to the member that has (this IS
        migration, unlike spillover) and return it for one retry; ``cause``
        is raised when no member has the tenant."""
        for member_name, backend in self._spill_order(home):
            if model_id in backend.model_ids():
                with self._lock:
                    self._homes[model_id] = member_name
                    self.rehomes += 1
                return backend
        raise cause

    def predict_batch(
        self, requests: Sequence[PredictRequest], timeout: Optional[float] = None
    ) -> List[BatchResult]:
        """Group by home so co-tenant fusion still happens inside each member,
        then stitch results back in request order.  Per-item
        ``RESOURCE_EXHAUSTED`` outcomes get one spillover attempt each."""
        groups: Dict[str, List[int]] = {}
        for i, request in enumerate(requests):
            groups.setdefault(self._home_for(request.model_id), []).append(i)
        results: List[Optional[BatchResult]] = [None] * len(requests)
        for home, indices in groups.items():
            batch = [requests[i] for i in indices]
            for i, result in zip(indices, self._member(home).predict_batch(batch, timeout)):
                if isinstance(result, ResourceExhaustedError):
                    try:
                        result = self._spillover(requests[i], home, timeout, result)
                    except ApiError as exc:
                        result = exc
                results[i] = result
        return list(results)  # type: ignore[arg-type]

    def stats(self) -> Dict[str, object]:
        """Merged unified-schema stats across the fleet, plus a per-member map.

        Latency merges losslessly when members expose their reservoir
        (:meth:`~repro.cluster.ClusterService.merged_latency` through the
        adapter chain); members that only publish summaries contribute a
        count-weighted approximation.  Either way the result passes
        :func:`assert_stats_schema` — one dashboard, any topology.
        """
        with self._lock:
            members = dict(self._members)
            tenants = len(self._homes)
        per_member: Dict[str, Dict[str, object]] = {}
        histograms: List[LatencyHistogram] = []
        summaries: List[Dict[str, float]] = []
        cache = {"hits": 0.0, "misses": 0.0, "evictions": 0.0}
        queue = {"pending": 0.0, "max_depth": 0.0}
        errors = {"failed": 0.0, "rejected": 0.0}
        shards = 0.0
        for member_name in sorted(members):
            stats = members[member_name].stats()
            per_member[member_name] = stats
            histogram = _member_histogram(members[member_name])
            if histogram is not None:
                histograms.append(histogram)
            else:
                summaries.append(dict(stats.get("latency") or {}))
            block = stats.get("cache") or {}
            for key in cache:
                cache[key] += float(block.get(key, 0) or 0)
            block = stats.get("queue") or {}
            queue["pending"] += float(block.get("pending", 0) or 0)
            queue["max_depth"] = max(
                queue["max_depth"], float(block.get("max_depth", 0) or 0)
            )
            block = stats.get("errors") or {}
            for key in errors:
                errors[key] += float(block.get(key, 0) or 0)
            shards += float(stats.get("shards", 1) or 1)
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = cache["hits"] / lookups if lookups else 0.0
        with self._lock:
            spillovers = self.spillovers
            by_member = dict(sorted(self.spillovers_by_member.items()))
            rehomes = self.rehomes
        merged = {
            "backend": self.name,
            "members": len(members),
            "shards": int(shards),
            "latency": _merge_latency(histograms, summaries),
            "cache": cache,
            "queue": queue,
            "errors": errors,
            "federation": {
                "tenants": tenants,
                "spillovers": spillovers,
                "spillovers_by_member": by_member,
                "rehomes": rehomes,
            },
            "per_member": per_member,
        }
        return assert_stats_schema(merged)

    def engine(self, model_id: str):
        home = self._home_for(model_id)
        try:
            return self._member(home).engine(model_id)
        except NotFoundError as exc:
            return self._rehome(model_id, home, exc).engine(model_id)

    def model_ids(self) -> List[str]:
        with self._lock:
            members = list(self._members.values())
        ids = set()
        for backend in members:
            ids.update(backend.model_ids())
        return sorted(ids)

    def health(self) -> Dict[str, object]:
        report = super().health()
        with self._lock:
            members = dict(self._members)
        report["members"] = {
            member_name: members[member_name].health()
            for member_name in sorted(members)
        }
        return report

    def drain(self) -> None:
        for member_name in self.member_names():
            self._member(member_name).drain()

    def close(self) -> None:
        with self._lock:
            members = list(self._members.values())
            self._members.clear()
            self._homes.clear()
        for backend in members:
            backend.close()


def _member_histogram(backend) -> Optional[LatencyHistogram]:
    """Find a real latency reservoir behind a member adapter, if any.

    Walks the adapter chain (``ClusterBackend.cluster``,
    ``LocalBackend.service``) looking for ``merged_latency`` — the lossless
    path.  Returns ``None`` for summary-only members (the weighted fallback).
    """
    for obj in (backend, getattr(backend, "cluster", None), getattr(backend, "service", None)):
        if obj is not None and hasattr(obj, "merged_latency"):
            try:
                return obj.merged_latency()
            except Exception:
                return None
    return None


def _merge_latency(
    histograms: List[LatencyHistogram], summaries: List[Dict[str, float]]
) -> Dict[str, float]:
    """Merge member latencies: lossless where reservoirs exist, count-weighted
    for summary-only members, schema-complete either way."""
    if histograms and not summaries:
        return LatencyHistogram.merged(histograms).summary()
    merged: Dict[str, float] = {
        "count": 0.0, "mean_ms": 0.0, "p50_ms": 0.0, "p95_ms": 0.0,
        "p99_ms": 0.0, "max_ms": 0.0,
    }
    parts = [h.summary() for h in histograms] + summaries
    total = sum(float(part.get("count", 0) or 0) for part in parts)
    for part in parts:
        count = float(part.get("count", 0) or 0)
        weight = count / total if total else 1.0 / max(len(parts), 1)
        for key in ("mean_ms", "p50_ms", "p95_ms", "p99_ms"):
            merged[key] += weight * float(part.get(key, 0) or 0)
        merged["max_ms"] = max(merged["max_ms"], float(part.get("max_ms", 0) or 0))
    merged["count"] = total
    return merged


class CapacityGate(ServingAPI):
    """Deterministic ``RESOURCE_EXHAUSTED`` harness around any backend.

    Two triggers, both deterministic:

    * ``limit`` — more than ``limit`` predicts in flight at once answer 429
      immediately (a hard admission quota, not a queue);
    * :meth:`trip` — program the next ``n`` predicts to answer 429 regardless,
      which is how tests script "the home is out of capacity right now"
      without racing real queues.

    Everything else delegates untouched, so a gated member still reports its
    real stats, model ids, and health.
    """

    name = "capacity-gate"

    def __init__(self, backend, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        self.backend = as_serving_api(backend)
        self.limit = limit
        self.exhausted = 0  #: predicts answered RESOURCE_EXHAUSTED by the gate
        self._tripped = 0
        self._inflight = 0
        self._lock = threading.Lock()

    def trip(self, n: int = 1) -> None:
        """Force the next ``n`` predicts to answer ``RESOURCE_EXHAUSTED``."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        with self._lock:
            self._tripped += n

    def _admit(self, request: PredictRequest) -> None:
        with self._lock:
            if self._tripped > 0:
                self._tripped -= 1
                self.exhausted += 1
                raise ResourceExhaustedError(
                    f"capacity gate tripped for {request.model_id}",
                    details={"request_id": request.request_id},
                )
            if self.limit is not None and self._inflight >= self.limit:
                self.exhausted += 1
                raise ResourceExhaustedError(
                    f"capacity gate at limit {self.limit}",
                    details={"request_id": request.request_id},
                )
            self._inflight += 1

    def predict(
        self, request: PredictRequest, timeout: Optional[float] = None
    ) -> PredictResponse:
        self._admit(request)
        try:
            return self.backend.predict(request, timeout)
        finally:
            with self._lock:
                self._inflight -= 1

    def predict_batch(
        self, requests: Sequence[PredictRequest], timeout: Optional[float] = None
    ) -> List[BatchResult]:
        results: List[BatchResult] = []
        for request in requests:
            try:
                results.append(self.predict(request, timeout))
            except ApiError as exc:
                results.append(exc)
        return results

    def personalize(self, request: PersonalizeRequest) -> str:
        return self.backend.personalize(request)

    def stats(self) -> Dict[str, object]:
        return self.backend.stats()

    def engine(self, model_id: str):
        return self.backend.engine(model_id)

    def model_ids(self) -> List[str]:
        return self.backend.model_ids()

    def health(self) -> Dict[str, object]:
        report = self.backend.health()
        report["capacity_gate"] = {
            "limit": self.limit,
            "exhausted": self.exhausted,
        }
        return report

    def drain(self) -> None:
        self.backend.drain()

    def close(self) -> None:
        self.backend.close()
