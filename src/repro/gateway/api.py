"""The ServingAPI protocol and its backend adapters.

:class:`ServingAPI` is the backend-agnostic contract of Serving API v2:
``personalize`` / ``predict`` / ``predict_batch`` / ``stats`` / ``health`` /
``drain``, speaking :mod:`repro.serve.types` messages and signalling failure
exclusively through the :mod:`repro.errors` taxonomy.  Two adapters implement
it:

* :class:`LocalBackend` — wraps the single-process
  :class:`~repro.serve.PersonalizationService`;
* :class:`ClusterBackend` — wraps the sharded
  :class:`~repro.cluster.ClusterService`, which already speaks these outcomes
  (a refusal is a ``ShardOverloadError``, ``UNAVAILABLE``; a wait that times
  out is ``DEADLINE_EXCEEDED``); the adapter re-exports the async ``submit``
  surface and shard topology the load driver exploits.

Whoever holds a raw service builds its adapter (``Gateway(ClusterBackend(
cluster))``); nothing downstream adapts a facade on the caller's behalf.
"""

from __future__ import annotations

import abc
import threading
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Union

from ..errors import ApiError, error_from_exception
from ..serve.service import PersonalizationService
from ..serve.types import PersonalizeRequest, PredictRequest, PredictResponse
from .wire import API_VERSION

__all__ = ["ServingAPI", "LocalBackend", "ClusterBackend"]

#: One batch item outcome: the response, or the typed error that request hit.
BatchResult = Union[PredictResponse, ApiError]


@contextmanager
def _translated():
    """Re-raise any non-taxonomy exception as its mapped :class:`ApiError`."""
    try:
        yield
    except ApiError:
        raise
    except Exception as exc:
        raise error_from_exception(exc) from exc


class ServingAPI(abc.ABC):
    """Backend-agnostic Serving API v2 surface.

    Every method raises only :class:`~repro.errors.ApiError` subclasses;
    batch results carry per-item errors instead of failing wholesale where
    partial progress is meaningful.  Implementations are context managers
    (``close`` on exit).
    """

    #: Adapter name reported by :meth:`health` and the gateway route metrics.
    name = "abstract"

    @abc.abstractmethod
    def personalize(self, request: PersonalizeRequest) -> str:
        """Build + register a tenant model; returns its stable model id."""

    @abc.abstractmethod
    def predict(
        self, request: PredictRequest, timeout: Optional[float] = None
    ) -> PredictResponse:
        """Answer one request, or raise the taxonomy error it hit."""

    @abc.abstractmethod
    def predict_batch(
        self, requests: Sequence[PredictRequest], timeout: Optional[float] = None
    ) -> List[BatchResult]:
        """Answer a mixed-tenant batch; per-item errors ride in the list."""

    @abc.abstractmethod
    def stats(self) -> Dict[str, object]:
        """Deployment stats in the unified latency/cache/queue/errors schema."""

    @abc.abstractmethod
    def engine(self, model_id: str):
        """The live engine serving ``model_id`` (hardware-model extraction)."""

    @abc.abstractmethod
    def model_ids(self) -> List[str]:
        """Every registered tenant id."""

    def health(self) -> Dict[str, object]:
        """Cheap liveness + identity probe (never raises on a live backend)."""
        return {
            "status": "ok",
            "backend": self.name,
            "api_version": API_VERSION,
            "models": len(self.model_ids()),
        }

    def drain(self) -> None:
        """Block until all admitted work is answered (no-op when synchronous)."""

    def close(self) -> None:
        """Release the backend (stop workers, refuse further traffic)."""

    def __enter__(self) -> "ServingAPI":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class LocalBackend(ServingAPI):
    """Serving API v2 over the single-process :class:`PersonalizationService`.

    The wrapped service (scheduler, cache, counters) is not thread-safe, and
    the HTTP transport runs gateway handlers on one thread per connection —
    so the adapter serializes every service call behind one lock.  That
    costs nothing the facade wasn't already paying (a single process serves
    one dispatch at a time by construction); concurrency belongs to
    :class:`ClusterBackend`.
    """

    name = "local"

    def __init__(self, service: PersonalizationService) -> None:
        self.service = service
        self._lock = threading.Lock()

    def personalize(self, request: PersonalizeRequest) -> str:
        with _translated(), self._lock:
            return self.service.personalize(request)

    def predict(
        self, request: PredictRequest, timeout: Optional[float] = None
    ) -> PredictResponse:
        # The synchronous facade answers inline; `timeout` has nothing to
        # bound (deadline middleware enforces budgets above this layer).
        with _translated(), self._lock:
            return self.service.predict_batch([request])[0]

    def predict_batch(
        self, requests: Sequence[PredictRequest], timeout: Optional[float] = None
    ) -> List[BatchResult]:
        # The scheduler's dispatch is all-or-nothing (rollback on rejection),
        # so there are no partial results to report on this backend.
        with _translated(), self._lock:
            return list(self.service.predict_batch(requests))

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return self.service.stats()

    def engine(self, model_id: str):
        with _translated(), self._lock:
            return self.service.engine(model_id)

    def model_ids(self) -> List[str]:
        return self.service.model_ids()


class ClusterBackend(ServingAPI):
    """Serving API v2 over the sharded :class:`ClusterService`.

    The cluster's refusals, dead-shard and unknown-model errors already *are*
    taxonomy errors, and :meth:`ClusterService.predict_batch` maps what is
    left per item (a future timeout becomes ``DEADLINE_EXCEEDED``); both
    predict paths go through it, so it alone records the ``frontend`` hop.  The raw async ``submit`` surface and shard
    topology accessors are re-exported for callers that schedule their own
    waits (the load driver).
    """

    name = "cluster"

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    # -- API v2 surface --------------------------------------------------------
    def personalize(self, request: PersonalizeRequest) -> str:
        with _translated():
            return self.cluster.personalize(request)

    def predict(
        self, request: PredictRequest, timeout: Optional[float] = None
    ) -> PredictResponse:
        with _translated():
            (result,) = self.cluster.predict_batch([request], timeout)
        if isinstance(result, ApiError):
            raise result
        return result

    def predict_batch(
        self, requests: Sequence[PredictRequest], timeout: Optional[float] = None
    ) -> List[BatchResult]:
        with _translated():
            return self.cluster.predict_batch(requests, timeout)

    def stats(self) -> Dict[str, object]:
        return self.cluster.stats()

    def engine(self, model_id: str):
        with _translated():
            return self.cluster.engine(model_id)

    def model_ids(self) -> List[str]:
        return self.cluster.model_ids()

    def health(self) -> Dict[str, object]:
        report = super().health()
        report["shards"] = self.cluster.shards
        return report

    def drain(self) -> None:
        with _translated():
            self.cluster.drain()

    def close(self) -> None:
        self.cluster.shutdown()

    # -- async + topology pass-through (load-driver surface) -------------------
    def submit(self, request: PredictRequest) -> Future:
        """Raw async submission (future resolves like the cluster's own)."""
        return self.cluster.submit(request)

    def worker_for(self, model_id: str):
        return self.cluster.worker_for(model_id)

    def shard_ids(self) -> List[int]:
        return self.cluster.shard_ids()

    @property
    def shards(self) -> int:
        return self.cluster.shards
