"""The Serving API v2 contract: what every deployment of a tenant model is.

:class:`ServingAPI` is ``personalize`` / ``predict`` / ``submit`` /
``predict_batch`` / ``stats`` / ``health`` / ``drain`` over :mod:`repro.serve.types` messages,
failing only through the :mod:`repro.errors` taxonomy.  The single-process
:class:`~repro.serve.PersonalizationService` and the sharded
:class:`~repro.cluster.ClusterService` implement it, so a
:class:`~repro.gateway.Gateway` or a :class:`~repro.loadgen.LoadDriver` takes
either as it is.  It sits here, below both services,
because :mod:`repro.cluster` layers on this package.
"""

from __future__ import annotations

import abc
from concurrent.futures import Future
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..errors import ApiError, error_from_exception
from .types import PersonalizeRequest, PredictRequest, PredictResponse

__all__ = ["API_VERSION", "BatchResult", "ServingAPI"]

#: The version every envelope carries and every deployment's health reports.
API_VERSION = "v2"

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


def resolved(call: Callable[[], PredictResponse]) -> Future:
    """A future already holding ``call()``'s response or the error it raised."""
    future: Future = Future()
    try:
        future.set_result(call())
    except Exception as exc:
        future.set_exception(exc)
    return future


class ServingAPI(abc.ABC):
    """Backend-agnostic Serving API v2 surface.

    Every method raises only :class:`~repro.errors.ApiError` subclasses;
    batch results carry per-item errors instead of failing wholesale where
    partial progress is meaningful.  Implementations are context managers
    (``close`` on exit).
    """

    #: Deployment name reported by :meth:`health` and the gateway route metrics.
    name = "abstract"

    @abc.abstractmethod
    def personalize(self, request: PersonalizeRequest) -> str:
        """Build + register a tenant model; returns its stable model id."""

    def predict(
        self, request: PredictRequest, timeout: Optional[float] = None
    ) -> PredictResponse:
        """Answer one request, or raise the taxonomy error it hit: a batch of
        one through :meth:`predict_batch`."""
        (result,) = self.predict_batch([request], timeout)
        if isinstance(result, ApiError):
            raise result
        return result

    def submit(self, request: PredictRequest) -> Future:
        """:meth:`predict` as a future; this default answers before returning
        (the cluster's override queues and returns at once)."""
        return resolved(lambda: self.predict(request))

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
