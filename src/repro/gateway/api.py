"""``ClusterBackend``: a :class:`~repro.cluster.ClusterService` under a second name.

Both services are :class:`~repro.serve.api.ServingAPI` implementations
themselves (``Gateway(cluster)``, ``LoadDriver(cluster)``).  This pass-through
remains only because the crispbench harness builds
``Gateway(ClusterBackend(cluster))`` and times the class's ``personalize`` /
``predict`` / ``predict_batch`` as its ``cluster.*`` layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..serve.api import BatchResult, ServingAPI
from ..serve.types import PersonalizeRequest, PredictRequest, PredictResponse

__all__ = ["ClusterBackend"]


class ClusterBackend(ServingAPI):
    """Every :class:`ServingAPI` method, forwarded to the wrapped cluster."""

    name = "cluster"

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    def personalize(self, request: PersonalizeRequest) -> str:
        return self.cluster.personalize(request)

    def predict(
        self, request: PredictRequest, timeout: Optional[float] = None
    ) -> PredictResponse:
        return self.cluster.predict(request, timeout)

    def predict_batch(
        self, requests: Sequence[PredictRequest], timeout: Optional[float] = None
    ) -> List[BatchResult]:
        return self.cluster.predict_batch(requests, timeout)

    def stats(self) -> Dict[str, object]:
        return self.cluster.stats()

    def engine(self, model_id: str):
        return self.cluster.engine(model_id)

    def model_ids(self) -> List[str]:
        return self.cluster.model_ids()

    def health(self) -> Dict[str, object]:
        return self.cluster.health()

    def drain(self) -> None:
        self.cluster.drain()

    def close(self) -> None:
        self.cluster.close()
