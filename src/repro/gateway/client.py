"""GatewayClient: the typed sync facade over any gateway transport.

The client turns the wire envelopes back into the :mod:`repro.serve.types`
dataclasses callers already know: ``predict`` returns a
:class:`~repro.serve.types.PredictResponse` or raises the taxonomy error the
gateway answered with; ``predict_batch`` returns the mixed per-item list
(responses and :class:`~repro.errors.ApiError` instances) so partial
results survive.  ``predict(model_id, batch, request_id=...)`` builds the
:class:`~repro.serve.types.PredictRequest` a service's own ``predict``
takes; ``submit(request)`` is that call as an already-resolved future, the
one surface a :class:`~repro.loadgen.LoadDriver` drives.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import ApiError, error_from_dict
from ..serve.api import resolved
from ..serve.types import PersonalizeRequest, PredictRequest, PredictResponse
from .. import trace as _trace
from ..trace import Trace
from .transport import Transport
from .wire import ApiRequest, ApiResponse

__all__ = ["GatewayClient"]


class GatewayClient:
    """Synchronous Serving API v2 client over one :class:`Transport`.

    ``tenant`` identifies this client to per-tenant middleware (rate limits,
    quotas); ``deadline_ms`` set here is the default time budget stamped on
    every call (per-call arguments override it).
    """

    def __init__(
        self,
        transport: Transport,
        tenant: str = "default",
        deadline_ms: Optional[float] = None,
    ) -> None:
        self.transport = transport
        self.tenant = tenant
        self.deadline_ms = deadline_ms

    # -- wire face ---------------------------------------------------------------
    def call(
        self,
        method: str,
        payload: Optional[Dict] = None,
        request_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        trace: bool = False,
    ) -> ApiResponse:
        """Send one raw API call; returns the response envelope (no raise)."""
        request = ApiRequest(
            method=method,
            payload=payload or {},
            request_id=request_id,
            tenant=self.tenant,
            deadline_ms=self.deadline_ms if deadline_ms is None else deadline_ms,
            trace=bool(trace),
        )
        return self.transport.send(request)

    # -- typed facade ------------------------------------------------------------
    def personalize(
        self,
        request: Union[PersonalizeRequest, Dict],
        deadline_ms: Optional[float] = None,
    ) -> str:
        """Personalize one tenant through the gateway; returns the model id."""
        payload = request.to_dict() if isinstance(request, PersonalizeRequest) else request
        response = self.call(
            "personalize", payload, deadline_ms=deadline_ms
        ).raise_for_error()
        return response.payload["model_id"]

    def predict(
        self,
        model_id: str,
        batch: np.ndarray,
        request_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
    ) -> PredictResponse:
        """Answer one request, or raise the taxonomy error the gateway hit."""
        request = PredictRequest(model_id, batch, request_id)
        response = self.call(
            "predict", request.to_dict(), request_id=request.request_id,
            deadline_ms=deadline_ms, trace=_trace.enabled(),
        ).raise_for_error()
        result = PredictResponse.from_dict(response.payload["response"])
        if response.trace:
            # Rebuild the server-side spans client-side: hop durations are
            # portable across the wire even though clock origins are not.
            result.trace = Trace.from_wire(response.trace)
        return result

    def submit(self, request: PredictRequest) -> Future:
        """:meth:`predict` of ``request`` as a future resolved before return."""
        return resolved(lambda: self.predict(
            request.model_id, request.inputs, request_id=request.request_id))

    def predict_batch(
        self,
        requests: Sequence[Union[PredictRequest, Dict]],
        deadline_ms: Optional[float] = None,
    ) -> List[Union[PredictResponse, ApiError]]:
        """Answer a mixed-tenant batch; per-item errors ride in the list.

        Unlike :meth:`predict` this never raises for per-item failures — a
        partial-results envelope decodes into exactly the items the backend
        produced, errors in place.  Envelope-level failures with no results
        at all (e.g. the whole batch was rate-limited) do raise.
        """
        payload = {
            "requests": [
                r.to_dict() if isinstance(r, PredictRequest) else r for r in requests
            ]
        }
        response = self.call(
            "predict_batch", payload, deadline_ms=deadline_ms, trace=_trace.enabled()
        )
        if response.payload is None:
            response.raise_for_error()
        items = response.payload["results"]
        # A batch envelope carries one shared span list (the items were
        # traced into one collector server-side); every decoded response
        # gets the same rebuilt trace.
        shared = Trace.from_wire(response.trace) if response.trace else None
        decoded: List[Union[PredictResponse, ApiError]] = []
        for item in items:
            if "response" in item:
                decoded.append(PredictResponse.from_dict(item["response"]))
                if shared is not None:
                    decoded[-1].trace = shared
            else:
                decoded.append(error_from_dict(item["error"]))
        return decoded

    def stats(self, deadline_ms: Optional[float] = None) -> Dict[str, object]:
        """The deployment's unified stats block, gateway metrics included."""
        response = self.call("stats", deadline_ms=deadline_ms).raise_for_error()
        return response.payload["stats"]

    def health(self, deadline_ms: Optional[float] = None) -> Dict[str, object]:
        response = self.call("health", deadline_ms=deadline_ms).raise_for_error()
        return response.payload

    def drain(self, deadline_ms: Optional[float] = None) -> None:
        self.call("drain", deadline_ms=deadline_ms).raise_for_error()

    def close(self) -> None:
        self.transport.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
