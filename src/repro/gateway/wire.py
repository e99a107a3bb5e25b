"""Serving API v2 wire messages: versioned envelopes around serve payloads.

Every gateway hop — in-process loopback or HTTP socket — exchanges exactly
two shapes:

* :class:`ApiRequest` — ``(version, method, payload, ...)``: which API v2
  method to invoke and its JSON-compatible payload (the existing
  :mod:`repro.serve.types` dicts ride inside unchanged; their arrays are the
  packed ``{"dtype", "shape", "b64"}`` objects of :func:`repro.records.pack`,
  and a nested list in their place still decodes).
* :class:`ApiResponse` — ``(version, ok, payload, error, ...)``: the answer,
  carrying either a result payload, a structured
  :class:`~repro.errors.ApiError` wire dict, or *both* (an error plus the
  partial results a batch managed to produce before failing).

Both round-trip byte-stably through ``to_json`` / ``from_json`` (keys are
sorted, separators fixed), which is what lets CI diff recorded request
streams and lets the loopback and HTTP transports be bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import ApiError, InvalidArgumentError, error_from_dict
from ..records import canonical_json as dumps  #: the one encoder for every envelope
from ..serve.api import API_VERSION

__all__ = ["API_VERSION", "METHODS", "ApiRequest", "ApiResponse", "dumps"]

#: Every routable API v2 method.
METHODS = ("personalize", "predict", "predict_batch", "stats", "health", "drain")


@dataclass
class ApiRequest:
    """One versioned call into the gateway.

    ``tenant`` identifies the caller for per-tenant middleware (rate limits,
    quotas); ``deadline_ms`` is the caller's *remaining* time budget, which
    deadline middleware enforces and decrements before handing downstream.
    """

    method: str
    payload: Dict = field(default_factory=dict)
    request_id: Optional[str] = None
    tenant: str = "default"
    deadline_ms: Optional[float] = None
    version: str = API_VERSION
    #: Ask the gateway to trace this request's hops.  ``False`` keeps the
    #: envelope bytes exactly what pre-trace clients produced (the key is
    #: omitted from ``to_dict`` entirely), so recorded streams stay stable.
    trace: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.payload, dict):
            raise InvalidArgumentError(
                f"payload must be a dict, got {type(self.payload).__name__}"
            )
        if self.deadline_ms is not None:
            self.deadline_ms = float(self.deadline_ms)
            if self.deadline_ms < 0:
                raise InvalidArgumentError(
                    f"deadline_ms must be >= 0, got {self.deadline_ms}"
                )

    def to_dict(self) -> Dict:
        data = {
            "version": self.version,
            "method": self.method,
            "payload": self.payload,
            "request_id": self.request_id,
            "tenant": self.tenant,
            "deadline_ms": self.deadline_ms,
        }
        if self.trace:
            data["trace"] = True
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ApiRequest":
        if not isinstance(data, dict):
            raise InvalidArgumentError(
                f"request envelope must be a JSON object, got {type(data).__name__}"
            )
        if "method" not in data:
            raise InvalidArgumentError("request envelope is missing 'method'")
        return cls(
            method=data["method"],
            payload=data.get("payload") or {},
            request_id=data.get("request_id"),
            tenant=data.get("tenant", "default"),
            deadline_ms=data.get("deadline_ms"),
            version=data.get("version", API_VERSION),
            trace=bool(data.get("trace", False)),
        )

    def to_json(self) -> str:
        return dumps(self.to_dict())

    @classmethod
    def from_json(cls, data: str) -> "ApiRequest":
        try:
            decoded = json.loads(data)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"request is not valid JSON: {exc}") from None
        return cls.from_dict(decoded)


@dataclass
class ApiResponse:
    """The answer to one :class:`ApiRequest`.

    Exactly one of three shapes:

    * success — ``ok=True``, ``payload`` set, ``error`` ``None``;
    * failure — ``ok=False``, ``error`` set (an ``ApiError.to_dict()``);
    * partial — ``ok=False``, ``error`` set *and* ``payload`` carrying the
      results completed before the failure (batch routes).
    """

    ok: bool
    payload: Optional[Dict] = None
    error: Optional[Dict] = None
    request_id: Optional[str] = None
    version: str = API_VERSION
    #: Span list (``[[hop, seconds], ...]``) for traced requests; ``None``
    #: (and absent from the wire dict) otherwise, keeping untraced envelope
    #: bytes identical to pre-trace gateways.
    trace: Optional[list] = None

    @classmethod
    def success(cls, request: ApiRequest, payload: Dict) -> "ApiResponse":
        return cls(ok=True, payload=payload, request_id=request.request_id)

    @classmethod
    def failure(
        cls,
        request: Optional[ApiRequest],
        error: ApiError,
        partial: Optional[Dict] = None,
    ) -> "ApiResponse":
        return cls(
            ok=False,
            payload=partial,
            error=error.to_dict(),
            request_id=request.request_id if request is not None else None,
        )

    @property
    def http_status(self) -> int:
        """The HTTP projection of the outcome (200, or the error code's)."""
        if self.ok or self.error is None:
            return 200
        return self.to_error().http_status

    def to_error(self) -> ApiError:
        """Rebuild the typed :class:`ApiError` this envelope carries.

        Raises ``ValueError`` on a success envelope — asking a success for
        its error is a caller bug, not a wire condition.
        """
        if self.error is None:
            raise ValueError("response carries no error")
        return error_from_dict(self.error)

    def raise_for_error(self) -> "ApiResponse":
        """Raise the carried :class:`ApiError` on failure; return self on ok."""
        if not self.ok:
            raise self.to_error()
        return self

    def to_dict(self) -> Dict:
        data = {
            "version": self.version,
            "ok": self.ok,
            "payload": self.payload,
            "error": self.error,
            "request_id": self.request_id,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ApiResponse":
        if not isinstance(data, dict) or "ok" not in data:
            raise InvalidArgumentError("response envelope must be an object with 'ok'")
        return cls(
            ok=bool(data["ok"]),
            payload=data.get("payload"),
            error=data.get("error"),
            request_id=data.get("request_id"),
            version=data.get("version", API_VERSION),
            trace=data.get("trace"),
        )

    def to_json(self) -> str:
        return dumps(self.to_dict())

    @classmethod
    def from_json(cls, data: str) -> "ApiResponse":
        try:
            decoded = json.loads(data)
        except json.JSONDecodeError as exc:
            raise InvalidArgumentError(f"response is not valid JSON: {exc}") from None
        return cls.from_dict(decoded)
