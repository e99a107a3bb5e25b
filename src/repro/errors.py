"""The serving error taxonomy: stable codes shared by every front door.

Every serving layer — shards, scheduler, registry, cluster frontend,
gateway — signals failure in this one vocabulary, and only by raising (or
failing a future with) one of its errors; an admission refusal is an
``UNAVAILABLE`` error like any other, never a response-shaped value.  It is
a small, gRPC-style set of :class:`ApiError` subclasses with stable
machine-readable codes, an HTTP projection, and a JSON wire face.

Compatibility is built into the class hierarchy rather than bolted on: each
subclass *also* derives from the builtin exception the pre-gateway code
raised (``InvalidArgumentError`` is a ``ValueError``, ``NotFoundError`` a
``KeyError``, ``UnavailableError`` a ``RuntimeError``, ``DeadlineExceededError``
a ``TimeoutError``), so callers written against the old signalling — including
the existing test suites — keep working while new callers switch on
``exc.code``.

The module sits at the package root (not under :mod:`repro.gateway`) on
purpose: :mod:`repro.serve` and :mod:`repro.cluster` raise these errors and
must be importable before the gateway package exists in ``sys.modules``.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

__all__ = [
    "ApiError",
    "InvalidArgumentError",
    "NotFoundError",
    "ResourceExhaustedError",
    "UnavailableError",
    "DeadlineExceededError",
    "InternalError",
    "ERROR_CODES",
    "error_from_exception",
    "error_from_dict",
]


class ApiError(Exception):
    """Base of the serving taxonomy: a stable code plus a human message.

    Attributes
    ----------
    code:
        Machine-readable, wire-stable identifier (``INVALID_ARGUMENT``,
        ``NOT_FOUND``, ``RESOURCE_EXHAUSTED``, ``UNAVAILABLE``,
        ``DEADLINE_EXCEEDED``, ``INTERNAL``).
    http_status:
        The HTTP projection of the code (what the HTTP transport answers).
    retryable:
        Whether a retry middleware may transparently re-attempt the call.
    details:
        Optional JSON-compatible context (tenant, model id, retry-after...).
    """

    code = "INTERNAL"
    http_status = 500
    retryable = False

    def __init__(self, message: str = "", *, details: Optional[Dict] = None) -> None:
        super().__init__(message)
        self.message = message
        self.details = dict(details) if details else {}

    def __str__(self) -> str:  # KeyError would repr() the message otherwise
        return self.message

    def to_dict(self) -> Dict:
        """The wire face carried inside :class:`repro.gateway.ApiResponse`."""
        payload: Dict = {"code": self.code, "message": self.message}
        if self.details:
            payload["details"] = self.details
        return payload


class InvalidArgumentError(ApiError, ValueError):
    """The request is malformed (bad payload, duplicate request id...)."""

    code = "INVALID_ARGUMENT"
    http_status = 400


class NotFoundError(ApiError, KeyError):
    """The addressed entity (model id, route) does not exist."""

    code = "NOT_FOUND"
    http_status = 404


class ResourceExhaustedError(ApiError):
    """A per-tenant rate limit or quota is spent; back off before retrying."""

    code = "RESOURCE_EXHAUSTED"
    http_status = 429


class UnavailableError(ApiError, RuntimeError):
    """The backend cannot take the call right now (overload, dead shard).

    Transient by definition — the one code the retry middleware re-attempts.
    """

    code = "UNAVAILABLE"
    http_status = 503
    retryable = True


class DeadlineExceededError(ApiError, TimeoutError):
    """The caller's deadline elapsed before the backend answered."""

    code = "DEADLINE_EXCEEDED"
    http_status = 504


class InternalError(ApiError):
    """An unclassified backend failure (the catch-all, never retried)."""

    code = "INTERNAL"
    http_status = 500


#: code -> canonical exception class (the wire decode table).
ERROR_CODES: Dict[str, Type[ApiError]] = {
    cls.code: cls
    for cls in (
        InvalidArgumentError,
        NotFoundError,
        ResourceExhaustedError,
        UnavailableError,
        DeadlineExceededError,
        InternalError,
    )
}


def error_from_dict(payload: Dict) -> ApiError:
    """Rebuild the canonical :class:`ApiError` subclass from its wire dict.

    Unknown codes decode as :class:`InternalError` with the original code
    preserved in ``details`` — a newer server must not crash an older client.
    """
    code = payload.get("code", "INTERNAL")
    details = payload.get("details") or {}
    cls = ERROR_CODES.get(code)
    if cls is None:
        details = dict(details, original_code=code)
        cls = InternalError
    return cls(payload.get("message", ""), details=details or None)


def error_from_exception(exc: BaseException) -> ApiError:
    """Map any exception onto the taxonomy (the compatibility shim).

    Native :class:`ApiError` instances pass through untouched; legacy builtin
    exceptions from pre-gateway code paths map by type: ``KeyError`` →
    ``NOT_FOUND``, ``ValueError``/``TypeError`` → ``INVALID_ARGUMENT``,
    timeouts → ``DEADLINE_EXCEEDED``, ``RuntimeError`` → ``UNAVAILABLE``,
    anything else → ``INTERNAL``.
    """
    if isinstance(exc, ApiError):
        return exc
    # concurrent.futures.TimeoutError is a distinct class before Python 3.11.
    from concurrent.futures import TimeoutError as FutureTimeoutError

    message = str(exc) or type(exc).__name__
    details = {"exception": type(exc).__name__}
    if isinstance(exc, KeyError):
        # KeyError.__str__ reprs its argument; unwrap the raw message.
        message = str(exc.args[0]) if exc.args else message
        return NotFoundError(message, details=details)
    if isinstance(exc, (ValueError, TypeError)):
        return InvalidArgumentError(message, details=details)
    if isinstance(exc, (TimeoutError, FutureTimeoutError)):
        return DeadlineExceededError(message or "deadline exceeded", details=details)
    if isinstance(exc, RuntimeError):
        return UnavailableError(message, details=details)
    return InternalError(message, details=details)
