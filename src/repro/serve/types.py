"""Typed request/response messages of the serving API.

These dataclasses are the wire format of :mod:`repro.serve`: everything a
caller exchanges with the :class:`~repro.serve.service.PersonalizationService`
is one of these, and every one of them round-trips through plain
JSON-compatible dicts (``to_dict`` / ``from_dict``) and JSON strings
(``to_json`` / ``from_json``) so request streams can be recorded, replayed
and shipped across process boundaries.  Arrays (``inputs``, ``logits``,
``classes``) are emitted in the packed form of :func:`repro.records.pack` —
``{"dtype": "<f8", "shape": [...], "b64": ...}``, bit-exact — and never as
nested lists; ``from_dict`` reads either, so streams recorded before the
packed form and hand-written bodies still decode.

* :class:`EngineSpec` — how to materialize an inference
  :class:`~repro.backend.engine.Engine` for a stored model (backend, weight
  format, hybrid-sparsity parameters).
* :class:`PersonalizeRequest` — "build me a pruned model for this user
  profile": the input of the personalization path.
* :class:`PredictRequest` / :class:`PredictResponse` — one inference call
  against a registered model id, and its answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..backend.base import weight_formats
from ..records import pack, unpack

__all__ = [
    "EngineSpec",
    "PersonalizeRequest",
    "PredictRequest",
    "PredictResponse",
]


class _JsonMessage:
    """Shared JSON round-trip plumbing for the serve dataclasses."""

    def to_dict(self) -> Dict:  # pragma: no cover - overridden
        raise NotImplementedError

    @classmethod
    def from_dict(cls, payload: Dict):  # pragma: no cover - overridden
        raise NotImplementedError

    def to_json(self) -> str:
        """Serialize to a JSON string (arrays in their packed form)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, payload: str):
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(payload))


@dataclass(frozen=True)
class EngineSpec(_JsonMessage):
    """Everything needed to build an :class:`~repro.backend.engine.Engine`.

    A spec is stored next to each registered model so any process holding the
    registry can materialize an identical engine: the compute backend, the
    compressed weight format and the hybrid-sparsity parameters the weights
    were pruned with.
    """

    backend: str = "fast"
    weight_format: str = "crisp"
    n: int = 2
    m: int = 4
    block_size: int = 16

    def __post_init__(self) -> None:
        if self.weight_format not in weight_formats():
            raise ValueError(
                f"Unknown weight_format {self.weight_format!r}; available: {weight_formats()}"
            )
        if not 0 < self.n <= self.m:
            raise ValueError(f"Invalid N:M ratio {self.n}:{self.m}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")

    def to_dict(self) -> Dict:
        return {
            "backend": self.backend,
            "weight_format": self.weight_format,
            "n": self.n,
            "m": self.m,
            "block_size": self.block_size,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "EngineSpec":
        return cls(
            backend=payload.get("backend", "fast"),
            weight_format=payload.get("weight_format", "crisp"),
            n=int(payload.get("n", 2)),
            m=int(payload.get("m", 4)),
            block_size=int(payload.get("block_size", 16)),
        )


@dataclass
class PersonalizeRequest(_JsonMessage):
    """Ask the service to build a pruned model for one user.

    Either ``preferred_classes`` (an explicit class subset) or
    ``num_classes`` (sample a profile of that size) must be given.  The
    hybrid-sparsity parameters of ``engine`` double as the CRISP pruning
    configuration, so the stored weights always satisfy the format they will
    be served in; like ``iterations`` and ``finetune_epochs``, ``engine``
    left as ``None`` falls back to the service's configured default.
    """

    user_id: int
    preferred_classes: Optional[List[int]] = None
    num_classes: Optional[int] = None
    target_sparsity: float = 0.8
    iterations: Optional[int] = None
    finetune_epochs: Optional[int] = None
    seed: int = 0
    engine: Optional[EngineSpec] = None

    def __post_init__(self) -> None:
        if self.preferred_classes is None and self.num_classes is None:
            raise ValueError("PersonalizeRequest needs preferred_classes or num_classes")
        if self.preferred_classes is not None:
            self.preferred_classes = [int(c) for c in self.preferred_classes]
            if not self.preferred_classes:
                raise ValueError("preferred_classes must be non-empty")
        if not 0.0 <= self.target_sparsity < 1.0:
            raise ValueError(f"target_sparsity must be in [0, 1), got {self.target_sparsity}")

    def to_dict(self) -> Dict:
        return {
            "user_id": self.user_id,
            "preferred_classes": self.preferred_classes,
            "num_classes": self.num_classes,
            "target_sparsity": self.target_sparsity,
            "iterations": self.iterations,
            "finetune_epochs": self.finetune_epochs,
            "seed": self.seed,
            "engine": None if self.engine is None else self.engine.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PersonalizeRequest":
        engine = payload.get("engine")
        return cls(
            user_id=int(payload["user_id"]),
            preferred_classes=payload.get("preferred_classes"),
            num_classes=payload.get("num_classes"),
            target_sparsity=float(payload.get("target_sparsity", 0.8)),
            iterations=payload.get("iterations"),
            finetune_epochs=payload.get("finetune_epochs"),
            seed=int(payload.get("seed", 0)),
            engine=None if engine is None else EngineSpec.from_dict(engine),
        )


@dataclass
class PredictRequest(_JsonMessage):
    """One inference call: a batch of inputs addressed to a model id.

    ``request_id`` is assigned by the scheduler on submission when not
    provided, so replayed request streams keep their original ids.
    """

    model_id: str
    inputs: np.ndarray
    request_id: Optional[str] = None

    #: In-flight trace context (:class:`repro.trace.Trace`) or ``None``.
    #: Deliberately a plain class attribute — not a dataclass field — so it
    #: stays outside ``to_dict``/equality and the wire format is unchanged.
    trace = None

    def __post_init__(self) -> None:
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        if self.inputs.ndim == 3:  # single image -> batch of one
            self.inputs = self.inputs[None]
        if self.inputs.ndim != 4:
            raise ValueError(
                f"inputs must be (N, C, H, W) images, got shape {self.inputs.shape}"
            )

    @property
    def batch_size(self) -> int:
        return int(self.inputs.shape[0])

    def to_dict(self) -> Dict:
        return {
            "model_id": self.model_id,
            "inputs": pack(self.inputs, "<f8"),
            "request_id": self.request_id,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PredictRequest":
        return cls(
            model_id=payload["model_id"],
            inputs=unpack(payload["inputs"], "<f8"),
            request_id=payload.get("request_id"),
        )


@dataclass
class PredictResponse(_JsonMessage):
    """The answer to one :class:`PredictRequest`.

    ``batched_with`` records how many requests shared the fused dispatch that
    produced this response — the observable effect of micro-batching.
    ``status`` is the HTTP-style outcome code (always 200 here; the cluster
    frontend answers over-admission with a 503-status rejection sharing the
    same ``request_id``/``model_id``/``status`` surface).
    """

    request_id: str
    model_id: str
    logits: np.ndarray
    classes: np.ndarray
    batched_with: int = 1
    status: int = 200

    #: Completed trace context for traced requests (see
    #: :attr:`PredictRequest.trace`); outside the wire dict by design.
    trace = None

    def __post_init__(self) -> None:
        self.logits = np.asarray(self.logits, dtype=np.float64)
        self.classes = np.asarray(self.classes, dtype=np.int64)

    @property
    def ok(self) -> bool:
        return self.status < 400

    def to_dict(self) -> Dict:
        return {
            "request_id": self.request_id,
            "model_id": self.model_id,
            "logits": pack(self.logits, "<f8"),
            "classes": pack(self.classes, "<i8"),
            "batched_with": self.batched_with,
            "status": self.status,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "PredictResponse":
        return cls(
            request_id=payload["request_id"],
            model_id=payload["model_id"],
            logits=unpack(payload["logits"], "<f8"),
            classes=unpack(payload["classes"], "<i8"),
            batched_with=int(payload.get("batched_with", 1)),
            status=int(payload.get("status", 200)),
        )
