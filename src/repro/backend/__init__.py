"""Pluggable compute backends for the CRISP reproduction.

* :mod:`repro.backend.base` — the :class:`Backend` interface (an inference
  ``im2col`` plus a format-name -> kernel table) and registry.
* :mod:`repro.backend.reference` — the original kernels (bit-exact oracle).
* :mod:`repro.backend.fast` — vectorized sparse kernels + workspace reuse.
* :mod:`repro.backend.engine` — the inference :class:`Engine`: a pruned model
  compiled for one backend and one compressed weight format.
* :mod:`repro.backend.plan` — what an engine compiles to: a flat op list with
  batch-norm folded into the encoded weights.

A backend is chosen per engine — ``Engine(model, backend="fast")``,
``EngineSpec.backend`` — never per process: what a ``Module`` runs (training
and ``eval()`` forwards) is :mod:`repro.nn.functional` whatever engines exist.
"""

from .base import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    weight_formats,
)
from .reference import ReferenceBackend
from .fast import (
    FastBackend,
    WorkspaceCache,
    blocked_ellpack_matmul_fast,
    crisp_matmul_fast,
    csr_matmul_fast,
)
from .engine import WEIGHT_FORMATS, Engine

__all__ = [
    "Backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "weight_formats",
    "ReferenceBackend",
    "FastBackend",
    "WorkspaceCache",
    "csr_matmul_fast",
    "blocked_ellpack_matmul_fast",
    "crisp_matmul_fast",
    "Engine",
    "WEIGHT_FORMATS",
]
