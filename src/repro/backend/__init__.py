"""Pluggable compute backends for the CRISP reproduction.

* :mod:`repro.backend.base` — the :class:`Backend` interface (the conv path
  plus a format-name -> kernel table) and registry.
* :mod:`repro.backend.reference` — the original kernels (bit-exact oracle).
* :mod:`repro.backend.fast` — vectorized sparse kernels + workspace reuse.
* :mod:`repro.backend.engine` — the inference :class:`Engine`: a pruned model
  compiled for one backend and one compressed weight format.
* :mod:`repro.backend.plan` — what an engine compiles to: a flat op list with
  batch-norm folded into the encoded weights.

Select a backend globally with :func:`set_backend` (the experiments CLI
exposes this as ``--backend {reference,fast}``) or locally with
:func:`use_backend`.
"""

from .base import (
    DEFAULT_BACKEND,
    Backend,
    active_backend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    set_backend,
    use_backend,
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
    "DEFAULT_BACKEND",
    "Backend",
    "active_backend",
    "available_backends",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "set_backend",
    "use_backend",
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
