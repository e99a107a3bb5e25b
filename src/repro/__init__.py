"""Reproduction of "CRISP: Hybrid Structured Sparsity for Class-aware Model Pruning".

Package layout
--------------
* :mod:`repro.nn` — NumPy deep-learning substrate (layers, models, training).
* :mod:`repro.data` — synthetic class-conditional datasets and loaders.
* :mod:`repro.sparsity` — N:M / block / hybrid masks, storage formats, kernels.
* :mod:`repro.backend` — pluggable compute backends and the inference engine.
* :mod:`repro.pruning` — the CRISP pruning framework and baseline pruners.
* :mod:`repro.hw` — analytical sparse-accelerator latency/energy models.
* :mod:`repro.serve` — multi-tenant serving: model registry, engine cache,
  micro-batching scheduler and the :class:`~repro.serve.PersonalizationService`.
* :mod:`repro.errors` — the serving error taxonomy (stable ``ApiError`` codes).
* :mod:`repro.records` — the record / JSON-line / log format every layer shares.
* :mod:`repro.gateway` — Serving API v2: one versioned gateway (middleware,
  typed clients, loopback/HTTP transports) over every serving backend.
* :mod:`repro.autoscale` — closed-loop autoscaling over the cluster's scaling
  seams.
* :mod:`repro.experiments` — one runner per paper figure/table.
* :mod:`repro.blas` — one BLAS thread per process, set here before anything
  else is imported.
"""

__version__ = "1.4.0"

from . import blas

blas.apply()

from . import nn
from . import data
from . import sparsity
from . import backend
from . import pruning
from . import hw
from . import errors
from . import serve
from . import gateway
from . import autoscale
from . import experiments

__all__ = [
    "blas",
    "nn",
    "data",
    "sparsity",
    "backend",
    "pruning",
    "hw",
    "errors",
    "serve",
    "gateway",
    "autoscale",
    "experiments",
    "__version__",
]
