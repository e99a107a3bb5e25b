"""The compute-backend interface and registry.

A :class:`Backend` is what an :class:`~repro.backend.engine.Engine` is
compiled for: a name, an inference ``im2col`` for the plan's ``k x k``
convolutions (which may return the calling thread's reused workspace), a
``kernels`` table mapping a weight format's ``name`` to the function that
multiplies it, and workspace counters.  Everything a ``Module`` runs —
training and ``eval()`` forwards, convolutions included — has one
implementation (:mod:`repro.nn.functional`) and is not part of the
interface.  Two implementations ship with the repo:

* ``reference`` — the original kernels, kept bit-exact so they can serve as
  the correctness oracle for everything else;
* ``fast`` — vectorized sparse kernels plus an im2col workspace cache
  (see :mod:`repro.backend.fast`).

Backends are registered by name and chosen per engine
(``Engine(model, backend=...)``, ``EngineSpec.backend``); there is no
process-wide selection.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Tuple, Type, Union

import numpy as np

from ..sparsity.formats import FORMATS

__all__ = [
    "Backend",
    "weight_formats",
    "register_backend",
    "available_backends",
    "get_backend",
    "resolve_backend",
]


class Backend(ABC):
    """Abstract compute backend: inference ``im2col`` plus a table of sparse kernels.

    Every entry of ``kernels`` computes ``weight.T @ activations`` from a
    compressed weight, exactly like the reference kernels in
    :mod:`repro.sparsity.sparse_ops`.
    """

    #: Registry name, set on subclasses.
    name: str = "abstract"

    #: ``WeightFormat.name`` -> ``kernel(fmt, activations)``.  A format with
    #: no entry cannot be multiplied (or served) on this backend.
    kernels: Dict[str, Callable[[object, np.ndarray], np.ndarray]] = {}

    # -- im2col ---------------------------------------------------------------
    @abstractmethod
    def im2col(
        self,
        x: np.ndarray,
        kernel_h: int,
        kernel_w: int,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        """Unfold ``(N, C, H, W)`` into ``(N * oh * ow, C * kh * kw)`` columns, for inference.

        The result may be a transposed view of a workspace buffer the calling
        thread's next ``im2col`` overwrites: consume it before calling again.
        """

    # -- sparse matmul --------------------------------------------------------
    def sparse_matmul(self, fmt, activations: np.ndarray) -> np.ndarray:
        """``weight.T @ activations`` from an encoded weight, by its format's kernel."""
        kernel = self.kernels.get(getattr(fmt, "name", None))
        if kernel is None:
            raise TypeError(
                f"The {self.name!r} backend has no sparse_matmul kernel for {type(fmt)!r}"
            )
        return kernel(fmt, activations)

    # -- workspace management -------------------------------------------------
    def workspace_stats(self) -> Dict[str, int]:
        """Hit/miss counters and held bytes of the workspace cache (zeros when stateless)."""
        return {"hits": 0, "misses": 0, "buffers": 0, "bytes": 0}


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKEND_CLASSES: Dict[str, Type[Backend]] = {}
_BACKEND_INSTANCES: Dict[str, Backend] = {}


def register_backend(cls: Type[Backend]) -> Type[Backend]:
    """Class decorator: register a :class:`Backend` subclass under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"Backend class {cls.__name__} must define a unique 'name'")
    _BACKEND_CLASSES[name] = cls
    _BACKEND_INSTANCES.pop(name, None)
    return cls


def available_backends() -> List[str]:
    """Names accepted by :func:`get_backend`."""
    return sorted(_BACKEND_CLASSES)


def get_backend(name: str) -> Backend:
    """Return the singleton instance of the backend registered as ``name``."""
    if name not in _BACKEND_CLASSES:
        raise KeyError(
            f"Unknown backend {name!r}; available: {available_backends()}"
        )
    if name not in _BACKEND_INSTANCES:
        _BACKEND_INSTANCES[name] = _BACKEND_CLASSES[name]()
    return _BACKEND_INSTANCES[name]


def resolve_backend(backend: Union[str, Backend]) -> Backend:
    """Normalise a backend argument: registered name or instance."""
    if isinstance(backend, Backend):
        return backend
    return get_backend(backend)


def weight_formats(backend: Union[str, Backend] = "reference") -> Tuple[str, ...]:
    """Names an engine on ``backend`` can serve: the :data:`FORMATS` it has a kernel for.

    Read from both tables on every call.  The default is the oracle backend,
    whose table every other backend extends.
    """
    kernels = resolve_backend(backend).kernels
    return tuple(name for name in FORMATS if name in kernels)
