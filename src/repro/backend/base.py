"""The compute-backend interface and registry.

A :class:`Backend` is what differs between two ways of running the same
model: the convolution path (``im2col`` and the conv / depthwise-conv
kernels, which may reuse workspace at inference) and a ``kernels`` table
mapping a weight format's ``name`` to the function that multiplies it.
Linear, pooling and batch-norm have one implementation
(:mod:`repro.nn.functional`) and are not part of the interface.  Two
implementations ship with the repo:

* ``reference`` — the original kernels, kept bit-exact so they can serve as
  the correctness oracle for everything else;
* ``fast`` — vectorized sparse kernels plus an im2col workspace cache for
  inference (see :mod:`repro.backend.fast`).

Backends are registered by name; the *active* backend is a process-global
selection (defaulting to ``reference``) that the layer classes and the
sparse-op dispatchers consult on every call.  Use :func:`set_backend` to
switch globally or :func:`use_backend` for a scoped override.
"""

from __future__ import annotations

import contextlib
from abc import ABC, abstractmethod
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Type, Union

import numpy as np

from ..sparsity.formats import FORMATS

__all__ = [
    "Backend",
    "weight_formats",
    "register_backend",
    "available_backends",
    "get_backend",
    "active_backend",
    "set_backend",
    "use_backend",
    "resolve_backend",
    "DEFAULT_BACKEND",
]

#: Name of the backend used when nothing has been selected.
DEFAULT_BACKEND = "reference"


class Backend(ABC):
    """Abstract compute backend: the conv path plus a table of sparse kernels.

    The conv methods mirror the cache-returning signatures of
    :mod:`repro.nn.functional` so layers can swap backends without changing
    their own forward/backward plumbing.  Every entry of ``kernels``
    computes ``weight.T @ activations`` from a compressed weight, exactly
    like the reference kernels in :mod:`repro.sparsity.sparse_ops`.
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
        training: bool = True,
    ) -> np.ndarray:
        """Unfold ``(N, C, H, W)`` into receptive-field columns.

        ``training=False`` allows the backend to return a reused workspace
        buffer (only safe when no backward pass will consume the columns
        after a subsequent forward call).
        """

    # -- conv kernels ---------------------------------------------------------
    @abstractmethod
    def conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int = 1,
        padding: int = 0,
    ) -> Tuple[np.ndarray, dict]:
        ...

    @abstractmethod
    def conv2d_backward(
        self, grad_out: np.ndarray, weight: np.ndarray, cache: dict
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        ...

    @abstractmethod
    def depthwise_conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int = 1,
        padding: int = 0,
    ) -> Tuple[np.ndarray, dict]:
        ...

    @abstractmethod
    def depthwise_conv2d_backward(
        self, grad_out: np.ndarray, weight: np.ndarray, cache: dict
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        ...

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
    def clear_workspace(self) -> None:
        """Drop any cached workspace buffers (no-op for stateless backends)."""

    def workspace_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the workspace cache (zeros when stateless)."""
        return {"hits": 0, "misses": 0, "buffers": 0}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} name={self.name!r}>"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_BACKEND_CLASSES: Dict[str, Type[Backend]] = {}
_BACKEND_INSTANCES: Dict[str, Backend] = {}
_ACTIVE: Optional[Backend] = None


def register_backend(cls: Type[Backend]) -> Type[Backend]:
    """Class decorator: register a :class:`Backend` subclass under ``cls.name``."""
    name = getattr(cls, "name", None)
    if not name or name == "abstract":
        raise ValueError(f"Backend class {cls.__name__} must define a unique 'name'")
    _BACKEND_CLASSES[name] = cls
    _BACKEND_INSTANCES.pop(name, None)
    return cls


def available_backends() -> List[str]:
    """Names accepted by :func:`get_backend` / :func:`set_backend`."""
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


def resolve_backend(backend: Union[str, Backend, None]) -> Backend:
    """Normalise a backend argument: name, instance or ``None`` (= active)."""
    if backend is None:
        return active_backend()
    if isinstance(backend, Backend):
        return backend
    return get_backend(backend)


def weight_formats(backend: Union[str, Backend, None] = DEFAULT_BACKEND) -> Tuple[str, ...]:
    """Names an engine on ``backend`` can serve: the :data:`FORMATS` it has a kernel for.

    Read from both tables on every call.  The default is the oracle backend,
    whose table every other backend extends.
    """
    kernels = resolve_backend(backend).kernels
    return tuple(name for name in FORMATS if name in kernels)


def active_backend() -> Backend:
    """The process-global backend every kernel call routes through."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = get_backend(DEFAULT_BACKEND)
    return _ACTIVE


def set_backend(backend: Union[str, Backend]) -> Backend:
    """Select the active backend (by name or instance) and return it."""
    global _ACTIVE
    _ACTIVE = resolve_backend(backend)
    return _ACTIVE


@contextlib.contextmanager
def use_backend(backend: Union[str, Backend]) -> Iterator[Backend]:
    """Context manager: temporarily switch the active backend."""
    global _ACTIVE
    previous = active_backend()
    _ACTIVE = resolve_backend(backend)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
