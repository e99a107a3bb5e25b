"""One BLAS thread in every process.

:func:`apply` runs once from ``repro/__init__.py``, before any subpackage is
imported, so every process that imports ``repro`` — the caller's, a threaded
shard's host, crispbench's set-up — computes every GEMM on one thread before
its first matmul.  A forked shard child inherits the count (it is library
state in copied memory); a ``spawn`` / ``forkserver`` child re-imports
``repro`` and sets it again.

Why one count everywhere, and why one: OpenBLAS partitions a GEMM by thread
count, so two processes running one tenant at different counts disagree in the
last bit — the single / threaded / process parity of
``tests/test_procworker.py`` breaks.  And on a host where shard children share
cores, every child's idle pool threads ``sched_yield``-spin: on a 2-core host
crispbench's ``batch-proc`` hot shard child spent 12-13 ms CPU per envelope
with the default 2-thread pool and 7-8 ms with one.  One thread costs the
write path (``service.personalize``, the same host) 2-4 % wall.

The count overrides ``OPENBLAS_NUM_THREADS``.  On a BLAS this module does not
recognise (no ``/proc``, no OpenBLAS mapped, MKL, Accelerate) it does nothing
and :func:`state` reports ``library: None``.
"""

from __future__ import annotations

import ctypes
import os
from typing import Callable, Dict, Optional, Tuple

import numpy  # noqa: F401  (maps the BLAS NumPy links into the process)

__all__ = ["THREADS", "apply", "state"]

#: BLAS threads per process.
THREADS = 1

#: Thread-count setters, tried in order (``scipy_openblas_set_num_threads64_``
#: first); each has a ``get_`` twin.
_SETTERS = [
    f"{lib}set_num_threads{abi}" for lib in ("scipy_openblas_", "openblas_") for abi in ("64_", "")
]

#: ``(library basename, get_num_threads)`` of the BLAS :func:`apply` set.
_bound: Optional[Tuple[str, Callable[[], int]]] = None


def _library_path() -> Optional[str]:
    """The mapped file whose name contains ``openblas``, or ``None``."""
    try:
        with open("/proc/self/maps") as maps:
            paths = [line.split(maxsplit=5)[-1].strip() for line in maps]
    except OSError:
        return None
    return next((path for path in paths if "openblas" in os.path.basename(path)), None)


def apply() -> None:
    """Set the mapped OpenBLAS to :data:`THREADS` threads; a no-op otherwise."""
    global _bound
    _bound = None
    path = _library_path()
    try:
        lib = ctypes.CDLL(path) if path else None
    except OSError:
        return
    for name in _SETTERS:
        getter_name = name.replace("set_", "get_")
        if hasattr(lib, name) and hasattr(lib, getter_name):
            setter, getter = getattr(lib, name), getattr(lib, getter_name)
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            setter(THREADS)
            _bound = (os.path.basename(path), getter)
            return


def state() -> Dict[str, object]:
    """``{"library": basename or None, "threads": n or None}``, read back."""
    library, get_threads = _bound or (None, lambda: None)
    return {"library": library, "threads": get_threads()}
