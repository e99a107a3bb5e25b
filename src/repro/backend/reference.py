"""The ``reference`` backend: the repo's original kernels, unchanged.

``im2col`` is :func:`repro.nn.functional.im2col` and the kernel table is the
loop-based sparse kernels of :mod:`repro.sparsity.sparse_ops`.  This backend
is kept bit-exact with the pre-backend code so parity tests can use it as
the correctness oracle for any other backend.
"""

from __future__ import annotations

import numpy as np

from ..nn import functional as F
from ..sparsity import sparse_ops
from .base import Backend, register_backend

__all__ = ["ReferenceBackend"]


@register_backend
class ReferenceBackend(Backend):
    """Bit-exact oracle backend delegating to the original implementations."""

    name = "reference"

    # -- im2col ---------------------------------------------------------------
    def im2col(
        self,
        x: np.ndarray,
        kernel_h: int,
        kernel_w: int,
        stride: int = 1,
        padding: int = 0,
    ) -> np.ndarray:
        return F.im2col(x, kernel_h, kernel_w, stride, padding)

    # -- sparse kernels -------------------------------------------------------
    kernels = {
        "dense": sparse_ops.dense_format_matmul,
        "csr": sparse_ops.csr_matmul_reference,
        "blocked-ellpack": sparse_ops.blocked_ellpack_matmul_reference,
        "crisp": sparse_ops.crisp_matmul_reference,
    }
