"""The ``fast`` backend: vectorized sparse kernels + im2col workspace reuse.

Three things distinguish this backend from ``reference``:

* the CSR / Blocked-Ellpack / CRISP matmuls are fully vectorized — a single
  gather + ``einsum``/``bincount`` pass replaces the per-row (and per-nnz)
  Python loops of :mod:`repro.sparsity.sparse_ops`;
* inference-time ``im2col`` writes into a shape-keyed workspace buffer that
  is reused across calls, so steady-state convolution stops paying a fresh
  column-matrix allocation per layer per batch;
* training-mode convolutions fall through to the reference functions, so
  training numerics stay bit-identical.

All kernels produce outputs within floating-point round-off of the reference
backend (the parity suite pins this to 1e-8); they are *not* guaranteed to
be bit-exact because vectorized reductions may re-associate sums.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..sparsity.formats import BlockedEllpackFormat, CRISPFormat, CSRFormat
from ..sparsity.sparse_ops import check_activation_rows
from .base import register_backend
from .reference import ReferenceBackend


__all__ = [
    "FastBackend",
    "WorkspaceCache",
    "csr_matmul_fast",
    "blocked_ellpack_matmul_fast",
    "crisp_matmul_fast",
]


def _pad_rows(activations: np.ndarray, block: int) -> np.ndarray:
    """Zero-pad activation rows up to a block multiple (no copy when aligned)."""
    short = (-activations.shape[0]) % block
    if short == 0:
        return activations
    return np.pad(activations, ((0, short), (0, 0)))


class WorkspaceCache:
    """Shape-keyed cache of reusable scratch buffers.

    ``get`` returns a buffer for ``key`` if one with a matching shape/dtype
    is already cached, otherwise allocates (evicting FIFO beyond
    ``max_buffers``).  Buffer contents are *not* preserved between calls —
    callers must overwrite them fully.
    """

    def __init__(self, max_buffers: int = 64) -> None:
        self.max_buffers = max_buffers
        self._buffers: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        # Callers key buffers per thread, but the table itself is shared —
        # concurrent serving shards insert/evict under one lock.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple, shape: Tuple[int, ...], dtype) -> np.ndarray:
        with self._lock:
            buf = self._buffers.get(key)
            if buf is not None and buf.shape == shape and buf.dtype == np.dtype(dtype):
                self.hits += 1
                self._buffers.move_to_end(key)
                return buf
            self.misses += 1
            while len(self._buffers) >= self.max_buffers:
                self._buffers.popitem(last=False)
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
            return buf

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "buffers": len(self._buffers)}


# ---------------------------------------------------------------------------
# Vectorized sparse kernels
# ---------------------------------------------------------------------------

def _tile_scatter_index(fmt, block: int, batch: int) -> np.ndarray:
    """Flat ``bincount`` indices scattering per-tile GEMM results by block column.

    Element ``(tile, c, b)`` of a ``(tiles, block, batch)`` contribution array
    lands at flat position ``block_cols[tile] * block * batch + c * batch + b``
    of the ``(out_block_cols * block, batch)`` output.
    """
    cache = fmt.derived
    key = ("scatter", batch)
    idx = cache.get(key)
    if idx is None:
        base = fmt.block_cols.reshape(-1) * (block * batch)
        idx = (base[:, None] + np.arange(block * batch)[None, :]).ravel()
        cache[key] = idx
    return idx


def csr_matmul_fast(fmt: CSRFormat, activations: np.ndarray) -> np.ndarray:
    """Vectorized CSR GEMM: one gather-scatter decode, then a BLAS GEMM.

    :meth:`CSRFormat.to_dense` (vectorized) scatters the stored values into a
    dense operand in a single fancy-indexing pass; the matmul itself then
    runs as one BLAS call instead of O(nnz) Python-level accumulations.  The
    decoded (transposed) operand is memoized on the format, so a served
    weight pays the decode once, not per request.
    """
    check_activation_rows(fmt, activations)
    activations = np.asarray(activations, dtype=np.float64)
    cache = fmt.derived
    dense_t = cache.get("dense_t")
    if dense_t is None:
        dense_t = np.ascontiguousarray(fmt.to_dense().T)
        cache["dense_t"] = dense_t
    return dense_t @ activations


def blocked_ellpack_matmul_fast(
    fmt: BlockedEllpackFormat, activations: np.ndarray
) -> np.ndarray:
    """Vectorized Blocked-Ellpack GEMM: block-row-batched matmul + bincount scatter.

    The retained tiles of each block-row are viewed as one
    ``(slots * B, B)`` operand (cached on the format), so the whole compute
    is a single batched matmul over block-rows; results are scattered to
    their output block columns with one ``bincount``.  Padded (unused) slots
    hold all-zero tiles, so their contributions vanish without a validity
    mask.
    """
    rows, cols = fmt.shape
    check_activation_rows(fmt, activations)
    activations = np.asarray(activations, dtype=np.float64)
    block = fmt.block_size
    batch = activations.shape[1]
    block_rows, slots = fmt.block_cols.shape
    out_block_cols = -(-cols // block)

    cache = fmt.derived
    row_tiles = cache.get("row_tiles")
    if row_tiles is None:
        # (block_rows, slots * B, B): tile c-axis first so each block-row's
        # retained tiles stack into one GEMM operand.
        row_tiles = np.ascontiguousarray(
            fmt.blocks.transpose(0, 1, 3, 2).reshape(block_rows, slots * block, block)
        )
        cache["row_tiles"] = row_tiles

    act_tiles = _pad_rows(activations, block).reshape(block_rows, block, batch)

    # contrib[r, s*B + c, b] = sum_i blocks[r, s, i, c] * act_tiles[r, i, b]
    contrib = np.matmul(row_tiles, act_tiles)

    flat_idx = _tile_scatter_index(fmt, block, batch)
    out = np.bincount(
        flat_idx, weights=contrib.ravel(), minlength=out_block_cols * block * batch
    )
    return out.reshape(out_block_cols * block, batch)[:cols]


def crisp_matmul_fast(fmt: CRISPFormat, activations: np.ndarray) -> np.ndarray:
    """Vectorized CRISP GEMM: offset gather (the N:M MUX) + einsum reduction.

    The stored intra-group offsets index directly into the activation groups
    — one fancy-indexing gather materialises the activation operand of every
    retained weight, and an einsum folds the N and group axes.  Zero-valued
    padding entries carry offset 0, so they gather a valid activation but
    contribute nothing; the block-column scatter is the same cached-index
    ``bincount`` as the Blocked-Ellpack kernel.
    """
    rows, cols = fmt.shape
    check_activation_rows(fmt, activations)
    activations = np.asarray(activations, dtype=np.float64)
    block, m = fmt.block_size, fmt.m
    batch = activations.shape[1]
    block_rows, slots = fmt.block_cols.shape
    groups = block // m
    out_block_cols = -(-cols // block)

    act_groups = _pad_rows(activations, block).reshape(block_rows, groups, m, batch)

    br = np.arange(block_rows)[:, None, None, None, None]
    g = np.arange(groups)[None, None, :, None, None]
    # gathered[r, s, g, c, k, b] = act_groups[r, g, offsets[r, s, g, c, k], b]
    gathered = act_groups[br, g, fmt.group_offsets]

    # tile_contrib[r, s, c, b] = sum_{g, k} values[r, s, g, c, k] * gathered[...]
    tile_contrib = np.einsum("rsgck,rsgckb->rscb", fmt.group_values, gathered)

    flat_idx = _tile_scatter_index(fmt, block, batch)
    out = np.bincount(
        flat_idx,
        weights=tile_contrib.ravel(),
        minlength=out_block_cols * block * batch,
    )
    return out.reshape(out_block_cols * block, batch)[:cols]


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------

@register_backend
class FastBackend(ReferenceBackend):
    """Vectorized backend with inference-time workspace reuse.

    Training-path numerics are inherited from :class:`ReferenceBackend`;
    only inference ``im2col`` / conv (workspace-cached) and the CSR,
    Blocked-Ellpack and CRISP entries of the kernel table (vectorized) are
    overridden.
    """

    name = "fast"

    def __init__(self, max_buffers: int = 64) -> None:
        self._workspace = WorkspaceCache(max_buffers=max_buffers)

    # -- im2col ---------------------------------------------------------------
    def im2col(
        self,
        x: np.ndarray,
        kernel_h: int,
        kernel_w: int,
        stride: int = 1,
        padding: int = 0,
        training: bool = True,
    ) -> np.ndarray:
        if training:
            # A backward pass may hold onto the columns; never hand out a
            # shared buffer that a later forward would overwrite.
            return F.im2col(x, kernel_h, kernel_w, stride, padding)
        windows, (n, c, out_h, out_w) = F.im2col_windows(
            x, kernel_h, kernel_w, stride, padding
        )
        # The workspace is keyed by thread identity as well as shape: concurrent
        # serving shards (repro.cluster) run same-shaped convolutions in
        # parallel, and a shared buffer would let one thread overwrite another's
        # columns between the copy and the GEMM that consumes them.
        key = ("im2col", threading.get_ident(), x.shape, kernel_h, kernel_w, stride, padding)
        buf = self._workspace.get(key, (n, out_h, out_w, c, kernel_h, kernel_w), x.dtype)
        np.copyto(buf, windows.transpose(0, 4, 5, 1, 2, 3))
        return buf.reshape(n * out_h * out_w, c * kernel_h * kernel_w)

    # -- conv kernels (workspace-backed at inference) -------------------------
    def conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int = 1,
        padding: int = 0,
        training: bool = True,
    ) -> Tuple[np.ndarray, dict]:
        if training:
            return F.conv2d_forward(x, weight, bias, stride, padding)

        n, c_in, h, w = x.shape
        c_out, c_in_w, kh, kw = weight.shape
        if c_in != c_in_w:
            raise ValueError(f"Channel mismatch: input has {c_in}, weight expects {c_in_w}")
        out_h = F.conv_output_size(h, kh, stride, padding)
        out_w = F.conv_output_size(w, kw, stride, padding)

        cols = self.im2col(x, kh, kw, stride, padding, training=False)
        out = cols @ weight.reshape(c_out, -1).T
        if bias is not None:
            out = out + bias
        out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)
        # `cols` aliases the shared workspace buffer and may be overwritten by
        # the next same-shaped forward, so the cache keeps the input instead;
        # conv2d_backward rebuilds fresh columns on the rare eval-mode
        # backward (e.g. saliency estimation).
        cache = {
            "x": x,
            "x_shape": x.shape,
            "weight_shape": weight.shape,
            "stride": stride,
            "padding": padding,
            "has_bias": bias is not None,
        }
        return out, cache

    def conv2d_backward(self, grad_out, weight, cache):
        if "cols" not in cache:
            _, _, kh, kw = weight.shape
            cache = dict(cache)
            cache["cols"] = F.im2col(cache["x"], kh, kw, cache["stride"], cache["padding"])
        return F.conv2d_backward(grad_out, weight, cache)

    def depthwise_conv2d_forward(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: Optional[np.ndarray],
        stride: int = 1,
        padding: int = 0,
        training: bool = True,
    ) -> Tuple[np.ndarray, dict]:
        if training:
            return F.depthwise_conv2d_forward(x, weight, bias, stride, padding)

        n, c, h, w = x.shape
        c_w, one, kh, kw = weight.shape
        if c_w != c or one != 1:
            raise ValueError(
                f"Depthwise weight shape {weight.shape} incompatible with input channels {c}"
            )
        out_h = F.conv_output_size(h, kh, stride, padding)
        out_w = F.conv_output_size(w, kw, stride, padding)

        cols = self.im2col(x, kh, kw, stride, padding, training=False)
        cols_g = cols.reshape(-1, c, kh * kw)
        out = np.einsum("bck,ck->bc", cols_g, weight.reshape(c, kh * kw))
        if bias is not None:
            out = out + bias
        out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)
        # Same workspace-aliasing rule as conv2d_forward: never cache the
        # shared buffer for a potential backward.
        cache = {
            "x": x,
            "x_shape": x.shape,
            "stride": stride,
            "padding": padding,
            "has_bias": bias is not None,
        }
        return out, cache

    def depthwise_conv2d_backward(self, grad_out, weight, cache):
        if "cols_g" not in cache:
            c, _, kh, kw = weight.shape
            cache = dict(cache)
            cols = F.im2col(cache["x"], kh, kw, cache["stride"], cache["padding"])
            cache["cols_g"] = cols.reshape(-1, c, kh * kw)
        return F.depthwise_conv2d_backward(grad_out, weight, cache)

    # -- sparse kernels -------------------------------------------------------
    kernels = {
        **ReferenceBackend.kernels,
        "csr": csr_matmul_fast,
        "blocked-ellpack": blocked_ellpack_matmul_fast,
        "crisp": crisp_matmul_fast,
    }

    # -- workspace management -------------------------------------------------
    def clear_workspace(self) -> None:
        self._workspace.clear()

    def workspace_stats(self) -> Dict[str, int]:
        return self._workspace.stats()
