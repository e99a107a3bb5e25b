"""The ``fast`` backend: decode-once sparse kernels + inference workspace reuse.

Two things distinguish this backend from ``reference``:

* a compressed weight is decoded **once**, on its first matmul, into a BLAS
  operand memoized on the format (``fmt.derived``, never serialized): CSR —
  and a Blocked-Ellpack or CRISP weight of at most
  :data:`DENSE_OPERAND_MAX_ENTRIES` entries — into a dense transposed
  matrix; a larger Blocked-Ellpack or CRISP weight into the same
  per-block-row tile stack, which one shared function (:func:`_tile_matmul`)
  multiplies — a batched tile GEMM, then a GEMM with a 0/1 matrix that sums
  the tile contributions into their output block columns.  CRISP's N:M
  offsets are weight-side metadata, so resolving them is part of that
  decode, not of every call.  The per-row / per-value Python loops of
  :mod:`repro.sparsity.sparse_ops` stay the oracle;
* ``im2col`` (what an :class:`~repro.backend.engine.Engine`'s plan calls) is
  one ``np.take`` through a tap index cached per input shape, into a
  per-thread workspace laid out ``(C * kh * kw, N * oh * ow)`` — the operand
  the plan's GEMM reads — so a steady-state convolution pays no allocation,
  no ``np.pad`` and no transposed copy.

Nothing here is on a ``Module``'s path: training and ``eval()`` forwards run
:mod:`repro.nn.functional`, whichever backend an engine was compiled for.

What is decoded is private to the process and lives as long as the format
object (for a served tenant: until its engine leaves the cache).  It is a
function of the stored arrays alone — its size does not depend on the batch
widths a weight has been multiplied with.  Storage, ``arrays()`` and the
shared-memory segments are untouched by it.

All kernels produce outputs within floating-point round-off of the reference
backend (the parity suite pins this to 1e-8); they are *not* guaranteed to
be bit-exact because BLAS reductions may re-associate sums.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Tuple

import numpy as np

from ..nn import functional as F
from ..sparsity.formats import BlockedEllpackFormat, CRISPFormat, CSRFormat
from ..sparsity.sparse_ops import check_activation_rows
from .base import get_backend, register_backend
from .reference import ReferenceBackend


__all__ = [
    "FastBackend",
    "WorkspaceCache",
    "csr_matmul_fast",
    "blocked_ellpack_matmul_fast",
    "crisp_matmul_fast",
]


class WorkspaceCache:
    """Shape-keyed cache of reusable scratch buffers and read-only indices.

    ``get`` returns a buffer for ``key`` if one with a matching shape/dtype
    is already cached, otherwise allocates a zero-filled one.  A buffer comes
    back as its last user left it: callers overwrite what they read, and a
    caller that never writes some of it keeps the zeros it was allocated
    with.  ``index`` returns the array ``build(*key)`` made for ``key``, built
    on the first call.  Each table evicts FIFO beyond ``max_buffers``.
    """

    def __init__(self, max_buffers: int = 64) -> None:
        self.max_buffers = max_buffers
        self._buffers: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self._indices: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        # Callers key buffers per thread, but the tables themselves are
        # shared — concurrent serving shards insert/evict under one lock.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _insert(self, table: OrderedDict, key: tuple, value: np.ndarray) -> np.ndarray:
        while len(table) >= self.max_buffers:
            table.popitem(last=False)
        table[key] = value
        return value

    def get(self, key: tuple, shape: Tuple[int, ...], dtype) -> np.ndarray:
        with self._lock:
            buf = self._buffers.get(key)
            if buf is not None and buf.shape == shape and buf.dtype == np.dtype(dtype):
                self.hits += 1
                self._buffers.move_to_end(key)
                return buf
            self.misses += 1
            return self._insert(self._buffers, key, np.zeros(shape, dtype=dtype))

    def index(self, key: tuple, build: Callable[..., np.ndarray]) -> np.ndarray:
        with self._lock:
            index = self._indices.get(key)
            if index is None:
                return self._insert(self._indices, key, build(*key))
            self._indices.move_to_end(key)
            return index

    def clear(self) -> None:
        with self._lock:
            self._buffers.clear()
            self._indices.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            held = [*self._buffers.values(), *self._indices.values()]
        return {"hits": self.hits, "misses": self.misses, "buffers": len(self._buffers),
                "bytes": sum(array.nbytes for array in held)}


# ---------------------------------------------------------------------------
# Vectorized sparse kernels
# ---------------------------------------------------------------------------

#: A tile-format weight with at most this many entries (32 KiB decoded)
#: multiplies as its dense transpose: below it, the tile GEMM pair's fixed
#: cost is more than the dropped blocks save.  A constant of the shape alone,
#: so every process and deployment sums a layer in the same order.
DENSE_OPERAND_MAX_ENTRIES = 4096


def _dense_t(fmt) -> np.ndarray:
    """``fmt``'s dense transpose, C-contiguous, memoized as ``fmt.derived["dense_t"]``."""
    dense_t = fmt.derived.get("dense_t")
    if dense_t is None:
        dense = _crisp_operand(fmt, "dense_t") if isinstance(fmt, CRISPFormat) else fmt.to_dense().T
        dense_t = fmt.derived["dense_t"] = np.ascontiguousarray(dense)
    return dense_t


def csr_matmul_fast(fmt: CSRFormat, activations: np.ndarray) -> np.ndarray:
    """Vectorized CSR GEMM: one gather-scatter decode, then a BLAS GEMM.

    :meth:`CSRFormat.to_dense` (vectorized) scatters the stored values into a
    dense operand in a single fancy-indexing pass; the matmul itself then
    runs as one BLAS call instead of O(nnz) Python-level accumulations.  The
    decoded (transposed) operand is memoized on the format, so a served
    weight pays the decode once, not per request.
    """
    check_activation_rows(fmt, activations)
    return _dense_t(fmt) @ np.asarray(activations, dtype=np.float64)


def _ellpack_row_tiles(fmt: BlockedEllpackFormat) -> np.ndarray:
    """The stored ``(B, B)`` tiles, transposed and stacked per block-row."""
    block_rows, slots = fmt.block_cols.shape
    block = fmt.block_size
    return np.ascontiguousarray(
        fmt.blocks.transpose(0, 1, 3, 2).reshape(block_rows, slots * block, block)
    )


def _crisp_base(layout: str, block_rows: int, slots: int, groups: int, b: int, m: int,
                rows: int) -> np.ndarray:
    """Where each stored CRISP value with offset 0 lands in ``layout``'s flat memory (``b``: B).

    ``"tiles"``: ``(block_rows, slots, groups, B, 1)``, into the row-tile
    stack laid out ``(block_rows, slots, column, group, m)``.  ``"dense_t"``:
    ``(block_rows, 1, groups, B, 1)``, into the ``(cols, rows)`` transpose of
    a ``rows``-row weight, for block column 0.
    """
    br, slot, g, col = np.ix_(range(block_rows), range(slots), range(groups), range(b))
    base = ((br * slots + slot) * b + col) * b if layout == "tiles" else col * rows + br * b
    return (base + g * m).astype(np.intp)[..., None]


def _crisp_operand(fmt: CRISPFormat, layout: str = "tiles") -> np.ndarray:
    """Resolve the N:M MUX: every stored value goes to the row its offset names, in one assignment.

    ``layout`` is ``"tiles"`` (:func:`_tile_matmul`'s ``row_tiles``) or
    ``"dense_t"`` (the dense transpose).  A value's flat index is a base that
    depends on the stored shape alone (:func:`_crisp_base`, cached in the
    fast backend's index table) plus its offset, plus its block column's
    start for ``"dense_t"``.  Only non-zero stored values are placed (the
    rule :meth:`CRISPFormat.to_dense` follows): a zero goes to a dump slot
    past the end, so a padding entry — value 0 **and** offset 0 — never
    lands on the real weight a group keeps at offset 0.
    """
    values, (rows, cols) = fmt.group_values, fmt.shape
    block_rows, slots, groups, block, _ = values.shape
    key = (layout, block_rows, slots, groups, block, fmt.m, rows)
    index = get_backend("fast")._workspace.index(key, _crisp_base) + fmt.group_offsets
    shape = (block_rows, slots * block, block) if layout == "tiles" else (cols, rows)
    if layout == "dense_t":
        index += (fmt.block_cols * (block * rows))[:, :, None, None, None]
    placed = np.zeros(np.prod(shape) + 1)
    placed[np.where(values != 0, index, placed.size - 1)] = values
    return placed[:-1].reshape(shape)


def _tile_matmul(fmt, activations: np.ndarray, build_row_tiles) -> np.ndarray:
    """``weight.T @ activations`` for a format that keeps ``(B, B)`` tiles per block-row.

    A weight of at most :data:`DENSE_OPERAND_MAX_ENTRIES` entries is one GEMM
    with its dense transpose (``fmt.derived["dense_t"]``, the CSR kernel's
    operand).  A larger one is two GEMMs over operands derived from the
    weights alone and memoized as ``fmt.derived["tile_gemm"]`` on first use:

    * ``row_tiles`` ``(block_rows, slots * B, B)`` — each block-row's retained
      tiles, transposed and stacked, so one batched matmul against the
      block-row's ``(B, batch)`` activation tile yields every tile's
      contribution.  ``build_row_tiles(fmt)`` is the only thing that differs
      between formats.  Unused slots hold all-zero tiles and contribute
      nothing, so there is no validity mask.
    * ``scatter`` ``(out_block_cols, block_rows * slots)`` — 0/1, row ``c``
      selecting the tiles stored at block column ``c`` — so summing the
      contributions into their output blocks is one more GEMM.  It costs
      ``out_block_cols / B`` of the first GEMM's multiplies and
      ``out_block_cols / B**2`` of its bytes.

    None of them depends on the batch width, so what a served weight holds
    in ``derived`` is fixed after its first call.
    """
    rows, cols = fmt.shape
    check_activation_rows(fmt, activations)
    activations = np.asarray(activations, dtype=np.float64)
    if rows * cols <= DENSE_OPERAND_MAX_ENTRIES:
        return _dense_t(fmt) @ activations
    block = fmt.block_size
    batch = activations.shape[1]
    block_rows, slots = fmt.block_cols.shape

    operands = fmt.derived.get("tile_gemm")
    if operands is None:
        scatter = np.zeros((-(-cols // block), block_rows * slots))
        scatter[fmt.block_cols.reshape(-1), np.arange(block_rows * slots)] = 1.0
        # One assignment, so a concurrent first call never sees half of it.
        operands = fmt.derived["tile_gemm"] = (build_row_tiles(fmt), scatter)
    row_tiles, scatter = operands

    if rows != block_rows * block:
        # Rows short of a block multiple meet zero weights; np.pad costs
        # more than the GEMM on serving-sized layers.
        padded = np.zeros((block_rows * block, batch))
        padded[:rows] = activations
        activations = padded

    # contrib[r, s * B + c, b] = sum_i tile[r, s][i, c] * activations[r * B + i, b]
    contrib = np.matmul(row_tiles, activations.reshape(block_rows, block, batch))
    out = scatter @ contrib.reshape(block_rows * slots, block * batch)
    return out.reshape(scatter.shape[0] * block, batch)[:cols]


def blocked_ellpack_matmul_fast(
    fmt: BlockedEllpackFormat, activations: np.ndarray
) -> np.ndarray:
    """Vectorized Blocked-Ellpack GEMM: :func:`_tile_matmul` over the stored tiles."""
    return _tile_matmul(fmt, activations, _ellpack_row_tiles)


def crisp_matmul_fast(fmt: CRISPFormat, activations: np.ndarray) -> np.ndarray:
    """Vectorized CRISP GEMM: decode the N:M offsets once, then :func:`_tile_matmul`.

    The offsets are weight-side metadata, so the MUX of Fig. 6 is resolved
    on the first call (:func:`_crisp_operand`) into the operand the
    Blocked-Ellpack kernel uses; every later call is the same two GEMMs.
    What is stored and shipped stays the CRISP encoding.
    """
    return _tile_matmul(fmt, activations, _crisp_operand)


def _tap_index(n: int, h: int, w: int, kernel_h: int, kernel_w: int, stride: int,
               padding: int) -> np.ndarray:
    """``(kh * kw, n * oh * ow)`` ``intp``: the flat ``(n, h, w)`` position each
    tap of each output reads, ``n * h * w`` (the zero slot) where it is padding."""
    out_h = F.conv_output_size(h, kernel_h, stride, padding)
    out_w = F.conv_output_size(w, kernel_w, stride, padding)
    # (kh, 1, 1, oh, 1) and (1, kw, 1, 1, ow): the input row / column each tap reads.
    ys = (np.arange(kernel_h)[:, None] + np.arange(out_h) * stride - padding)[:, None, None, :, None]
    xs = (np.arange(kernel_w)[:, None] + np.arange(out_w) * stride - padding)[None, :, None, None, :]
    flat = (np.arange(n) * (h * w))[:, None, None] + ys * w + xs
    inside = (ys >= 0) & (ys < h) & (xs >= 0) & (xs < w)
    return np.where(inside, flat, n * h * w).astype(np.intp).reshape(kernel_h * kernel_w, -1)


# ---------------------------------------------------------------------------
# Backend
# ---------------------------------------------------------------------------

@register_backend
class FastBackend(ReferenceBackend):
    """Vectorized backend with workspace reuse.

    Overrides ``im2col`` (one gather into a workspace) and the CSR, Blocked-Ellpack and
    CRISP entries of the kernel table (vectorized); the dense kernel is the
    reference backend's.
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
    ) -> np.ndarray:
        """One ``np.take``: ``(N * oh * ow, C * kh * kw)``, the transpose of a workspace buffer.

        The input is copied once into the rows of a ``(C, N * H * W + 1)``
        matrix whose last column — the zero slot — is never written; a tap
        index shared by all threads names the column every output reads,
        the zero slot for a padding tap.
        """
        n, c, h, w = x.shape
        taps = self._workspace.index((n, h, w, kernel_h, kernel_w, stride, padding), _tap_index)
        # Buffers are keyed by thread identity as well as shape: concurrent
        # serving shards (repro.cluster) run same-shaped convolutions in
        # parallel, and a shared buffer would let one thread overwrite another's
        # columns between the copy and the GEMM that consumes them.
        thread = threading.get_ident()
        (kk, positions), size = taps.shape, n * h * w
        rows = self._workspace.get(("rows", thread, c, size), (c, size + 1), x.dtype)
        np.copyto(rows[:, :-1].reshape(c, n, h, w), x.transpose(1, 0, 2, 3))
        cols = self._workspace.get(("cols", thread, c, kk, positions), (c * kk, positions), x.dtype)
        # Every index is in range by construction; "clip" only spares the
        # temporary copy that mode="raise" makes of ``out``.
        np.take(rows, taps, axis=1, out=cols.reshape(c, kk, positions), mode="clip")
        return cols.T

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
