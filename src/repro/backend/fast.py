"""The ``fast`` backend: GEMM operands placed at bind + inference workspace reuse.

Two things distinguish this backend from ``reference``:

* an engine's CSR, Blocked-Ellpack and CRISP weights are **placed** when it
  is built (:func:`place`, this backend's ``bind_weights``): every layer's
  stored values, each multiplied by its column's batch-norm scale on the
  way, are written into BLAS operands — views of one array the engine owns,
  filled by one scatter per tile shape — so no folded copy of an encoding is
  made and the first predict decodes nothing.  CSR, and a Blocked-Ellpack
  or CRISP weight of at most :data:`DENSE_OPERAND_MAX_ENTRIES` entries, get
  a dense transposed matrix; a larger Blocked-Ellpack or CRISP weight the
  per-block-row tile stack that :func:`operand_matmul` multiplies — a
  batched tile GEMM, then a GEMM with a 0/1 matrix that sums the tile
  contributions into their output block columns.  CRISP's N:M offsets are
  weight-side metadata, so resolving them is part of placing, not of every
  call.  The per-row / per-value Python loops of
  :mod:`repro.sparsity.sparse_ops` stay the oracle;
* ``im2col`` (what an :class:`~repro.backend.engine.Engine`'s plan calls) is
  one ``np.take`` through a tap index cached per input shape, into a
  per-thread workspace laid out ``(C * kh * kw, N * oh * ow)`` — the operand
  the plan's GEMM reads — so a steady-state convolution pays no allocation,
  no ``np.pad`` and no transposed copy.

Nothing here is on a ``Module``'s path: training and ``eval()`` forwards run
:mod:`repro.nn.functional`, whichever backend an engine was compiled for.

An operand is private to its engine and freed with it.  It is a function of
the stored arrays and the scale alone — its size does not depend on the
batch widths served — and storage, ``arrays()`` and the shared-memory
segments are untouched by it.  A raw format handed to ``sparse_matmul`` is
placed unscaled on each call (:func:`encoded_matmul`) and keeps nothing.

All kernels produce outputs within floating-point round-off of the reference
backend (the parity suite pins this to 1e-8); they are *not* guaranteed to
be bit-exact because BLAS reductions may re-associate sums.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..sparsity.formats import BlockedEllpackFormat, CRISPFormat, CSRFormat, WeightFormat
from ..sparsity.sparse_ops import check_activation_rows
from .base import register_backend
from .reference import ReferenceBackend


__all__ = ["FastBackend", "WorkspaceCache", "Operand", "place", "operand_matmul", "encoded_matmul"]


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
# GEMM operands, placed at bind
# ---------------------------------------------------------------------------

#: A tile-format weight with at most this many entries (32 KiB placed)
#: multiplies as its dense transpose: below it, the tile GEMM pair's fixed
#: cost is more than the dropped blocks save.  A constant of the shape alone,
#: so every process and deployment sums a layer in the same order.
DENSE_OPERAND_MAX_ENTRIES = 4096


class Operand:
    """One layer's GEMM operand: ``dense_t`` ``(cols, rows)``, or ``row_tiles`` + ``scatter``.

    ``row_tiles`` ``(block_rows, slots * B, B)`` holds each block-row's
    stored tiles, transposed and stacked, so one batched matmul against the
    block-row's ``(B, batch)`` activation tile yields every tile's
    contribution (an unused slot is an all-zero tile); ``scatter``
    ``(out_block_cols, block_rows * slots)`` is 0/1, row ``c`` selecting the
    tiles stored at block column ``c``, so summing them into their output
    blocks is one more GEMM, of ``out_block_cols / B`` of the first one's
    multiplies.  Neither depends on the batch width.
    """

    name = "operand"  # its key in the fast backend's kernel table

    def __init__(self, shape, block: int, region: np.ndarray, tiles: int = 0) -> None:
        """Views of ``region``'s head: ``tiles`` tiles then their selection matrix, or (0) the transpose."""
        (rows, cols), split = shape, tiles * block * block
        self.shape, self.block = shape, block
        self.dense_t = None if tiles else region[:rows * cols].reshape(cols, rows)
        self.row_tiles = region[:split].reshape(-(-rows // block), -1, block) if tiles else None
        self.scatter = region[split:split + -(-cols // block) * tiles].reshape(-1, tiles) if tiles else None


class _Tiles(NamedTuple):
    """A CSR, Blocked-Ellpack or CRISP format's stored values, as tiles.

    ``layout`` is ``(a, B, c, row_step)``: every tile holds ``a * B * c``
    values, the value at ``(i, j, k)`` in column ``j`` and row ``row_step *
    i`` of its ``B``-wide tile, plus its CRISP N:M offset (``offsets``,
    ``None`` for the others).  ``block_cols`` is each tile's block column
    (``(block_rows, slots)`` for the tile formats), ``block_rows`` its block
    row (``None``: slot over slots per block-row), ``stored`` whether it is a
    stored tile rather than slot padding (``None``: all are).  CSR is one
    ``1 x 1`` tile per value.
    """

    layout: Tuple[int, int, int, int]
    values: np.ndarray
    offsets: Optional[np.ndarray]
    block_cols: np.ndarray
    block_rows: Optional[np.ndarray]
    stored: Optional[np.ndarray]


def _tiles(fmt) -> Optional[_Tiles]:
    """``fmt``'s stored values as :class:`_Tiles` (``None``: another format)."""
    if isinstance(fmt, CRISPFormat):
        block = fmt.block_size
        return _Tiles((block // fmt.m, block, fmt.n, fmt.m), fmt.group_values,
                      fmt.group_offsets, fmt.block_cols, None, None)
    if isinstance(fmt, BlockedEllpackFormat):
        block, slots = fmt.block_size, fmt.block_cols.shape[1]
        return _Tiles((block, block, 1, 1), fmt.blocks, None, fmt.block_cols, None,
                      np.arange(slots) < fmt.blocks_per_row[:, None])
    if isinstance(fmt, CSRFormat):
        rows = np.arange(fmt.shape[0]).repeat(np.diff(fmt.row_ptr))
        return _Tiles((1, 1, 1, 0), fmt.values, None, fmt.col_indices, rows, None)
    return None


#: Where :func:`place` puts one layer, a record per layer of a group: its
#: index in ``weights``, where its operand starts in the arena, the tiles in
#: its tile stack (0: its operand is the dense transpose), its shape, its
#: tiles, its tiles per block row, and its first tile and first scale column
#: in the group.
_LAYER = np.dtype([(field, np.intp) for field in (
    "index", "at", "stacked", "rows", "cols", "count", "slots", "first", "start")])


def place(weights: Sequence[Tuple[WeightFormat, np.ndarray]]) -> list:
    """What each ``(unfolded format, column scale)`` multiplies as: one arena, one scatter.

    Every stored value ``w`` of a CSR, Blocked-Ellpack or CRISP format lands,
    as ``w * scale[col]``, in its layer's :class:`Operand`; any other format
    is folded by ``fmt.scale_columns``.  CSR, and a tile format of at most
    :data:`DENSE_OPERAND_MAX_ENTRIES` entries, get the dense transpose, a
    larger tile format the tile stack and its selection matrix — views of
    one array, written by one fancy assignment per tile layout.  A value's
    flat index is its tile's base (the layer's offset plus a term in its
    slot, or in its block row and column), plus its column times the
    layout's column step, plus its row in the tile (and a CRISP offset): the
    shapes and the tenant's own arrays, nothing cached per slot count.

    Each operand is byte-equal to what the kernels made of
    ``fmt.scale_columns(scale)`` before: CRISP places only non-zero products
    (its padding is value 0 *at offset 0*, beside a real weight), a dense
    transpose only the stored tiles' in-bounds entries (as ``to_dense``
    does), a tile stack every entry.
    """
    placed, groups, totals, size = [None] * len(weights), {}, {}, 0
    for i, (fmt, scale) in enumerate(weights):
        tiles = _tiles(fmt)
        if tiles is None:
            placed[i] = fmt.scale_columns(scale)
            continue
        (rows, cols), block, count = fmt.shape, tiles.layout[1], tiles.block_cols.size
        stacked = count if block > 1 and rows * cols > DENSE_OPERAND_MAX_ENTRIES else 0
        width = -(-cols // block) * block
        first, start = totals.get(tiles.layout, (0, 0))
        totals[tiles.layout] = first + count, start + width
        layers, scales, group_tiles = groups.setdefault(tiles.layout, ([], [], []))
        layers.append((i, size, stacked, rows, cols, count, tiles.block_cols.shape[-1], first, start))
        scales += (scale, np.zeros(width - cols))  # the edge block's padding columns get scale 0
        group_tiles.append(tiles)
        size += stacked * (block * block + width // block) or rows * cols
    arena = np.zeros(size + 1)  # the last entry takes every value not placed
    for (a, block, c, row_step), (layers, scales, group_tiles) in groups.items():
        layers = np.array(layers, dtype=_LAYER)
        # Every tile's copy of its layer's record, (tiles, 1), and its slot in that layer.
        tile = layers.repeat(layers["count"])[:, None]
        tiled, slot = tile["stacked"] > 0, np.arange(len(tile))[:, None] - tile["first"]
        # Every layer's tiles, flat (None: the format has no such field).
        values, offsets, tile_cols, tile_rows, stored = (
            None if getattr(group_tiles[0], field) is None
            else np.concatenate([getattr(tiles, field) for tiles in group_tiles], axis=None)
            for field in ("values", "offsets", "block_cols", "block_rows", "stored"))
        tile_cols = tile_cols[:, None]
        tile_rows = slot // tile["slots"] if tile_rows is None else tile_rows[:, None]
        col, row = np.arange(block), row_step * np.arange(a)[:, None]
        # (tiles, B) column terms, repeated c times: the last axis of (tiles, a, B * c)
        scale = np.concatenate(scales)[tile["start"] + tile_cols * block + col].repeat(c, axis=1)[:, None]
        products = values.reshape(len(tile), a, block * c) * scale
        index = np.where(tiled, tile["at"] + slot * (block * block) + col * block,
                         tile["at"] + (tile_cols * block + col) * tile["rows"] + tile_rows * block)
        index = index.repeat(c, axis=1)[:, None] + row
        if offsets is not None:
            index += offsets.reshape(index.shape)
            np.putmask(index, products == 0, size)
        else:
            keep = ((tile_rows[:, :, None] * block + row < tile["rows"][:, :, None])
                    & (tile_cols * block + col < tile["cols"])[:, None])
            if stored is not None:
                keep &= stored[:, None, None]
            keep |= tiled[:, :, None]
            np.putmask(index, ~keep, size)
        arena[index] = products
        arena[(tile["at"] + tile["count"] * (block * block + tile_cols) + slot)[tiled]] = 1.0
        for i, at, stacked, rows, cols in layers[["index", "at", "stacked", "rows", "cols"]].tolist():
            placed[i] = Operand((rows, cols), block, arena[at:], stacked)
    return placed


def operand_matmul(operand: Operand, activations: np.ndarray) -> np.ndarray:
    """``weight.T @ activations`` over a placed :class:`Operand`: one GEMM, or the tile pair."""
    check_activation_rows(operand, activations)
    activations = np.asarray(activations, dtype=np.float64)
    if operand.scatter is None:
        return operand.dense_t @ activations
    (rows, cols), block = operand.shape, operand.block
    row_tiles, scatter = operand.row_tiles, operand.scatter
    block_rows, batch = len(row_tiles), activations.shape[1]
    if rows != block_rows * block:
        # Rows short of a block multiple meet zero weights; np.pad costs
        # more than the GEMM on serving-sized layers.
        padded = np.zeros((block_rows * block, batch))
        padded[:rows] = activations
        activations = padded
    # contrib[r, s * B + c, b] = sum_i tile[r, s][i, c] * activations[r * B + i, b]
    contrib = np.matmul(row_tiles, activations.reshape(block_rows, block, batch))
    out = scatter @ contrib.reshape(scatter.shape[1], block * batch)
    return out.reshape(scatter.shape[0] * block, batch)[:cols]


def encoded_matmul(fmt, activations: np.ndarray) -> np.ndarray:
    """A CSR, Blocked-Ellpack or CRISP format multiplied as it is stored: placed
    unscaled on every call, and kept nowhere (an engine places once, at bind)."""
    return operand_matmul(place([(fmt, np.ones(fmt.shape[1]))])[0], activations)


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

    Overrides ``im2col`` (one gather into a workspace), ``bind_weights``
    (:func:`place`) and the CSR, Blocked-Ellpack and CRISP entries of the
    kernel table, plus one for a placed :class:`Operand`; the dense kernel is
    the reference backend's.
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
        **dict.fromkeys(("csr", "blocked-ellpack", "crisp"), encoded_matmul),
        Operand.name: operand_matmul,
    }

    def bind_weights(self, weights):
        return place(weights)

    # -- workspace management -------------------------------------------------
    def clear_workspace(self) -> None:
        self._workspace.clear()

    def workspace_stats(self) -> Dict[str, int]:
        return self._workspace.stats()
