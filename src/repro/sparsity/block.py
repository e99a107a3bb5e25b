"""Coarse-grained block sparsity.

The weight matrix is partitioned into a grid of ``B x B`` tiles; pruning
removes entire tiles.  CRISP's key structural constraint (Sec. III-A / III-C
of the paper) is *uniform block pruning*: every block-row of the grid keeps
the same number of non-zero blocks, which gives perfect workload balance on
the accelerator and a compact Blocked-Ellpack metadata encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .masks import pad_to_multiple, validate_mask

__all__ = [
    "BlockGrid",
    "partition_into_blocks",
    "block_scores",
    "block_mask_from_keep",
    "uniform_block_mask",
    "topk_block_mask",
    "SUPPORTED_BLOCK_SIZES",
]

#: Block sizes evaluated by the paper (Fig. 3 / Fig. 8).
SUPPORTED_BLOCK_SIZES: Tuple[int, ...] = (4, 8, 16, 32, 64)


@dataclass(frozen=True)
class BlockGrid:
    """Geometry of a block partition of a 2-D matrix.

    Attributes
    ----------
    rows, cols:
        Shape of the original (unpadded) matrix.
    block_size:
        Side length ``B`` of the square tiles.
    block_rows, block_cols:
        Number of tiles along each dimension (computed on the padded matrix).
    """

    rows: int
    cols: int
    block_size: int

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")

    @property
    def block_rows(self) -> int:
        return -(-self.rows // self.block_size)

    @property
    def block_cols(self) -> int:
        return -(-self.cols // self.block_size)

    @property
    def padded_shape(self) -> Tuple[int, int]:
        return (self.block_rows * self.block_size, self.block_cols * self.block_size)

    @property
    def num_blocks(self) -> int:
        return self.block_rows * self.block_cols

    @classmethod
    def for_matrix(cls, matrix: np.ndarray, block_size: int) -> "BlockGrid":
        if matrix.ndim != 2:
            raise ValueError(f"Expected a 2-D matrix, got shape {matrix.shape}")
        return cls(rows=matrix.shape[0], cols=matrix.shape[1], block_size=block_size)


def partition_into_blocks(matrix: np.ndarray, block_size: int) -> Tuple[np.ndarray, BlockGrid]:
    """Partition a 2-D matrix into tiles.

    Returns ``(tiles, grid)`` where ``tiles`` has shape
    ``(block_rows, block_cols, block_size, block_size)``; the matrix is
    zero-padded on the bottom/right when its shape is not a multiple of the
    block size.
    """
    grid = BlockGrid.for_matrix(matrix, block_size)
    padded = pad_to_multiple(matrix, block_size)
    tiles = padded.reshape(
        grid.block_rows, block_size, grid.block_cols, block_size
    ).transpose(0, 2, 1, 3)
    return tiles, grid


def block_scores(score_matrix: np.ndarray, block_size: int) -> Tuple[np.ndarray, BlockGrid]:
    """Per-block saliency: the sum of element scores within each tile.

    This is line 5 of Algorithm 1 (``s_j = sum_i |T_w^i|`` over the block's
    elements).  Returns ``(scores, grid)`` with ``scores`` of shape
    ``(block_rows, block_cols)``.
    """
    tiles, grid = partition_into_blocks(np.abs(score_matrix), block_size)
    scores = tiles.reshape(grid.block_rows, grid.block_cols, -1).sum(axis=2)
    return scores, grid


def block_mask_from_keep(keep: np.ndarray, grid: BlockGrid) -> np.ndarray:
    """Expand a per-block keep matrix into an element-wise mask of the original shape."""
    keep = np.asarray(keep, dtype=np.float64)
    if keep.shape != (grid.block_rows, grid.block_cols):
        raise ValueError(
            f"Keep matrix shape {keep.shape} != grid shape "
            f"({grid.block_rows}, {grid.block_cols})"
        )
    expanded = np.kron(keep, np.ones((grid.block_size, grid.block_size)))
    return expanded[: grid.rows, : grid.cols]


def topk_block_mask(score_matrix: np.ndarray, block_size: int, keep_ratio: float) -> np.ndarray:
    """Plain (non-uniform) block pruning: keep the globally top-k scoring blocks.

    This is the "coarse-grained block sparsity" baseline of Fig. 3 — it does
    *not* enforce the uniform blocks-per-row constraint.
    """
    if not 0.0 < keep_ratio <= 1.0:
        raise ValueError(f"keep_ratio must be in (0, 1], got {keep_ratio}")
    scores, grid = block_scores(score_matrix, block_size)
    flat = scores.reshape(-1)
    keep_count = max(1, int(round(keep_ratio * flat.size)))
    threshold_idx = np.argsort(flat)[::-1][:keep_count]
    keep = np.zeros_like(flat)
    keep[threshold_idx] = 1.0
    return block_mask_from_keep(keep.reshape(scores.shape), grid)


def uniform_block_mask(
    score_matrix: np.ndarray, block_size: int, keep_blocks_per_row: int
) -> np.ndarray:
    """CRISP-style uniform block pruning: keep exactly ``k`` blocks in every block-row.

    Within each block-row the ``keep_blocks_per_row`` highest-scoring tiles
    are retained; all rows keep the same count, which is the load-balancing
    invariant validated by
    :func:`repro.sparsity.masks.check_block_uniformity`.
    """
    scores, grid = block_scores(score_matrix, block_size)
    if not 1 <= keep_blocks_per_row <= grid.block_cols:
        raise ValueError(
            f"keep_blocks_per_row must be in [1, {grid.block_cols}], got {keep_blocks_per_row}"
        )
    keep = np.zeros_like(scores)
    top_cols = np.argsort(scores, axis=1)[:, ::-1][:, :keep_blocks_per_row]
    row_idx = np.arange(grid.block_rows)[:, None]
    keep[row_idx, top_cols] = 1.0
    return block_mask_from_keep(keep, grid)


def retained_blocks_per_row(mask: np.ndarray, block_size: int) -> List[int]:
    """Count retained (any-non-zero) blocks in each block-row of an element mask."""
    mask = validate_mask(mask)
    tiles, grid = partition_into_blocks(mask, block_size)
    nonzero = tiles.reshape(grid.block_rows, grid.block_cols, -1).sum(axis=2) > 0
    return nonzero.sum(axis=1).astype(int).tolist()
