"""Mask utilities shared by the structured-sparsity generators.

A *mask* here is always a 2-D binary (0/1 float) array shaped like the
reshaped weight matrix ``(HWR, S)`` of a layer — rows are kernel-position ×
input-channel coordinates, columns are output channels — matching the matrix
transformation step (step 1) of the CRISP framework.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "validate_mask",
    "density",
    "sparsity",
    "check_nm_compliance",
    "check_block_uniformity",
    "combine_masks",
    "pad_to_multiple",
    "crop_to_shape",
]


def validate_mask(mask: np.ndarray) -> np.ndarray:
    """Check that ``mask`` is a 2-D binary array and return it as float64."""
    mask = np.asarray(mask)
    if mask.ndim != 2:
        raise ValueError(f"Expected a 2-D mask, got shape {mask.shape}")
    unique = np.unique(mask)
    if not np.all(np.isin(unique, (0.0, 1.0))):
        raise ValueError("Mask must be binary (only 0s and 1s)")
    return mask.astype(np.float64)


def density(mask: np.ndarray) -> float:
    """Fraction of retained (non-zero) entries."""
    mask = np.asarray(mask)
    if mask.size == 0:
        raise ValueError("Empty mask")
    return float(np.count_nonzero(mask)) / mask.size


def sparsity(mask: np.ndarray) -> float:
    """Fraction of pruned (zero) entries."""
    return 1.0 - density(mask)


def check_nm_compliance(mask: np.ndarray, n: int, m: int, axis: int = 0) -> bool:
    """Check that every group of ``m`` consecutive entries along ``axis`` keeps at most ``n``.

    The N:M constraint in CRISP (and NVIDIA sparse tensor cores) applies to
    groups of ``m`` consecutive elements along the reduction dimension of the
    GEMM — the *row* dimension of the reshaped ``(HWR, S)`` weight matrix.
    Groups that fall entirely inside a pruned block trivially comply (they
    keep zero values).
    """
    mask = validate_mask(mask)
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    if axis == 1:
        mask = mask.T
    rows, cols = mask.shape
    if rows % m != 0:
        # Trailing partial group: check full groups only.
        full = (rows // m) * m
        mask = mask[:full, :]
        rows = full
    if rows == 0:
        return True
    grouped = mask.reshape(rows // m, m, cols)
    per_group_nonzero = grouped.sum(axis=1)
    return bool(np.all(per_group_nonzero <= n))


def check_block_uniformity(mask: np.ndarray, block_size: int) -> bool:
    """Check the CRISP load-balancing invariant: equal retained blocks per block-row.

    The mask is partitioned into ``block_size x block_size`` tiles (after
    implicit zero padding); a tile counts as *retained* if any of its entries
    is non-zero.  The invariant of Algorithm 1 is that every block-row keeps
    the same number of blocks.
    """
    mask = validate_mask(mask)
    padded = pad_to_multiple(mask, block_size)
    block_rows = padded.shape[0] // block_size
    block_cols = padded.shape[1] // block_size
    tiles = padded.reshape(block_rows, block_size, block_cols, block_size)
    tile_nonzero = tiles.transpose(0, 2, 1, 3).reshape(block_rows, block_cols, -1).sum(axis=2)
    retained_per_row = (tile_nonzero > 0).sum(axis=1)
    return bool(np.all(retained_per_row == retained_per_row[0]))


def combine_masks(*masks: np.ndarray) -> np.ndarray:
    """Element-wise AND of several masks (all must share a shape)."""
    if not masks:
        raise ValueError("combine_masks() requires at least one mask")
    result = validate_mask(masks[0])
    for mask in masks[1:]:
        mask = validate_mask(mask)
        if mask.shape != result.shape:
            raise ValueError(f"Mask shape mismatch: {mask.shape} vs {result.shape}")
        result = result * mask
    return result


def pad_to_multiple(matrix: np.ndarray, multiple: int, value: float = 0.0) -> np.ndarray:
    """Zero-pad a 2-D matrix so both dimensions are multiples of ``multiple``."""
    if multiple <= 0:
        raise ValueError("multiple must be positive")
    rows, cols = matrix.shape
    pad_rows = (-rows) % multiple
    pad_cols = (-cols) % multiple
    if pad_rows == 0 and pad_cols == 0:
        return matrix
    # Same result as np.pad(..., constant_values=value) without its per-call
    # Python overhead, which every block partition of an unaligned layer pays.
    padded = np.full((rows + pad_rows, cols + pad_cols), value, dtype=matrix.dtype)
    padded[:rows, :cols] = matrix
    return padded


def crop_to_shape(matrix: np.ndarray, shape: Tuple[int, int]) -> np.ndarray:
    """Crop a (possibly padded) matrix back to ``shape``."""
    rows, cols = shape
    if matrix.shape[0] < rows or matrix.shape[1] < cols:
        raise ValueError(f"Cannot crop {matrix.shape} to larger shape {shape}")
    return matrix[:rows, :cols]
