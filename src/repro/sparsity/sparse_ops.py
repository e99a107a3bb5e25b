"""Sparse matrix-multiplication kernels (reference implementations + dispatch).

The ``*_reference`` kernels are functional models of the accelerator
datapaths, not performance kernels: they verify that computing with the
compressed CRISP representation (block-index gathering followed by N:M
multiplexing, the two stages of Fig. 6) produces the same result as a dense
GEMM with the masked weight matrix.  The hardware performance model itself
lives in :mod:`repro.hw`.

:func:`sparse_matmul` is the one public entry point: it hands any encoded
weight to the named compute backend (:mod:`repro.backend`), whose kernel
table picks the kernel — the loop kernels below on ``reference`` (the
default), the vectorized equivalents of :mod:`repro.backend.fast` on
``fast``.
"""

from __future__ import annotations

import numpy as np

from .formats import BlockedEllpackFormat, CRISPFormat, CSRFormat, DenseFormat, WeightFormat

__all__ = [
    "dense_matmul",
    "masked_matmul",
    "dense_format_matmul",
    "csr_matmul_reference",
    "blocked_ellpack_matmul_reference",
    "crisp_matmul_reference",
    "sparse_matmul",
    "check_activation_rows",
    "effective_macs",
]


def check_activation_rows(fmt, activations: np.ndarray) -> None:
    """Validate that ``activations`` has one row per weight-matrix row.

    Shared by every backend so shape errors are raised identically on the
    reference and vectorized paths.
    """
    rows = fmt.shape[0]
    if activations.shape[0] != rows:
        raise ValueError(
            f"Activation rows {activations.shape[0]} != weight rows {rows}"
        )


def dense_matmul(weight: np.ndarray, activations: np.ndarray) -> np.ndarray:
    """Plain dense GEMM: ``weight.T @ activations``.

    ``weight`` is the reshaped ``(K, S)`` matrix and ``activations`` is
    ``(K, batch)``; the result is ``(S, batch)``, matching an output-stationary
    accelerator view.
    """
    weight = np.asarray(weight, dtype=np.float64)
    activations = np.asarray(activations, dtype=np.float64)
    if weight.shape[0] != activations.shape[0]:
        raise ValueError(
            f"Reduction-dimension mismatch: weight {weight.shape}, activations {activations.shape}"
        )
    return weight.T @ activations


def masked_matmul(weight: np.ndarray, mask: np.ndarray, activations: np.ndarray) -> np.ndarray:
    """Dense GEMM with an element-wise weight mask (the software reference)."""
    return dense_matmul(weight * mask, activations)


def dense_format_matmul(fmt: DenseFormat, activations: np.ndarray) -> np.ndarray:
    """GEMM using a dense-stored weight (the kernel both backends share)."""
    check_activation_rows(fmt, activations)
    return dense_matmul(fmt.matrix, activations)


def csr_matmul_reference(fmt: CSRFormat, activations: np.ndarray) -> np.ndarray:
    """GEMM using a CSR-encoded weight matrix (per-row loop oracle)."""
    rows, cols = fmt.shape
    check_activation_rows(fmt, activations)
    out = np.zeros((cols, activations.shape[1]))
    for r in range(rows):
        start, end = fmt.row_ptr[r], fmt.row_ptr[r + 1]
        for idx in range(start, end):
            out[fmt.col_indices[idx]] += fmt.values[idx] * activations[r]
    return out


def blocked_ellpack_matmul_reference(
    fmt: BlockedEllpackFormat, activations: np.ndarray
) -> np.ndarray:
    """GEMM using a Blocked-Ellpack weight: only retained blocks touch activations."""
    rows, cols = fmt.shape
    check_activation_rows(fmt, activations)
    block = fmt.block_size
    acts_padded = np.pad(activations, ((0, (-rows) % block), (0, 0)))
    out_padded = np.zeros((((cols + block - 1) // block) * block, activations.shape[1]))
    for br in range(fmt.blocks_per_row.shape[0]):
        act_tile = acts_padded[br * block : (br + 1) * block]
        for slot in range(fmt.blocks_per_row[br]):
            bc = fmt.block_cols[br, slot]
            tile = fmt.blocks[br, slot]
            out_padded[bc * block : (bc + 1) * block] += tile.T @ act_tile
    return out_padded[:cols]


def crisp_matmul_reference(fmt: CRISPFormat, activations: np.ndarray) -> np.ndarray:
    """GEMM using the CRISP hybrid format, mimicking the accelerator pipeline.

    Step 1: gather the activation rows of retained blocks (block-index skip).
    Step 2: inside each block, use the N:M offsets to select the activation
    value each stored weight multiplies (the 4:2 MUX stage of Fig. 6).
    """
    rows, cols = fmt.shape
    check_activation_rows(fmt, activations)
    block = fmt.block_size
    m = fmt.m
    groups_per_block = block // m
    acts_padded = np.pad(activations, ((0, (-rows) % block), (0, 0)))
    out_padded = np.zeros((((cols + block - 1) // block) * block, activations.shape[1]))

    for br in range(fmt.blocks_per_row.shape[0]):
        act_tile = acts_padded[br * block : (br + 1) * block]  # (B, batch)
        for slot in range(fmt.blocks_per_row[br]):
            bc = fmt.block_cols[br, slot]
            out_tile = out_padded[bc * block : (bc + 1) * block]
            for g in range(groups_per_block):
                act_group = act_tile[g * m : (g + 1) * m]  # (m, batch)
                for col in range(block):
                    for k in range(fmt.n):
                        value = fmt.group_values[br, slot, g, col, k]
                        if value == 0.0:
                            continue
                        offset = fmt.group_offsets[br, slot, g, col, k]
                        out_tile[col] += value * act_group[offset]
    return out_padded[:cols]


def sparse_matmul(
    fmt: WeightFormat, activations: np.ndarray, backend: str = "reference"
) -> np.ndarray:
    """``weight.T @ activations`` from any encoded weight, via the named backend."""
    from ..backend import resolve_backend

    return resolve_backend(backend).sparse_matmul(fmt, activations)


def effective_macs(mask: np.ndarray, batch: int = 1) -> int:
    """Number of useful multiply-accumulates for a masked GEMM.

    One MAC per retained weight per activation column — the quantity sparse
    accelerators try to approach.
    """
    return int(np.count_nonzero(mask)) * batch
