"""Experiment E4 — Fig. 4 (right): metadata overhead of sparse storage formats.

The paper reports that encoding a CRISP-pruned weight matrix with
general-purpose sparse formats costs roughly 5x (CSR) and 7x (ELLPACK) more
metadata than the CRISP hybrid format (block indices + 2-bit intra-group
offsets).  The experiment builds hybrid-sparse weight matrices with the
shapes of representative ResNet-50 layers, encodes them in every format and
reports metadata bits and overhead ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..sparsity import HybridSparsityConfig, compare_formats, hybrid_mask

__all__ = ["Fig4Config", "run_fig4", "DEFAULT_LAYER_SHAPES"]

#: Reshaped (HWR, S) weight shapes of representative ResNet-50 layers,
#: reduced by 4x in each dimension to keep the dense encodings cheap to build.
DEFAULT_LAYER_SHAPES: Tuple[Tuple[str, int, int], ...] = (
    ("layer1.conv2", 144, 16),
    ("layer2.conv2", 288, 32),
    ("layer3.conv2", 576, 64),
    ("layer3.conv3", 64, 256),
)


@dataclass
class Fig4Config:
    """Configuration of the storage-format comparison."""

    layer_shapes: Sequence[Tuple[str, int, int]] = DEFAULT_LAYER_SHAPES
    n: int = 2
    m: int = 4
    block_size: int = 16
    target_sparsity: float = 0.875
    seed: int = 0


def run_fig4(config: Fig4Config | None = None) -> List[Dict]:
    """Encode hybrid-sparse matrices in every format.

    Row keys: ``layer``, ``format``, ``nnz``, ``data_bits``, ``metadata_bits``,
    ``total_bits``, ``metadata_vs_crisp`` (the Fig. 4 overhead ratio).
    """
    config = config or Fig4Config()
    rng = np.random.default_rng(config.seed)
    hybrid_config = HybridSparsityConfig(config.n, config.m, config.block_size)

    rows: List[Dict] = []
    for name, rows_dim, cols_dim in config.layer_shapes:
        weight = rng.normal(size=(rows_dim, cols_dim))
        mask, _ = hybrid_mask(
            np.abs(weight), hybrid_config, target_sparsity=config.target_sparsity
        )
        sparse_weight = weight * mask

        summaries = compare_formats(
            sparse_weight,
            n=config.n,
            m=config.m,
            block_size=config.block_size,
        )
        crisp_meta = summaries["crisp"].metadata_bits
        for fmt_name, summary in summaries.items():
            rows.append(
                {
                    "layer": name,
                    "format": fmt_name,
                    "nnz": summary.nnz,
                    "data_bits": summary.data_bits,
                    "metadata_bits": summary.metadata_bits,
                    "total_bits": summary.total_bits,
                    "metadata_vs_crisp": (
                        summary.metadata_bits / crisp_meta if crisp_meta else float("inf")
                    ),
                }
            )
    return rows


def aggregate_overheads(rows: List[Dict]) -> Dict[str, float]:
    """Average metadata-overhead ratio (vs. CRISP) per format across layers."""
    totals: Dict[str, List[float]] = {}
    for row in rows:
        totals.setdefault(row["format"], []).append(row["metadata_vs_crisp"])
    return {fmt: float(np.mean(vals)) for fmt, vals in totals.items()}
