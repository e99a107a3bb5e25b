#!/usr/bin/env python
"""Sparse-format study: metadata cost and functional correctness of the CRISP format.

Reproduces the storage analysis of Sec. III-A / Fig. 4 (right):

* a weight matrix is pruned to the hybrid pattern (N:M inside uniformly
  retained blocks),
* it is encoded as CSR, ELLPACK, Blocked-Ellpack and the CRISP hybrid format,
* metadata and total bits are compared, and
* the CRISP-format GEMM (block gather + N:M multiplexing, the Fig. 6
  datapath) is checked against the dense reference.

Run with:  python examples/format_comparison.py
"""

import numpy as np

from repro.experiments import format_table
from repro.sparsity import (
    CRISPFormat,
    HybridSparsityConfig,
    compare_formats,
    hybrid_mask,
    masked_matmul,
    paper_block_metadata_bits,
    paper_nm_metadata_bits,
    sparse_matmul,
)


def main() -> None:
    rng = np.random.default_rng(0)

    # A reshaped (HWR, S) weight matrix the size of a mid-network conv layer.
    rows, cols = 576, 128
    config = HybridSparsityConfig(n=2, m=4, block_size=16)
    weight = rng.normal(size=(rows, cols))
    mask, info = hybrid_mask(np.abs(weight), config, target_sparsity=0.875)
    sparse_weight = weight * mask
    print(f"hybrid pattern {config}: sparsity={info.achieved_sparsity:.3f}, "
          f"keep {info.keep_blocks_per_row}/{info.block_cols} blocks per row, "
          f"N:M compliant={info.nm_compliant}, uniform rows={info.uniform_rows}")

    # 1. Storage comparison.
    summaries = compare_formats(sparse_weight, n=2, m=4, block_size=16)
    crisp_meta = summaries["crisp"].metadata_bits
    table = [
        {
            "format": name,
            "data_KiB": s.data_bits / 8 / 1024,
            "metadata_KiB": s.metadata_bits / 8 / 1024,
            "total_KiB": s.total_bits / 8 / 1024,
            "metadata_vs_crisp": s.metadata_bits / crisp_meta if crisp_meta else float("inf"),
        }
        for name, s in summaries.items()
    ]
    print("\nstorage cost per format:")
    print(format_table(table))

    # 2. The paper's closed-form metadata estimates for the same shape.
    keep_cols = int(info.block_keep_ratio * rows)
    block_bits = paper_block_metadata_bits(s=cols, k=rows, k_prime=max(keep_cols, 16), block_size=16)
    nm_bits = paper_nm_metadata_bits(s=cols, k_prime=max(keep_cols, 16), n=2, m=4)
    print(f"\npaper formula estimates: block metadata ~{block_bits/8/1024:.2f} KiB, "
          f"N:M metadata ~{nm_bits/8/1024:.2f} KiB")

    # 3. Functional check of the CRISP datapath.
    fmt = CRISPFormat.from_dense(sparse_weight, n=2, m=4, block_size=16)
    activations = rng.normal(size=(rows, 8))
    reference = masked_matmul(weight, mask, activations)
    pipeline = sparse_matmul(fmt, activations)
    error = np.max(np.abs(reference - pipeline))
    print(f"\nCRISP-format GEMM vs dense reference: max abs error = {error:.2e} "
          f"(lossless encoding: {fmt.is_lossless})")


if __name__ == "__main__":
    main()
