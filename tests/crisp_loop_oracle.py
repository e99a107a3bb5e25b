"""The loop CRISP encoder, kept as the oracle for ``CRISPFormat.from_dense``.

This is the block-row -> slot -> group -> column -> non-zero walk that lived
in ``src/repro/sparsity/formats.py`` until the encoder became one NumPy pass.
It is slow and obviously right, so it stays here as the reference the
array-at-a-time encoder is compared against, bit for bit
(``tests/test_formats.py``, ``tests/test_engine_lifecycle.py``, and the
``crisp_encode`` row of ``benchmarks/bench_kernels.py``).

The body is the old one verbatim except for ``kind="stable"`` on the lossy
path's ``argsort``: the old default-kind sort kept the *later* row among
equal magnitudes on every host it ran on, and the oracle states that rule
rather than inheriting whatever sort a NumPy build picks for tiny arrays.
"""

from __future__ import annotations

import numpy as np

from repro.sparsity.block import partition_into_blocks
from repro.sparsity.formats import DEFAULT_VALUE_BITS, CRISPFormat


def crisp_from_dense_loop(
    matrix: np.ndarray,
    n: int,
    m: int,
    block_size: int,
    value_bits: int = DEFAULT_VALUE_BITS,
) -> CRISPFormat:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"Expected a 2-D matrix, got shape {matrix.shape}")
    if block_size % m != 0:
        raise ValueError(
            f"block_size ({block_size}) must be a multiple of M ({m}) so groups do not straddle blocks"
        )
    tiles, grid = partition_into_blocks(matrix, block_size)
    nonzero = tiles.reshape(grid.block_rows, grid.block_cols, -1).any(axis=2)
    blocks_per_row = nonzero.sum(axis=1).astype(np.int64)
    slots = max(1, int(blocks_per_row.max()))
    groups_per_block = block_size // m

    block_cols = np.zeros((grid.block_rows, slots), dtype=np.int64)
    group_values = np.zeros((grid.block_rows, slots, groups_per_block, block_size, n))
    group_offsets = np.zeros(
        (grid.block_rows, slots, groups_per_block, block_size, n), dtype=np.uint8
    )
    lossless = True

    for br in range(grid.block_rows):
        cols = np.nonzero(nonzero[br])[0]
        for slot, bc in enumerate(cols):
            block = tiles[br, bc]  # (B, B): rows x cols within block
            block_cols[br, slot] = bc
            for g in range(groups_per_block):
                group = block[g * m : (g + 1) * m, :]  # (m, B) rows-within-group x block cols
                for col in range(block_size):
                    column = group[:, col]
                    nz = np.nonzero(column)[0]
                    if len(nz) > n:
                        lossless = False
                        order = np.argsort(np.abs(column[nz]), kind="stable")[::-1]
                        nz = np.sort(nz[order[:n]])
                    for k, offset in enumerate(nz):
                        group_values[br, slot, g, col, k] = column[offset]
                        group_offsets[br, slot, g, col, k] = offset

    return CRISPFormat(
        shape=matrix.shape,
        n=n,
        m=m,
        block_size=block_size,
        block_cols=block_cols,
        blocks_per_row=blocks_per_row,
        group_values=group_values,
        group_offsets=group_offsets,
        is_lossless=lossless,
        value_bits=value_bits,
    )


def assert_same_encoding(actual: CRISPFormat, expected: CRISPFormat) -> None:
    """The encode contract: four arrays (shape, dtype, bits) and the flag."""
    for field in ("block_cols", "blocks_per_row", "group_values", "group_offsets"):
        got, want = getattr(actual, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        np.testing.assert_array_equal(got, want, err_msg=field)
        assert got.tobytes() == want.tobytes(), field  # -0.0 is not 0.0 here
    assert actual.is_lossless is expected.is_lossless  # a plain bool, both sides
