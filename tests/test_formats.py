"""Tests for sparse storage formats and metadata accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crisp_loop_oracle import assert_same_encoding, crisp_from_dense_loop
from repro.backend.fast import crisp_matmul_fast
from repro.sparsity.formats import (
    BlockedEllpackFormat,
    CRISPFormat,
    CSRFormat,
    DenseFormat,
    ELLPACKFormat,
    compare_formats,
    paper_block_metadata_bits,
    paper_nm_metadata_bits,
)
from repro.sparsity.hybrid import HybridSparsityConfig, hybrid_mask
from repro.sparsity.masks import check_nm_compliance
from repro.sparsity.nm import nm_mask


def make_hybrid_matrix(rng, rows=32, cols=32, n=2, m=4, block_size=8, keep=2):
    """A random matrix pruned to a valid hybrid pattern."""
    weight = rng.normal(size=(rows, cols))
    mask, _ = hybrid_mask(np.abs(weight), HybridSparsityConfig(n, m, block_size), keep_blocks_per_row=keep)
    return weight * mask


def make_ragged_matrix(rng, rows=21, cols=30, block_size=8):
    """An unaligned matrix with an empty block-row and 2 / 0 / 1 retained tiles per row."""
    matrix = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.6)
    matrix[:block_size, 2 * block_size :] = 0.0  # block-row 0 keeps tiles 0 and 1
    matrix[block_size : 2 * block_size] = 0.0  # block-row 1 is empty
    matrix[2 * block_size :, : 3 * block_size] = 0.0  # block-row 2 keeps the ragged last tile
    return matrix


@st.composite
def crisp_encode_cases(draw):
    """``(matrix, n, block_size)`` over everything the encoder branches on.

    Shapes 1-70 either side (aligned and not), n in {1, 2, 3} of m = 4, three
    block sizes; values that are all zero, N:M compliant, violating, or
    violating with many equal magnitudes (small integers, so the tie-break
    decides); tiles dropped at random so blocks-per-row is ragged, optionally
    with a whole block-row emptied; C or Fortran order (the engine hands in a
    transposed view).
    """
    rows, cols = draw(st.integers(1, 70)), draw(st.integers(1, 70))
    n = draw(st.sampled_from([1, 2, 3]))
    block_size = draw(st.sampled_from([4, 8, 16]))
    values = draw(st.sampled_from(["zero", "compliant", "violating", "ties"]))
    tile_keep = draw(st.sampled_from([0.3, 0.7, 1.0]))
    empty_block_row = draw(st.booleans())
    fortran = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    matrix = rng.normal(size=(rows, cols))
    if values == "zero":
        matrix[:] = 0.0
    elif values == "compliant":
        matrix *= nm_mask(rng.random((rows, cols)), n, 4, axis=0)
    elif values == "ties":
        matrix = np.round(matrix)
    block_rows, block_cols = -(-rows // block_size), -(-cols // block_size)
    tile_on = rng.random((block_rows, block_cols)) < tile_keep
    if empty_block_row:
        tile_on[rng.integers(block_rows)] = False
    matrix *= np.kron(tile_on, np.ones((block_size, block_size)))[:rows, :cols]
    return (np.asfortranarray(matrix) if fortran else matrix), n, block_size


class TestDenseFormat:
    def test_roundtrip_and_summary(self, rng):
        matrix = rng.normal(size=(8, 8))
        fmt = DenseFormat.from_dense(matrix)
        np.testing.assert_allclose(fmt.to_dense(), matrix)
        summary = fmt.summary()
        assert summary.metadata_bits == 0
        assert summary.data_bits == 64 * 8


class TestCSRFormat:
    def test_roundtrip(self, rng):
        matrix = rng.normal(size=(10, 12)) * (rng.random((10, 12)) < 0.3)
        fmt = CSRFormat.from_dense(matrix)
        np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_nnz_counted(self, rng):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = 2.0
        matrix[3, 2] = -1.0
        summary = CSRFormat.from_dense(matrix).summary()
        assert summary.nnz == 2

    def test_metadata_scales_with_nnz(self, rng):
        sparse = rng.normal(size=(16, 16)) * (rng.random((16, 16)) < 0.2)
        dense = rng.normal(size=(16, 16))
        assert (
            CSRFormat.from_dense(dense).summary().metadata_bits
            > CSRFormat.from_dense(sparse).summary().metadata_bits
        )

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            CSRFormat.from_dense(rng.normal(size=8))

    def test_empty_matrix(self):
        fmt = CSRFormat.from_dense(np.zeros((3, 3)))
        np.testing.assert_allclose(fmt.to_dense(), 0.0)
        assert fmt.summary().nnz == 0


class TestELLPACKFormat:
    def test_roundtrip(self, rng):
        matrix = rng.normal(size=(6, 9)) * (rng.random((6, 9)) < 0.4)
        fmt = ELLPACKFormat.from_dense(matrix)
        np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_padding_penalty(self):
        """One dense row forces padding slots on every other row."""
        matrix = np.zeros((4, 8))
        matrix[0] = 1.0  # row 0 dense, rest empty
        summary = ELLPACKFormat.from_dense(matrix).summary()
        # 4 rows x 8 slots even though only 8 values exist.
        assert summary.data_bits == 4 * 8 * 8
        assert summary.nnz == 8

    def test_metadata_at_least_csr_for_irregular(self, rng):
        matrix = rng.normal(size=(12, 16))
        matrix[rng.random((12, 16)) < 0.7] = 0.0
        matrix[0] = rng.normal(size=16)  # make one row dense
        ell = ELLPACKFormat.from_dense(matrix).summary()
        csr = CSRFormat.from_dense(matrix).summary()
        assert ell.metadata_bits >= csr.metadata_bits


class TestBlockedEllpackFormat:
    def test_roundtrip(self, rng):
        matrix = make_hybrid_matrix(rng)
        fmt = BlockedEllpackFormat.from_dense(matrix, block_size=8)
        np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_roundtrip_unaligned_shape(self, rng):
        matrix = rng.normal(size=(10, 13)) * (rng.random((10, 13)) < 0.5)
        fmt = BlockedEllpackFormat.from_dense(matrix, block_size=4)
        np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_metadata_one_index_per_block(self, rng):
        matrix = make_hybrid_matrix(rng, keep=2)
        fmt = BlockedEllpackFormat.from_dense(matrix, block_size=8)
        summary = fmt.summary()
        stored_blocks = int(fmt.blocks_per_row.sum())
        assert stored_blocks == 4 * 2  # 4 block-rows, 2 kept each
        assert summary.metadata_bits == stored_blocks * 2  # ceil(log2(4 block cols)) = 2

    def test_summary_counts_stored_blocks(self, rng):
        """``nnz`` comes from the stored blocks, with no decode, and is the matrix's."""
        for matrix, block_size in (
            (make_hybrid_matrix(rng), 8),
            (make_ragged_matrix(rng), 8),
            (np.zeros((5, 9)), 4),
        ):
            fmt = BlockedEllpackFormat.from_dense(matrix, block_size=block_size)
            summary = fmt.summary()
            stored_blocks = int(fmt.blocks_per_row.sum())
            assert summary.nnz == np.count_nonzero(matrix) == np.count_nonzero(fmt.to_dense())
            assert summary.data_bits == stored_blocks * block_size * block_size * 8
            index_bits = max(1, int(np.ceil(np.log2(-(-matrix.shape[1] // block_size)))))
            assert summary.metadata_bits == stored_blocks * index_bits


class TestCRISPFormat:
    def test_roundtrip_on_hybrid_matrix(self, rng):
        matrix = make_hybrid_matrix(rng)
        fmt = CRISPFormat.from_dense(matrix, n=2, m=4, block_size=8)
        assert fmt.is_lossless
        np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_roundtrip_1_4_and_3_4(self, rng):
        for n in (1, 3):
            matrix = make_hybrid_matrix(rng, n=n, m=4)
            fmt = CRISPFormat.from_dense(matrix, n=n, m=4, block_size=8)
            assert fmt.is_lossless
            np.testing.assert_allclose(fmt.to_dense(), matrix)

    def test_lossy_on_violating_matrix(self, rng):
        matrix = rng.normal(size=(16, 16))  # dense: violates 2:4 everywhere
        fmt = CRISPFormat.from_dense(matrix, n=2, m=4, block_size=8)
        assert not fmt.is_lossless
        decoded = fmt.to_dense()
        # The decoded matrix satisfies 2:4 (keeps the 2 largest per group).
        mask = (decoded != 0).astype(float)
        from repro.sparsity.masks import check_nm_compliance

        assert check_nm_compliance(mask, 2, 4, axis=0)

    def test_block_size_must_be_multiple_of_m(self, rng):
        with pytest.raises(ValueError):
            CRISPFormat.from_dense(rng.normal(size=(8, 8)), n=2, m=4, block_size=6)

    def test_metadata_cheaper_than_csr_and_ellpack(self, rng):
        matrix = make_hybrid_matrix(rng, rows=64, cols=64, block_size=16, keep=2)
        summaries = compare_formats(matrix, n=2, m=4, block_size=16)
        crisp = summaries["crisp"].metadata_bits
        assert summaries["csr"].metadata_bits > crisp
        assert summaries["ellpack"].metadata_bits > crisp

    def test_metadata_offsets_cost(self, rng):
        matrix = make_hybrid_matrix(rng, rows=16, cols=16, block_size=8, keep=1)
        fmt = CRISPFormat.from_dense(matrix, n=2, m=4, block_size=8)
        summary = fmt.summary()
        stored_blocks = int(fmt.blocks_per_row.sum())
        values = stored_blocks * (8 // 4) * 8 * 2
        assert summary.data_bits == values * 8
        # 2-bit offsets per value + 1-bit-minimum block index per block.
        assert summary.metadata_bits == values * 2 + stored_blocks * 1

    def test_summary_counts_stored_values(self, rng):
        """``nnz`` comes from ``group_values``, with no decode: the matrix's own
        count when lossless, the decode's when a violating matrix lost values."""
        for matrix, lossless in (
            (make_hybrid_matrix(rng), True),
            (make_ragged_matrix(rng) * nm_mask(rng.random((21, 30)), 2, 4, axis=0), True),
            (make_ragged_matrix(rng), False),
            (np.zeros((5, 9)), True),
        ):
            fmt = CRISPFormat.from_dense(matrix, n=2, m=4, block_size=8)
            summary = fmt.summary()
            assert fmt.is_lossless == lossless
            assert summary.nnz == np.count_nonzero(fmt.to_dense())
            if lossless:
                assert summary.nnz == np.count_nonzero(matrix)
            stored_blocks = int(fmt.blocks_per_row.sum())
            values = stored_blocks * (8 // 4) * 8 * 2
            index_bits = max(1, int(np.ceil(np.log2(-(-matrix.shape[1] // 8)))))
            assert summary.data_bits == values * 8
            assert summary.metadata_bits == values * 2 + stored_blocks * index_bits

    @pytest.mark.parametrize(
        "column, offsets, values",
        [
            ([1.0, -1.0, 1.0, -1.0], [2, 3], [1.0, -1.0]),
            ([2.0, 1.0, 1.0, 1.0], [0, 3], [2.0, 1.0]),
        ],
    )
    def test_lossy_tie_break_keeps_the_later_row(self, column, offsets, values):
        matrix = np.zeros((4, 4))
        matrix[:, 1] = column
        fmt = CRISPFormat.from_dense(matrix, n=2, m=4, block_size=4)
        assert fmt.is_lossless is False
        np.testing.assert_array_equal(fmt.group_offsets[0, 0, 0, 1], offsets)
        np.testing.assert_array_equal(fmt.group_values[0, 0, 0, 1], values)
        assert check_nm_compliance((fmt.to_dense() != 0).astype(float), 2, 4, axis=0)

    @given(crisp_encode_cases())
    @settings(max_examples=150, deadline=None)
    def test_property_encoder_matches_loop_oracle(self, case):
        matrix, n, block_size = case
        fmt = CRISPFormat.from_dense(matrix, n=n, m=4, block_size=block_size)
        assert_same_encoding(fmt, crisp_from_dense_loop(matrix, n, 4, block_size))

        # What to_dense and the kernels read without checking: padding is
        # value 0 *and* offset 0; a group's kept values are a prefix of its n
        # positions, with strictly ascending offsets.
        stored = fmt.group_values != 0
        assert not fmt.group_offsets[~stored].any()
        assert not (stored[..., 1:] & ~stored[..., :-1]).any()
        assert (np.diff(fmt.group_offsets, axis=-1)[stored[..., 1:]] > 0).all()
        assert fmt.group_values.shape[1] == max(1, int(fmt.blocks_per_row.max()))

        activations = np.random.default_rng(0).normal(size=(matrix.shape[0], 3))
        np.testing.assert_allclose(
            crisp_matmul_fast(fmt, activations), fmt.to_dense().T @ activations, atol=1e-10
        )


class TestCompareFormats:
    def test_all_formats_present(self, rng):
        matrix = make_hybrid_matrix(rng)
        summaries = compare_formats(matrix, block_size=8)
        assert set(summaries) == {"dense", "csr", "ellpack", "blocked-ellpack", "crisp"}

    def test_overhead_ratio_helper(self, rng):
        matrix = make_hybrid_matrix(rng)
        summaries = compare_formats(matrix, block_size=8)
        ratio = summaries["csr"].metadata_overhead_vs(summaries["crisp"])
        assert ratio > 1.0

    @given(st.sampled_from([(1, 4), (2, 4), (3, 4)]), st.sampled_from([8, 16]))
    @settings(max_examples=12, deadline=None)
    def test_property_roundtrips(self, nm_pair, block_size):
        n, m = nm_pair
        rng = np.random.default_rng(n * 13 + block_size)
        matrix = make_hybrid_matrix(
            rng, rows=block_size * 3, cols=block_size * 2, n=n, m=m, block_size=block_size, keep=1
        )
        for cls, kwargs in (
            (CSRFormat, {}),
            (ELLPACKFormat, {}),
            (BlockedEllpackFormat, {"block_size": block_size}),
            (CRISPFormat, {"n": n, "m": m, "block_size": block_size}),
        ):
            fmt = cls.from_dense(matrix, **kwargs)
            np.testing.assert_allclose(fmt.to_dense(), matrix, err_msg=cls.__name__)


class TestPaperFormulas:
    def test_block_formula_positive_and_scales(self):
        small = paper_block_metadata_bits(s=64, k=576, k_prime=144, block_size=16)
        large = paper_block_metadata_bits(s=64, k=576, k_prime=288, block_size=16)
        assert 0 < small < large

    def test_block_formula_bigger_blocks_cost_less(self):
        b16 = paper_block_metadata_bits(s=64, k=576, k_prime=288, block_size=16)
        b64 = paper_block_metadata_bits(s=64, k=576, k_prime=288, block_size=64)
        assert b64 < b16

    def test_block_formula_invalid(self):
        with pytest.raises(ValueError):
            paper_block_metadata_bits(s=64, k=100, k_prime=0, block_size=16)

    def test_nm_formula(self):
        # S * K' * (N/M) * floor(log2(M)) = 64 * 128 * 0.5 * 2
        assert paper_nm_metadata_bits(64, 128, 2, 4) == pytest.approx(64 * 128 * 0.5 * 2)

    def test_nm_formula_invalid(self):
        with pytest.raises(ValueError):
            paper_nm_metadata_bits(64, 128, 5, 4)
