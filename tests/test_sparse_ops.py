"""Tests for the reference sparse GEMM kernels (functional accelerator models)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sparsity.formats import BlockedEllpackFormat, CRISPFormat, CSRFormat
from repro.sparsity.hybrid import HybridSparsityConfig, hybrid_mask
from repro.sparsity.sparse_ops import (
    dense_matmul,
    effective_macs,
    masked_matmul,
    sparse_matmul,
)


def hybrid_weight(rng, rows=32, cols=16, n=2, m=4, block_size=8, keep=2):
    weight = rng.normal(size=(rows, cols))
    mask, _ = hybrid_mask(
        np.abs(weight), HybridSparsityConfig(n, m, block_size), keep_blocks_per_row=keep
    )
    return weight * mask, mask


class TestDenseAndMasked:
    def test_dense_matmul(self, rng):
        w = rng.normal(size=(6, 4))
        a = rng.normal(size=(6, 3))
        np.testing.assert_allclose(dense_matmul(w, a), w.T @ a)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            dense_matmul(rng.normal(size=(6, 4)), rng.normal(size=(5, 3)))

    def test_masked_equals_dense_of_masked_weight(self, rng):
        w = rng.normal(size=(8, 4))
        mask = (rng.random((8, 4)) < 0.5).astype(float)
        a = rng.normal(size=(8, 2))
        np.testing.assert_allclose(masked_matmul(w, mask, a), (w * mask).T @ a)


class TestFormatMatmuls:
    def test_csr_matches_dense(self, rng):
        w = rng.normal(size=(10, 6)) * (rng.random((10, 6)) < 0.4)
        a = rng.normal(size=(10, 5))
        fmt = CSRFormat.from_dense(w)
        np.testing.assert_allclose(sparse_matmul(fmt, a), w.T @ a, atol=1e-10)

    def test_csr_activation_mismatch(self, rng):
        fmt = CSRFormat.from_dense(rng.normal(size=(4, 4)))
        with pytest.raises(ValueError):
            sparse_matmul(fmt, rng.normal(size=(5, 2)))

    def test_blocked_ellpack_matches_dense(self, rng):
        w, _ = hybrid_weight(rng)
        a = rng.normal(size=(32, 4))
        fmt = BlockedEllpackFormat.from_dense(w, block_size=8)
        np.testing.assert_allclose(sparse_matmul(fmt, a), w.T @ a, atol=1e-10)

    def test_blocked_ellpack_unaligned(self, rng):
        w = rng.normal(size=(10, 6)) * (rng.random((10, 6)) < 0.5)
        a = rng.normal(size=(10, 3))
        fmt = BlockedEllpackFormat.from_dense(w, block_size=4)
        np.testing.assert_allclose(sparse_matmul(fmt, a), w.T @ a, atol=1e-10)

    def test_crisp_matches_dense(self, rng):
        w, _ = hybrid_weight(rng)
        a = rng.normal(size=(32, 4))
        fmt = CRISPFormat.from_dense(w, n=2, m=4, block_size=8)
        np.testing.assert_allclose(sparse_matmul(fmt, a), w.T @ a, atol=1e-10)

    def test_crisp_activation_mismatch(self, rng):
        w, _ = hybrid_weight(rng)
        fmt = CRISPFormat.from_dense(w, n=2, m=4, block_size=8)
        with pytest.raises(ValueError):
            sparse_matmul(fmt, rng.normal(size=(16, 2)))

    @given(st.sampled_from([(1, 4), (2, 4), (3, 4)]), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_property_crisp_pipeline_equals_reference(self, nm_pair, keep):
        """The two-stage CRISP datapath (block gather + N:M mux) computes the
        same GEMM as the masked dense reference, for any supported pattern."""
        n, m = nm_pair
        rng = np.random.default_rng(n * 17 + keep)
        w, mask = hybrid_weight(rng, rows=24, cols=16, n=n, m=m, block_size=8, keep=min(keep, 2))
        a = rng.normal(size=(24, 3))
        fmt = CRISPFormat.from_dense(w, n=n, m=m, block_size=8)
        np.testing.assert_allclose(sparse_matmul(fmt, a), masked_matmul(w, mask, a), atol=1e-10)


class TestEffectiveMacs:
    def test_counts(self):
        mask = np.array([[1, 0], [1, 1]])
        assert effective_macs(mask, batch=1) == 3
        assert effective_macs(mask, batch=4) == 12
