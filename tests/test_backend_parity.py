"""Parity tests: every sparse kernel on every backend vs. the masked GEMM.

The ``reference`` backend is the correctness oracle (bit-exact with the
pre-backend code); the ``fast`` backend must agree with both the oracle and
the dense ``masked_matmul`` reference to 1e-8 across randomized shapes, N:M
ratios and block sizes.  The suite also pins the engine, the backend
registry, the workspace cache and the backend interface (a ``Module``'s
own forward/backward is ``nn.functional`` and has no backend to compare).
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backend import Backend, Engine, FastBackend, available_backends, get_backend
from repro.backend.fast import (
    DENSE_OPERAND_MAX_ENTRIES,
    _crisp_operand,
    blocked_ellpack_matmul_fast,
    crisp_matmul_fast,
)
from repro.hw import workloads_from_engine, workloads_from_model
from repro.nn import functional as F
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.sparsity import (
    BlockedEllpackFormat,
    CRISPFormat,
    CSRFormat,
    HybridSparsityConfig,
    hybrid_mask,
    masked_matmul,
    sparse_matmul,
)
from repro.sparsity.formats import encode
from repro.sparsity.sparse_ops import crisp_matmul_reference

BACKENDS = ["reference", "fast"]

#: Randomized (rows, cols) weight shapes, including block-unaligned ones.
SHAPES = [(32, 16), (24, 40), (64, 64), (17, 9), (40, 23), (128, 48)]


def random_sparse(rng, rows, cols, density=0.35):
    return rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)


def hybrid_weight(rng, rows, cols, n, m, block_size, keep=None):
    weight = rng.normal(size=(rows, cols))
    block_cols = -(-cols // block_size)
    keep = keep if keep is not None else max(1, block_cols // 2)
    mask, _ = hybrid_mask(
        np.abs(weight),
        HybridSparsityConfig(n, m, block_size),
        keep_blocks_per_row=min(keep, block_cols),
    )
    return weight * mask, mask


class TestRegistry:
    def test_both_backends_registered(self):
        assert {"reference", "fast"} <= set(available_backends())

    def test_get_backend_singleton(self):
        assert get_backend("fast") is get_backend("fast")

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_backend("turbo")

    def test_sparse_matmul_rejects_unknown_format(self):
        with pytest.raises(TypeError):
            get_backend("fast").sparse_matmul(object(), np.zeros((4, 2)))


class TestSparseKernelParity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_csr_matches_masked_matmul(self, rng, backend, shape):
        rows, cols = shape
        weight = random_sparse(rng, rows, cols)
        acts = rng.normal(size=(rows, 6))
        fmt = CSRFormat.from_dense(weight)
        out = sparse_matmul(fmt, acts, backend=backend)
        expected = masked_matmul(weight, (weight != 0).astype(float), acts)
        np.testing.assert_allclose(out, expected, atol=1e-8)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("block_size", [4, 8, 16])
    def test_blocked_ellpack_matches_masked_matmul(self, rng, backend, shape, block_size):
        rows, cols = shape
        weight = random_sparse(rng, rows, cols)
        acts = rng.normal(size=(rows, 5))
        fmt = BlockedEllpackFormat.from_dense(weight, block_size)
        out = sparse_matmul(fmt, acts, backend=backend)
        expected = masked_matmul(weight, (weight != 0).astype(float), acts)
        np.testing.assert_allclose(out, expected, atol=1e-8)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("nm", [(1, 4), (2, 4), (2, 8), (4, 8)])
    @pytest.mark.parametrize("block_size", [8, 16])
    def test_crisp_matches_masked_matmul(self, rng, backend, nm, block_size):
        n, m = nm
        weight, mask = hybrid_weight(rng, 64, 32, n, m, block_size)
        acts = rng.normal(size=(64, 4))
        fmt = CRISPFormat.from_dense(weight, n, m, block_size)
        assert fmt.is_lossless
        out = sparse_matmul(fmt, acts, backend=backend)
        np.testing.assert_allclose(out, masked_matmul(weight, mask, acts), atol=1e-8)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_weight(self, backend, rng):
        fmt = CSRFormat.from_dense(np.zeros((6, 4)))
        out = sparse_matmul(fmt, rng.normal(size=(6, 3)), backend=backend)
        np.testing.assert_allclose(out, np.zeros((4, 3)))

    @given(
        nm=st.sampled_from([(1, 4), (2, 4), (3, 4), (2, 8)]),
        block_size=st.sampled_from([8, 16]),
        rows=st.integers(2, 6),
        cols=st.integers(1, 5),
        batch=st.integers(1, 6),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_all_formats_all_backends(self, nm, block_size, rows, cols, batch, seed):
        """Randomized shapes / N:M ratios / block sizes: every format on both
        backends reproduces the masked dense GEMM."""
        n, m = nm
        rng = np.random.default_rng(seed)
        rows, cols = rows * block_size, cols * block_size
        weight, mask = hybrid_weight(rng, rows, cols, n, m, block_size)
        acts = rng.normal(size=(rows, batch))
        expected = masked_matmul(weight, mask, acts)

        formats = [
            CSRFormat.from_dense(weight),
            BlockedEllpackFormat.from_dense(weight, block_size),
            CRISPFormat.from_dense(weight, n, m, block_size),
        ]
        for backend in BACKENDS:
            be = get_backend(backend)
            for fmt in formats:
                np.testing.assert_allclose(
                    be.sparse_matmul(fmt, acts), expected, atol=1e-8
                )


def reassembled(fmt):
    """The matrix the fast kernel's decoded ``row_tiles`` operand stands for."""
    row_tiles, _ = fmt.derived["tile_gemm"]
    block = fmt.block_size
    block_rows, slots = fmt.block_cols.shape
    tiles = row_tiles.reshape(block_rows, slots, block, block)  # [r, s, col, row]
    padded = np.zeros((block_rows * block, -(-fmt.shape[1] // block) * block))
    for r in range(block_rows):
        for s in range(slots):
            if s < fmt.blocks_per_row[r]:
                c = fmt.block_cols[r, s]
                padded[r * block : (r + 1) * block, c * block : (c + 1) * block] = tiles[r, s].T
            else:
                assert not tiles[r, s].any()  # slot padding decodes to nothing
    return padded[: fmt.shape[0], : fmt.shape[1]]


def _nonzero_row_tiles(fmt):
    """CRISP's row tiles as the fast backend once built them: a 5-D ``np.nonzero``
    gather of the non-zero stored values (the oracle of the flat index)."""
    block_rows, slots = fmt.block_cols.shape
    block, m = fmt.block_size, fmt.m
    tiles = np.zeros((block_rows, slots, block, block // m, m))
    br, slot, g, col, k = np.nonzero(fmt.group_values)
    tiles[br, slot, col, g, fmt.group_offsets[br, slot, g, col, k]] = fmt.group_values[
        br, slot, g, col, k
    ]
    return tiles.reshape(block_rows, slots * block, block)


class TestTileGemmDecode:
    """CRISP's N:M offsets are resolved once, into the operand Blocked-Ellpack
    uses; what that operand holds must be exactly what the encoding holds."""

    @given(
        nm=st.sampled_from([(1, 4), (2, 4), (3, 4), (2, 8)]),
        block_size=st.sampled_from([8, 16]),
        rows=st.integers(65, 100),  # rows * cols > DENSE_OPERAND_MAX_ENTRIES: tiles
        cols=st.integers(65, 100),
        density=st.sampled_from([0.08, 0.4, 0.95]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_decoded_row_tiles_are_to_dense_bit_for_bit(
        self, nm, block_size, rows, cols, density, seed
    ):
        """Any shape, any pattern: sparse groups leave padding beside a weight
        at offset 0, dense ones violate N:M (a lossy encode), dropped tiles
        leave block-rows of different widths (slot padding)."""
        n, m = nm
        rng = np.random.default_rng(seed)
        weight = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
        grid = (-(-rows // block_size), -(-cols // block_size))
        kept = np.kron(rng.random(grid) < 0.6, np.ones((block_size, block_size)))
        weight = weight * kept[:rows, :cols]
        fmt = CRISPFormat.from_dense(weight, n, m, block_size)
        acts = rng.normal(size=(rows, 1))

        out = crisp_matmul_fast(fmt, acts)  # batch width 1; builds the operand
        dense = fmt.to_dense()
        assert fmt.is_lossless == np.array_equal(dense, weight)
        assert reassembled(fmt).tobytes() == dense.tobytes()
        np.testing.assert_allclose(out, crisp_matmul_reference(fmt, acts), atol=1e-8)
        np.testing.assert_allclose(out, dense.T @ acts, atol=1e-8)

    def test_offset_zero_weight_survives_the_padding_beside_it(self):
        weight = np.zeros((64, 72))  # large enough to multiply as tiles
        weight[0, 3], weight[4, 3], weight[6, 3] = 5.0, -2.0, 7.0
        fmt = CRISPFormat.from_dense(weight, 2, 4, 8)
        # Group 0 of column 3 keeps one weight, at offset 0; its second
        # position is padding, which also says offset 0.
        assert fmt.group_values[0, 0, 0, 3].tolist() == [5.0, 0.0]
        assert fmt.group_offsets[0, 0, 0, 3].tolist() == [0, 0]
        np.testing.assert_array_equal(crisp_matmul_fast(fmt, np.eye(64)), weight.T)
        assert reassembled(fmt).tobytes() == weight.tobytes()
        assert _crisp_operand(fmt, "dense_t").tobytes() == weight.T.tobytes()

    @given(
        nm=st.sampled_from([(1, 4), (2, 4), (3, 4), (2, 8)]),
        block_size=st.sampled_from([8, 16]),
        rows=st.integers(1, 40),  # any multiple of B or none
        cols=st.integers(1, 40),
        density=st.sampled_from([0.0, 0.08, 0.4, 0.95]),  # all-zero ... lossy
        scaled=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_indexed_operands_equal_the_decode_and_the_nonzero_gather(
        self, nm, block_size, rows, cols, density, scaled, seed
    ):
        """Both layouts the fast backend places stored values into through
        one flat index: the dense transpose is ``to_dense().T`` byte for
        byte, and the row tiles are what the 5-D ``np.nonzero`` gather made.
        A folded encoding (``scaled``) holds zeros, of either sign, at real
        offsets; an all-zero matrix stores one slot of padding."""
        n, m = nm
        rng = np.random.default_rng(seed)
        weight = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < density)
        fmt = CRISPFormat.from_dense(weight, n, m, block_size)
        if scaled:
            fmt = fmt.scale_columns(rng.choice([0.0, -1.5, 2.0], size=cols))
        if density == 0.0:
            assert fmt.block_cols.shape[1] == 1 and not fmt.group_values.any()
        dense_t = _crisp_operand(fmt, "dense_t")
        assert dense_t.flags.c_contiguous
        assert dense_t.tobytes() == np.ascontiguousarray(fmt.to_dense().T).tobytes()
        tiles, gathered = _crisp_operand(fmt), _nonzero_row_tiles(fmt)
        assert tiles.shape == gathered.shape and tiles.tobytes() == gathered.tobytes()

    def test_lossy_encode_decodes_to_what_was_kept(self, rng):
        weight = rng.normal(size=(80, 60))  # fully dense: violates 2:4 everywhere
        fmt = CRISPFormat.from_dense(weight, 2, 4, 8)
        assert not fmt.is_lossless
        acts = rng.normal(size=(80, 3))
        out = crisp_matmul_fast(fmt, acts)
        assert reassembled(fmt).tobytes() == fmt.to_dense().tobytes()
        np.testing.assert_allclose(out, crisp_matmul_reference(fmt, acts), atol=1e-8)

    def test_one_format_object_serves_every_fused_width(self, rng):
        """Fast vs reference at widths 1..16, and what the first call memoized
        is what every later call uses: nothing is added per width."""
        weight = random_sparse(rng, 72, 60)
        kernels = [
            (crisp_matmul_fast, CRISPFormat.from_dense(weight, 2, 4, 8)),
            (blocked_ellpack_matmul_fast, BlockedEllpackFormat.from_dense(weight, 8)),
        ]
        reference = get_backend("reference")
        for kernel, fmt in kernels:
            assert get_backend("fast").kernels[fmt.name] is kernel
            operands = None
            for width in range(1, 17):
                acts = rng.normal(size=(72, width))
                np.testing.assert_allclose(
                    kernel(fmt, acts), reference.sparse_matmul(fmt, acts), atol=1e-8
                )
                operands = operands or fmt.derived["tile_gemm"]
                assert list(fmt.derived) == ["tile_gemm"]
                assert fmt.derived["tile_gemm"] is operands
            row_tiles, scatter = operands
            assert row_tiles.shape == (9, fmt.block_cols.shape[1] * 8, 8)
            assert scatter.shape == (8, fmt.block_cols.size)


class TestOperandChoice:
    """A tile-format weight of at most ``DENSE_OPERAND_MAX_ENTRIES`` entries
    multiplies as its dense transpose, a larger one as tiles — by shape alone."""

    @pytest.mark.parametrize("weight_format", ["crisp", "blocked-ellpack"])
    def test_the_operand_is_chosen_by_size_and_held_for_every_width(self, weight_format, rng):
        assert DENSE_OPERAND_MAX_ENTRIES == 64 * 64
        reference, fast = get_backend("reference"), get_backend("fast")
        for shape, operand in (((64, 64), "dense_t"), ((64, 65), "tile_gemm")):
            weight, _ = hybrid_weight(rng, *shape, 2, 4, 16)
            fmt = encode(weight_format, weight, 2, 4, 16)
            for width in range(1, 17):
                acts = rng.normal(size=(shape[0], width))
                np.testing.assert_allclose(
                    fast.sparse_matmul(fmt, acts), reference.sparse_matmul(fmt, acts), atol=1e-8
                )
                held = fmt.derived[operand] if width == 1 else held
                assert list(fmt.derived) == [operand]
                assert fmt.derived[operand] is held
            if operand == "dense_t":
                assert held.flags.c_contiguous and held.tobytes() == fmt.to_dense().T.tobytes()


class TestGatherIm2col:
    """``FastBackend.im2col`` is one ``np.take`` through a cached tap index;
    its columns are ``F.im2col``'s byte for byte."""

    backend = FastBackend()

    @staticmethod
    def layouts(x):
        """Plain NCHW, the plan's ``(C, N, H, W)`` memory, a non-contiguous slice."""
        n, c, h, w = x.shape
        plan = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
        wide = np.zeros((n, c + 1, 2 * h, w + 1))
        wide[:, 1:, ::2, :w] = x
        return x, plan, wide[:, 1:, ::2, :w]

    @given(
        n=st.integers(1, 5), c=st.integers(1, 6), h=st.integers(1, 9), w=st.integers(1, 9),
        kernel=st.sampled_from([1, 2, 3, 5]), stride=st.integers(1, 3),
        padding=st.integers(0, 2), seed=st.integers(0, 2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_gather_equals_functional_im2col_byte_for_byte(
        self, n, c, h, w, kernel, stride, padding, seed
    ):
        assume(h + 2 * padding >= kernel and w + 2 * padding >= kernel)
        x = np.random.default_rng(seed).normal(size=(n, c, h, w))
        expected = F.im2col(x, kernel, kernel, stride, padding)
        for view in self.layouts(x):
            columns = self.backend.im2col(view, kernel, kernel, stride, padding)
            assert columns.shape == expected.shape
            assert columns.tobytes() == expected.tobytes()

    def test_the_zero_slot_stays_zero_across_shapes(self, rng):
        # (1, 2, 4, 6), (1, 2, 6, 4) and (2, 2, 3, 4) share one row buffer.
        for shape in [(1, 2, 4, 6), (1, 2, 6, 4), (2, 2, 3, 4), (1, 3, 5, 5), (1, 2, 4, 6)]:
            x = rng.normal(size=shape) + 10.0
            for stride, padding in ((1, 1), (2, 2), (1, 0)):
                np.testing.assert_array_equal(
                    self.backend.im2col(x, 3, 3, stride, padding), F.im2col(x, 3, 3, stride, padding)
                )
        rows = [buf for key, buf in self.backend._workspace._buffers.items() if key[0] == "rows"]
        assert rows and all(not buf[:, -1].any() for buf in rows)

    def test_threads_gather_into_their_own_buffers(self, rng):
        """Four threads (two per input shape) share the two tap indices and
        never see each other's columns."""
        backend = FastBackend()
        inputs = [rng.normal(size=shape) for shape in [(2, 4, 8, 8), (1, 4, 8, 8)] * 2]
        expected = [F.im2col(x, 3, 3, 1, 1).tobytes() for x in inputs]
        mismatches = []
        started = threading.Barrier(len(inputs))  # all alive at once: four thread ids

        def worker(slot):
            started.wait(timeout=60)
            for _ in range(300):
                if backend.im2col(inputs[slot], 3, 3, 1, 1).tobytes() != expected[slot]:
                    mismatches.append(slot)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(len(inputs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        # One tap index per shape, shared; a row and a column buffer per thread.
        assert len(backend._workspace._indices) == 2
        assert backend.workspace_stats()["buffers"] == 8


class TestBackendInterface:
    def test_abstract_surface_is_im2col(self):
        """What a backend must implement: everything else (``sparse_matmul``
        over the ``kernels`` table, the workspace counters) has a default."""
        assert Backend.__abstractmethods__ == frozenset({"im2col"})

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_im2col_agrees_with_functional(self, rng, backend):
        x = rng.normal(size=(2, 3, 9, 7))
        columns = get_backend(backend).im2col(x, 3, 3, stride=2, padding=1)
        np.testing.assert_array_equal(columns, F.im2col(x, 3, 3, 2, 1))

    def test_workspace_cache_reuses_buffers(self, rng):
        backend = FastBackend()
        x = rng.normal(size=(2, 3, 8, 8))
        first = backend.im2col(x, 3, 3, 1, 1)
        second = backend.im2col(x, 3, 3, 1, 1)
        assert first.base is second.base  # same underlying workspace buffer
        np.testing.assert_array_equal(second, F.im2col(x, 3, 3, 1, 1))
        # Two buffers per call — the input rows with their zero slot, and the
        # columns — plus one tap index, all counted in ``bytes``.
        rows, columns, taps = (3, 2 * 8 * 8 + 1), (27, 2 * 8 * 8), (9, 2 * 8 * 8)
        assert backend.workspace_stats() == {
            "hits": 2, "misses": 2, "buffers": 2,
            "bytes": 8 * (np.prod(rows) + np.prod(columns)) + np.intp(0).nbytes * np.prod(taps),
        }
        backend.clear_workspace()
        assert backend.workspace_stats()["buffers"] == 0


def _pruned_model(rng, n=2, m=4, block_size=8):
    model = build_model("resnet_tiny", num_classes=5, input_size=16, seed=0)
    for layer in prunable_layers(model).values():
        w2d = layer.reshaped_weight()
        block_cols = -(-w2d.shape[1] // block_size)
        mask, _ = hybrid_mask(
            np.abs(w2d),
            HybridSparsityConfig(n, m, block_size),
            keep_blocks_per_row=max(1, block_cols - 1),
        )
        layer.set_reshaped_mask(mask)
    return model


class TestEngine:
    @pytest.mark.parametrize("weight_format", ["dense", "csr", "blocked-ellpack", "crisp"])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_matches_model_forward(self, rng, weight_format, backend):
        model = _pruned_model(rng)
        x = rng.normal(size=(3, 3, 16, 16))
        model.eval()
        expected = model(x)
        engine = Engine(
            model, backend=backend, weight_format=weight_format, n=2, m=4, block_size=8
        )
        assert engine.is_lossless
        np.testing.assert_allclose(engine.predict(x), expected, atol=1e-8)
        # The engine never touched the module: its own forward is what it was.
        np.testing.assert_array_equal(model(x), expected)

    def test_predict_many_matches_single_dispatch(self, rng):
        model = _pruned_model(rng)
        engine = Engine(model, backend="fast", weight_format="crisp", n=2, m=4, block_size=8)
        batches = [rng.normal(size=(s, 3, 16, 16)) for s in (1, 3, 2)]
        fused = engine.predict_many(batches)
        assert [o.shape[0] for o in fused] == [1, 3, 2]
        for batch, logits in zip(batches, fused):
            np.testing.assert_allclose(logits, engine.predict(batch), atol=1e-8)

    def test_predict_many_empty(self, rng):
        model = _pruned_model(rng)
        assert Engine(model, backend="fast", weight_format="dense").predict_many([]) == []

    def test_detach_and_attach_keyword_are_accepted_and_do_nothing(self, rng):
        """The two spellings crispbench (frozen for gain PRs) still uses."""
        model = _pruned_model(rng)
        x = rng.normal(size=(1, 3, 16, 16))
        engine = Engine(model, weight_format="dense", attach=False)
        expected = engine.predict(x)
        assert engine.detach() is engine
        np.testing.assert_array_equal(engine.predict(x), expected)

    def test_engine_rejects_unknown_format(self, rng):
        model = _pruned_model(rng)
        with pytest.raises(ValueError):
            Engine(model, weight_format="coo")

    def test_engine_preserves_eval_training_flag(self, rng):
        model = _pruned_model(rng)
        engine = Engine(model, weight_format="dense")
        model.train(True)
        engine.predict(rng.normal(size=(1, 3, 16, 16)))
        assert model.training

    def test_engine_stats_and_storage(self, rng):
        model = _pruned_model(rng)
        engine = Engine(model, backend="fast", weight_format="crisp", n=2, m=4, block_size=8)
        stats = engine.stats()
        assert stats["backend"] == "fast"
        assert stats["weight_format"] == "crisp"
        assert stats["layers"] == len(prunable_layers(model))
        assert stats["total_weight_bits"] > 0
        summaries = engine.format_summaries()
        assert set(summaries) == set(prunable_layers(model))
        # Dense is a format like any other: every element at 8 bits, no metadata.
        dense = Engine(model, backend="fast", weight_format="dense")
        summaries = dense.format_summaries()
        assert set(summaries) == set(prunable_layers(model))
        assert all(s.metadata_bits == 0 for s in summaries.values())
        elements = sum(l.weight.data.size for l in prunable_layers(model).values())
        assert dense.total_weight_bits() == dense.stats()["total_weight_bits"] == elements * 8
        # A stateless backend reports an empty workspace.
        reference = Engine(model, backend="reference", weight_format="dense")
        assert reference.stats()["workspace"] == {"hits": 0, "misses": 0, "buffers": 0, "bytes": 0}

    def test_refresh_formats_tracks_weight_updates(self, rng):
        model = _pruned_model(rng)
        engine = Engine(model, backend="fast", weight_format="dense")
        x = rng.normal(size=(2, 3, 16, 16))
        before = engine.predict(x)
        head = list(prunable_layers(model).values())[-1]
        head.weight.data *= 2.0
        head.weight.apply_mask()
        engine.refresh_formats()
        after = engine.predict(x)
        assert not np.allclose(before, after)
        model.eval()
        np.testing.assert_allclose(after, model(x), atol=1e-8)

    def test_workloads_from_engine(self, rng):
        model = _pruned_model(rng)
        engine = Engine(model, backend="fast", weight_format="crisp", n=2, m=4, block_size=8)
        workloads = workloads_from_engine(engine, batch=2)
        expected = workloads_from_model(model, batch=2, n=2, m=4, block_size=8)
        assert [w.name for w in workloads] == [w.name for w in expected]
        for got, want in zip(workloads, expected):
            assert got.n == 2 and got.m == 4
            assert got.block_keep_ratio == pytest.approx(want.block_keep_ratio)
            assert got.weight_density == pytest.approx(want.weight_density)
