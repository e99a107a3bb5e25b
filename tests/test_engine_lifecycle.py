"""Engine lifecycle tests: snapshot semantics and what an engine places at bind.

An engine is a snapshot of the module it was compiled from: one that outlives
a re-pruning serves the old weights until ``refresh_formats`` recompiles it,
and then serves exactly what a fresh engine would.  The second property
belongs to the fast backend: the GEMM operands it places at bind are a
function of the weights, not of the traffic the engine has seen.  (That the
engine leaves the module untouched, and the plan's parity with the module,
live in ``tests/test_engine_plan.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import Engine
from repro.backend.engine import encode_weights
from repro.backend.fast import Operand
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.sparsity import HybridSparsityConfig, hybrid_mask, nm_mask


@pytest.fixture
def model():
    return build_model("resnet_tiny", num_classes=4, input_size=12, seed=0)


@pytest.fixture
def batch(rng):
    return rng.normal(size=(3, 3, 12, 12))


def _hybrid_prune(model, block_size, target_sparsity=0.8):
    """2:4 inside uniform blocks on every prunable layer, by weight magnitude."""
    for layer in prunable_layers(model).values():
        mask, _ = hybrid_mask(
            np.abs(layer.reshaped_weight()),
            HybridSparsityConfig(2, 4, block_size),
            target_sparsity=target_sparsity,
        )
        layer.set_reshaped_mask(mask)
    return model


def _operands(engine):
    """Each layer's placed GEMM operand, by op name."""
    return {op.name: op.fmt for op in engine._plan if isinstance(getattr(op, "fmt", None), Operand)}


def _operand_nbytes(engine):
    """Bytes of every array the engine's operands hold."""
    return sum(part.nbytes for op in _operands(engine).values()
               for part in (op.dense_t, op.row_tiles, op.scatter) if part is not None)


class TestRefreshFormats:
    def test_stale_formats_after_repruning(self, model, batch):
        """Re-pruning while an engine is alive must require refresh_formats:
        the engine serves the old encoding until then (the stale-format
        hazard), and refresh brings it back in sync."""
        engine = Engine(model, backend="fast", weight_format="csr")
        stale = engine.predict(batch)

        # Re-prune: install 1:4 N:M masks on every prunable layer.
        for layer in prunable_layers(model).values():
            scores = np.abs(layer.reshaped_weight())
            layer.set_reshaped_mask(nm_mask(scores, 1, 4, axis=0))

        # Without refresh the engine still serves the pre-pruning encoding.
        np.testing.assert_allclose(engine.predict(batch), stale, atol=1e-12)

        engine.refresh_formats()
        refreshed = engine.predict(batch)
        assert not np.allclose(refreshed, stale)

        # The refreshed engine is a fresh engine over the pruned module.
        fresh = Engine(model, backend="fast", weight_format="csr")
        np.testing.assert_array_equal(fresh.predict(batch), refreshed)

    def test_batchnorm_statistics_are_part_of_the_snapshot(self, model, batch):
        """BN is folded into the encoded weights at build: moving the running
        statistics changes nothing served until refresh_formats."""
        engine = Engine(model, backend="fast", weight_format="csr")
        stale = engine.predict(batch)
        for _, buffer in model.named_buffers():
            buffer += 0.5
        np.testing.assert_array_equal(engine.predict(batch), stale)
        engine.refresh_formats()
        assert not np.allclose(engine.predict(batch), stale)
        model.eval()
        np.testing.assert_allclose(engine.predict(batch), model(batch), atol=1e-9)

    def test_refresh_encodes_effective_weight(self, model, batch):
        """STE-style dense shadow weights must never leak into inference:
        the encoding uses data * mask, not data."""
        engine = Engine(model, backend="fast", weight_format="csr")
        for layer in prunable_layers(model).values():
            scores = np.abs(layer.reshaped_weight())
            layer.set_reshaped_mask(nm_mask(scores, 2, 4, axis=0))
        # Perturb the masked-out entries of the dense shadow weights.
        for layer in prunable_layers(model).values():
            layer.weight.data = layer.weight.data + (1.0 - layer.weight.mask) * 7.0
        engine.refresh_formats()
        masked_pred = engine.predict(batch)

        model.apply_masks()  # hard-zero the shadow entries
        fresh = Engine(model, backend="fast", weight_format="csr")
        np.testing.assert_allclose(fresh.predict(batch), masked_pred, atol=1e-10)


class TestPlacedOperands:
    #: A ``resnet_tiny`` tenant (16x16 inputs, 2:4 in 16x16 blocks at 80 %
    #: sparsity, the crispbench fleet's shape) places ~240 KiB of tile
    #: stacks plus ~5 KiB of scatter matrices.
    RESNET_TINY_CEILING = 260 * 1024

    @pytest.mark.parametrize("weight_format", ["crisp", "blocked-ellpack"])
    def test_operand_bytes_do_not_depend_on_the_widths_served(self, weight_format, rng):
        """Regression: a per-batch-width scatter index grew a 20 KiB-stored
        tenant to 1 MiB after one predict and 144 MiB after widths 1..16."""
        model = _hybrid_prune(
            build_model("resnet_tiny", num_classes=8, input_size=16, seed=0), block_size=16
        )
        engine = Engine(model, backend="fast", weight_format=weight_format)
        held = _operand_nbytes(engine)
        assert 0 < held <= self.RESNET_TINY_CEILING
        operands = _operands(engine)
        for width in range(1, 17):
            engine.predict(rng.normal(size=(width, 3, 16, 16)))
        assert _operand_nbytes(engine) == held
        assert _operands(engine) == operands

    def test_new_formats_on_a_live_engine_are_placed_anew(self, model, batch):
        """``refresh_formats`` / ``install_formats`` place fresh operands, so
        none placed from the old weights is ever used."""
        _hybrid_prune(model, block_size=8)
        engine = Engine(model, backend="fast", weight_format="crisp", block_size=8)
        head = list(prunable_layers(model).values())[-1]

        def served_directly():
            model.eval()
            return model(batch)

        before, placed = engine.predict(batch), _operands(engine)
        assert sorted(placed) == sorted(prunable_layers(model))

        head.weight.data *= 2.0
        engine.refresh_formats()
        assert not set(map(id, _operands(engine).values())) & set(map(id, placed.values()))
        refreshed = engine.predict(batch)
        assert not np.allclose(refreshed, before)
        np.testing.assert_allclose(refreshed, served_directly(), atol=1e-8)

        head.weight.data *= -0.5
        placed = _operands(engine)
        unfolded = encode_weights(model, engine)  # what a registry record stores
        engine.install_formats(unfolded)
        assert all(engine.formats[name] is not fmt for name, fmt in unfolded.items())
        assert not set(map(id, _operands(engine).values())) & set(map(id, placed.values()))
        installed = engine.predict(batch)
        assert not np.allclose(installed, refreshed)
        np.testing.assert_allclose(installed, served_directly(), atol=1e-8)
