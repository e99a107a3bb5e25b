"""End-to-end integration tests spanning data, models, pruning, formats and hardware."""

import numpy as np
import pytest

from crisp_loop_oracle import assert_same_encoding, crisp_from_dense_loop
from repro.data import build_user_loaders, make_dataset, sample_user_profile
from repro.hw import CrispSTC, DenseAccelerator, compare_accelerators, workloads_from_model
from repro.nn.models import resnet_tiny, vgg_tiny
from repro.nn.models.base import prunable_layers
from repro.nn.trainer import TrainConfig, Trainer, evaluate
from repro.pruning import CRISPConfig, CRISPPruner, collect_model_stats, model_storage_bits
from repro.serve import EngineSpec, ModelRegistry
from repro.sparsity.formats import CRISPFormat
from repro.sparsity.sparse_ops import masked_matmul, sparse_matmul


@pytest.fixture(scope="module")
def personalization_run():
    """One full pipeline run shared by the integration assertions (module-scoped
    because it trains and prunes a model)."""
    dataset = make_dataset("synthetic-tiny", seed=3)
    profile = sample_user_profile(dataset, 3, seed=3)
    train_loader, val_loader = build_user_loaders(dataset, profile, batch_size=16, seed=3)

    model = resnet_tiny(num_classes=3, input_size=dataset.image_size, seed=3)
    trainer = Trainer(model, TrainConfig(epochs=3, lr=0.05))
    trainer.fit(train_loader, val_loader)
    dense_accuracy = evaluate(model, iter(val_loader))

    config = CRISPConfig(
        n=2, m=4, block_size=8, target_sparsity=0.8, iterations=2,
        finetune_epochs=2, saliency_batches=2,
    )
    result = CRISPPruner(model, config).prune(train_loader, val_loader)
    return {
        "dataset": dataset,
        "model": model,
        "config": config,
        "result": result,
        "dense_accuracy": dense_accuracy,
        "train_loader": train_loader,
        "val_loader": val_loader,
    }


class TestEndToEndPruning:
    def test_sparsity_target_met(self, personalization_run):
        result = personalization_run["result"]
        assert result.final_sparsity == pytest.approx(0.8, abs=0.05)

    def test_accuracy_retained_above_chance(self, personalization_run):
        result = personalization_run["result"]
        # 3 classes -> chance is 1/3; the pruned personalised model should do
        # meaningfully better after fine-tuning.
        assert result.final_accuracy > 0.4

    def test_flops_reduced(self, personalization_run):
        model = personalization_run["model"]
        stats = collect_model_stats(model, personalization_run["dataset"].image_size)
        assert stats.flops_ratio < 0.6

    def test_storage_reduced(self, personalization_run):
        model = personalization_run["model"]
        bits = model_storage_bits(model, n=2, m=4, block_size=8)
        assert bits["total_bits"] < bits["dense_bits"] * 0.6


class TestPrunedModelInference:
    def test_pruned_layers_compute_with_crisp_format(self, personalization_run):
        """Every pruned layer's GEMM must be exactly representable and
        computable in the CRISP storage format (lossless round trip through
        the accelerator datapath model)."""
        model = personalization_run["model"]
        rng = np.random.default_rng(0)
        checked = 0
        for name, layer in prunable_layers(model).items():
            weight2d = layer.reshaped_weight()
            if weight2d.shape[0] < 8 or weight2d.shape[1] < 8:
                continue
            mask2d = layer.weight.mask.reshape(weight2d.shape[1], -1).T
            sparse = weight2d * mask2d
            fmt = CRISPFormat.from_dense(sparse, n=2, m=4, block_size=8)
            assert fmt.is_lossless, name
            activations = rng.normal(size=(weight2d.shape[0], 2))
            np.testing.assert_allclose(
                sparse_matmul(fmt, activations),
                masked_matmul(weight2d, mask2d, activations),
                atol=1e-8,
                err_msg=name,
            )
            checked += 1
        assert checked >= 3


class TestServedEncoding:
    """The cold path of serving: ``registry.build_engine`` binds the stored encodings
    to the architecture's cached plan, folding batch-norm into copies of them."""

    def test_cold_build_matches_loop_oracle_and_rebuilds_to_the_same_bytes(
        self, personalization_run
    ):
        registry = ModelRegistry()
        spec = EngineSpec(backend="fast", weight_format="crisp", n=2, m=4, block_size=8)
        model_id = registry.register(personalization_run["model"], spec=spec)

        engine = registry.build_engine(model_id)
        layers = prunable_layers(engine.module)
        assert list(engine.formats) == list(layers)
        assert engine.is_lossless
        for name, layer in layers.items():
            # The engine encodes its (K, S) operand with the layer's batch-norm
            # scale folded into the columns: same zeros, same encoder.
            w_eff = layer.weight.effective()
            folded = engine.formats[name].to_dense()
            assert np.array_equal(folded != 0, w_eff.reshape(w_eff.shape[0], -1).T != 0)
            assert_same_encoding(engine.formats[name], crisp_from_dense_loop(folded, 2, 4, 8))

        batch, _ = next(iter(personalization_run["val_loader"]))
        first = engine.predict(batch)
        rebuilt = registry.build_engine(model_id)  # what a cache miss after eviction does
        assert rebuilt.predict(batch).tobytes() == first.tobytes()


class TestHardwareEstimationOfPrunedModel:
    def test_workload_extraction_and_speedup(self, personalization_run):
        model = personalization_run["model"]
        dataset = personalization_run["dataset"]
        workloads = workloads_from_model(model, input_size=dataset.image_size)
        assert len(workloads) == len(prunable_layers(model))

        report = compare_accelerators(workloads, [DenseAccelerator(), CrispSTC(16)])
        speedup = report.overall_speedup("crisp-stc-b16")
        assert speedup > 1.0

    def test_denser_model_gets_lower_speedup(self, personalization_run):
        dataset = personalization_run["dataset"]
        pruned_model = personalization_run["model"]
        dense_model = vgg_tiny(num_classes=3, input_size=dataset.image_size, seed=0)

        pruned_wl = workloads_from_model(pruned_model, input_size=dataset.image_size)
        dense_wl = workloads_from_model(dense_model, input_size=dataset.image_size)

        pruned_report = compare_accelerators(pruned_wl, [DenseAccelerator(), CrispSTC(16)])
        dense_report = compare_accelerators(dense_wl, [DenseAccelerator(), CrispSTC(16)])
        assert (
            pruned_report.overall_speedup("crisp-stc-b16")
            > dense_report.overall_speedup("crisp-stc-b16")
        )


class TestReproducibility:
    def test_same_seed_same_pruning_decisions(self):
        def run_once():
            dataset = make_dataset("synthetic-tiny", seed=11)
            profile = sample_user_profile(dataset, 3, seed=11)
            train_loader, val_loader = build_user_loaders(dataset, profile, batch_size=16, seed=11)
            model = resnet_tiny(num_classes=3, input_size=dataset.image_size, seed=11)
            config = CRISPConfig(
                n=2, m=4, block_size=8, target_sparsity=0.75, iterations=1,
                finetune_epochs=1, saliency_batches=1,
            )
            result = CRISPPruner(model, config).prune(train_loader, val_loader)
            masks = {
                name: layer.weight.mask.copy()
                for name, layer in prunable_layers(model).items()
            }
            return result.final_sparsity, masks

        sparsity_a, masks_a = run_once()
        sparsity_b, masks_b = run_once()
        assert sparsity_a == pytest.approx(sparsity_b)
        for name in masks_a:
            np.testing.assert_allclose(masks_a[name], masks_b[name], err_msg=name)
