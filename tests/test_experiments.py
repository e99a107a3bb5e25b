"""Tests for the figure presets (tiny configurations)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import (
    ExperimentScale,
    clear_model_cache,
    format_table,
    make_personalization_setup,
    pretrained_universal_model,
)
from repro.pipeline import Pipeline, PipelineStore
from repro.serve import set_universal_model_store
from repro.pipeline.figures import (
    aggregate_fig8,
    aggregate_overheads,
    fig1_preset,
    fig2_preset,
    fig3_preset,
    fig4_preset,
    fig7_preset,
    fig8_preset,
    headline_preset,
    sparsity_for_class_count,
)

MICRO_SCALE = ExperimentScale(
    name="micro",
    dataset_preset="synthetic-tiny",
    model_name="resnet_tiny",
    pretrain_epochs=1,
    finetune_epochs=1,
    prune_iterations=1,
)


#: Scale of the paper-shape cases: small enough that a sweep takes seconds,
#: large enough that the orderings the figures claim (who wins, where the
#: crossovers are) are visible.
SHAPE_SCALE = replace(MICRO_SCALE, name="shape", pretrain_epochs=2, prune_iterations=2)


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_model_cache()
    yield
    clear_model_cache()


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One store for the module: a point's output depends only on its own
    parameters, so tests that share a setup or a point share its entry."""
    return PipelineStore(tmp_path_factory.mktemp("figures"))


def figure(steps, store):
    """The last step's output of a figure preset run into ``store``, which is
    also the universal models' disk tier, as in the CLI."""
    set_universal_model_store(store)
    try:
        return Pipeline(steps, store).run().results[-1].output
    finally:
        set_universal_model_store(None)


class TestCommonInfrastructure:
    def test_pretrained_model_cached_and_cloned(self):
        m1, acc1 = pretrained_universal_model(MICRO_SCALE, num_classes=8, input_size=12, seed=0)
        m2, acc2 = pretrained_universal_model(MICRO_SCALE, num_classes=8, input_size=12, seed=0)
        assert acc1 == acc2
        assert m1 is not m2
        # Mutating one clone must not affect the other.
        next(iter(m1.parameters())).data += 1.0
        p1 = next(iter(m1.parameters())).data
        p2 = next(iter(m2.parameters())).data
        assert not np.allclose(p1, p2)

    def test_personalization_setup_resizes_head(self):
        setup = make_personalization_setup(MICRO_SCALE, num_user_classes=3, seed=0)
        assert setup.model.num_classes == 3
        assert setup.profile.num_classes == 3
        x, y = next(iter(setup.train_loader))
        assert set(np.unique(y)) <= {0, 1, 2}
        logits = setup.model(x)
        assert logits.shape[1] == 3

    def test_format_table(self):
        rows = [{"a": 1, "b": 0.5}, {"a": 20, "b": 0.25}]
        text = format_table(rows)
        assert "a" in text and "0.500" in text
        assert format_table([]) == "(no rows)"


class TestFig1:
    def test_rows_and_shape(self, store):
        config = dict(
            models=("resnet_tiny",), nm_ratios=((2, 4),), num_user_classes=3, scale=MICRO_SCALE
        )
        rows = figure(fig1_preset(**config), store)["rows"]
        assert len(rows) == 2  # dense + 2:4
        assert {"model", "pattern", "sparsity", "accuracy", "accuracy_drop"} <= set(rows[0])
        nm_row = [r for r in rows if r["pattern"] == "2:4"][0]
        assert nm_row["sparsity"] == pytest.approx(0.5, abs=0.03)

    @pytest.mark.stress
    def test_paper_shape_tighter_ratio_is_sparser_and_no_more_accurate(self, store):
        config = dict(
            models=("resnet_tiny", "mobilenet_tiny"),
            nm_ratios=((3, 4), (2, 4), (1, 4)),
            num_user_classes=4,
            scale=SHAPE_SCALE,
        )
        rows = figure(fig1_preset(**config), store)["rows"]
        for model in config["models"]:
            by_pattern = {r["pattern"]: r for r in rows if r["model"] == model}
            assert (by_pattern["1:4"]["sparsity"] > by_pattern["2:4"]["sparsity"]
                    > by_pattern["3:4"]["sparsity"])
            # Accuracy at the loosest pattern stays within reach of dense.
            assert (by_pattern["3:4"]["accuracy_drop"]
                    <= by_pattern["1:4"]["accuracy_drop"] + 0.25)


class TestFig2:
    def test_distribution_reported_and_non_uniform(self, store):
        """Class-aware global pruning spreads the budget unevenly: a visible
        gap between the most- and least-pruned layers."""
        config = dict(
            num_user_classes=4, target_sparsity=0.85, block_size=8, scale=SHAPE_SCALE
        )
        rows = figure(fig2_preset(**config), store)["rows"]
        summary = rows[-1]
        assert summary["layer"] == "<global>"
        assert summary["global_sparsity"] == pytest.approx(0.85, abs=0.06)
        assert all(0.0 <= r["sparsity"] <= 1.0 for r in rows[:-1])
        assert summary["sparsity_spread"] > 0.1
        assert summary["max_layer_sparsity"] > summary["global_sparsity"]


class TestFig3:
    def test_methods_present_and_crisp_competitive(self, store):
        config = dict(
            sparsity_levels=(0.75,), block_sizes=(8,), num_user_classes=3, scale=MICRO_SCALE
        )
        rows = figure(fig3_preset(**config), store)["rows"]
        methods = {r["method"] for r in rows}
        assert methods == {"block", "crisp"}
        crisp = [r for r in rows if r["method"] == "crisp"][0]
        block = [r for r in rows if r["method"] == "block"][0]
        assert crisp["achieved_sparsity"] == pytest.approx(0.75, abs=0.06)
        assert block["achieved_sparsity"] == pytest.approx(0.75, abs=0.06)

    @pytest.mark.stress
    def test_paper_shape_crisp_holds_accuracy_across_the_sweep(self, store):
        config = dict(
            sparsity_levels=(0.5, 0.75, 0.875), block_sizes=(8,), nm_ratios=((2, 4),),
            num_user_classes=4, scale=SHAPE_SCALE,
        )
        rows = figure(fig3_preset(**config), store)["rows"]
        crisp = {r["target_sparsity"]: r for r in rows if r["method"] == "crisp"}
        block = {r["target_sparsity"]: r for r in rows if r["method"] == "block"}
        for target, row in crisp.items():
            assert row["achieved_sparsity"] == pytest.approx(target, abs=0.06)
        # The Fig. 3 gap, with tolerance for tiny-scale noise.
        crisp_mean = sum(r["accuracy"] for r in crisp.values()) / len(crisp)
        block_mean = sum(r["accuracy"] for r in block.values()) / len(block)
        assert crisp_mean >= block_mean - 0.05

    def test_skips_targets_below_nm_floor(self, store):
        config = dict(
            sparsity_levels=(0.3,), block_sizes=(8,), nm_ratios=((2, 4),),
            num_user_classes=3, scale=MICRO_SCALE,
        )
        rows = figure(fig3_preset(**config), store)["rows"]
        assert all(r["method"] == "block" for r in rows)


class TestFig4:
    def test_overhead_ordering(self, store):
        rows = figure(fig4_preset(), store)["rows"]
        overheads = aggregate_overheads(rows)
        # The Fig. 4 claim: CSR and ELLPACK need several times more metadata.
        assert overheads["csr"] > 2.0
        assert overheads["ellpack"] > overheads["csr"]
        assert overheads["crisp"] == pytest.approx(1.0)

    def test_paper_shape_at_high_sparsity(self, store):
        rows = figure(fig4_preset(target_sparsity=0.875, block_size=16), store)["rows"]
        overheads = aggregate_overheads(rows)
        assert overheads["csr"] > 2.5
        assert overheads["ellpack"] > overheads["csr"]
        # CRISP's data + metadata total also undercuts the dense encoding.
        for layer in {r["layer"] for r in rows}:
            by_format = {r["format"]: r for r in rows if r["layer"] == layer}
            assert by_format["crisp"]["total_bits"] < by_format["dense"]["total_bits"]

    def test_row_keys(self, store):
        rows = figure(fig4_preset(layer_shapes=(("l", 32, 32),)), store)["rows"]
        assert {"layer", "format", "metadata_bits", "total_bits", "metadata_vs_crisp"} <= set(rows[0])
        assert len(rows) == 5  # five formats for the single layer


class TestFig7:
    def test_sparsity_for_class_count_monotone(self):
        values = [sparsity_for_class_count(k, 40) for k in (1, 5, 10, 40)]
        assert values == sorted(values, reverse=True)
        assert values[0] == pytest.approx(0.9)

    def test_invalid_class_count(self):
        with pytest.raises(ValueError):
            sparsity_for_class_count(0, 10)

    def test_rows_structure(self, store):
        config = dict(class_counts=(2,), scale=MICRO_SCALE, max_sparsity=0.75)
        rows = figure(fig7_preset(**config), store)["rows"]
        methods = {r["method"] for r in rows}
        assert methods == {"dense", "crisp", "channel"}
        crisp = [r for r in rows if r["method"] == "crisp"][0]
        dense = [r for r in rows if r["method"] == "dense"][0]
        assert crisp["flops_ratio"] < dense["flops_ratio"]

    @pytest.mark.stress
    def test_paper_shape_budget_shrinks_as_classes_grow(self, store):
        config = dict(
            class_counts=(2, 4, 6), datasets=("synthetic-tiny",), models=("resnet_tiny",),
            scale=SHAPE_SCALE, max_sparsity=0.875, min_sparsity=0.5,
        )
        rows = figure(fig7_preset(**config), store)["rows"]
        for count in config["class_counts"]:
            point = {r["method"]: r for r in rows if r["num_classes"] == count}
            assert point["crisp"]["flops_ratio"] < 0.7
            assert point["crisp"]["sparsity"] > 0.4
            for method in ("dense", "crisp", "channel"):
                assert 0.0 <= point[method]["accuracy"] <= 1.0
        crisp = sorted((r for r in rows if r["method"] == "crisp"),
                       key=lambda r: r["num_classes"])
        assert crisp[0]["sparsity"] >= crisp[-1]["sparsity"] - 1e-9


class TestFig8:
    def test_rows_and_aggregation(self, store):
        config = dict(nm_ratios=((2, 4),), block_sizes=(64,), global_sparsities=(0.9,))
        rows = figure(fig8_preset(**config)[:-1], store)["rows"]  # per layer: no collect
        assert len(rows) == 9 * 4  # 9 layers x (dense, nvidia, dstc, crisp-b64)
        agg = aggregate_fig8(rows)
        by_acc = {r["accelerator"]: r for r in agg}
        assert by_acc["dense"]["speedup_vs_dense"] == pytest.approx(1.0)
        assert by_acc["crisp-stc-b64"]["speedup_vs_dense"] > by_acc["nvidia-stc"]["speedup_vs_dense"]
        assert by_acc["nvidia-stc"]["speedup_vs_dense"] <= 2.0 + 1e-9

    def test_paper_shape_across_patterns_blocks_and_baselines(self, store):
        config = dict(
            nm_ratios=((1, 4), (2, 4), (3, 4)),
            block_sizes=(16, 32, 64),
            global_sparsities=(0.80, 0.85, 0.90),
        )
        aggregated = aggregate_fig8(figure(fig8_preset(**config)[:-1], store)["rows"])

        def agg(pattern, sparsity, accelerator):
            return next(
                r for r in aggregated
                if (r["pattern"], r["global_sparsity"], r["accelerator"])
                == (pattern, sparsity, accelerator)
            )

        for pattern in ("1:4", "2:4", "3:4"):
            for sparsity in (0.80, 0.90):
                crisp = agg(pattern, sparsity, "crisp-stc-b64")
                nvidia = agg(pattern, sparsity, "nvidia-stc")
                dstc = agg(pattern, sparsity, "dstc")
                assert crisp["speedup_vs_dense"] > dstc["speedup_vs_dense"]
                assert crisp["speedup_vs_dense"] > nvidia["speedup_vs_dense"]
                assert nvidia["speedup_vs_dense"] <= 2.0 + 1e-9
                assert crisp["energy_eff_vs_dense"] > nvidia["energy_eff_vs_dense"]

        # Pattern ordering at matched sparsity, and the headline magnitudes.
        s90 = {p: agg(p, 0.90, "crisp-stc-b64")["speedup_vs_dense"]
               for p in ("1:4", "2:4", "3:4")}
        assert s90["1:4"] >= s90["2:4"] >= s90["3:4"]
        assert s90["1:4"] > 6.0 and s90["2:4"] > 5.0
        # Block size 64 is the best configuration.
        by_block = {b: agg("2:4", 0.90, f"crisp-stc-b{b}")["speedup_vs_dense"]
                    for b in (16, 32, 64)}
        assert by_block[64] >= by_block[32] >= by_block[16]

    def test_paper_shape_dstc_fades_on_late_layers(self, store):
        """DSTC is strong on early large-spatial layers, weak on late ones
        where data movement dominates."""
        config = dict(nm_ratios=((2, 4),), block_sizes=(64,), global_sparsities=(0.85,))
        dstc = {r["layer"]: r["speedup_vs_dense"]
                for r in figure(fig8_preset(**config)[:-1], store)["rows"]
                if r["accelerator"] == "dstc"}
        early, late = dstc["layer1.0.conv2"], dstc["layer4.2.conv3"]
        assert early > late
        assert early > 3.0
        assert late < 4.0


class TestHeadline:
    def test_summary_keys_and_claims(self, store):
        config = dict(
            fig3=dict(sparsity_levels=(0.875,), block_sizes=(8,),
                      num_user_classes=4, scale=SHAPE_SCALE),
            fig8=dict(nm_ratios=((1, 4), (2, 4)), block_sizes=(64,),
                      global_sparsities=(0.90,)),
        )
        summary = figure(headline_preset(**config), store)["summary"]
        assert {"crisp_accuracy", "block_accuracy", "dense_accuracy", "crisp_sparsity",
                "max_speedup", "max_energy_efficiency"} <= set(summary)
        # High sparsity, at least block pruning's accuracy at the same target.
        assert summary["crisp_sparsity"] > 0.8
        assert summary["crisp_accuracy"] >= summary["block_accuracy"] - 0.05
        # Paper: up to 14x / 30x for CRISP-STC against <= 2x for NVIDIA-STC.
        assert summary["max_speedup"] > 6.0
        assert summary["max_energy_efficiency"] > 5.0
        assert summary["nvidia_max_speedup"] <= 2.0 + 1e-9
        assert summary["max_speedup"] > summary["dstc_max_speedup"]
