"""Experiment E5 — Fig. 7: accuracy vs. number of user-preferred classes.

Fig. 7 is the paper's main accuracy result: for ResNet-50, VGG-16 and
MobileNetV2 on CIFAR-100 and ImageNet, CRISP tracks the dense fine-tuned
upper bound across user class counts while pruning far more aggressively
(lower normalized FLOPs) than the channel-pruning baselines (OCAP / CAP'NN).
The global sparsity target scales with the number of classes: fewer classes
allow more pruning.

This experiment reproduces the sweep on the synthetic datasets with three
methods per point: dense fine-tuning (upper bound), CRISP, and the
class-aware channel-pruning baseline, reporting accuracy and the normalized
FLOPs ratio for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..pruning import CRISPConfig, CRISPPruner, flops_ratio
from ..pruning.baselines import channel_prune, dense_finetune
from .common import ExperimentScale, TINY_SCALE, clone_model, make_personalization_setup

__all__ = ["Fig7Config", "run_fig7", "sparsity_for_class_count"]


def sparsity_for_class_count(
    num_classes: int, total_classes: int, max_sparsity: float = 0.9, min_sparsity: float = 0.5
) -> float:
    """Global sparsity target as a function of the user's class count.

    The paper varies the global sparsity with the number of user-preferred
    classes ("since we are primarily focusing on a small subset of the
    original class distribution, it becomes feasible to proportionally reduce
    the model size").  We interpolate between ``max_sparsity`` (one class)
    and ``min_sparsity`` (all classes) on a logarithmic class-count axis.
    """
    if not 1 <= num_classes <= total_classes:
        raise ValueError(f"num_classes must be in [1, {total_classes}], got {num_classes}")
    import math

    fraction = math.log(num_classes) / math.log(max(2, total_classes))
    fraction = min(1.0, fraction)
    return max_sparsity - (max_sparsity - min_sparsity) * fraction


@dataclass
class Fig7Config:
    """Sweep configuration for the class-count experiment."""

    class_counts: Sequence[int] = (2, 4, 8)
    datasets: Sequence[str] = ("synthetic-tiny",)
    models: Sequence[str] = ("resnet_tiny",)
    n: int = 2
    m: int = 4
    block_size: int = 8
    scale: ExperimentScale = TINY_SCALE
    max_sparsity: float = 0.875
    min_sparsity: float = 0.5
    seed: int = 0


def run_fig7(config: Fig7Config | None = None) -> List[Dict]:
    """Run the class-count sweep.

    Row keys: ``dataset``, ``model``, ``num_classes``, ``method``,
    ``accuracy``, ``flops_ratio``, ``sparsity``.
    """
    config = config or Fig7Config()
    rows: List[Dict] = []

    for dataset_preset in config.datasets:
        for model_name in config.models:
            scale = ExperimentScale(
                name=f"{config.scale.name}-{model_name}-{dataset_preset}",
                dataset_preset=dataset_preset,
                model_name=model_name,
                pretrain_epochs=config.scale.pretrain_epochs,
                finetune_epochs=config.scale.finetune_epochs,
                prune_iterations=config.scale.prune_iterations,
                batch_size=config.scale.batch_size,
            )
            for num_classes in config.class_counts:
                setup = make_personalization_setup(scale, num_classes, seed=config.seed)
                total_classes = setup.dataset.num_classes
                target = sparsity_for_class_count(
                    num_classes,
                    total_classes,
                    max_sparsity=config.max_sparsity,
                    min_sparsity=config.min_sparsity,
                )

                # Dense fine-tuned upper bound.
                dense_model = clone_model(setup.model)
                dense_result = dense_finetune(
                    dense_model,
                    setup.train_loader,
                    setup.val_loader,
                    epochs=scale.finetune_epochs,
                )
                rows.append(
                    {
                        "dataset": dataset_preset,
                        "model": model_name,
                        "num_classes": num_classes,
                        "method": "dense",
                        "accuracy": dense_result.final_accuracy,
                        "flops_ratio": 1.0,
                        "sparsity": 0.0,
                    }
                )

                # CRISP.
                crisp_model = clone_model(setup.model)
                pruner = CRISPPruner(
                    crisp_model,
                    CRISPConfig(
                        n=config.n,
                        m=config.m,
                        block_size=config.block_size,
                        target_sparsity=target,
                        iterations=scale.prune_iterations,
                        finetune_epochs=scale.finetune_epochs,
                    ),
                )
                crisp_result = pruner.prune(setup.train_loader, setup.val_loader)
                rows.append(
                    {
                        "dataset": dataset_preset,
                        "model": model_name,
                        "num_classes": num_classes,
                        "method": "crisp",
                        "accuracy": crisp_result.final_accuracy,
                        "flops_ratio": flops_ratio(crisp_model, setup.dataset.image_size),
                        "sparsity": crisp_result.final_sparsity,
                    }
                )

                # Channel-pruning baseline (OCAP / CAP'NN style) at a FLOPs
                # budget that is *less* aggressive than CRISP's, as in the paper.
                channel_model = clone_model(setup.model)
                channel_result = channel_prune(
                    channel_model,
                    target_sparsity=min(0.6, target),
                    train_loader=setup.train_loader,
                    val_loader=setup.val_loader,
                    finetune_epochs=scale.finetune_epochs,
                )
                rows.append(
                    {
                        "dataset": dataset_preset,
                        "model": model_name,
                        "num_classes": num_classes,
                        "method": "channel",
                        "accuracy": channel_result.final_accuracy,
                        "flops_ratio": channel_result.flops_ratio,
                        "sparsity": channel_result.achieved_sparsity,
                    }
                )
    return rows
