"""Experiment E1 — Fig. 1: model accuracy at different N:M ratios.

The paper's Fig. 1 shows that models differ widely in how well they tolerate
fine-grained N:M pruning: over-parameterised ResNet-50 barely notices 2:4,
while compact MobileNetV2 loses accuracy quickly, and 1:4 opens a visible
accuracy gap everywhere.  The experiment prunes each model with N:M-only
masks (no block component), fine-tunes briefly and reports accuracy against
the dense fine-tuned upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..pruning.baselines import dense_finetune, nm_prune
from .common import ExperimentScale, TINY_SCALE, clone_model, make_personalization_setup

__all__ = ["Fig1Config", "run_fig1", "DEFAULT_MODELS"]

DEFAULT_MODELS: Tuple[str, ...] = ("resnet_tiny", "vgg_tiny", "mobilenet_tiny")


@dataclass
class Fig1Config:
    """Sweep configuration for the Fig. 1 reproduction."""

    models: Sequence[str] = DEFAULT_MODELS
    nm_ratios: Sequence[Tuple[int, int]] = ((3, 4), (2, 4), (1, 4))
    num_user_classes: int = 4
    scale: ExperimentScale = TINY_SCALE
    seed: int = 0
    finetune_epochs: int = 1


def run_fig1(config: Fig1Config | None = None) -> List[Dict]:
    """Run the N:M-ratio sweep; returns one row per (model, pattern) point.

    Row keys: ``model``, ``pattern``, ``sparsity``, ``accuracy``,
    ``dense_accuracy``, ``accuracy_drop``.
    """
    config = config or Fig1Config()
    rows: List[Dict] = []

    for model_name in config.models:
        scale = ExperimentScale(
            name=f"{config.scale.name}-{model_name}",
            dataset_preset=config.scale.dataset_preset,
            model_name=model_name,
            pretrain_epochs=config.scale.pretrain_epochs,
            finetune_epochs=config.scale.finetune_epochs,
            prune_iterations=config.scale.prune_iterations,
            batch_size=config.scale.batch_size,
        )
        setup = make_personalization_setup(scale, config.num_user_classes, seed=config.seed)

        dense_model = clone_model(setup.model)
        dense_result = dense_finetune(
            dense_model,
            setup.train_loader,
            setup.val_loader,
            epochs=config.finetune_epochs,
        )
        dense_accuracy = dense_result.final_accuracy

        rows.append(
            {
                "model": model_name,
                "pattern": "dense",
                "sparsity": 0.0,
                "accuracy": dense_accuracy,
                "dense_accuracy": dense_accuracy,
                "accuracy_drop": 0.0,
            }
        )

        for n, m in config.nm_ratios:
            pruned_model = clone_model(setup.model)
            result = nm_prune(
                pruned_model,
                n,
                m,
                train_loader=setup.train_loader,
                val_loader=setup.val_loader,
                finetune_epochs=config.finetune_epochs,
            )
            rows.append(
                {
                    "model": model_name,
                    "pattern": f"{n}:{m}",
                    "sparsity": result.achieved_sparsity,
                    "accuracy": result.final_accuracy,
                    "dense_accuracy": dense_accuracy,
                    "accuracy_drop": (dense_accuracy or 0.0) - (result.final_accuracy or 0.0),
                }
            )
    return rows
