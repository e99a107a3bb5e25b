"""Experiment E3 — Fig. 3: CRISP against pure block pruning across sparsity levels.

The paper's Fig. 3 sweeps global sparsity (with ten user-preferred ImageNet
classes) and shows that pure coarse-grained block pruning collapses once the
sparsity rate exceeds ~80 %, while CRISP's hybrid pattern keeps accuracy high
(~85 %) beyond 92 % sparsity.  This experiment reproduces the sweep with both
methods sharing the same saliency criterion, fine-tuning budget and block
sizes, so the only difference is the sparsity pattern.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..pruning import CRISPConfig, CRISPPruner
from ..pruning.baselines import block_prune, dense_finetune
from .common import ExperimentScale, TINY_SCALE, clone_model, make_personalization_setup

__all__ = ["Fig3Config", "run_fig3"]


@dataclass
class Fig3Config:
    """Sweep configuration for the CRISP-vs-block-pruning comparison."""

    sparsity_levels: Sequence[float] = (0.5, 0.75, 0.875)
    block_sizes: Sequence[int] = (8, 16)
    nm_ratios: Sequence[Tuple[int, int]] = ((2, 4),)
    num_user_classes: int = 4
    scale: ExperimentScale = TINY_SCALE
    seed: int = 0


def run_fig3(config: Fig3Config | None = None) -> List[Dict]:
    """Run the sparsity sweep; returns one row per (method, sparsity, block size).

    Row keys: ``method``, ``pattern``, ``block_size``, ``target_sparsity``,
    ``achieved_sparsity``, ``accuracy``, ``dense_accuracy``.
    """
    config = config or Fig3Config()
    setup = make_personalization_setup(config.scale, config.num_user_classes, seed=config.seed)

    dense_model = clone_model(setup.model)
    dense_result = dense_finetune(
        dense_model, setup.train_loader, setup.val_loader, epochs=config.scale.finetune_epochs
    )
    dense_accuracy = dense_result.final_accuracy

    rows: List[Dict] = []
    for block_size in config.block_sizes:
        for target in config.sparsity_levels:
            # Pure block pruning baseline.
            block_model = clone_model(setup.model)
            block_result = block_prune(
                block_model,
                target_sparsity=target,
                block_size=block_size,
                train_loader=setup.train_loader,
                val_loader=setup.val_loader,
                finetune_epochs=config.scale.finetune_epochs,
            )
            rows.append(
                {
                    "method": "block",
                    "pattern": f"block-{block_size}",
                    "block_size": block_size,
                    "target_sparsity": target,
                    "achieved_sparsity": block_result.achieved_sparsity,
                    "accuracy": block_result.final_accuracy,
                    "dense_accuracy": dense_accuracy,
                }
            )

            # CRISP hybrid pattern at matched target sparsity.
            for n, m in config.nm_ratios:
                if target < 1.0 - n / m - 1e-9:
                    # The hybrid pattern cannot be *less* sparse than its N:M floor.
                    continue
                crisp_model = clone_model(setup.model)
                pruner = CRISPPruner(
                    crisp_model,
                    CRISPConfig(
                        n=n,
                        m=m,
                        block_size=block_size,
                        target_sparsity=target,
                        iterations=config.scale.prune_iterations,
                        finetune_epochs=config.scale.finetune_epochs,
                    ),
                )
                crisp_result = pruner.prune(setup.train_loader, setup.val_loader)
                rows.append(
                    {
                        "method": "crisp",
                        "pattern": f"{n}:{m}+B{block_size}",
                        "block_size": block_size,
                        "target_sparsity": target,
                        "achieved_sparsity": crisp_result.final_sparsity,
                        "accuracy": crisp_result.final_accuracy,
                        "dense_accuracy": dense_accuracy,
                    }
                )
    return rows
