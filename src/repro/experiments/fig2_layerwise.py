"""Experiment E2 — Fig. 2: layer-wise sparsity distribution.

Fig. 2 of the paper motivates non-uniform pruning: when pruning is driven by
a class-aware global criterion, some layers can be pruned to ~99 % while
others must stay comparatively dense.  The experiment runs CRISP at a high
global sparsity target and reports the achieved per-layer sparsity
distribution, demonstrating that the global rank-position selection indeed
produces a non-uniform allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..pruning import CRISPConfig, CRISPPruner
from .common import ExperimentScale, TINY_SCALE, make_personalization_setup

__all__ = ["Fig2Config", "run_fig2"]


@dataclass
class Fig2Config:
    """Configuration for the layer-wise sparsity distribution experiment."""

    num_user_classes: int = 4
    target_sparsity: float = 0.85
    n: int = 2
    m: int = 4
    block_size: int = 8
    scale: ExperimentScale = TINY_SCALE
    seed: int = 0


def run_fig2(config: Fig2Config | None = None) -> List[Dict]:
    """Run CRISP once and report per-layer sparsity.

    Row keys: ``layer``, ``sparsity``, ``weights``, ``global_sparsity``.
    The last row (``layer == "<global>"``) aggregates the distribution
    statistics (min / max / spread) that make the Fig. 2 point.
    """
    config = config or Fig2Config()
    setup = make_personalization_setup(config.scale, config.num_user_classes, seed=config.seed)

    pruner = CRISPPruner(
        setup.model,
        CRISPConfig(
            n=config.n,
            m=config.m,
            block_size=config.block_size,
            target_sparsity=config.target_sparsity,
            iterations=config.scale.prune_iterations,
            finetune_epochs=config.scale.finetune_epochs,
        ),
    )
    result = pruner.prune(setup.train_loader, setup.val_loader)

    final_record = result.history[-1]
    rows: List[Dict] = []
    from ..nn.models.base import prunable_layers

    layer_sizes = {name: layer.weight.size for name, layer in prunable_layers(setup.model).items()}
    for layer_name, sparsity in final_record.layer_sparsity.items():
        rows.append(
            {
                "layer": layer_name,
                "sparsity": sparsity,
                "weights": layer_sizes.get(layer_name, 0),
                "global_sparsity": result.final_sparsity,
            }
        )

    sparsities = np.array([row["sparsity"] for row in rows])
    rows.append(
        {
            "layer": "<global>",
            "sparsity": result.final_sparsity,
            "weights": int(sum(layer_sizes.values())),
            "global_sparsity": result.final_sparsity,
            "min_layer_sparsity": float(sparsities.min()),
            "max_layer_sparsity": float(sparsities.max()),
            "sparsity_spread": float(sparsities.max() - sparsities.min()),
        }
    )
    return rows
