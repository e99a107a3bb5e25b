"""The CRISP pruning framework (Algorithm 1 of the paper).

CRISP personalises a pre-trained model to a user's preferred classes through
an iterative three-step loop:

1. **Class-aware fine-tuning / saliency estimation** — gradients accumulated
   over user-class samples give the class-aware saliency score
   ``T_w = |dL/dW * W|`` for every weight.
2. **Fine-grained N:M pruning** — within every group of M consecutive
   reduction-dimension elements, the N most salient weights are kept; a
   straight-through estimator keeps dense weights evolving underneath the
   mask so early pruning decisions can be revisited.
3. **Coarse-grained uniform block pruning** — block saliencies are sorted
   within each block-row, the sorted rank positions are scored by aggregating
   over rows, rank positions are ranked *globally across the network* and the
   least important ones are pruned, which removes the same number of blocks
   from every row of a layer (perfect load balance) while letting different
   layers reach very different sparsities.

The loop ramps the global sparsity target ``kappa_p`` gradually and fine-tunes
for ``delta`` epochs after every pruning step to recover accuracy and avoid
layer collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..nn.models.base import prunable_layers
from ..nn.module import Module
from ..nn.trainer import TrainConfig, Trainer, evaluate
from ..sparsity.block import BlockGrid, block_scores
from ..sparsity.hybrid import HybridSparsityConfig
from ..sparsity.masks import combine_masks
from ..sparsity.nm import nm_mask
from .metrics import layer_sparsities, model_sparsity
from .saliency import class_aware_saliency
from .schedule import SparsitySchedule, cubic_schedule, linear_schedule, one_shot_schedule
from .ste import STEConfig, ste_finetune

__all__ = ["CRISPConfig", "PruningIterationRecord", "PruningResult", "CRISPPruner", "crisp_prune"]


@dataclass
class CRISPConfig:
    """Configuration of the CRISP pruning loop.

    Attributes mirror the inputs of Algorithm 1: the N:M ratio, the block
    size B, the final global sparsity ``kappa``, the number of pruning
    iterations ``n`` and the per-iteration fine-tuning budget ``delta``.
    """

    n: int = 2
    m: int = 4
    block_size: int = 16
    target_sparsity: float = 0.9
    iterations: int = 3
    finetune_epochs: int = 1
    final_finetune_epochs: Optional[int] = None
    finetune_lr: float = 0.02
    momentum: float = 0.9
    weight_decay: float = 4e-5
    saliency_batches: int = 4
    use_ste: bool = True
    schedule: str = "linear"
    min_keep_blocks_per_row: int = 1
    normalize_rank_scores: bool = True
    max_batches_per_epoch: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        HybridSparsityConfig(self.n, self.m, self.block_size)  # validates pattern
        if not 0.0 <= self.target_sparsity < 1.0:
            raise ValueError(f"target_sparsity must be in [0, 1), got {self.target_sparsity}")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.schedule not in ("linear", "cubic", "one_shot"):
            raise ValueError(f"Unknown schedule {self.schedule!r}")
        if self.min_keep_blocks_per_row < 1:
            raise ValueError("min_keep_blocks_per_row must be >= 1")

    @property
    def hybrid(self) -> HybridSparsityConfig:
        return HybridSparsityConfig(self.n, self.m, self.block_size)

    @property
    def nm_base_sparsity(self) -> float:
        """Sparsity the fine-grained pattern alone provides: ``1 - N/M``."""
        return 1.0 - self.n / self.m

    def build_schedule(self) -> SparsitySchedule:
        base = min(self.nm_base_sparsity, self.target_sparsity)
        if self.schedule == "one_shot" or self.iterations == 1:
            return one_shot_schedule(self.target_sparsity)
        if self.schedule == "cubic":
            return cubic_schedule(base, self.target_sparsity, self.iterations)
        return linear_schedule(base, self.target_sparsity, self.iterations)


@dataclass
class PruningIterationRecord:
    """Diagnostics captured after each pruning iteration."""

    iteration: int
    target_sparsity: float
    achieved_sparsity: float
    finetune_loss: float
    val_accuracy: Optional[float]
    layer_sparsity: Dict[str, float]
    keep_blocks_per_row: Dict[str, int]


@dataclass
class PruningResult:
    """Outcome of a full CRISP pruning run."""

    config: CRISPConfig
    history: List[PruningIterationRecord] = field(default_factory=list)
    final_sparsity: float = 0.0
    final_accuracy: Optional[float] = None
    baseline_accuracy: Optional[float] = None

    @property
    def iterations_run(self) -> int:
        return len(self.history)

    @property
    def accuracy_drop(self) -> Optional[float]:
        if self.final_accuracy is None or self.baseline_accuracy is None:
            return None
        return self.baseline_accuracy - self.final_accuracy


class CRISPPruner:
    """Drives the iterative CRISP pruning loop on a model.

    Example
    -------
    >>> pruner = CRISPPruner(model, CRISPConfig(n=2, m=4, block_size=16,
    ...                                         target_sparsity=0.9))
    >>> result = pruner.prune(train_loader, val_loader)
    """

    def __init__(self, model: Module, config: Optional[CRISPConfig] = None) -> None:
        self.model = model
        self.config = config or CRISPConfig()
        self._layers = prunable_layers(model)
        if not self._layers:
            raise ValueError("Model has no prunable layers")
        self._keep_blocks: Dict[str, int] = {}

    # ------------------------------------------------------------------ utils
    def _saliency(self, batches_factory) -> Dict[str, np.ndarray]:
        return class_aware_saliency(
            self.model,
            batches_factory(),
            max_batches=self.config.saliency_batches,
        )

    # --------------------------------------------------------------- N:M step
    def _apply_nm_step(self, saliency: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Fine-grained N:M pruning (Algorithm 1, line 2) driven by the saliency."""
        fine_masks: Dict[str, np.ndarray] = {}
        for name, layer in self._layers.items():
            scores = saliency.get(name)
            if scores is None:
                scores = np.abs(layer.reshaped_weight())
            fine_masks[name] = nm_mask(scores, self.config.n, self.config.m, axis=0)
        return fine_masks

    # ------------------------------------------------------------- block step
    def _rank_position_scores(
        self, saliency: Dict[str, np.ndarray], fine_masks: Dict[str, np.ndarray]
    ) -> Dict[str, Tuple[np.ndarray, BlockGrid]]:
        """Per-layer scores of the per-row-sorted block rank positions.

        For each layer the block scores are sorted in increasing order within
        every block-row (Algorithm 1, line 6); summing each sorted column over
        the rows gives one aggregate score per rank position (line 7).  Lower
        scores mean the blocks occupying that rank position across rows are
        collectively unimportant.
        """
        results: Dict[str, Tuple[np.ndarray, BlockGrid]] = {}
        for name in self._layers:
            scores = saliency.get(name)
            if scores is None:
                scores = np.abs(self._layers[name].reshaped_weight())
            masked_scores = scores * fine_masks[name]
            blocks, grid = block_scores(masked_scores, self.config.block_size)
            sorted_rows = np.sort(blocks, axis=1)  # increasing per row
            rank_scores = sorted_rows.sum(axis=0)
            if self.config.normalize_rank_scores:
                rank_scores = rank_scores / max(1, grid.block_rows)
            results[name] = (rank_scores, grid)
        return results

    def _select_keep_blocks(
        self,
        rank_scores: Dict[str, Tuple[np.ndarray, BlockGrid]],
        target_sparsity: float,
    ) -> Dict[str, int]:
        """Globally rank all (layer, rank-position) candidates and pick how many
        blocks per row each layer keeps so the model meets ``target_sparsity``.
        """
        layer_elements = {
            name: layer.reshaped_weight().size for name, layer in self._layers.items()
        }
        total_elements = sum(layer_elements.values())
        nm_density = self.config.n / self.config.m

        # Start from the N:M-only state: all blocks kept.
        keep_blocks = {name: grid.block_cols for name, (_, grid) in rank_scores.items()}
        nonzero = sum(layer_elements[name] * nm_density for name in keep_blocks)
        allowed_nonzero = (1.0 - target_sparsity) * total_elements

        # Candidate rank positions, cheapest (least salient) first.  The
        # lowest rank positions are listed first per layer so pruning always
        # removes the least important remaining position of a layer.
        candidates: List[Tuple[float, str, int]] = []
        for name, (scores, grid) in rank_scores.items():
            max_prunable = grid.block_cols - self.config.min_keep_blocks_per_row
            for rank in range(max_prunable):
                candidates.append((float(scores[rank]), name, rank))
        candidates.sort(key=lambda item: item[0])

        pruned_positions: Dict[str, int] = {name: 0 for name in keep_blocks}
        for score, name, rank in candidates:
            if nonzero <= allowed_nonzero:
                break
            # Rank positions must be pruned in order within a layer.
            if rank != pruned_positions[name]:
                continue
            _, grid = rank_scores[name]
            elements_per_position = layer_elements[name] / grid.block_cols
            nonzero -= elements_per_position * nm_density
            pruned_positions[name] += 1
            keep_blocks[name] = grid.block_cols - pruned_positions[name]

        return keep_blocks

    def _apply_block_step(
        self,
        saliency: Dict[str, np.ndarray],
        fine_masks: Dict[str, np.ndarray],
        keep_blocks: Dict[str, int],
    ) -> None:
        """Install the hybrid (N:M x uniform-block) mask on every layer."""
        for name, layer in self._layers.items():
            scores = saliency.get(name)
            if scores is None:
                scores = np.abs(layer.reshaped_weight())
            fine = fine_masks[name]
            masked_scores = scores * fine
            blocks, grid = block_scores(masked_scores, self.config.block_size)
            keep = keep_blocks[name]
            keep = int(np.clip(keep, self.config.min_keep_blocks_per_row, grid.block_cols))
            # Keep the top-k blocks of every row; combined with the N:M mask this
            # is the hybrid pattern with uniform retained blocks per row.
            top_cols = np.argsort(blocks, axis=1)[:, ::-1][:, :keep]
            keep_grid = np.zeros_like(blocks)
            keep_grid[np.arange(grid.block_rows)[:, None], top_cols] = 1.0
            coarse = np.kron(keep_grid, np.ones((self.config.block_size, self.config.block_size)))
            coarse = coarse[: grid.rows, : grid.cols]
            layer.set_reshaped_mask(combine_masks(fine, coarse))
        self._keep_blocks = dict(keep_blocks)

    # --------------------------------------------------------------- finetune
    def _finetune(self, train_loader) -> float:
        if self.config.use_ste:
            ste_config = STEConfig(
                epochs=self.config.finetune_epochs,
                lr=self.config.finetune_lr,
                momentum=self.config.momentum,
                weight_decay=self.config.weight_decay,
                max_batches_per_epoch=self.config.max_batches_per_epoch,
            )
            return ste_finetune(self.model, lambda: iter(train_loader), ste_config)
        trainer = Trainer(
            self.model,
            TrainConfig(
                epochs=self.config.finetune_epochs,
                lr=self.config.finetune_lr,
                momentum=self.config.momentum,
                weight_decay=self.config.weight_decay,
                max_batches_per_epoch=self.config.max_batches_per_epoch,
            ),
        )
        result = trainer.fit(train_loader, val_loader=None)
        return result.train_loss[-1] if result.train_loss else float("nan")

    # ------------------------------------------------------------------ prune
    def prune(self, train_loader, val_loader=None) -> PruningResult:
        """Run the full iterative pruning loop.

        Parameters
        ----------
        train_loader:
            Loader over the user-preferred-class training samples; used both
            for saliency estimation and fine-tuning.
        val_loader:
            Optional loader for per-iteration accuracy tracking.
        """
        result = PruningResult(config=self.config)
        if val_loader is not None:
            result.baseline_accuracy = evaluate(self.model, iter(val_loader))

        schedule = self.config.build_schedule()
        for iteration, target in enumerate(schedule):
            saliency = self._saliency(lambda: iter(train_loader))
            fine_masks = self._apply_nm_step(saliency)
            rank_scores = self._rank_position_scores(saliency, fine_masks)
            keep_blocks = self._select_keep_blocks(rank_scores, target)
            self._apply_block_step(saliency, fine_masks, keep_blocks)

            loss = self._finetune(train_loader)

            achieved = model_sparsity(self.model)
            val_acc = evaluate(self.model, iter(val_loader)) if val_loader is not None else None
            result.history.append(
                PruningIterationRecord(
                    iteration=iteration,
                    target_sparsity=target,
                    achieved_sparsity=achieved,
                    finetune_loss=loss,
                    val_accuracy=val_acc,
                    layer_sparsity=layer_sparsities(self.model),
                    keep_blocks_per_row=dict(self._keep_blocks),
                )
            )

        # Freeze the final masks into the weights and run a recovery fine-tune
        # with mask-respecting updates (the paper's post-pruning fine-tuning,
        # which also re-calibrates the batch-norm statistics).
        self.model.apply_masks()
        recovery_epochs = (
            self.config.final_finetune_epochs
            if self.config.final_finetune_epochs is not None
            else self.config.finetune_epochs
        )
        if recovery_epochs > 0:
            trainer = Trainer(
                self.model,
                TrainConfig(
                    epochs=recovery_epochs,
                    lr=self.config.finetune_lr,
                    momentum=self.config.momentum,
                    weight_decay=self.config.weight_decay,
                    max_batches_per_epoch=self.config.max_batches_per_epoch,
                ),
            )
            trainer.fit(train_loader, val_loader=None)
            self.model.apply_masks()

        result.final_sparsity = model_sparsity(self.model)
        if val_loader is not None:
            result.final_accuracy = evaluate(self.model, iter(val_loader))
        return result


def crisp_prune(
    model: Module,
    train_loader,
    val_loader=None,
    config: Optional[CRISPConfig] = None,
) -> PruningResult:
    """One-call convenience wrapper around :class:`CRISPPruner`."""
    return CRISPPruner(model, config).prune(train_loader, val_loader)
