"""Experiment E8 — headline claims of the paper.

Aggregates the sweeps behind the abstract-level claims:

* CRISP maintains high accuracy (relative to the dense fine-tuned upper
  bound) at >90 % sparsity, where block pruning collapses (from E3);
* CRISP-STC delivers up to ~14x latency and large energy reductions compared
  to existing sparse accelerators and the dense baseline (from E6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .fig3_crisp_vs_block import Fig3Config, run_fig3
from .fig8_hardware import Fig8Config, aggregate_fig8, run_fig8

__all__ = ["HeadlineConfig", "run_headline"]


@dataclass
class HeadlineConfig:
    """Configuration bundling the accuracy and hardware headline sweeps."""

    fig3: Fig3Config = None
    fig8: Fig8Config = None

    def __post_init__(self) -> None:
        if self.fig3 is None:
            self.fig3 = Fig3Config(sparsity_levels=(0.875,), block_sizes=(8,))
        if self.fig8 is None:
            self.fig8 = Fig8Config(global_sparsities=(0.90,))


def run_headline(config: HeadlineConfig | None = None) -> Dict[str, float]:
    """Compute the headline summary numbers.

    Returns a dict with:

    * ``crisp_accuracy`` / ``block_accuracy`` / ``dense_accuracy`` at the
      high-sparsity point and ``crisp_sparsity``,
    * ``max_speedup`` and ``max_energy_efficiency`` of CRISP-STC over the
      dense accelerator, plus the same for NVIDIA-STC and DSTC.
    """
    config = config or HeadlineConfig()

    accuracy_rows = run_fig3(config.fig3)
    crisp_rows = [r for r in accuracy_rows if r["method"] == "crisp"]
    block_rows = [r for r in accuracy_rows if r["method"] == "block"]

    hardware_rows = aggregate_fig8(run_fig8(config.fig8))
    crisp_hw = [r for r in hardware_rows if r["accelerator"].startswith("crisp")]
    nvidia_hw = [r for r in hardware_rows if r["accelerator"] == "nvidia-stc"]
    dstc_hw = [r for r in hardware_rows if r["accelerator"] == "dstc"]

    summary: Dict[str, float] = {
        "crisp_accuracy": max(r["accuracy"] for r in crisp_rows),
        "block_accuracy": max(r["accuracy"] for r in block_rows),
        "dense_accuracy": crisp_rows[0]["dense_accuracy"],
        "crisp_sparsity": max(r["achieved_sparsity"] for r in crisp_rows),
        "max_speedup": max(r["speedup_vs_dense"] for r in crisp_hw),
        "max_energy_efficiency": max(r["energy_eff_vs_dense"] for r in crisp_hw),
        "nvidia_max_speedup": max(r["speedup_vs_dense"] for r in nvidia_hw),
        "dstc_max_speedup": max(r["speedup_vs_dense"] for r in dstc_hw),
    }
    return summary
