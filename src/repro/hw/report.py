"""Comparison reports across accelerators (the Fig. 8 harness primitive)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .accelerator import Accelerator, LayerPerformance
from .crisp_stc import CrispSTC
from .dense import DenseAccelerator
from .dstc import DualSideSTC
from .nvidia_stc import NvidiaSTC
from .workload import LayerWorkload

__all__ = ["LayerComparison", "ComparisonReport", "compare_accelerators", "default_accelerators"]


def default_accelerators(block_sizes: Sequence[int] = (16, 32, 64)) -> List[Accelerator]:
    """The accelerator line-up evaluated by the paper: dense, NVIDIA-STC, DSTC
    and CRISP-STC at several block sizes."""
    accelerators: List[Accelerator] = [DenseAccelerator(), NvidiaSTC(), DualSideSTC()]
    accelerators.extend(CrispSTC(block_size=b) for b in block_sizes)
    return accelerators


@dataclass
class LayerComparison:
    """Per-layer results across accelerators, with ratios vs. the dense baseline."""

    layer: str
    performance: Dict[str, LayerPerformance] = field(default_factory=dict)

    def speedup(self, accelerator: str, baseline: str = "dense") -> float:
        """Latency of ``baseline`` divided by latency of ``accelerator``."""
        return self.performance[baseline].cycles / self.performance[accelerator].cycles

    def energy_efficiency(self, accelerator: str, baseline: str = "dense") -> float:
        """Energy of ``baseline`` divided by energy of ``accelerator``."""
        return self.performance[baseline].energy_uj / self.performance[accelerator].energy_uj


@dataclass
class ComparisonReport:
    """Network-level comparison: one :class:`LayerComparison` per layer."""

    layers: List[LayerComparison] = field(default_factory=list)

    @property
    def accelerator_names(self) -> List[str]:
        return list(self.layers[0].performance) if self.layers else []

    def total_cycles(self, accelerator: str) -> float:
        return sum(layer.performance[accelerator].cycles for layer in self.layers)

    def total_energy_uj(self, accelerator: str) -> float:
        return sum(layer.performance[accelerator].energy_uj for layer in self.layers)

    def overall_speedup(self, accelerator: str, baseline: str = "dense") -> float:
        return self.total_cycles(baseline) / self.total_cycles(accelerator)

    def overall_energy_efficiency(self, accelerator: str, baseline: str = "dense") -> float:
        return self.total_energy_uj(baseline) / self.total_energy_uj(accelerator)

    def layer_speedups(self, accelerator: str, baseline: str = "dense") -> Dict[str, float]:
        return {layer.layer: layer.speedup(accelerator, baseline) for layer in self.layers}

    def rows(self, baseline: str = "dense") -> List[Dict[str, float]]:
        """Flat rows (one per layer x accelerator) suitable for tabular printing."""
        table: List[Dict[str, float]] = []
        for layer in self.layers:
            for name, perf in layer.performance.items():
                table.append(
                    {
                        "layer": layer.layer,
                        "accelerator": name,
                        "cycles": perf.cycles,
                        "energy_uj": perf.energy_uj,
                        "speedup_vs_dense": layer.speedup(name, baseline),
                        "energy_eff_vs_dense": layer.energy_efficiency(name, baseline),
                        "bound": perf.bound,
                    }
                )
        return table


def compare_accelerators(
    workloads: Sequence[LayerWorkload],
    accelerators: Optional[Sequence[Accelerator]] = None,
) -> ComparisonReport:
    """Run every accelerator model over every layer workload."""
    accelerators = list(accelerators) if accelerators is not None else default_accelerators()
    report = ComparisonReport()
    for workload in workloads:
        comparison = LayerComparison(layer=workload.name)
        for accelerator in accelerators:
            comparison.performance[accelerator.name] = accelerator.estimate(workload)
        report.layers.append(comparison)
    return report
