"""Experiment E6 — Fig. 8: layer-wise speedup and energy efficiency of CRISP-STC.

Fig. 8 compares CRISP-STC (block sizes 16/32/64, N:M patterns 1:4 / 2:4 /
3:4, global sparsity 80-90 %) with NVIDIA-STC, DSTC and a dense accelerator
on representative ResNet-50 layers, reporting per-layer speedup and energy
efficiency relative to dense.  The experiment drives the analytical
accelerator models of :mod:`repro.hw` over the same layer set and sparsity
sweep and emits per-layer and aggregate rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..hw import CrispSTC, DenseAccelerator, DualSideSTC, NvidiaSTC, compare_accelerators, resnet50_reference_layers

__all__ = ["Fig8Config", "run_fig8", "aggregate_fig8"]


@dataclass
class Fig8Config:
    """Sweep configuration for the hardware comparison."""

    nm_ratios: Sequence[Tuple[int, int]] = ((1, 4), (2, 4), (3, 4))
    block_sizes: Sequence[int] = (16, 32, 64)
    global_sparsities: Sequence[float] = (0.80, 0.85, 0.90)
    activation_density: float = 0.6
    batch: int = 1


def run_fig8(config: Fig8Config | None = None) -> List[Dict]:
    """Run the accelerator comparison sweep.

    Row keys: ``pattern``, ``global_sparsity``, ``block_keep_ratio``,
    ``layer``, ``accelerator``, ``cycles``, ``energy_uj``,
    ``speedup_vs_dense``, ``energy_eff_vs_dense``, ``bound``.
    """
    config = config or Fig8Config()
    rows: List[Dict] = []

    for n, m in config.nm_ratios:
        for sparsity in config.global_sparsities:
            keep = min(1.0, (1.0 - sparsity) / (n / m))
            workloads = resnet50_reference_layers(
                n=n,
                m=m,
                block_keep_ratio=keep,
                activation_density=config.activation_density,
                batch=config.batch,
            )
            accelerators = [DenseAccelerator(), NvidiaSTC(), DualSideSTC()]
            accelerators.extend(CrispSTC(block_size=b) for b in config.block_sizes)
            report = compare_accelerators(workloads, accelerators)

            for record in report.rows():
                record = dict(record)
                record["pattern"] = f"{n}:{m}"
                record["global_sparsity"] = sparsity
                record["block_keep_ratio"] = keep
                rows.append(record)
    return rows


def aggregate_fig8(rows: List[Dict]) -> List[Dict]:
    """Aggregate the per-layer rows into network-level speedup / energy ratios.

    One row per (pattern, global sparsity, accelerator) with the total-cycle
    speedup and total-energy efficiency relative to dense — the summary
    numbers behind the paper's "up to 14x / 30x" claims.
    """
    groups: Dict[Tuple[str, float, str], Dict[str, float]] = {}
    for row in rows:
        key = (row["pattern"], row["global_sparsity"], row["accelerator"])
        entry = groups.setdefault(key, {"cycles": 0.0, "energy": 0.0})
        entry["cycles"] += row["cycles"]
        entry["energy"] += row["energy_uj"]

    aggregated: List[Dict] = []
    for (pattern, sparsity, accelerator), entry in groups.items():
        dense_entry = groups[(pattern, sparsity, "dense")]
        aggregated.append(
            {
                "pattern": pattern,
                "global_sparsity": sparsity,
                "accelerator": accelerator,
                "total_cycles": entry["cycles"],
                "total_energy_uj": entry["energy"],
                "speedup_vs_dense": dense_entry["cycles"] / entry["cycles"],
                "energy_eff_vs_dense": dense_entry["energy"] / entry["energy"],
            }
        )
    aggregated.sort(key=lambda r: (r["pattern"], r["global_sparsity"], r["accelerator"]))
    return aggregated
