"""Analytical accelerator performance model (Sparseloop-style).

Each accelerator front-end translates a :class:`~repro.hw.workload.LayerWorkload`
into three resource demands — useful compute (MAC operations with an
efficiency factor), shared-memory traffic and DRAM traffic — and the base
class turns them into a latency estimate with a roofline rule
(``cycles = max(compute, smem, dram)``) and an energy estimate from the
per-component energy model.

This mirrors how the paper evaluates CRISP-STC against NVIDIA-STC and DSTC:
none of the designs is emulated at RTL; an analytical cycle/energy model
driven by the sparsity structure of each layer is used instead (Sparseloop +
CACTI in the paper, this module here).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .energy import DEFAULT_ENERGY_MODEL, EnergyBreakdown, EnergyModel
from .workload import LayerWorkload

__all__ = ["AcceleratorSpec", "LayerPerformance", "Accelerator", "EDGE_SPEC"]


@dataclass(frozen=True)
class AcceleratorSpec:
    """Shared hardware resources of the modelled accelerators.

    The default numbers follow the paper's edge-centric CRISP-STC
    configuration: four tensor cores of 64 MACs each behind a 256 KB SMEM,
    with only a fraction of a datacenter GPU's SMEM bandwidth.
    """

    name: str = "edge-stc"
    num_macs: int = 256
    smem_kb: int = 256
    rf_kb_per_core: int = 1
    num_cores: int = 4
    smem_bandwidth_bytes_per_cycle: float = 128.0
    dram_bandwidth_bytes_per_cycle: float = 32.0
    frequency_mhz: float = 500.0
    #: When True, feature maps are assumed to stay resident in the 256 KB SMEM
    #: between layers (batch-1 edge inference), so only weights and metadata
    #: cross the DRAM boundary.  Set False to charge every accelerator for
    #: streaming input/output feature maps from/to DRAM as well.
    fmap_resident: bool = True

    def __post_init__(self) -> None:
        if self.num_macs <= 0:
            raise ValueError("num_macs must be positive")
        if self.smem_bandwidth_bytes_per_cycle <= 0 or self.dram_bandwidth_bytes_per_cycle <= 0:
            raise ValueError("bandwidths must be positive")


#: The edge configuration used for every accelerator in the Fig. 8 comparison.
EDGE_SPEC = AcceleratorSpec()


@dataclass
class LayerPerformance:
    """Latency / energy estimate for one layer on one accelerator."""

    accelerator: str
    layer: str
    cycles: float
    compute_cycles: float
    smem_cycles: float
    dram_cycles: float
    energy: EnergyBreakdown
    effective_macs: float
    utilization: float

    @property
    def energy_uj(self) -> float:
        return self.energy.total_uj

    @property
    def bound(self) -> str:
        """Which resource dominates the latency of this layer."""
        bounds = {
            "compute": self.compute_cycles,
            "smem": self.smem_cycles,
            "dram": self.dram_cycles,
        }
        return max(bounds, key=bounds.get)

    def latency_us(self, frequency_mhz: float) -> float:
        return self.cycles / frequency_mhz


@dataclass
class _ResourceDemand:
    """Intermediate resource demands produced by an accelerator front-end."""

    macs: float
    utilization: float
    smem_bytes: float
    dram_bytes: float
    rf_bytes: float = 0.0
    mux_selects: float = 0.0
    metadata_decodes: float = 0.0
    extra_cycles: float = 0.0


class Accelerator:
    """Base class: converts resource demands into latency and energy."""

    name = "base"

    def __init__(
        self,
        spec: AcceleratorSpec = EDGE_SPEC,
        energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    ) -> None:
        self.spec = spec
        self.energy_model = energy_model

    # -- to be provided by subclasses ------------------------------------------
    def _demand(self, workload: LayerWorkload) -> _ResourceDemand:  # pragma: no cover
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------
    def _activation_dram_bytes(self, workload: LayerWorkload, input_scale: float = 1.0) -> float:
        """DRAM bytes spent on feature maps (zero when they stay SMEM-resident)."""
        if self.spec.fmap_resident:
            return 0.0
        return workload.fmap_bytes * input_scale + workload.output_bytes

    # -- shared machinery --------------------------------------------------------
    def estimate(self, workload: LayerWorkload) -> LayerPerformance:
        """Latency and energy of one layer on this accelerator."""
        demand = self._demand(workload)
        if demand.utilization <= 0 or demand.utilization > 1:
            raise ValueError(f"Utilization must be in (0, 1], got {demand.utilization}")

        compute_cycles = demand.macs / (self.spec.num_macs * demand.utilization)
        compute_cycles += demand.extra_cycles
        smem_cycles = demand.smem_bytes / self.spec.smem_bandwidth_bytes_per_cycle
        dram_cycles = demand.dram_bytes / self.spec.dram_bandwidth_bytes_per_cycle
        cycles = max(compute_cycles, smem_cycles, dram_cycles)

        em = self.energy_model
        energy = EnergyBreakdown(
            mac_pj=demand.macs * em.mac_pj,
            rf_pj=demand.rf_bytes * em.rf_access_pj,
            smem_pj=demand.smem_bytes * em.smem_access_pj,
            dram_pj=demand.dram_bytes * em.dram_access_pj,
            mux_pj=demand.mux_selects * em.mux_select_pj,
            metadata_pj=demand.metadata_decodes * em.metadata_decode_pj,
            leakage_pj=cycles * em.leakage_pj_per_cycle,
        )
        return LayerPerformance(
            accelerator=self.name,
            layer=workload.name,
            cycles=cycles,
            compute_cycles=compute_cycles,
            smem_cycles=smem_cycles,
            dram_cycles=dram_cycles,
            energy=energy,
            effective_macs=demand.macs,
            utilization=demand.utilization,
        )

    def estimate_network(self, workloads: List[LayerWorkload]) -> List[LayerPerformance]:
        """Estimate every layer of a network (no inter-layer pipelining modelled)."""
        return [self.estimate(workload) for workload in workloads]

    def total_cycles(self, workloads: List[LayerWorkload]) -> float:
        return sum(perf.cycles for perf in self.estimate_network(workloads))
