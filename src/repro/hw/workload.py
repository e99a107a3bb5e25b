"""Layer workload descriptions consumed by the accelerator models.

A :class:`LayerWorkload` captures everything the analytical performance model
needs about one convolution/linear layer after im2col lowering: the GEMM
dimensions, the structured-sparsity parameters of the weights and the
activation density.  Workloads can be extracted from a live (pruned) model or
instantiated from the reference ResNet-50 layer table used for the Fig. 8
hardware comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..nn import functional as F
from ..nn.layers import Conv2d, Linear
from ..nn.models.base import conv_input_sizes, prunable_layers
from ..nn.module import Module
from ..sparsity.formats import FORMATS

__all__ = [
    "LayerWorkload",
    "workloads_from_model",
    "workloads_from_engine",
    "workloads_from_service",
    "resnet50_reference_layers",
]


@dataclass
class LayerWorkload:
    """One GEMM-shaped layer workload.

    Attributes
    ----------
    name:
        Layer identifier (for reporting).
    out_channels:
        ``S`` — output channels / GEMM output rows.
    reduction:
        ``K = H*W*R`` — the GEMM reduction dimension.
    output_positions:
        Number of output spatial positions times the batch size (GEMM columns).
    n, m:
        Fine-grained N:M ratio of the weights (``m == n`` means dense).
    block_keep_ratio:
        Fraction of weight blocks retained by coarse pruning (1.0 = no block
        pruning).
    weight_density:
        Overall fraction of non-zero weights (usually
        ``block_keep_ratio * n / m``; kept explicit so measured models can
        report their exact density).
    activation_density:
        Fraction of non-zero input activations (ReLU networks typically sit
        around 0.4-0.6; DSTC exploits this).
    weight_bits, activation_bits:
        Operand widths in bits (8-bit quantised inference by default).
    input_fmap_bytes:
        Bytes of the *unexpanded* input feature map (what actually crosses
        the DRAM boundary).  The im2col-expanded stream (``input_bytes``)
        over-counts DRAM traffic by the kernel-overlap factor, so extraction
        helpers fill this in; when ``None`` it falls back to ``input_bytes``.
    """

    name: str
    out_channels: int
    reduction: int
    output_positions: int
    n: int = 4
    m: int = 4
    block_keep_ratio: float = 1.0
    weight_density: float = 1.0
    activation_density: float = 0.6
    weight_bits: int = 8
    activation_bits: int = 8
    input_fmap_bytes: Optional[float] = None

    def __post_init__(self) -> None:
        if self.out_channels <= 0 or self.reduction <= 0 or self.output_positions <= 0:
            raise ValueError(f"Workload dimensions must be positive: {self}")
        if not 0 < self.n <= self.m:
            raise ValueError(f"Invalid N:M ratio {self.n}:{self.m}")
        if not 0.0 < self.block_keep_ratio <= 1.0:
            raise ValueError(f"block_keep_ratio must be in (0, 1], got {self.block_keep_ratio}")
        if not 0.0 < self.weight_density <= 1.0:
            raise ValueError(f"weight_density must be in (0, 1], got {self.weight_density}")
        if not 0.0 < self.activation_density <= 1.0:
            raise ValueError(
                f"activation_density must be in (0, 1], got {self.activation_density}"
            )

    # -- derived quantities ----------------------------------------------------
    @property
    def dense_macs(self) -> int:
        """MACs of the dense GEMM."""
        return self.out_channels * self.reduction * self.output_positions

    @property
    def effective_macs(self) -> float:
        """MACs that touch a non-zero weight."""
        return self.dense_macs * self.weight_density

    @property
    def nm_sparsity(self) -> float:
        return 1.0 - self.n / self.m

    @property
    def weight_sparsity(self) -> float:
        return 1.0 - self.weight_density

    @property
    def dense_weight_bytes(self) -> float:
        return self.out_channels * self.reduction * self.weight_bits / 8.0

    @property
    def input_bytes(self) -> float:
        """Bytes of the (dense) im2col input tile stream (on-chip traffic)."""
        return self.reduction * self.output_positions * self.activation_bits / 8.0

    @property
    def fmap_bytes(self) -> float:
        """Bytes of the raw input feature map (off-chip traffic)."""
        if self.input_fmap_bytes is not None:
            return self.input_fmap_bytes
        return self.input_bytes

    @property
    def output_bytes(self) -> float:
        return self.out_channels * self.output_positions * self.activation_bits / 8.0

    def with_sparsity(
        self,
        n: Optional[int] = None,
        m: Optional[int] = None,
        block_keep_ratio: Optional[float] = None,
        activation_density: Optional[float] = None,
    ) -> "LayerWorkload":
        """Return a copy with a different sparsity configuration."""
        n = self.n if n is None else n
        m = self.m if m is None else m
        keep = self.block_keep_ratio if block_keep_ratio is None else block_keep_ratio
        act = self.activation_density if activation_density is None else activation_density
        return LayerWorkload(
            name=self.name,
            out_channels=self.out_channels,
            reduction=self.reduction,
            output_positions=self.output_positions,
            n=n,
            m=m,
            block_keep_ratio=keep,
            weight_density=keep * n / m,
            activation_density=act,
            weight_bits=self.weight_bits,
            activation_bits=self.activation_bits,
            input_fmap_bytes=self.input_fmap_bytes,
        )


def workloads_from_model(
    model: Module,
    input_size: Optional[int] = None,
    batch: int = 1,
    activation_density: float = 0.6,
    n: Optional[int] = None,
    m: Optional[int] = None,
    block_size: Optional[int] = None,
) -> List[LayerWorkload]:
    """Extract per-layer workloads (with measured weight density) from a model.

    The model is traced with a dummy input to recover output spatial sizes;
    weight density comes from the installed masks, so a CRISP-pruned model
    yields workloads reflecting its actual sparsity.

    When the hybrid-sparsity structure of the model is known, pass ``n``,
    ``m`` and ``block_size`` so the per-layer block keep ratio is measured
    from the masks (retained blocks / total blocks) and the accelerator
    models can exploit it.  Without them, all measured sparsity is attributed
    to the coarse (block) component, which is the structure CRISP produces.
    """
    sizes = conv_input_sizes(model, input_size)

    workloads: List[LayerWorkload] = []
    for name, layer in prunable_layers(model).items():
        if isinstance(layer, Conv2d):
            h, w = sizes[name]
            out_h = F.conv_output_size(h, layer.kernel_size, layer.stride, layer.padding)
            out_w = F.conv_output_size(w, layer.kernel_size, layer.stride, layer.padding)
            positions = out_h * out_w * batch
            reduction = layer.in_channels * layer.kernel_size * layer.kernel_size
            out_channels = layer.out_channels
            fmap_bytes = float(layer.in_channels * h * w * batch)
        elif isinstance(layer, Linear):
            positions = batch
            reduction = layer.in_features
            out_channels = layer.out_features
            fmap_bytes = float(layer.in_features * batch)
        else:  # pragma: no cover - defensive
            continue
        density = max(layer.weight.density(), 1e-3)

        layer_n = n if n is not None else 4
        layer_m = m if m is not None else 4
        if block_size is not None and layer.weight.mask is not None:
            from ..sparsity.block import partition_into_blocks

            mask2d = layer.weight.mask.reshape(out_channels, -1).T
            tiles, grid = partition_into_blocks(mask2d, block_size)
            retained = (
                tiles.reshape(grid.block_rows, grid.block_cols, -1).any(axis=2).mean()
            )
            keep_ratio = max(float(retained), 1e-3)
        else:
            # Attribute all measured sparsity beyond the N:M floor to blocks.
            keep_ratio = min(1.0, max(density / (layer_n / layer_m), 1e-3))

        workloads.append(
            LayerWorkload(
                name=name,
                out_channels=out_channels,
                reduction=reduction,
                output_positions=positions,
                n=layer_n,
                m=layer_m,
                block_keep_ratio=keep_ratio,
                weight_density=density,
                activation_density=activation_density,
                input_fmap_bytes=fmap_bytes,
            )
        )
    return workloads


def workloads_from_engine(
    engine,
    batch: int = 1,
    activation_density: float = 0.6,
) -> List[LayerWorkload]:
    """Extract per-layer workloads from an inference :class:`~repro.backend.Engine`.

    The engine already knows the hybrid-sparsity configuration its weights
    were compressed with (``n``, ``m``, ``block_size``), so the accelerator
    models receive workloads whose block keep ratios are measured from the
    installed masks rather than inferred from overall density.  This is the
    bridge that lets experiments drive the hardware model and the inference
    engine from one object.
    """
    spec = engine.spec
    stored = FORMATS[spec.weight_format].param_names
    blocked = "block_size" in stored
    # Only a format that stores N:M groups guarantees the fine-grained
    # structure; for the others the spec's n:m is incidental, and crediting
    # it would let the accelerator models assume a speedup the weights do
    # not satisfy.
    nm_structured = "n" in stored
    return workloads_from_model(
        engine.module,
        batch=batch,
        activation_density=activation_density,
        n=spec.n if nm_structured else None,
        m=spec.m if nm_structured else None,
        block_size=spec.block_size if blocked else None,
    )


def workloads_from_service(
    service,
    model_id: str,
    batch: int = 1,
    activation_density: float = 0.6,
) -> List[LayerWorkload]:
    """Extract workloads for one registered tenant of a serving deployment.

    Accepts anything with the :class:`~repro.serve.api.ServingAPI`
    ``engine(model_id)`` contract:

    * a :class:`~repro.serve.PersonalizationService` — the engine comes from
      the single-process cache;
    * a :class:`~repro.cluster.ClusterService` — the request routes through
      the consistent-hash ring to the *owning shard's* cache, so hardware
      reports model exactly the engine a sharded deployment would serve this
      tenant with (same spec, same materialized formats, same shard
      residency).

    Either way, hardware-model sweeps over a fleet of personalized tenants
    reuse the same materialized engines as the inference traffic they are
    modelling.
    """
    engine = service.engine(model_id)
    return workloads_from_engine(
        engine, batch=batch, activation_density=activation_density
    )


#: Representative ResNet-50 layers (ImageNet, 224x224 input) used by Fig. 8:
#: (name, out_channels, in_channels, kernel, output_spatial, input_spatial).
#: Early layers have large spatial extent and few channels, late layers the
#: opposite — the property that flips DSTC from compute-bound to
#: data-movement/starvation-bound.
_RESNET50_LAYER_TABLE = [
    ("conv1", 64, 3, 7, 112, 224),
    ("layer1.0.conv2", 64, 64, 3, 56, 56),
    ("layer1.2.conv3", 256, 64, 1, 56, 56),
    ("layer2.0.conv2", 128, 128, 3, 28, 28),
    ("layer2.3.conv3", 512, 128, 1, 28, 28),
    ("layer3.0.conv2", 256, 256, 3, 14, 14),
    ("layer3.5.conv3", 1024, 256, 1, 14, 14),
    ("layer4.0.conv2", 512, 512, 3, 7, 7),
    ("layer4.2.conv3", 2048, 512, 1, 7, 7),
]


def resnet50_reference_layers(
    n: int = 2,
    m: int = 4,
    block_keep_ratio: float = 0.4,
    activation_density: float = 0.6,
    batch: int = 1,
) -> List[LayerWorkload]:
    """Workloads for representative full-scale ResNet-50 layers (Fig. 8 setup).

    The default ``block_keep_ratio`` of 0.4 together with 2:4 puts the global
    weight sparsity at 80 %, the lower end of the 80-90 % range the paper
    evaluates.
    """
    workloads = []
    for name, out_c, in_c, kernel, spatial, in_spatial in _RESNET50_LAYER_TABLE:
        workloads.append(
            LayerWorkload(
                name=name,
                out_channels=out_c,
                reduction=in_c * kernel * kernel,
                output_positions=spatial * spatial * batch,
                n=n,
                m=m,
                block_keep_ratio=block_keep_ratio,
                weight_density=block_keep_ratio * n / m,
                activation_density=activation_density,
                input_fmap_bytes=float(in_c * in_spatial * in_spatial * batch),
            )
        )
    return workloads
