"""Compression metrics: sparsity, parameter counts, FLOPs and storage size.

The paper reports a *normalized FLOPs ratio* (pruned FLOPs / dense FLOPs) as
its compression measure (Fig. 7) and overall model sparsity for the headline
claims.  FLOPs are counted per layer from the traced activation shapes and
the retained-weight counts, so structured and unstructured masks are treated
consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..nn.layers import Conv2d, Linear
from ..nn.models.base import conv_input_sizes, prunable_layers
from ..nn.module import Module
from ..nn import functional as F
from ..sparsity.formats import CRISPFormat, DEFAULT_VALUE_BITS

__all__ = [
    "LayerStats",
    "ModelStats",
    "model_sparsity",
    "layer_sparsities",
    "collect_model_stats",
    "flops_ratio",
    "model_storage_bits",
]


@dataclass
class LayerStats:
    """Per-layer compression statistics."""

    name: str
    layer_type: str
    weight_shape: tuple
    total_weights: int
    nonzero_weights: int
    dense_flops: int
    sparse_flops: int

    @property
    def sparsity(self) -> float:
        return 1.0 - self.nonzero_weights / max(1, self.total_weights)


@dataclass
class ModelStats:
    """Whole-model compression statistics (aggregated over prunable layers)."""

    layers: List[LayerStats] = field(default_factory=list)

    @property
    def total_weights(self) -> int:
        return sum(layer.total_weights for layer in self.layers)

    @property
    def dense_flops(self) -> int:
        return sum(layer.dense_flops for layer in self.layers)

    @property
    def sparse_flops(self) -> int:
        return sum(layer.sparse_flops for layer in self.layers)

    @property
    def flops_ratio(self) -> float:
        """Normalized FLOPs ratio w.r.t. the dense model (smaller is better)."""
        return self.sparse_flops / max(1, self.dense_flops)

    def by_name(self) -> Dict[str, LayerStats]:
        return {layer.name: layer for layer in self.layers}


def _effective_nonzero(layer) -> int:
    """Non-zero weights of a layer, honouring the mask when installed."""
    weight = layer.weight
    if weight.mask is not None:
        return int(np.count_nonzero(weight.mask))
    return int(np.count_nonzero(weight.data))


def collect_model_stats(model: Module, input_size: Optional[int] = None) -> ModelStats:
    """Collect :class:`LayerStats` for every prunable layer of ``model``."""
    sizes = conv_input_sizes(model, input_size)
    stats = ModelStats()
    for name, layer in prunable_layers(model).items():
        total = layer.weight.size
        nonzero = _effective_nonzero(layer)
        if isinstance(layer, Conv2d):
            out_h, out_w = (
                F.conv_output_size(extent, layer.kernel_size, layer.stride, layer.padding)
                for extent in sizes[name]
            )
            out_positions = out_h * out_w
            dense_flops = 2 * total * out_positions
            sparse_flops = 2 * nonzero * out_positions
            shape = layer.weight.shape
        elif isinstance(layer, Linear):
            dense_flops = 2 * total
            sparse_flops = 2 * nonzero
            shape = layer.weight.shape
        else:  # pragma: no cover - defensive
            continue
        stats.layers.append(
            LayerStats(
                name=name,
                layer_type=type(layer).__name__,
                weight_shape=shape,
                total_weights=total,
                nonzero_weights=nonzero,
                dense_flops=dense_flops,
                sparse_flops=sparse_flops,
            )
        )
    return stats


def model_sparsity(model: Module) -> float:
    """Global weight sparsity over the prunable layers."""
    total = 0
    nonzero = 0
    for _, layer in prunable_layers(model).items():
        total += layer.weight.size
        nonzero += _effective_nonzero(layer)
    if total == 0:
        raise ValueError("Model has no prunable layers")
    return 1.0 - nonzero / total


def layer_sparsities(model: Module) -> Dict[str, float]:
    """Per-layer weight sparsity keyed by layer name (Fig. 2's distribution)."""
    result: Dict[str, float] = {}
    for name, layer in prunable_layers(model).items():
        result[name] = 1.0 - _effective_nonzero(layer) / max(1, layer.weight.size)
    return result


def flops_ratio(model: Module, input_size: Optional[int] = None) -> float:
    """Normalized FLOPs ratio of the (possibly pruned) model vs. its dense self."""
    return collect_model_stats(model, input_size).flops_ratio


def model_storage_bits(
    model: Module,
    n: int = 2,
    m: int = 4,
    block_size: int = 16,
    value_bits: int = DEFAULT_VALUE_BITS,
) -> Dict[str, int]:
    """Total storage (data + metadata bits) of the model in the CRISP format.

    Returns a dict with ``data_bits``, ``metadata_bits``, ``total_bits`` and
    the equivalent dense ``dense_bits`` for comparison.
    """
    data_bits = 0
    metadata_bits = 0
    dense_bits = 0
    for _, layer in prunable_layers(model).items():
        weight2d = layer.reshaped_weight()
        if layer.weight.mask is not None:
            c_out = weight2d.shape[1]
            mask2d = layer.weight.mask.reshape(c_out, -1).T
            weight2d = weight2d * mask2d
        encoded = CRISPFormat.from_dense(weight2d, n=n, m=m, block_size=block_size, value_bits=value_bits)
        summary = encoded.summary()
        data_bits += summary.data_bits
        metadata_bits += summary.metadata_bits
        dense_bits += weight2d.size * value_bits
    return {
        "data_bits": data_bits,
        "metadata_bits": metadata_bits,
        "total_bits": data_bits + metadata_bits,
        "dense_bits": dense_bits,
    }
