"""Synthetic tenant fleets: many registered models, no training required.

Scenario runs need a fleet that is *cheap to build* (loadgen is about the
serving path, not the pruning path) yet exercises the real serving stack:
every tenant is a genuinely different sparsified model registered under a
stable id, served through real compressed-format engines.  Magnitude masks
stand in for CRISP pruning — same sparsity structure class, milliseconds to
build — exactly the construction the cluster test-suite and serving
benchmarks use.

Determinism: model weights are seeded per tenant, so the same
``(tenants, seed, ...)`` arguments rebuild the bit-identical fleet — which
is what makes a whole loadgen run (plan digest + predictions digest)
reproducible end to end.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..nn.models import build_model
from ..nn.models.base import prunable_layers
from ..serve.registry import ModelRegistry
from ..serve.types import EngineSpec

__all__ = ["magnitude_masked_model", "synthetic_fleet", "FLEET_INPUT_SHAPE"]

#: (C, H, W) of the requests a default fleet serves.
FLEET_INPUT_SHAPE = (3, 12, 12)


def magnitude_masked_model(
    model_name: str, num_classes: int, input_size: int, sparsity: float, seed: int
):
    """One tenant: a seeded model with every prunable layer's smallest
    ``sparsity`` share of weights masked out."""
    model = build_model(
        model_name, num_classes=num_classes, input_size=input_size, seed=seed
    )
    for layer in prunable_layers(model).values():
        w = layer.weight.data
        keep = (np.abs(w) >= np.quantile(np.abs(w), sparsity)).astype(np.float64)
        layer.weight.set_mask(keep)
    return model


def synthetic_fleet(
    tenants: int = 8,
    seed: int = 0,
    num_classes: int = 6,
    input_size: int = 12,
    sparsity: float = 0.7,
    model_name: str = "resnet_tiny",
    backend: str = "fast",
    spec: EngineSpec = None,
) -> Tuple[ModelRegistry, List[str]]:
    """Register ``tenants`` magnitude-sparsified models; returns (registry, ids).

    Tenant ``i`` is built from seed ``seed + i`` and registered as
    ``tenant-<i>``, so fleets are reproducible and ids sort in tenant order
    (the popularity models index into this list).  ``backend`` names the
    compute backend every tenant's engine spec pins (an explicit ``spec``
    overrides it wholesale).
    """
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")
    spec = spec or EngineSpec(backend=backend, weight_format="csr")
    registry = ModelRegistry()
    model_ids = []
    for i in range(tenants):
        model = magnitude_masked_model(
            model_name, num_classes, input_size, sparsity, seed + i
        )
        model_ids.append(
            registry.register(model, spec=spec, model_id=f"tenant-{i}")
        )
    return registry, model_ids
