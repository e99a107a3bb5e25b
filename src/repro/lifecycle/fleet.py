"""Versioned drift fleets: synthetic tenants whose heads can be re-pruned.

Builds on :func:`repro.loadgen.synthetic_fleet` with the two extras the
lifecycle loop needs:

* every tenant's v1 record carries a ``classes`` head in its metadata,
  aligned with the tenant's *phase-0* hot classes from a
  :class:`~repro.loadgen.ClassDriftPopularity` schedule — so at the start
  of a drift scenario every tenant serves its traffic perfectly, and the
  accuracy cliff that follows is entirely the drift's doing;
* :func:`synthetic_repersonalizer` returns the ``repersonalize`` callback a
  :class:`~repro.lifecycle.manager.LifecycleManager` calls on drift: a
  magnitude-masked rebuild (the same construction as the fleet) whose seed
  folds in the tenant index *and* version number, so successive versions of
  one tenant have observably different weights — which is what makes
  "rollback restores bit-exact old-version responses" a real claim.
"""

from __future__ import annotations

import hashlib
from typing import Callable, List, Tuple

from ..loadgen.fleet import magnitude_masked_model, synthetic_fleet
from ..loadgen.popularity import ClassDriftPopularity
from ..serve.registry import ModelRegistry

__all__ = ["drift_fleet", "synthetic_repersonalizer"]


def drift_fleet(
    popularity: ClassDriftPopularity,
    tenants: int = 8,
    seed: int = 0,
    input_size: int = 12,
    sparsity: float = 0.7,
    model_name: str = "resnet_tiny",
    backend: str = "fast",
) -> Tuple[ModelRegistry, List[str]]:
    """A synthetic fleet whose v1 heads match the drift schedule's phase 0."""
    registry, model_ids = synthetic_fleet(
        tenants=tenants,
        seed=seed,
        num_classes=popularity.num_classes,
        input_size=input_size,
        sparsity=sparsity,
        model_name=model_name,
        backend=backend,
    )
    for i, model_id in enumerate(model_ids):
        registry.get(model_id).metadata.update(
            classes=sorted(popularity.hot_classes(i, 0)),
            version=1,
            personalized_at=0.0,
        )
    return registry, model_ids


def synthetic_repersonalizer(
    registry: ModelRegistry,
    seed: int = 0,
    sparsity: float = 0.7,
    model_name: str = "resnet_tiny",
) -> Callable:
    """The ``repersonalize`` callback for synthetic drift fleets.

    Rebuilds the tenant's architecture (num_classes / input_size read from
    its base record) with seed ``seed + 7919 * version + tenant_index`` and
    the fleet's magnitude-mask construction, and hands back the module plus
    a metadata head of ``target_classes`` — deterministic per (seed,
    tenant, version), different weights per version.
    """

    def repersonalize(tenant: str, target_classes, version: int):
        record = registry.get(tenant)
        suffix = tenant.rsplit("-", 1)[-1]
        tenant_index = (
            int(suffix)
            if suffix.isdigit()
            else int.from_bytes(
                hashlib.sha256(tenant.encode()).digest()[:4], "big"
            ) % 7919
        )
        module = magnitude_masked_model(
            model_name,
            record.num_classes,
            record.input_size,
            sparsity,
            seed + 7919 * version + tenant_index,
        )
        return module, {"classes": sorted(int(c) for c in target_classes)}

    return repersonalize
