"""Multi-tenant serving layer: the reproduction's canonical top-level API.

The paper's premise is *per-user* pruned models — one CRISP-personalized
network per user profile.  This package turns those pruned artifacts into
addressable, cacheable, batch-servable tenants:

* :mod:`repro.serve.types` — typed request/response messages with JSON
  round-trip (:class:`EngineSpec`, :class:`PersonalizeRequest`,
  :class:`PredictRequest`, :class:`PredictResponse`).
* :mod:`repro.serve.registry` — :class:`ModelRegistry`: pruned weights +
  engine specs under stable model ids, with a save/load directory layout.
* :mod:`repro.serve.cache` — :class:`EngineCache`: capacity-bounded LRU of
  lazily materialized per-tenant engines.
* :mod:`repro.serve.scheduler` — :class:`BatchScheduler`: micro-batches
  mixed-tenant request streams into one fused dispatch per tenant.
* :mod:`repro.serve.api` — :class:`~repro.serve.api.ServingAPI`, the
  contract every deployment implements (this service and the sharded
  :class:`~repro.cluster.ClusterService`).
* :mod:`repro.serve.service` — :class:`PersonalizationService`: the facade
  wiring CRISP pruning → registry → cache → scheduler end to end.

Quickstart::

    from repro.serve import (
        PersonalizationService, PersonalizeRequest, PredictRequest, ServiceConfig,
    )

    service = PersonalizationService(ServiceConfig(cache_capacity=2))
    model_id = service.personalize(PersonalizeRequest(user_id=0, num_classes=3))
    response = service.predict(PredictRequest(model_id, batch))  # one tenant
    responses = service.predict_batch(mixed_requests)            # micro-batched
"""

from .cache import EngineCache
from .registry import ModelRecord, ModelRegistry
from .scheduler import BatchScheduler
from .service import (
    PersonalizationService,
    ServiceConfig,
    clear_universal_model_cache,
    set_universal_model_store,
    restrict_head_to_classes,
    universal_model,
)
from .types import EngineSpec, PersonalizeRequest, PredictRequest, PredictResponse

__all__ = [
    "EngineSpec",
    "PersonalizeRequest",
    "PredictRequest",
    "PredictResponse",
    "ModelRecord",
    "ModelRegistry",
    "EngineCache",
    "BatchScheduler",
    "PersonalizationService",
    "ServiceConfig",
    "universal_model",
    "clear_universal_model_cache",
    "set_universal_model_store",
    "restrict_head_to_classes",
]
