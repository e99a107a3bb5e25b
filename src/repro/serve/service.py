"""The serving facade: CRISP pruning → registry → engine cache → scheduler.

:class:`PersonalizationService` is the canonical top-level API of the
reproduction.  One call personalizes a model for a user profile
(:meth:`~PersonalizationService.personalize` → stable model id), and one
call answers inference traffic against any registered id
(:meth:`~PersonalizationService.predict` /
:meth:`~PersonalizationService.predict_batch`), with engines cached per
tenant and mixed-tenant batches micro-batched by the scheduler.  The service
is a :class:`~repro.serve.api.ServingAPI` (``name = "local"``): a ``Gateway``
or a ``LoadDriver`` takes it as it is.

The module also owns the *universal model provider* — pre-training and
caching of the shared backbone each personalization starts from — which the
figure presets' setup steps (:mod:`repro.pipeline.figures`) consume through
the same functions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..data import (
    DataLoader,
    SyntheticImageDataset,
    UserProfile,
    build_user_loaders,
    make_dataset,
    sample_user_profile,
)
from ..nn.models import build_model
from ..nn.models.base import ClassifierModel, prunable_layers
from ..nn.trainer import TrainConfig, Trainer, evaluate
from ..pruning import CRISPConfig, crisp_prune
from .api import BatchResult, ServingAPI, _translated
from .cache import EngineCache
from .registry import ModelRegistry
from .scheduler import BatchScheduler
from .types import EngineSpec, PersonalizeRequest, PredictRequest

__all__ = [
    "ServiceConfig",
    "PersonalizationService",
    "universal_model",
    "clear_universal_model_cache",
    "set_universal_model_store",
    "restrict_head_to_classes",
]


# ---------------------------------------------------------------------------
# Universal model provider (shared backbone pre-training, cached per config)
# ---------------------------------------------------------------------------

#: Content key (sha256 of the training closure) -> (state_dict, accuracy).
_UNIVERSAL_CACHE: Dict[str, Tuple[Dict[str, np.ndarray], float]] = {}

#: Optional on-disk tier: a :class:`repro.pipeline.store.PipelineStore`
#: under which trained backbones persist across processes.
_UNIVERSAL_STORE = None

#: Step name universal models are filed under in the pipeline store.
_UNIVERSAL_STEP = "universal-model"


def clear_universal_model_cache() -> None:
    """Drop every cached pre-trained universal model (used by tests)."""
    _UNIVERSAL_CACHE.clear()


def set_universal_model_store(store) -> None:
    """Persist universal models through a pipeline store (``None`` disables).

    Accepts a :class:`repro.pipeline.store.PipelineStore` or a directory
    path.  Once set, a trained backbone is committed under its content key
    and later processes (or a resumed sweep) load it instead of retraining.
    """
    global _UNIVERSAL_STORE
    if store is None:
        _UNIVERSAL_STORE = None
        return
    from ..pipeline.store import PipelineStore

    _UNIVERSAL_STORE = store if isinstance(store, PipelineStore) else PipelineStore(store)


def _universal_model_key(spec: Dict[str, object], seed: int) -> str:
    """Content key of one universal-model training closure.

    Keyed by the full protocol *spec*, the *seed* and a fingerprint of the
    training code itself — not by names or paths — so editing the protocol
    or the trainer invalidates stale entries structurally (the old
    name-keyed cache served stale models when specs changed under the same
    name).
    """
    from ..pipeline.fingerprint import code_fingerprint, content_key

    return content_key(
        {"spec": spec, "seed": seed, "code": code_fingerprint(_train_universal)}
    )


def _train_universal(
    model_name: str,
    dataset_preset: str,
    pretrain_epochs: int,
    num_classes: int,
    input_size: int,
    batch_size: int,
    seed: int,
    dataset: Optional[SyntheticImageDataset] = None,
) -> Tuple[ClassifierModel, float]:
    """Actually pre-train one universal backbone (the fingerprinted closure)."""
    dataset = dataset or make_dataset(dataset_preset, seed=seed)
    all_classes = list(range(num_classes))
    train_x, train_y = dataset.split("train", classes=all_classes)
    val_x, val_y = dataset.split("val", classes=all_classes)
    train_loader = DataLoader(train_x, train_y, batch_size=batch_size, seed=seed)
    val_loader = DataLoader(val_x, val_y, batch_size=batch_size, shuffle=False)

    model = build_model(model_name, num_classes=num_classes, input_size=input_size, seed=seed)
    trainer = Trainer(model, TrainConfig(epochs=pretrain_epochs, lr=0.05))
    trainer.fit(train_loader, val_loader=None)
    accuracy = evaluate(model, iter(val_loader))
    return model, accuracy


def universal_model(
    model_name: str,
    dataset_preset: str,
    pretrain_epochs: int,
    num_classes: int,
    input_size: int,
    batch_size: int = 16,
    seed: int = 0,
    dataset: Optional[SyntheticImageDataset] = None,
) -> Tuple[ClassifierModel, float]:
    """Train (or fetch from cache) the universal model personalization starts from.

    Returns ``(model, validation_accuracy)``.  What is cached is the trained
    ``state_dict``; every call hands out a freshly built model loaded from it
    (in ``train()`` mode, no forward caches, no gradients) that the caller can
    prune.  The cache is keyed by a content hash of the full training closure
    (protocol spec, seed and a fingerprint of the training code), so
    experiments and services with the same protocol share one pre-trained
    backbone — and a *changed* protocol or trainer can never be served a
    stale entry.  With :func:`set_universal_model_store` configured, trained
    backbones also persist on disk under the same keys.
    """
    spec = {
        "model_name": model_name,
        "dataset_preset": dataset_preset,
        "pretrain_epochs": pretrain_epochs,
        "num_classes": num_classes,
        "input_size": input_size,
        "batch_size": batch_size,
    }
    key = _universal_model_key(spec, seed)
    if key not in _UNIVERSAL_CACHE:
        entry = (
            _UNIVERSAL_STORE.get(_UNIVERSAL_STEP, key)
            if _UNIVERSAL_STORE is not None
            else None
        )
        if entry is not None:
            with np.load(entry.artifact_dir / "state.npz") as npz:
                state = {name: npz[name] for name in npz.files}
            accuracy = float(entry.output["accuracy"])
        else:
            trained, accuracy = _train_universal(
                model_name,
                dataset_preset,
                pretrain_epochs,
                num_classes,
                input_size,
                batch_size,
                seed,
                dataset=dataset,
            )
            state = trained.state_dict()
            if _UNIVERSAL_STORE is not None:
                staging = _UNIVERSAL_STORE.staging_dir(_UNIVERSAL_STEP, key)
                np.savez(staging / "artifacts" / "state.npz", **state)
                _UNIVERSAL_STORE.commit(
                    _UNIVERSAL_STEP,
                    key,
                    {"accuracy": accuracy, "seed": seed, "spec": spec},
                    staging=staging,
                )
        _UNIVERSAL_CACHE[key] = (state, accuracy)

    state, accuracy = _UNIVERSAL_CACHE[key]
    model = build_model(model_name, num_classes=num_classes, input_size=input_size, seed=seed)
    model.load_state_dict(state)
    return model, accuracy


def restrict_head_to_classes(
    model: ClassifierModel, preferred_classes: Sequence[int], total_classes: int
) -> None:
    """Shrink the classification head to a user's preferred classes, in place.

    Keeps only the head rows of the preferred classes — the "focus the model
    on the classes the user sees" step the paper performs before pruning.
    The backbone is untouched.
    """
    from ..nn.layers import Linear

    # VGG wraps its head in a Sequential; the last prunable Linear is the head.
    linear_layers = [m for m in prunable_layers(model).values() if isinstance(m, Linear)]
    final = linear_layers[-1] if linear_layers else model.classifier
    if isinstance(final, Linear) and final.out_features == total_classes:
        keep_rows = np.asarray(list(preferred_classes))
        final.weight.data = final.weight.data[keep_rows].copy()
        if final.bias is not None:
            final.bias.data = final.bias.data[keep_rows].copy()
        final.out_features = len(keep_rows)
    model.num_classes = len(preferred_classes)


# ---------------------------------------------------------------------------
# The facade
# ---------------------------------------------------------------------------


@dataclass
class ServiceConfig:
    """Deployment-level knobs of a :class:`PersonalizationService`.

    The training-protocol fields mirror
    :class:`~repro.pipeline.figures.ExperimentScale` so an experiment scale
    converts directly into a service (see
    :func:`repro.experiments.common.make_service`).
    """

    model_name: str = "resnet_tiny"
    dataset_preset: str = "synthetic-tiny"
    pretrain_epochs: int = 2
    finetune_epochs: int = 1
    prune_iterations: int = 2
    batch_size: int = 16
    samples_per_class: Optional[int] = None
    cache_capacity: int = 4
    max_batch_size: Optional[int] = None
    engine: EngineSpec = field(default_factory=EngineSpec)
    seed: int = 0


class PersonalizationService(ServingAPI):
    """End-to-end multi-tenant serving: personalize, register, cache, batch.

    The scheduler, cache and counters are not thread-safe, and the HTTP
    transport runs gateway handlers on one thread per connection, so every
    public call takes the service lock once.  A single process serves one
    dispatch at a time anyway; concurrency is the cluster's job.

    Example
    -------
    >>> service = PersonalizationService(ServiceConfig(cache_capacity=2))
    >>> model_id = service.personalize(PersonalizeRequest(user_id=0, num_classes=3))
    >>> response = service.predict(PredictRequest(model_id, batch))
    >>> responses = service.predict_batch(mixed_tenant_requests)
    """

    name = "local"

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        registry: Optional[ModelRegistry] = None,
    ) -> None:
        # Deferred import: repro.cluster layers on repro.serve, so importing
        # its telemetry at module scope would be circular.
        from ..cluster.telemetry import LatencyHistogram

        self.config = config or ServiceConfig()
        self.registry = registry or ModelRegistry()
        self.cache = EngineCache(self.registry, capacity=self.config.cache_capacity)
        self.scheduler = BatchScheduler(self.cache, max_batch_size=self.config.max_batch_size)
        self.latency = LatencyHistogram()
        self.failed = 0
        self._datasets: Dict[int, SyntheticImageDataset] = {}
        self._lock = threading.Lock()

    # -- data -----------------------------------------------------------------
    def dataset(self, seed: Optional[int] = None) -> SyntheticImageDataset:
        """The service's dataset (cached per seed)."""
        seed = self.config.seed if seed is None else seed
        if seed not in self._datasets:
            self._datasets[seed] = make_dataset(self.config.dataset_preset, seed=seed)
        return self._datasets[seed]

    def _resolve_profile(self, request: PersonalizeRequest) -> UserProfile:
        if request.preferred_classes is not None:
            return UserProfile(
                user_id=request.user_id,
                preferred_classes=sorted(request.preferred_classes),
            )
        dataset = self.dataset(request.seed)
        return sample_user_profile(
            dataset,
            request.num_classes,
            user_id=request.user_id,
            seed=request.seed + request.user_id,
        )

    # -- personalization ------------------------------------------------------
    def personalize(self, request: PersonalizeRequest) -> str:
        """Build, prune and register a model for one user; return its model id.

        The pipeline is the paper's: pre-trained universal model → head
        restricted to the user's classes → CRISP pruning on the user's data →
        registry entry with the engine spec the weights were pruned for.

        Model ids are stable per (architecture, engine spec, profile):
        personalizing the same profile again — even with different pruning
        settings — refreshes the tenant's model *in place* under the same
        id (and evicts any cached engine so stale weights are never
        served).  The registry metadata records the settings behind the
        current weights.
        """
        with _translated(), self._lock:
            config = self.config
            dataset = self.dataset(request.seed)
            profile = self._resolve_profile(request)

            model, universal_accuracy = universal_model(
                config.model_name,
                config.dataset_preset,
                config.pretrain_epochs,
                num_classes=dataset.num_classes,
                input_size=dataset.image_size,
                batch_size=config.batch_size,
                seed=request.seed,
                dataset=dataset,
            )
            restrict_head_to_classes(model, profile.preferred_classes, dataset.num_classes)

            train_loader, val_loader = build_user_loaders(
                dataset,
                profile,
                batch_size=config.batch_size,
                samples_per_class=config.samples_per_class,
                seed=request.seed,
            )

            spec = request.engine or config.engine
            # No val_loader: the per-iteration accuracies it would buy are never
            # read here; the one evaluate below is the accuracy that is registered.
            result = crisp_prune(
                model,
                train_loader,
                val_loader=None,
                config=CRISPConfig(
                    n=spec.n,
                    m=spec.m,
                    block_size=spec.block_size,
                    target_sparsity=request.target_sparsity,
                    iterations=request.iterations or config.prune_iterations,
                    finetune_epochs=(
                        request.finetune_epochs
                        if request.finetune_epochs is not None
                        else config.finetune_epochs
                    ),
                    seed=request.seed,
                ),
            )

            model_id = self.registry.register(
                model,
                spec=spec,
                profile=profile,
                metadata={
                    "target_sparsity": request.target_sparsity,
                    "achieved_sparsity": result.final_sparsity,
                    "accuracy": evaluate(model, iter(val_loader)),
                    "universal_accuracy": universal_accuracy,
                },
            )
            # A re-personalized tenant must not be served stale weights.
            self.cache.evict(model_id)
            return model_id

    # -- inference ------------------------------------------------------------
    def engine(self, model_id: str):
        """The (cached) inference engine serving ``model_id``."""
        with _translated(), self._lock:
            return self.cache.get(model_id)

    def predict_batch(
        self, requests: Sequence[PredictRequest], timeout: Optional[float] = None
    ) -> List[BatchResult]:
        """Answer a mixed-tenant request batch through the micro-batching scheduler.

        The dispatch is all-or-nothing (the scheduler rolls back on a
        rejection), so a failure raises for the whole batch instead of
        riding in the list, and it is synchronous, so ``timeout`` has nothing
        to bound (deadline middleware enforces budgets above this layer).
        :meth:`predict` is a batch of one.  Each answered request records the
        dispatch's wall-clock time into the service latency histogram (that
        *is* the latency a synchronous caller observed); failed dispatches
        count into the ``errors`` stats block.
        """
        with _translated(), self._lock:
            start = time.perf_counter()
            try:
                responses = self.scheduler.dispatch(requests)
            except Exception:
                self.failed += len(requests)
                raise
            elapsed = time.perf_counter() - start
            for _ in responses:
                self.latency.record(elapsed)
            for request in requests:
                # Traced requests attribute the whole dispatch to the `service`
                # hop (scheduler + cache + engine, as a synchronous caller sees
                # it); the `engine` sub-span is recorded by the scheduler.
                if request.trace is not None:
                    request.trace.add("service", elapsed)
            return responses

    # -- introspection / persistence ------------------------------------------
    def model_ids(self) -> List[str]:
        return self.registry.ids()

    def stats(self) -> Dict[str, object]:
        """Service counters in the unified serving schema.

        The top-level ``latency`` / ``cache`` / ``queue`` / ``errors`` blocks
        are the cross-deployment contract (validated by
        :func:`repro.cluster.telemetry.assert_stats_schema` and shared with
        ``ClusterService.stats()`` and ``Gateway.stats()``); ``models`` and
        ``scheduler`` are this facade's own extras.
        """
        from ..cluster.telemetry import assert_stats_schema
        from ..trace import trace_block

        with self._lock:
            scheduler = self.scheduler.stats()
            payload = {
                "models": len(self.registry),
                "latency": self.latency.summary(),
                "cache": self.cache.stats(),
                "queue": {
                    "pending": scheduler["pending"],
                    "max_depth": scheduler["depth_max"],
                },
                "errors": {"failed": self.failed, "rejected": 0},
                "scheduler": scheduler,
            }
        block = trace_block()
        if block is not None:
            payload["trace"] = block
        return assert_stats_schema(payload)

    def save(self, root) -> None:
        """Persist every registered model under ``root`` (registry layout)."""
        self.registry.save(root)

    @classmethod
    def load(cls, root, config: Optional[ServiceConfig] = None) -> "PersonalizationService":
        """Rebuild a service over a registry directory written by :meth:`save`."""
        return cls(config=config, registry=ModelRegistry.load(root))
