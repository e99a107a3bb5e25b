"""Tests for the multi-tenant serving layer (:mod:`repro.serve`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import Engine
from repro.experiments.common import TINY_SCALE, make_service
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.serve import (
    BatchScheduler,
    EngineCache,
    EngineSpec,
    ModelRegistry,
    PersonalizationService,
    PersonalizeRequest,
    PredictRequest,
    PredictResponse,
    ServiceConfig,
)

SPEC = EngineSpec(backend="fast", weight_format="csr")


def _sparsified_model(seed=0, num_classes=6, input_size=12):
    """A tiny model with magnitude masks installed (no training needed)."""
    model = build_model("resnet_tiny", num_classes=num_classes, input_size=input_size, seed=seed)
    for layer in prunable_layers(model).values():
        w = layer.weight.data
        layer.weight.set_mask((np.abs(w) >= np.quantile(np.abs(w), 0.7)).astype(np.float64))
    return model


def _registry_with(*seeds):
    registry = ModelRegistry()
    ids = [
        registry.register(_sparsified_model(seed=s), spec=SPEC, model_id=f"tenant-{s}")
        for s in seeds
    ]
    return registry, ids


@pytest.fixture
def batch(rng):
    return rng.normal(size=(4, 3, 12, 12))


class TestTypes:
    def test_engine_spec_round_trip(self):
        spec = EngineSpec(backend="reference", weight_format="blocked-ellpack", n=1, m=4, block_size=8)
        assert EngineSpec.from_json(spec.to_json()) == spec

    def test_engine_spec_validates(self):
        with pytest.raises(ValueError):
            EngineSpec(weight_format="coo")
        with pytest.raises(ValueError):
            EngineSpec(n=3, m=2)

    def test_personalize_request_round_trip(self):
        request = PersonalizeRequest(
            user_id=7, preferred_classes=[2, 5, 9], target_sparsity=0.9,
            engine=EngineSpec(block_size=8),
        )
        assert PersonalizeRequest.from_json(request.to_json()) == request

    def test_personalize_request_needs_classes(self):
        with pytest.raises(ValueError):
            PersonalizeRequest(user_id=0)

    def test_predict_request_round_trip(self, batch):
        request = PredictRequest("m1", batch, request_id="r1")
        restored = PredictRequest.from_json(request.to_json())
        assert restored.model_id == "m1" and restored.request_id == "r1"
        np.testing.assert_allclose(restored.inputs, batch)

    def test_predict_request_promotes_single_image(self, batch):
        assert PredictRequest("m1", batch[0]).inputs.shape == (1, 3, 12, 12)

    def test_predict_response_round_trip(self, rng):
        logits = rng.normal(size=(4, 6))
        response = PredictResponse("r1", "m1", logits, logits.argmax(axis=1), batched_with=3)
        restored = PredictResponse.from_json(response.to_json())
        np.testing.assert_allclose(restored.logits, logits)
        np.testing.assert_array_equal(restored.classes, logits.argmax(axis=1))
        assert restored.batched_with == 3

    def test_engine_spec_build_and_engine_spec_agree(self, batch):
        model = _sparsified_model()
        assert Engine(model, **SPEC.to_dict()).spec == SPEC


class TestModelRegistry:
    def test_materialized_model_reproduces_predictions(self, batch):
        model = _sparsified_model()
        registry = ModelRegistry()
        model_id = registry.register(model, spec=SPEC)
        expected = Engine(model, **SPEC.to_dict()).predict(batch)
        rebuilt = registry.build_engine(model_id)
        np.testing.assert_allclose(rebuilt.predict(batch), expected, atol=1e-10)

    def test_stable_ids(self):
        from repro.data import UserProfile

        profile = UserProfile(user_id=3, preferred_classes=[1, 4])
        registry = ModelRegistry()
        id_a = registry.register(_sparsified_model(seed=0), spec=SPEC, profile=profile)
        id_b = registry.register(_sparsified_model(seed=1), spec=SPEC, profile=profile)
        assert id_a == id_b  # same (arch, spec, profile) -> same address
        assert "u3" in id_a
        other = UserProfile(user_id=4, preferred_classes=[1, 4])
        assert registry.register(_sparsified_model(), spec=SPEC, profile=other) != id_a

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            ModelRegistry().get("nope")

    def test_save_load_round_trip(self, tmp_path, batch):
        registry, (model_id,) = _registry_with(0)
        registry.get(model_id).metadata["accuracy"] = 0.75
        expected = registry.build_engine(model_id).predict(batch)
        registry.save(tmp_path / "models")

        reloaded = ModelRegistry.load(tmp_path / "models")
        assert reloaded.ids() == [model_id]
        record = reloaded.get(model_id)
        assert record.spec == SPEC
        assert record.metadata["accuracy"] == 0.75
        np.testing.assert_array_equal(reloaded.build_engine(model_id).predict(batch), expected)

    def test_save_preserves_masks(self, tmp_path):
        registry, (model_id,) = _registry_with(0)
        registry.save(tmp_path / "models")
        reloaded = ModelRegistry.load(tmp_path / "models")
        module = reloaded.materialize(model_id)
        masked = [l for l in prunable_layers(module).values() if l.weight.mask is not None]
        assert masked, "pruning masks must survive the save/load round trip"

    def test_masks_are_one_byte(self, tmp_path, batch):
        """Masks decode as ``bool``, from the registry and from a reloaded one."""
        registry, (model_id,) = _registry_with(0)
        state = _sparsified_model(seed=0).state_dict()
        mask_keys = [key for key in state if key.endswith("::mask")]
        assert mask_keys and all(state[key].dtype == bool for key in mask_keys)
        expected = registry.build_engine(model_id).predict(batch)

        registry.save(tmp_path / "models")
        reloaded = ModelRegistry.load(tmp_path / "models")
        rebuilt = reloaded.materialize(model_id).state_dict()
        for key in mask_keys:
            assert rebuilt[key].dtype == bool
            np.testing.assert_array_equal(rebuilt[key], state[key])
        np.testing.assert_array_equal(reloaded.build_engine(model_id).predict(batch), expected)


class TestRecordIsTheEncoding:
    """A record stores each prunable layer's encoding and the non-prunable
    state; a cache miss folds batch-norm into the stored arrays."""

    CRISP = EngineSpec(backend="fast", weight_format="crisp", block_size=8)

    def test_a_kept_weight_that_is_exactly_zero_reads_as_pruned(self):
        """The record keeps no mask: ``materialize`` reads the mask off the
        decoded weight's non-zeros."""
        model = _sparsified_model(seed=0)
        layer = next(iter(prunable_layers(model).values()))
        kept = tuple(np.argwhere(layer.weight.mask)[0])
        layer.weight.data[kept] = 0.0
        registry = ModelRegistry()
        model_id = registry.register(model, spec=SPEC)

        rebuilt = next(iter(prunable_layers(registry.materialize(model_id)).values()))
        assert not rebuilt.weight.mask[kept]
        expected_mask = layer.weight.mask.copy()
        expected_mask[kept] = False
        np.testing.assert_array_equal(rebuilt.weight.mask, expected_mask)
        np.testing.assert_array_equal(rebuilt.weight.effective(), layer.weight.effective())

    @pytest.mark.parametrize("weight_format", ["dense", "csr", "blocked-ellpack", "crisp"])
    def test_a_cache_miss_encodes_and_decodes_nothing(self, weight_format, monkeypatch):
        from repro.sparsity.formats import FORMATS

        registry = ModelRegistry()
        model_id = registry.register(
            _sparsified_model(), spec=EngineSpec(weight_format=weight_format, block_size=8)
        )
        calls = []

        def counted(cls, name):
            inner = cls.__dict__[name]
            func = getattr(inner, "__func__", inner)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return func(*args, **kwargs)

            return classmethod(wrapper) if isinstance(inner, classmethod) else wrapper

        for cls in FORMATS.values():
            for name in ("from_dense", "to_dense"):
                monkeypatch.setattr(cls, name, counted(cls, name))
        engine = EngineCache(registry, capacity=1).get(model_id)
        assert calls == []

        layers = prunable_layers(engine.module)  # decoded now, once
        assert calls == ["to_dense"] * len(layers)
        assert engine.module is engine.module and len(calls) == len(layers)
        for name, layer in prunable_layers(registry.materialize(model_id)).items():
            np.testing.assert_array_equal(layers[name].weight.data, layer.weight.data)
            np.testing.assert_array_equal(layers[name].weight.mask, layer.weight.mask)

    def test_a_format_that_does_not_fit_its_layer_fails_at_build_naming_it(self):
        from repro.errors import InternalError
        from repro.shm import SharedModelSource, SharedWeightStore

        registry = ModelRegistry()
        model_id = registry.register(_sparsified_model(), spec=self.CRISP)
        formats = registry.get(model_id).formats
        first, last = list(formats)[0], list(formats)[-1]
        formats[first], formats[last] = formats[last], formats[first]
        with pytest.raises(ValueError, match=repr(first)):
            registry.build_engine(model_id)
        with SharedWeightStore(registry) as store:
            entry, _ = store.ensure(model_id)
            source = SharedModelSource()  # what a process shard builds with
            try:
                source.install(entry)
                with pytest.raises(InternalError, match=repr(first)):
                    source.build_engine(model_id)
            finally:
                source.close()


class TestEngineCache:
    def test_lru_eviction_capacity_one(self, batch):
        registry, (id_a, id_b) = _registry_with(0, 1)
        cache = EngineCache(registry, capacity=1)

        engine_a = cache.get(id_a)
        assert cache.get(id_a) is engine_a  # hit reuses the instance
        cache.get(id_b)  # evicts id_a
        assert id_a not in cache and id_b in cache
        assert cache.get(id_a) is not engine_a  # rebuilt on return
        assert cache.stats() == {
            "capacity": 1, "resident": 1, "hits": 1, "misses": 3, "evictions": 2,
            "hit_rate": 0.25,
        }

    def test_lru_order_follows_use(self):
        registry, (id_a, id_b) = _registry_with(0, 1)
        cache = EngineCache(registry, capacity=2)
        cache.get(id_a)
        cache.get(id_b)
        cache.get(id_a)  # id_b is now least-recently-used
        assert cache.cached_ids() == [id_b, id_a]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            EngineCache(ModelRegistry(), capacity=0)

    def test_stats_counters_and_hit_rate(self):
        registry, (id_a, id_b) = _registry_with(0, 1)
        cache = EngineCache(registry, capacity=2)
        assert cache.stats()["hit_rate"] == 0.0  # no lookups yet
        cache.get(id_a)
        cache.get(id_a)
        cache.get(id_b)
        cache.evict(id_b)
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2 and stats["evictions"] == 1
        assert stats["hit_rate"] == pytest.approx(1 / 3)


class TestBatchScheduler:
    def test_mixed_batch_grouped_and_ordered(self, rng):
        registry, (id_a, id_b) = _registry_with(0, 1)
        scheduler = BatchScheduler(EngineCache(registry, capacity=2))
        inputs = [rng.normal(size=(2, 3, 12, 12)) for _ in range(4)]
        requests = [
            PredictRequest(id_a, inputs[0]),
            PredictRequest(id_b, inputs[1]),
            PredictRequest(id_a, inputs[2]),
            PredictRequest(id_b, inputs[3]),
        ]
        responses = scheduler.dispatch(requests)

        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        assert all(r.batched_with == 2 for r in responses)
        assert scheduler.dispatches == 2  # one fused call per tenant

        engine_a = registry.build_engine(id_a)
        engine_b = registry.build_engine(id_b)
        np.testing.assert_allclose(responses[0].logits, engine_a.predict(inputs[0]), atol=1e-10)
        np.testing.assert_allclose(responses[2].logits, engine_a.predict(inputs[2]), atol=1e-10)
        np.testing.assert_allclose(responses[1].logits, engine_b.predict(inputs[1]), atol=1e-10)
        np.testing.assert_allclose(responses[3].logits, engine_b.predict(inputs[3]), atol=1e-10)
        np.testing.assert_array_equal(responses[0].classes, responses[0].logits.argmax(axis=1))

    def test_max_batch_size_splits_groups(self, rng):
        registry, (id_a,) = _registry_with(0)
        scheduler = BatchScheduler(EngineCache(registry, capacity=1), max_batch_size=2)
        requests = [PredictRequest(id_a, rng.normal(size=(1, 3, 12, 12))) for _ in range(5)]
        responses = scheduler.dispatch(requests)
        assert scheduler.dispatches == 3  # 2 + 2 + 1
        assert [r.batched_with for r in responses] == [2, 2, 2, 2, 1]

    def test_max_batch_size_interleaved_multi_tenant(self, rng):
        """Submission order survives group splitting under mixed traffic."""
        registry, (id_a, id_b) = _registry_with(0, 1)
        scheduler = BatchScheduler(EngineCache(registry, capacity=2), max_batch_size=3)
        # 7 for tenant A interleaved with 5 for tenant B: A splits 3+3+1,
        # B splits 3+2 — five dispatches, none above the cap.
        requests = [
            PredictRequest(id_a if i % 2 == 0 or i >= 10 else id_b,
                           rng.normal(size=(1, 3, 12, 12)),
                           request_id=f"mix-{i:02d}")
            for i in range(12)
        ]
        responses = scheduler.dispatch(requests)

        assert [r.request_id for r in responses] == [r.request_id for r in requests]
        assert [r.model_id for r in responses] == [r.model_id for r in requests]
        assert scheduler.largest_group <= 3
        assert scheduler.dispatches == 5  # A: 3+3+1, B: 3+2
        assert max(r.batched_with for r in responses) <= 3
        for request, response in zip(requests, responses):
            engine = registry.build_engine(request.model_id)
            np.testing.assert_allclose(
                response.logits, engine.predict(request.inputs), atol=1e-10
            )

    def test_generated_ids_skip_reserved_and_counter_advances_only_on_generate(self, rng):
        registry, (id_a,) = _registry_with(0)
        scheduler = BatchScheduler(EngineCache(registry, capacity=1))
        inputs = rng.normal(size=(1, 3, 12, 12))
        # A caller-provided id must not advance the generator's counter...
        scheduler.submit(PredictRequest(id_a, inputs, request_id="caller-0"))
        assert scheduler.submit(PredictRequest(id_a, inputs)) == "req-000000"
        # ...and a caller id squatting the generated namespace is skipped over.
        scheduler.submit(PredictRequest(id_a, inputs, request_id="req-000001"))
        assert scheduler.submit(PredictRequest(id_a, inputs)) == "req-000002"
        scheduler.flush()
        # Reservation outlives the flush: the generator never reissues it.
        assert scheduler.submit(PredictRequest(id_a, inputs)) == "req-000003"

    def test_failed_dispatch_rolls_back_its_own_submissions(self, rng):
        registry, (id_a,) = _registry_with(0)
        scheduler = BatchScheduler(EngineCache(registry, capacity=1))
        inputs = rng.normal(size=(1, 3, 12, 12))
        staged = scheduler.submit(PredictRequest(id_a, inputs, request_id="staged"))
        with pytest.raises(ValueError, match="duplicate request id"):
            scheduler.dispatch([
                PredictRequest(id_a, inputs, request_id="batch-0"),
                PredictRequest(id_a, inputs, request_id="staged"),
            ])
        # The failed call's own submissions are gone; prior work is intact
        # and the next flush stays aligned with it.
        assert scheduler.pending == 1
        responses = scheduler.flush()
        assert [r.request_id for r in responses] == [staged]

    def test_duplicate_pending_id_raises(self, rng):
        registry, (id_a,) = _registry_with(0)
        scheduler = BatchScheduler(EngineCache(registry, capacity=1))
        inputs = rng.normal(size=(1, 3, 12, 12))
        scheduler.submit(PredictRequest(id_a, inputs, request_id="dup"))
        with pytest.raises(ValueError, match="duplicate request id"):
            scheduler.submit(PredictRequest(id_a, inputs, request_id="dup"))
        scheduler.flush()
        # Once answered, the id is no longer pending and may be reused.
        scheduler.submit(PredictRequest(id_a, inputs, request_id="dup"))
        assert len(scheduler.flush()) == 1

    def test_flush_empty_queue(self):
        registry, _ = _registry_with(0)
        scheduler = BatchScheduler(EngineCache(registry, capacity=1))
        assert scheduler.flush() == []


class TestPersonalizationService:
    """The acceptance-criteria round trip, at micro scale."""

    @pytest.fixture(scope="class")
    def service(self):
        from repro.experiments.common import ExperimentScale, clear_model_cache

        scale = ExperimentScale(
            name="serve-micro",
            dataset_preset="synthetic-tiny",
            model_name="resnet_tiny",
            pretrain_epochs=1,
            finetune_epochs=1,
            prune_iterations=1,
        )
        service = make_service(
            scale, cache_capacity=1, engine=EngineSpec(block_size=8)
        )
        yield service
        clear_model_cache()

    @pytest.fixture(scope="class")
    def model_ids(self, service):
        spec = EngineSpec(block_size=8)
        return [
            service.personalize(
                PersonalizeRequest(
                    user_id=user_id, num_classes=3, target_sparsity=0.7, engine=spec
                )
            )
            for user_id in range(2)
        ]

    def test_two_profiles_register_two_models(self, service, model_ids):
        assert len(set(model_ids)) == 2
        assert service.model_ids() == sorted(model_ids)
        for model_id in model_ids:
            record = service.registry.get(model_id)
            assert record.metadata["achieved_sparsity"] > 0.5
            assert record.profile is not None

    def test_mixed_batch_answered_correctly_with_capacity_one(self, service, model_ids):
        dataset = service.dataset()
        streams = []
        for model_id in model_ids:
            profile = service.registry.get(model_id).profile
            images, _ = dataset.split("val", classes=profile.preferred_classes)
            streams.append(images)

        requests = [
            PredictRequest(model_ids[i % 2], streams[i % 2][2 * i : 2 * i + 2])
            for i in range(4)
        ]
        responses = service.predict_batch(requests)

        assert [r.model_id for r in responses] == [r.model_id for r in requests]
        for model_id, stream_idx in zip(model_ids, range(2)):
            engine = service.registry.build_engine(model_id)
            for request, response in zip(requests, responses):
                if request.model_id != model_id:
                    continue
                np.testing.assert_allclose(
                    response.logits, engine.predict(request.inputs), atol=1e-10
                )

        # Capacity-1 cache: serving two tenants must have evicted the LRU one.
        stats = service.stats()
        assert stats["cache"]["capacity"] == 1
        assert stats["cache"]["evictions"] >= 1
        assert len(service.cache) == 1

    def test_stats_schema_shared_with_cluster_telemetry(self, service, model_ids):
        """The cache block carries the counters cluster dashboards read."""
        cache_stats = service.stats()["cache"]
        assert set(cache_stats) == {
            "capacity", "resident", "hits", "misses", "evictions", "hit_rate",
        }
        assert 0.0 <= cache_stats["hit_rate"] <= 1.0

    def test_single_predict_round_trip(self, service, model_ids, rng):
        response = service.predict(PredictRequest(model_ids[0], rng.normal(size=(2, 3, 12, 12))))
        assert response.model_id == model_ids[0]
        assert response.logits.shape == (2, 3)
        assert response.classes.shape == (2,)

    def test_engine_spec_falls_back_to_service_config(self, service, model_ids):
        model_id = service.personalize(
            PersonalizeRequest(user_id=9, num_classes=2, target_sparsity=0.7)
        )
        try:
            # No engine on the request: the service's configured spec applies.
            assert service.registry.get(model_id).spec == service.config.engine
        finally:
            service.registry.unregister(model_id)

    def test_personalize_evaluates_once_and_registers_that_accuracy(
        self, service, model_ids, monkeypatch
    ):
        """One ``evaluate`` per personalize (the pruner's four are not asked for)."""
        import repro.pruning.crisp as crisp
        import repro.serve.service as service_module
        from repro.data import build_user_loaders
        from repro.nn.trainer import evaluate

        calls = []

        def counting(model, batches):
            calls.append(model)
            return evaluate(model, batches)

        monkeypatch.setattr(crisp, "evaluate", counting)
        monkeypatch.setattr(service_module, "evaluate", counting)
        request = PersonalizeRequest(user_id=11, num_classes=3, target_sparsity=0.7)
        model_id = service.personalize(request)  # the universal model is cached by now
        try:
            assert len(calls) == 1
            record = service.registry.get(model_id)
            _, val_loader = build_user_loaders(
                service.dataset(request.seed),
                record.profile,
                batch_size=service.config.batch_size,
                samples_per_class=service.config.samples_per_class,
                seed=request.seed,
            )
            fresh = evaluate(service.registry.materialize(model_id), iter(val_loader))
            assert record.metadata["accuracy"] == fresh
        finally:
            service.registry.unregister(model_id)

    def test_repersonalizing_a_profile_keeps_its_id(self, service, model_ids):
        profile = service.registry.get(model_ids[0]).profile
        again = service.personalize(
            PersonalizeRequest(
                user_id=profile.user_id,
                preferred_classes=list(profile.preferred_classes),
                target_sparsity=0.7,
                engine=EngineSpec(block_size=8),
            )
        )
        assert again == model_ids[0]  # stable id: same profile + spec
        assert len(service.registry) == 2

    def test_service_save_load(self, service, model_ids, tmp_path, rng):
        batch = rng.normal(size=(2, 3, 12, 12))
        expected = service.predict(PredictRequest(model_ids[0], batch)).logits
        service.save(tmp_path / "fleet")
        reloaded = PersonalizationService.load(tmp_path / "fleet")
        assert reloaded.model_ids() == sorted(model_ids)
        np.testing.assert_allclose(
            reloaded.predict(PredictRequest(model_ids[0], batch)).logits, expected, atol=1e-10
        )

    def test_workloads_from_service(self, service, model_ids):
        from repro.hw import workloads_from_service

        workloads = workloads_from_service(service, model_ids[0], batch=2)
        assert workloads
        assert all(w.output_positions > 0 for w in workloads)
        assert any(w.weight_density < 1.0 for w in workloads)


class TestWritePathAgainstNCHWOracle:
    """The channel-last training kernels change no decision the write path makes.

    ``tests/nchw_kernels_oracle.py`` holds the NCHW bodies the kernels in
    ``repro.nn.functional`` replaced; layers look their kernels up on that
    module per call, so patching the old bodies in reruns the same code path
    the old way.
    """

    @staticmethod
    def _install_oracle(monkeypatch):
        import nchw_kernels_oracle as oracle
        from repro.nn import functional as F

        for name in oracle.ORACLE_KERNELS:
            monkeypatch.setattr(F, name, getattr(oracle, name))

    @staticmethod
    def _personalize_one():
        """Pre-train, personalize and serve one tenant from a cold model cache."""
        from repro.serve import clear_universal_model_cache

        clear_universal_model_cache()
        try:
            service = PersonalizationService(
                ServiceConfig(pretrain_epochs=1, engine=EngineSpec(weight_format="crisp"))
            )
            model_id = service.personalize(
                PersonalizeRequest(user_id=0, preferred_classes=[1, 4, 6], target_sparsity=0.8)
            )
            batch = np.random.default_rng(3).normal(size=(4, 3, 12, 12))
            response = service.predict(PredictRequest(model_id, batch))
            return service.registry.get(model_id), response.logits
        finally:
            # Never leave a model one side trained for the other, or a later test.
            clear_universal_model_cache()

    def test_personalize_is_identical_under_both_kernel_sets(self, monkeypatch):
        new_record, new_logits = self._personalize_one()
        self._install_oracle(monkeypatch)
        old_record, old_logits = self._personalize_one()

        new_layers = prunable_layers(new_record.build_module())
        old_layers = prunable_layers(old_record.build_module())
        for name, layer in new_layers.items():
            assert layer.weight.mask.dtype == bool
            np.testing.assert_array_equal(layer.weight.mask, old_layers[name].weight.mask)
        for key in ("achieved_sparsity", "accuracy", "universal_accuracy"):
            assert new_record.metadata[key] == old_record.metadata[key]
        np.testing.assert_allclose(new_logits, old_logits, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("arch", ["mobilenet_tiny", "vgg_tiny"])
    @pytest.mark.parametrize("training", [True, False])
    def test_untouched_kernels_take_channel_last_inputs(self, arch, training, monkeypatch):
        """Depthwise, ReLU6, max-pool and flatten now sit behind channel-last producers."""
        rng = np.random.default_rng(1)
        images = rng.normal(size=(4, 3, 12, 12))

        def run():
            model = build_model(arch, num_classes=5, input_size=12, seed=2)
            model.train(training)
            logits = model(images)
            grad_in = model.backward(np.cos(logits))
            grads = {name: p.grad for name, p in model.named_parameters()}
            return logits, grad_in, grads, model.state_dict()

        new_logits, new_grad_in, new_grads, new_state = run()
        self._install_oracle(monkeypatch)
        old_logits, old_grad_in, old_grads, old_state = run()

        np.testing.assert_allclose(new_logits, old_logits, rtol=0, atol=1e-10)
        assert new_grad_in.shape == old_grad_in.shape == images.shape
        np.testing.assert_allclose(new_grad_in, old_grad_in, rtol=0, atol=1e-10)
        assert new_grads.keys() == old_grads.keys()
        for name, grad in new_grads.items():
            np.testing.assert_allclose(grad, old_grads[name], rtol=0, atol=1e-10, err_msg=name)
        for name, value in new_state.items():  # batch-norm running statistics included
            np.testing.assert_allclose(value, old_state[name], rtol=0, atol=1e-10, err_msg=name)


class TestServeDemo:
    def test_request_replay_demo(self, capsys):
        from repro.experiments.serve_demo import ServeDemoConfig, run_serve_demo
        from repro.experiments.common import ExperimentScale, clear_model_cache

        scale = ExperimentScale(
            name="demo-micro",
            dataset_preset="synthetic-tiny",
            model_name="resnet_tiny",
            pretrain_epochs=1,
            finetune_epochs=1,
            prune_iterations=1,
        )
        reports = run_serve_demo(
            ServeDemoConfig(users=2, requests=6, scale=scale, target_sparsity=0.7)
        )
        clear_model_cache()
        assert list(reports) == ["local", "loopback"]
        for report in reports.values():
            assert (report.requests, report.completed, report.plan["tenants"]) == (6, 6, 2)
        assert len({report.predictions_digest() for report in reports.values()}) == 1
