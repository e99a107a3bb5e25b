"""Tests for the shared-memory weight store (:mod:`repro.shm`)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.errors import InternalError, NotFoundError
from repro.nn.models import build_model
from repro.nn.models.base import prunable_layers
from repro.serve import EngineSpec, ModelRegistry
from repro.shm import SharedModelSource, SharedWeightStore, attach_segment


def _sparsified_model(seed=0, num_classes=5, input_size=12):
    model = build_model("resnet_tiny", num_classes=num_classes, input_size=input_size, seed=seed)
    for layer in prunable_layers(model).values():
        w = layer.weight.data
        layer.weight.set_mask((np.abs(w) >= np.quantile(np.abs(w), 0.6)).astype(np.float64))
    return model


def _registry(spec, tenants=1):
    registry = ModelRegistry()
    ids = [
        registry.register(_sparsified_model(seed=s), spec=spec, model_id=f"tenant-{s}")
        for s in range(tenants)
    ]
    return registry, ids


def _shm_exists(name):
    return os.path.exists(f"/dev/shm/{name}")


class TestTenantImage:
    def test_preserves_memory_order(self, tmp_path):
        """An F-ordered ``dense`` matrix comes back F-contiguous from a saved
        image and from a segment: repacking it C-contiguously changes BLAS
        summation order (a 1-ulp drift that breaks the bit-exact serving
        contract)."""
        registry, (model_id,) = _registry(EngineSpec(backend="fast", weight_format="dense"))
        stored = registry.get(model_id).formats
        assert all(f.matrix.flags.f_contiguous and not f.matrix.flags.c_contiguous
                   for f in stored.values())
        reloaded = ModelRegistry.load(registry.save(tmp_path)).get(model_id)
        with SharedWeightStore(registry) as store:
            source = SharedModelSource()
            try:
                source.install(store.ensure(model_id)[0])
                shared = source._models[model_id].record
                for record, writeable in ((reloaded, True), (shared, False)):
                    for name, fmt in record.formats.items():
                        np.testing.assert_array_equal(fmt.matrix, stored[name].matrix)
                        assert fmt.matrix.flags.f_contiguous
                        assert fmt.matrix.flags.writeable is writeable
                    for key, array in record.state.items():
                        np.testing.assert_array_equal(array, registry.get(model_id).state[key])
                        assert array.flags.writeable is writeable  # segment views are read-only
            finally:
                source.close()


class TestSharedWeightStore:
    @pytest.mark.parametrize(
        "weight_format", ["dense", "csr", "blocked-ellpack", "crisp"]
    )
    def test_round_trip_is_bit_exact_for_every_format(self, weight_format, rng):
        spec = EngineSpec(backend="fast", weight_format=weight_format, block_size=8)
        registry, (model_id,) = _registry(spec)
        batch = rng.normal(size=(2, 3, 12, 12))
        oracle = registry.build_engine(model_id).predict(batch)

        with SharedWeightStore(registry) as store:
            entry, version = store.ensure(model_id)
            # Parent-side consumer: the store maps its own segments.
            np.testing.assert_array_equal(store.build_engine(model_id).predict(batch), oracle)
            # Worker-side consumer: a fresh attach by segment name.
            source = SharedModelSource()
            try:
                source.install(entry)
                np.testing.assert_array_equal(
                    source.build_engine(model_id).predict(batch), oracle
                )
            finally:
                source.close()

    def test_ensure_is_cached_until_reregister(self, rng):
        registry, (model_id,) = _registry(EngineSpec(backend="fast", weight_format="csr"))
        store = SharedWeightStore(registry)
        try:
            entry1, v1 = store.ensure(model_id)
            entry2, v2 = store.ensure(model_id)
            assert v1 == v2 and entry1 is entry2  # same record -> no republish

            # Re-registering the id (re-personalization) replaces the record
            # object; the next ensure publishes a fresh segment and retires
            # the stale one from /dev/shm immediately.
            registry.register(
                _sparsified_model(seed=99), spec=EngineSpec(backend="fast", weight_format="csr"),
                model_id=model_id,
            )
            entry3, v3 = store.ensure(model_id)
            assert v3 > v2 and entry3["segment"] != entry1["segment"]
            assert not _shm_exists(entry1["segment"])
            assert _shm_exists(entry3["segment"])
            batch = rng.normal(size=(1, 3, 12, 12))
            np.testing.assert_array_equal(
                store.build_engine(model_id).predict(batch),
                registry.build_engine(model_id).predict(batch),
            )
        finally:
            store.close()

    def test_close_unlinks_every_segment_ever_created(self):
        registry, ids = _registry(EngineSpec(backend="fast", weight_format="csr"), tenants=3)
        store = SharedWeightStore(registry)
        for model_id in ids:
            store.ensure(model_id)
        live = store.segment_names()
        assert len(live) == 3 and all(_shm_exists(name) for name in live)

        store.close()
        assert store.segment_names(live_only=True) == []
        # The bookkeeping remembers every name, and none survives on disk.
        every = store.segment_names(live_only=False)
        assert len(every) == 3
        assert not any(_shm_exists(name) for name in every)
        store.close()  # idempotent

    def test_refcount_tracks_attached_workers(self):
        registry, _ = _registry(EngineSpec(backend="fast", weight_format="csr"))
        store = SharedWeightStore(registry)
        assert store.refs == 0
        store.acquire()
        store.acquire()
        assert store.refs == 2
        store.release()
        store.release()
        store.release()  # over-release clamps at zero
        assert store.refs == 0
        store.close()

    def test_closed_store_refuses_publication(self):
        registry, (model_id,) = _registry(EngineSpec(backend="fast", weight_format="csr"))
        store = SharedWeightStore(registry)
        store.close()
        with pytest.raises(InternalError):
            store.ensure(model_id)

    def test_unknown_model_raises_key_error(self):
        registry, _ = _registry(EngineSpec(backend="fast", weight_format="csr"))
        with SharedWeightStore(registry) as store:
            with pytest.raises(KeyError):
                store.ensure("ghost")


class TestSharedModelSource:
    def test_missing_manifest_is_not_found(self):
        source = SharedModelSource()
        with pytest.raises(NotFoundError):
            source.build_engine("ghost")
        assert "ghost" not in source and len(source) == 0

    def test_install_dedupes_by_version(self):
        registry, (model_id,) = _registry(EngineSpec(backend="fast", weight_format="csr"))
        with SharedWeightStore(registry) as store:
            entry, _ = store.ensure(model_id)
            source = SharedModelSource()
            try:
                assert source.install(entry) is False  # fresh install
                assert source.install(entry) is False  # same version: no-op
                assert source.model_ids() == [model_id]
            finally:
                source.close()

    def test_attach_segment_maps_live_named_segment(self):
        registry, (model_id,) = _registry(EngineSpec(backend="fast", weight_format="csr"))
        with SharedWeightStore(registry) as store:
            entry, _ = store.ensure(model_id)
            segment = attach_segment(entry["segment"])
            assert segment.buf is not None
            segment.close()
