"""Tests for the model zoo (topology, forward/backward, registry)."""

import copy
import pickle

import numpy as np
import pytest

from repro.nn.layers import Conv2d, DepthwiseConv2d, Linear
from repro.nn.models import (
    MODEL_REGISTRY,
    available_models,
    build_model,
    mobilenet_tiny,
    mobilenet_v2,
    resnet50,
    resnet_tiny,
    vgg16,
    vgg_tiny,
)
from repro.nn.models.base import conv_input_sizes, layer_weight_shapes, prunable_layers


def _is_data(value):
    """An array, a plain scalar (or ``None``), or a tuple of ints — nothing that holds a lock."""
    if isinstance(value, tuple):
        return all(isinstance(item, (int, np.integer)) for item in value)
    return value is None or isinstance(value, (np.ndarray, bool, int, float, np.number))


class TestRegistry:
    def test_available_models(self):
        names = available_models()
        assert {"resnet50", "vgg16", "mobilenetv2", "resnet_tiny", "vgg_tiny", "mobilenet_tiny"} <= set(names)

    def test_build_model(self):
        model = build_model("resnet_tiny", num_classes=5, input_size=12, seed=0)
        assert model.num_classes == 5
        assert model.input_size == 12

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError):
            build_model("alexnet", num_classes=10)

    def test_registry_constructors_consistent(self):
        for name in MODEL_REGISTRY:
            model = build_model(name, num_classes=3, input_size=12, seed=1)
            assert model.num_classes == 3


@pytest.mark.parametrize(
    "factory", [resnet_tiny, vgg_tiny, mobilenet_tiny], ids=["resnet", "vgg", "mobilenet"]
)
class TestTinyModels:
    def test_forward_shape(self, factory, rng):
        model = factory(num_classes=5, input_size=12, seed=0)
        x = rng.normal(size=(3, 3, 12, 12))
        out = model(x)
        assert out.shape == (3, 5)

    def test_backward_produces_gradients(self, factory, rng):
        model = factory(num_classes=4, input_size=12, seed=0)
        x = rng.normal(size=(2, 3, 12, 12))
        out = model(x)
        grad_in = model.backward(np.ones_like(out))
        assert grad_in.shape == x.shape
        grads = [p.grad for _, p in model.named_parameters() if p.grad is not None]
        assert len(grads) > 0
        # Every prunable layer must receive a weight gradient.
        for name, layer in prunable_layers(model).items():
            assert layer.weight.grad is not None, f"{name} got no gradient"

    def test_layer_caches_hold_data_only_so_a_used_model_copies(self, factory, rng):
        """A layer cache that held the backend object (whose workspace owns a
        ``threading.Lock``) made ``copy.deepcopy`` of any model that had run a
        forward raise ``TypeError`` — which is what every figure command does."""
        model = factory(num_classes=4, input_size=12, seed=0)
        out = model(rng.normal(size=(2, 3, 12, 12)))
        model.backward(np.ones_like(out))
        caches = {
            name: module._cache
            for name, module in model.named_modules()
            if getattr(module, "_cache", None)
        }
        assert caches
        for name, cache in caches.items():
            for key, value in cache.items():
                assert _is_data(value), f"{name}._cache[{key!r}] holds a {type(value).__name__}"
        state = model.state_dict()
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            cloned = clone.state_dict()
            assert set(cloned) == set(state)
            for key in state:
                np.testing.assert_array_equal(cloned[key], state[key])

    def test_predict(self, factory, rng):
        model = factory(num_classes=4, input_size=12, seed=0)
        preds = model.predict(rng.normal(size=(5, 3, 12, 12)))
        assert preds.shape == (5,)
        assert set(np.unique(preds)) <= set(range(4))

    def test_deterministic_with_seed(self, factory, rng):
        a = factory(num_classes=3, input_size=12, seed=7)
        b = factory(num_classes=3, input_size=12, seed=7)
        x = rng.normal(size=(1, 3, 12, 12))
        a.eval()
        b.eval()
        np.testing.assert_allclose(a(x), b(x))


class TestFullScaleTopologies:
    def test_resnet50_block_structure(self):
        model = resnet50(num_classes=10, input_size=16, base_width=8, seed=0)
        # 3 + 4 + 6 + 3 bottleneck blocks.
        assert len(list(model.stages)) == 16
        convs = [m for m in prunable_layers(model).values() if isinstance(m, Conv2d)]
        # Each bottleneck has 3 convs + downsample convs (4 stages) + stem.
        assert len(convs) == 16 * 3 + 4 + 1

    def test_vgg16_has_13_conv_layers(self):
        model = vgg16(num_classes=10, input_size=32, width_mult=0.125, seed=0)
        convs = [m for m in prunable_layers(model).values() if isinstance(m, Conv2d)]
        assert len(convs) == 13

    def test_mobilenetv2_has_depthwise_layers(self):
        model = mobilenet_v2(num_classes=10, input_size=16, width_mult=0.25, seed=0)
        depthwise = [
            m for _, m in model.named_modules() if isinstance(m, DepthwiseConv2d)
        ]
        assert len(depthwise) == 17  # one per inverted residual block

    def test_resnet50_forward(self, rng):
        model = resnet50(num_classes=6, input_size=16, base_width=8, seed=0)
        out = model(rng.normal(size=(1, 3, 16, 16)))
        assert out.shape == (1, 6)


class TestPrunableLayerHelpers:
    def test_prunable_layers_excludes_depthwise_and_bn(self):
        model = mobilenet_tiny(num_classes=4, input_size=12, seed=0)
        layers = prunable_layers(model)
        assert all(isinstance(l, (Conv2d, Linear)) for l in layers.values())
        assert len(layers) > 3

    def test_classifier_included(self):
        model = resnet_tiny(num_classes=4, input_size=12, seed=0)
        layers = prunable_layers(model)
        assert any(isinstance(l, Linear) for l in layers.values())

    def test_layer_weight_shapes(self):
        model = resnet_tiny(num_classes=4, input_size=12, seed=0)
        shapes = layer_weight_shapes(model)
        layers = prunable_layers(model)
        assert set(shapes) == set(layers)
        for name, (rows, cols) in shapes.items():
            assert rows * cols == layers[name].weight.size

    @pytest.mark.parametrize("training", [True, False])
    def test_conv_input_sizes(self, training):
        """One ``eval()`` dummy forward: input ``(h, w)`` per prunable conv, mode restored."""
        model = resnet_tiny(num_classes=4, input_size=12, seed=0)
        model.train(training)
        sizes = conv_input_sizes(model)
        assert model.training is training
        convs = {n for n, l in prunable_layers(model).items() if isinstance(l, Conv2d)}
        assert set(sizes) == convs
        first = next(iter(sizes))
        assert sizes[first] == (12, 12)
        assert conv_input_sizes(model, input_size=16)[first] == (16, 16)
        assert all(isinstance(h, int) and isinstance(w, int) for h, w in sizes.values())
