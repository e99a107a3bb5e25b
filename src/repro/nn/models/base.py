"""Shared model utilities: the classifier base class, prunable-layer lookup and shape tracing."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

import numpy as np

from ..module import Module
from ..layers import PRUNABLE_LAYER_TYPES, Conv2d, Linear

__all__ = ["ClassifierModel", "prunable_layers", "conv_input_sizes", "layer_weight_shapes"]


class ClassifierModel(Module):
    """Base class for image classifiers in the reproduction model zoo.

    Sub-classes populate ``self.backbone`` (a module producing a flat feature
    vector) and ``self.classifier`` (a :class:`~repro.nn.layers.Linear` head)
    and may override :meth:`forward` / :meth:`backward` if the topology is not
    a simple chain.

    Attributes
    ----------
    num_classes:
        Size of the classification head.
    input_size:
        Expected spatial input resolution (square images).
    arch_name:
        Human-readable architecture identifier (``"resnet50"`` etc.).
    """

    arch_name = "classifier"

    def __init__(self, num_classes: int, input_size: int) -> None:
        super().__init__()
        self.num_classes = num_classes
        self.input_size = input_size

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Return argmax class predictions for a batch of images."""
        logits = self.forward(x)
        return logits.argmax(axis=1)

    def logits_shape(self) -> Tuple[int, ...]:
        return (self.num_classes,)


def prunable_layers(model: Module) -> "OrderedDict[str, Module]":
    """Return the prunable (Conv2d / Linear) layers of ``model`` by qualified name.

    The final classifier layer is included: CRISP prunes the whole network,
    and the classification head is where class-aware sparsity is most visible.
    Depthwise convolutions and normalisation layers are excluded.
    """
    layers: "OrderedDict[str, Module]" = OrderedDict()
    for name, module in model.named_modules():
        if isinstance(module, PRUNABLE_LAYER_TYPES) and getattr(module, "prunable", False):
            layers[name] = module
    return layers


def conv_input_sizes(model: Module, input_size: Optional[int] = None) -> Dict[str, Tuple[int, int]]:
    """Input ``(h, w)`` of every prunable convolution, by qualified name.

    Read from one ``eval()`` forward of a single zero image (the model's mode
    is restored), so it holds for arbitrary topologies.  This is the only
    reader of a conv layer's ``_cache`` outside the layer itself.
    """
    size = input_size or getattr(model, "input_size", 16)
    was_training = model.training
    model.eval()
    model(np.zeros((1, 3, size, size)))
    model.train(was_training)
    return {
        name: layer._cache["x_shape"][2:]
        for name, layer in prunable_layers(model).items()
        if isinstance(layer, Conv2d)
    }


def layer_weight_shapes(model: Module) -> Dict[str, Tuple[int, ...]]:
    """Map each prunable layer name to its reshaped ``(HWR, S)`` weight shape."""
    shapes: Dict[str, Tuple[int, ...]] = {}
    for name, layer in prunable_layers(model).items():
        if isinstance(layer, Conv2d):
            rows = layer.in_channels * layer.kernel_size * layer.kernel_size
            cols = layer.out_channels
        elif isinstance(layer, Linear):
            rows, cols = layer.in_features, layer.out_features
        else:  # pragma: no cover - defensive
            continue
        shapes[name] = (rows, cols)
    return shapes
