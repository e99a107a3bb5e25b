"""ResNet with bottleneck blocks, following the ResNet-50 topology.

The full ResNet-50 stage configuration ``[3, 4, 6, 3]`` with bottleneck
blocks is reproduced; the ``width`` parameter scales every channel count so
the model can be trained on CPU with NumPy.  ``resnet50()`` keeps the
canonical stage layout, ``resnet_tiny()`` is the configuration used by the
test-suite and the default experiment harness.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from ..module import Module, Sequential
from .base import ClassifierModel

__all__ = ["Bottleneck", "ResNet", "resnet50", "resnet_tiny"]


class Bottleneck(Module):
    """ResNet bottleneck block: 1x1 reduce, 3x3, 1x1 expand, residual add."""

    expansion = 4

    def __init__(
        self,
        in_channels: int,
        planes: int,
        stride: int = 1,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        out_channels = planes * self.expansion

        self.conv1 = Conv2d(in_channels, planes, 1, bias=False, seed=seed)
        self.bn1 = BatchNorm2d(planes)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(planes, planes, 3, stride=stride, padding=1, bias=False, seed=seed)
        self.bn2 = BatchNorm2d(planes)
        self.relu2 = ReLU()
        self.conv3 = Conv2d(planes, out_channels, 1, bias=False, seed=seed)
        self.bn3 = BatchNorm2d(out_channels)
        self.relu3 = ReLU()

        if stride != 1 or in_channels != out_channels:
            self.downsample = Sequential(
                Conv2d(in_channels, out_channels, 1, stride=stride, bias=False, seed=seed),
                BatchNorm2d(out_channels),
            )
        else:
            self.downsample = Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        identity = self.downsample(x)
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.relu2(self.bn2(self.conv2(out)))
        out = self.bn3(self.conv3(out))
        return self.relu3(out + identity)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.relu3.backward(grad_out)
        # grad flows to both the residual branch and the shortcut
        grad_identity = grad
        grad_main = self.bn3.backward(grad)
        grad_main = self.conv3.backward(grad_main)
        grad_main = self.relu2.backward(grad_main)
        grad_main = self.bn2.backward(grad_main)
        grad_main = self.conv2.backward(grad_main)
        grad_main = self.relu1.backward(grad_main)
        grad_main = self.bn1.backward(grad_main)
        grad_main = self.conv1.backward(grad_main)
        grad_shortcut = self.downsample.backward(grad_identity)
        return grad_main + grad_shortcut


class ResNet(ClassifierModel):
    """Bottleneck ResNet parameterised by per-stage block counts and base width."""

    arch_name = "resnet"

    def __init__(
        self,
        stage_blocks: Sequence[int],
        num_classes: int = 100,
        input_size: int = 32,
        base_width: int = 16,
        in_channels: int = 3,
        use_maxpool: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(num_classes=num_classes, input_size=input_size)
        self.stage_blocks = list(stage_blocks)
        self.base_width = base_width

        self.stem_conv = Conv2d(in_channels, base_width, 3, stride=1, padding=1, bias=False, seed=seed)
        self.stem_bn = BatchNorm2d(base_width)
        self.stem_relu = ReLU()
        self.stem_pool = MaxPool2d(2) if use_maxpool else Identity()

        stages: List[Module] = []
        channels = base_width
        planes = base_width
        for stage_idx, blocks in enumerate(self.stage_blocks):
            stride = 1 if stage_idx == 0 else 2
            for block_idx in range(blocks):
                block = Bottleneck(
                    channels,
                    planes,
                    stride=stride if block_idx == 0 else 1,
                    seed=seed,
                )
                stages.append(block)
                channels = planes * Bottleneck.expansion
            planes *= 2
        self.stages = Sequential(*stages)

        self.pool = GlobalAvgPool2d()
        self.classifier = Linear(channels, num_classes, seed=seed)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = self.stem_relu(self.stem_bn(self.stem_conv(x)))
        out = self.stem_pool(out)
        out = self.stages(out)
        out = self.pool(out)
        return self.classifier(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.classifier.backward(grad_out)
        grad = self.pool.backward(grad)
        grad = self.stages.backward(grad)
        grad = self.stem_pool.backward(grad)
        grad = self.stem_relu.backward(grad)
        grad = self.stem_bn.backward(grad)
        return self.stem_conv.backward(grad)


def resnet50(
    num_classes: int = 100,
    input_size: int = 32,
    base_width: int = 16,
    seed: Optional[int] = None,
) -> ResNet:
    """ResNet-50 topology (stage blocks ``[3, 4, 6, 3]``) at configurable width."""
    model = ResNet(
        stage_blocks=[3, 4, 6, 3],
        num_classes=num_classes,
        input_size=input_size,
        base_width=base_width,
        seed=seed,
    )
    model.arch_name = "resnet50"
    return model


def resnet_tiny(
    num_classes: int = 10,
    input_size: int = 16,
    base_width: int = 12,
    seed: Optional[int] = None,
) -> ResNet:
    """A small bottleneck ResNet (stage blocks ``[1, 1, 1]``) for fast experiments."""
    model = ResNet(
        stage_blocks=[1, 1, 1],
        num_classes=num_classes,
        input_size=input_size,
        base_width=base_width,
        seed=seed,
    )
    model.arch_name = "resnet_tiny"
    return model
