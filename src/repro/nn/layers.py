"""Layer implementations built on :mod:`repro.nn.functional`.

Each layer caches whatever the backward pass needs during ``forward`` and
accumulates parameter gradients in ``backward``.  Convolution and linear
layers expose ``reshaped_weight()`` / ``set_reshaped_weight()`` which view
the weight in the ``(H*W*R, S)`` layout used by the CRISP pruning framework
(kernel-position x input-channel rows, output-channel columns).

Every layer has a single implementation, the kernels of
:mod:`repro.nn.functional`, and a layer's ``_cache`` holds data only (arrays,
shapes, scalars) so a model deep-copies and pickles.  Compute backends
(:mod:`repro.backend`) belong to inference engines, not to layers.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from . import functional as F
from .module import Module, Parameter

__all__ = [
    "Conv2d",
    "DepthwiseConv2d",
    "Linear",
    "BatchNorm2d",
    "BatchNorm1d",
    "ReLU",
    "ReLU6",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "Identity",
    "Add",
    "PRUNABLE_LAYER_TYPES",
]


def _kaiming_uniform(shape: Tuple[int, ...], fan_in: int, rng: np.random.Generator) -> np.ndarray:
    bound = math.sqrt(6.0 / max(1, fan_in))
    return rng.uniform(-bound, bound, size=shape)


def _default_rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


class Conv2d(Module):
    """2-D convolution layer (im2col + GEMM).

    The weight tensor has shape ``(out_channels, in_channels, kh, kw)``.
    ``reshaped_weight()`` returns the paper's pruning view of shape
    ``(in_channels * kh * kw, out_channels)``.
    """

    prunable = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

        rng = _default_rng(seed)
        fan_in = in_channels * kernel_size * kernel_size
        weight = _kaiming_uniform(
            (out_channels, in_channels, kernel_size, kernel_size), fan_in, rng
        )
        self.weight = Parameter(weight)
        self.bias = Parameter(np.zeros(out_channels)) if bias else None
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        weight = self.weight.effective()
        bias = self.bias.data if self.bias is not None else None
        out, self._cache = F.conv2d_forward(x, weight, bias, self.stride, self.padding)
        self._cache["effective_weight"] = weight
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_x, grad_w, grad_b = F.conv2d_backward(
            grad_out, self._cache["effective_weight"], self._cache
        )
        self.weight.accumulate_grad(grad_w)
        if self.bias is not None and grad_b is not None:
            self.bias.accumulate_grad(grad_b)
        return grad_x

    # -- pruning view ---------------------------------------------------------
    def reshaped_weight(self) -> np.ndarray:
        """Weight viewed as ``(in_channels * kh * kw, out_channels)``."""
        c_out = self.out_channels
        return self.weight.data.reshape(c_out, -1).T.copy()

    def reshaped_grad(self) -> Optional[np.ndarray]:
        """Gradient in the same reshaped layout, or ``None`` if absent."""
        if self.weight.grad is None:
            return None
        c_out = self.out_channels
        return self.weight.grad.reshape(c_out, -1).T.copy()

    def set_reshaped_mask(self, mask2d: np.ndarray) -> None:
        """Install a pruning mask given in the reshaped ``(HWR, S)`` layout."""
        c_out = self.out_channels
        expected = (self.weight.data.size // c_out, c_out)
        if mask2d.shape != expected:
            raise ValueError(f"Reshaped mask shape {mask2d.shape} != expected {expected}")
        mask = mask2d.T.reshape(self.weight.data.shape)
        self.weight.set_mask(mask)

    def set_reshaped_weight(self, weight2d: np.ndarray) -> None:
        """Overwrite the weight from the reshaped ``(HWR, S)`` layout."""
        c_out = self.out_channels
        self.weight.data = weight2d.T.reshape(self.weight.data.shape).copy()

    def flops_per_output(self) -> int:
        """Multiply-accumulate count per spatial output element (dense)."""
        return 2 * self.in_channels * self.kernel_size * self.kernel_size * self.out_channels

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class DepthwiseConv2d(Module):
    """Depthwise convolution: one ``kh x kw`` filter per channel.

    Depthwise layers are not pruned by CRISP (they hold a negligible share of
    parameters and the N:M pattern degenerates for single-channel filters),
    matching the common practice for MobileNetV2.
    """

    prunable = False

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

        rng = _default_rng(seed)
        fan_in = kernel_size * kernel_size
        weight = _kaiming_uniform((channels, 1, kernel_size, kernel_size), fan_in, rng)
        self.weight = Parameter(weight)
        self.bias = Parameter(np.zeros(channels)) if bias else None
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        bias = self.bias.data if self.bias is not None else None
        out, self._cache = F.depthwise_conv2d_forward(
            x, self.weight.data, bias, self.stride, self.padding
        )
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_x, grad_w, grad_b = F.depthwise_conv2d_backward(
            grad_out, self.weight.data, self._cache
        )
        self.weight.accumulate_grad(grad_w)
        if self.bias is not None and grad_b is not None:
            self.bias.accumulate_grad(grad_b)
        return grad_x

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"DepthwiseConv2d({self.channels}, k={self.kernel_size}, s={self.stride})"


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    prunable = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features

        rng = _default_rng(seed)
        weight = _kaiming_uniform((out_features, in_features), in_features, rng)
        self.weight = Parameter(weight)
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        weight = self.weight.effective()
        bias = self.bias.data if self.bias is not None else None
        out, self._cache = F.linear_forward(x, weight, bias)
        self._cache["effective_weight"] = weight
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_x, grad_w, grad_b = F.linear_backward(
            grad_out, self._cache["effective_weight"], self._cache
        )
        self.weight.accumulate_grad(grad_w)
        if self.bias is not None and grad_b is not None:
            self.bias.accumulate_grad(grad_b)
        return grad_x

    # -- pruning view ---------------------------------------------------------
    def reshaped_weight(self) -> np.ndarray:
        """Weight viewed as ``(in_features, out_features)``."""
        return self.weight.data.T.copy()

    def reshaped_grad(self) -> Optional[np.ndarray]:
        if self.weight.grad is None:
            return None
        return self.weight.grad.T.copy()

    def set_reshaped_mask(self, mask2d: np.ndarray) -> None:
        expected = (self.in_features, self.out_features)
        if mask2d.shape != expected:
            raise ValueError(f"Reshaped mask shape {mask2d.shape} != expected {expected}")
        self.weight.set_mask(mask2d.T)

    def set_reshaped_weight(self, weight2d: np.ndarray) -> None:
        self.weight.data = weight2d.T.copy()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Linear({self.in_features}, {self.out_features})"


class BatchNorm2d(Module):
    """Batch normalisation over ``(N, C, H, W)`` activations."""

    prunable = False

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5) -> None:
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(channels))
        self.beta = Parameter(np.zeros(channels))
        self.running_mean = self.register_buffer("running_mean", np.zeros(channels))
        self.running_var = self.register_buffer("running_var", np.ones(channels))
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.batchnorm_forward(
            x,
            self.gamma.data,
            self.beta.data,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_x, grad_gamma, grad_beta = F.batchnorm_backward(grad_out, self._cache)
        self.gamma.accumulate_grad(grad_gamma)
        self.beta.accumulate_grad(grad_beta)
        return grad_x

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"BatchNorm2d({self.channels})"


class BatchNorm1d(BatchNorm2d):
    """Batch normalisation over ``(N, C)`` features (shares the 2-D kernel)."""


class ReLU(Module):
    """Rectified linear unit."""

    prunable = False

    def __init__(self) -> None:
        super().__init__()
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.relu_forward(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.relu_backward(grad_out, self._cache)


class ReLU6(Module):
    """ReLU capped at 6 (MobileNetV2 activation)."""

    prunable = False

    def __init__(self) -> None:
        super().__init__()
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.relu6_forward(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.relu6_backward(grad_out, self._cache)


class MaxPool2d(Module):
    """Max pooling layer."""

    prunable = False

    def __init__(self, kernel: int, stride: Optional[int] = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel = kernel
        self.stride = stride or kernel
        self.padding = padding
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.max_pool2d_forward(x, self.kernel, self.stride, self.padding)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.max_pool2d_backward(grad_out, self._cache)


class AvgPool2d(Module):
    """Average pooling layer."""

    prunable = False

    def __init__(self, kernel: int, stride: Optional[int] = None, padding: int = 0) -> None:
        super().__init__()
        self.kernel = kernel
        self.stride = stride or kernel
        self.padding = padding
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.avg_pool2d_forward(x, self.kernel, self.stride, self.padding)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.avg_pool2d_backward(grad_out, self._cache)


class GlobalAvgPool2d(Module):
    """Global average pooling: collapses the spatial dimensions."""

    prunable = False

    def __init__(self) -> None:
        super().__init__()
        self._cache: dict = {}

    def forward(self, x: np.ndarray) -> np.ndarray:
        out, self._cache = F.global_avg_pool_forward(x)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return F.global_avg_pool_backward(grad_out, self._cache)


class Flatten(Module):
    """Flatten all dimensions after the batch dimension."""

    prunable = False

    def __init__(self) -> None:
        super().__init__()
        self._shape: Tuple[int, ...] = ()

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out.reshape(self._shape)


class Dropout(Module):
    """Inverted dropout (identity in eval mode)."""

    prunable = False

    def __init__(self, p: float = 0.5, seed: Optional[int] = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"Dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Identity(Module):
    """Pass-through layer (used for residual shortcuts)."""

    prunable = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Add(Module):
    """Element-wise addition of two pre-computed branches.

    This is a helper used inside residual blocks rather than a standalone
    sequential layer: the block calls :meth:`forward_pair` / splits the
    gradient itself.
    """

    prunable = False

    def forward_pair(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - not used directly
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover
        return grad_out


#: Layer classes whose weights participate in CRISP pruning.
PRUNABLE_LAYER_TYPES = (Conv2d, Linear)
