"""The NCHW training kernels, kept as the oracle for ``repro.nn.functional``.

These are the ``conv2d_*``, ``batchnorm_*`` and ``relu_*`` bodies that lived
in ``src/repro/nn/functional.py`` until those kernels started computing on the
channel-last memory a convolution's GEMM already hands them.  They reduce,
gather and scatter as if every activation were C-contiguous ``(N, C, H, W)``:
slow on what the layers actually pass around, and obviously right, so they
stay here as the reference the rewritten kernels are compared against
(``tests/test_functional.py`` per kernel call, ``tests/test_crisp.py`` through
a whole ``personalize``).  The summation order differs (``(C, KH, KW)``
reduction columns here, ``(KH, KW, C)`` there; two-pass ``x.var`` here, one
``einsum`` there), so parity is a tolerance set from the dtype -- 1e-10 on
``float64`` -- not bit equality.

The bodies are the old ones verbatim, dead lines included; ``im2col`` /
``col2im`` / ``conv_output_size`` are the unchanged inference helpers still in
``src/``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.functional import col2im, conv_output_size, im2col

#: The kernels this module holds an old body for, by their ``functional`` name.
ORACLE_KERNELS = (
    "conv2d_forward",
    "conv2d_backward",
    "batchnorm_forward",
    "batchnorm_backward",
    "relu_forward",
    "relu_backward",
)


def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, dict]:
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"Channel mismatch: input has {c_in}, weight expects {c_in_w}")

    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    cols = im2col(x, kh, kw, stride, padding)
    w_mat = weight.reshape(c_out, -1)
    out = cols @ w_mat.T
    if bias is not None:
        out = out + bias
    out = out.reshape(n, out_h, out_w, c_out).transpose(0, 3, 1, 2)

    cache = {
        "cols": cols,
        "x_shape": x.shape,
        "weight_shape": weight.shape,
        "stride": stride,
        "padding": padding,
        "has_bias": bias is not None,
    }
    return out, cache


def conv2d_backward(
    grad_out: np.ndarray, weight: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    cols = cache["cols"]
    x_shape = cache["x_shape"]
    stride = cache["stride"]
    padding = cache["padding"]
    c_out, c_in, kh, kw = weight.shape

    n, _, out_h, out_w = grad_out.shape
    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c_out)

    grad_weight = (grad_mat.T @ cols).reshape(weight.shape)
    grad_bias = grad_mat.sum(axis=0) if cache["has_bias"] else None

    grad_cols = grad_mat @ weight.reshape(c_out, -1)
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding)
    return grad_x, grad_weight, grad_bias


def batchnorm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tuple[np.ndarray, dict]:
    is_conv = x.ndim == 4
    axes = (0, 2, 3) if is_conv else (0,)

    if training:
        mean = x.mean(axis=axes)
        var = x.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    if is_conv:
        mean_b = mean[None, :, None, None]
        var_b = var[None, :, None, None]
        gamma_b = gamma[None, :, None, None]
        beta_b = beta[None, :, None, None]
    else:
        mean_b, var_b, gamma_b, beta_b = mean, var, gamma, beta

    inv_std = 1.0 / np.sqrt(var_b + eps)
    x_hat = (x - mean_b) * inv_std
    out = gamma_b * x_hat + beta_b

    cache = {
        "x_hat": x_hat,
        "inv_std": inv_std,
        "gamma": gamma,
        "axes": axes,
        "is_conv": is_conv,
        "training": training,
    }
    return out, cache


def batchnorm_backward(
    grad_out: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    x_hat = cache["x_hat"]
    inv_std = cache["inv_std"]
    gamma = cache["gamma"]
    axes = cache["axes"]
    is_conv = cache["is_conv"]

    grad_gamma = (grad_out * x_hat).sum(axis=axes)
    grad_beta = grad_out.sum(axis=axes)

    gamma_b = gamma[None, :, None, None] if is_conv else gamma

    if not cache["training"]:
        grad_x = grad_out * gamma_b * inv_std
        return grad_x, grad_gamma, grad_beta

    # Count of elements that contributed to each channel statistic.
    m = grad_out.size / grad_out.shape[1]
    grad_xhat = grad_out * gamma_b
    mean_grad_xhat = grad_xhat.mean(axis=axes, keepdims=True)
    mean_grad_xhat_xhat = (grad_xhat * x_hat).mean(axis=axes, keepdims=True)
    grad_x = inv_std * (grad_xhat - mean_grad_xhat - x_hat * mean_grad_xhat_xhat)
    # The keepdims means above already divide by m; no further scaling needed.
    _ = m
    return grad_x, grad_gamma, grad_beta


def relu_forward(x: np.ndarray) -> Tuple[np.ndarray, dict]:
    mask = x > 0
    return x * mask, {"mask": mask}


def relu_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    return grad_out * cache["mask"]
