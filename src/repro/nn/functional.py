"""Low-level numerical kernels for the NumPy deep-learning substrate.

This module provides the forward and backward primitives (im2col-based
convolution, pooling, batch normalisation, activations and the softmax /
cross-entropy head) that the layer classes in :mod:`repro.nn.layers` are
built from.  Every function is a pure function of arrays: layers own the
parameters and the cached context needed for the backward pass.

Array layout conventions
------------------------
* Images / activations: ``(N, C, H, W)`` -- batch, channels, height, width.
* Convolution weights: ``(C_out, C_in, KH, KW)``.
* Linear weights: ``(out_features, in_features)``.

Those are *logical* shapes, and the only contract between layers.  In memory
a convolution's GEMM produces ``(N * out_h * out_w, C_out)``, i.e. a
channel-last array, and ``conv2d_*``, ``batchnorm_*`` and ``relu_*`` compute
on that memory as it is: they accept an input of any strides (one copy when
it is not already channel-last: the image, a pooling output) and return
``(N, C, H, W)`` views of C-contiguous ``(N, H, W, C)`` arrays.  The depthwise
and pooling kernels still work in NCHW order inside.  The old NCHW bodies of
the rewritten kernels are the oracle in ``tests/nchw_kernels_oracle.py``.

The im2col transformation reshapes each convolution into a single GEMM so
that the weight matrix seen by the pruning framework matches the paper's
``(H * W * R, S)`` reshaped layout (Sec. III of the CRISP paper).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "im2col",
    "im2col_windows",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "depthwise_conv2d_forward",
    "depthwise_conv2d_backward",
    "linear_forward",
    "linear_backward",
    "max_pool2d_forward",
    "max_pool2d_backward",
    "avg_pool2d_forward",
    "avg_pool2d_backward",
    "global_avg_pool_forward",
    "global_avg_pool_backward",
    "batchnorm_forward",
    "batchnorm_backward",
    "relu_forward",
    "relu_backward",
    "relu6_forward",
    "relu6_backward",
    "softmax",
    "log_softmax",
    "cross_entropy_forward",
    "cross_entropy_backward",
    "conv_output_size",
]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"Non-positive output size {out} for input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding}"
        )
    return out


# ---------------------------------------------------------------------------
# im2col / col2im
# ---------------------------------------------------------------------------

def im2col_windows(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, Tuple[int, int, int, int]]:
    """Strided sliding-window view over an image batch.

    Returns ``(windows, (n, c, out_h, out_w))`` where ``windows`` is a
    read-only view of shape ``(N, C, KH, KW, out_h, out_w)``.  This is the
    zero-copy half of :func:`im2col`; a caller that only reduces over the
    windows (the engine plan's pooling) reads the view without copying it.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    if padding > 0:
        x = np.pad(
            x,
            ((0, 0), (0, 0), (padding, padding), (padding, padding)),
            mode="constant",
        )

    stride_n, stride_c, stride_h, stride_w = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kernel_h, kernel_w, out_h, out_w),
        strides=(
            stride_n,
            stride_c,
            stride_h,
            stride_w,
            stride_h * stride,
            stride_w * stride,
        ),
        writeable=False,
    )
    return windows, (n, c, out_h, out_w)


def im2col(
    x: np.ndarray,
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Unfold an image batch into a matrix of receptive-field columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    np.ndarray
        Matrix of shape ``(N * out_h * out_w, C * kernel_h * kernel_w)``.
    """
    windows, (n, c, out_h, out_w) = im2col_windows(x, kernel_h, kernel_w, stride, padding)
    cols = windows.transpose(0, 4, 5, 1, 2, 3).reshape(
        n * out_h * out_w, c * kernel_h * kernel_w
    )
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Fold receptive-field columns back into an image batch (adjoint of im2col)."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, padding)
    out_w = conv_output_size(w, kernel_w, stride, padding)

    cols_reshaped = cols.reshape(n, out_h, out_w, c, kernel_h, kernel_w)
    cols_reshaped = cols_reshaped.transpose(0, 3, 4, 5, 1, 2)

    h_padded, w_padded = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, h_padded, w_padded), dtype=cols.dtype)

    for i in range(kernel_h):
        i_max = i + stride * out_h
        for j in range(kernel_w):
            j_max = j + stride * out_w
            x_padded[:, :, i:i_max:stride, j:j_max:stride] += cols_reshaped[:, :, i, j]

    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


# ---------------------------------------------------------------------------
# Channel-last views
# ---------------------------------------------------------------------------

def _channel_last(x: np.ndarray) -> np.ndarray:
    """``x`` of logical shape ``(N, C, H, W)`` as a C-contiguous ``(N, H, W, C)`` array.

    Free when ``x`` came out of a convolution, batch-norm or ReLU (their
    outputs are views of exactly that memory); one copy otherwise.
    """
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def _channel_matrix(x: np.ndarray) -> np.ndarray:
    """``(N, C, H, W)`` or ``(N, C)`` activations as a C-contiguous ``(M, C)`` matrix."""
    if x.ndim == 4:
        return _channel_last(x).reshape(-1, x.shape[1])
    return np.ascontiguousarray(x)


def _from_channel_matrix(mat: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_channel_matrix`: a view of ``mat`` with logical ``shape``."""
    if len(shape) == 4:
        n, c, h, w = shape
        return mat.reshape(n, h, w, c).transpose(0, 3, 1, 2)
    return mat


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, dict]:
    """2-D convolution as one GEMM over channel-last receptive fields.

    The column matrix ``(N * out_h * out_w, KH * KW * C_in)`` is one gather of
    windows whose ``C_in`` runs are contiguous (for a 1x1 stride-1 convolution
    the windows tile the input, so the reshape below is a view of it and
    nothing is copied), multiplied by the weight transposed to
    ``(C_out, KH, KW, C_in)``.  Returns the output of shape
    ``(N, C_out, out_h, out_w)`` and a cache dict consumed by
    :func:`conv2d_backward`.
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(f"Channel mismatch: input has {c_in}, weight expects {c_in_w}")

    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    x_last = _channel_last(x)
    if padding > 0:
        padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c_in), dtype=x_last.dtype)
        padded[:, padding:padding + h, padding:padding + w] = x_last
        x_last = padded
    stride_n, stride_h, stride_w, stride_c = x_last.strides
    windows = np.lib.stride_tricks.as_strided(
        x_last,
        shape=(n, out_h, out_w, kh, kw, c_in),
        strides=(stride_n, stride_h * stride, stride_w * stride, stride_h, stride_w, stride_c),
        writeable=False,
    )
    cols = windows.reshape(n * out_h * out_w, kh * kw * c_in)
    out = cols @ _channel_last(weight).reshape(c_out, -1).T
    if bias is not None:
        out += bias
    out = _from_channel_matrix(out, (n, c_out, out_h, out_w))

    cache = {
        "cols": cols,
        "x_shape": x.shape,
        "stride": stride,
        "padding": padding,
        "has_bias": bias is not None,
    }
    return out, cache


def conv2d_backward(
    grad_out: np.ndarray, weight: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`conv2d_forward`.

    Returns ``(grad_x, grad_weight, grad_bias)``.  The ``(C_out, KH, KW, C_in)``
    weight matrix is rebuilt here rather than cached: a layer's cache outlives
    the backward pass, and a second copy of every weight would with it.
    """
    cols = cache["cols"]
    n, c_in, h, w = cache["x_shape"]
    stride = cache["stride"]
    padding = cache["padding"]
    c_out, _, kh, kw = weight.shape

    _, _, out_h, out_w = grad_out.shape
    grad_mat = _channel_matrix(grad_out)

    grad_weight = (grad_mat.T @ cols).reshape(c_out, kh, kw, c_in).transpose(0, 3, 1, 2)
    grad_bias = grad_mat.sum(axis=0) if cache["has_bias"] else None

    grad_cols = grad_mat @ _channel_last(weight).reshape(c_out, -1)
    if kh == kw == stride == 1 and padding == 0:
        # The windows tile the input: the column gradient is the input gradient.
        return _from_channel_matrix(grad_cols, cache["x_shape"]), grad_weight, grad_bias

    # Scatter through the slices the forward pass gathered its windows from.
    grad_windows = grad_cols.reshape(n, out_h, out_w, kh, kw, c_in)
    grad_x = np.zeros((n, h + 2 * padding, w + 2 * padding, c_in), dtype=grad_cols.dtype)
    for i in range(kh):
        i_max = i + stride * out_h
        for j in range(kw):
            j_max = j + stride * out_w
            grad_x[:, i:i_max:stride, j:j_max:stride] += grad_windows[:, :, :, i, j]
    grad_x = grad_x[:, padding:padding + h, padding:padding + w]
    return grad_x.transpose(0, 3, 1, 2), grad_weight, grad_bias


def depthwise_conv2d_forward(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None,
    stride: int = 1,
    padding: int = 0,
) -> Tuple[np.ndarray, dict]:
    """Depthwise convolution: one filter per input channel.

    ``weight`` has shape ``(C, 1, KH, KW)``.  Implemented as a grouped
    im2col GEMM with groups == channels.
    """
    n, c, h, w = x.shape
    c_w, one, kh, kw = weight.shape
    if c_w != c or one != 1:
        raise ValueError(
            f"Depthwise weight shape {weight.shape} incompatible with input channels {c}"
        )

    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)

    cols = im2col(x, kh, kw, stride, padding)  # (N*oh*ow, C*kh*kw)
    cols_g = cols.reshape(-1, c, kh * kw)
    w_g = weight.reshape(c, kh * kw)
    # einsum over the kernel dimension, independently per channel
    out = np.einsum("bck,ck->bc", cols_g, w_g)
    if bias is not None:
        out = out + bias
    out = out.reshape(n, out_h, out_w, c).transpose(0, 3, 1, 2)

    cache = {
        "cols_g": cols_g,
        "x_shape": x.shape,
        "stride": stride,
        "padding": padding,
        "has_bias": bias is not None,
    }
    return out, cache


def depthwise_conv2d_backward(
    grad_out: np.ndarray, weight: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`depthwise_conv2d_forward`."""
    cols_g = cache["cols_g"]
    x_shape = cache["x_shape"]
    stride = cache["stride"]
    padding = cache["padding"]
    c, _, kh, kw = weight.shape

    n, _, out_h, out_w = grad_out.shape
    grad_mat = grad_out.transpose(0, 2, 3, 1).reshape(-1, c)  # (N*oh*ow, C)

    grad_w = np.einsum("bc,bck->ck", grad_mat, cols_g).reshape(weight.shape)
    grad_bias = grad_mat.sum(axis=0) if cache["has_bias"] else None

    w_g = weight.reshape(c, kh * kw)
    grad_cols_g = np.einsum("bc,ck->bck", grad_mat, w_g)
    grad_cols = grad_cols_g.reshape(grad_mat.shape[0], c * kh * kw)
    grad_x = col2im(grad_cols, x_shape, kh, kw, stride, padding)
    return grad_x, grad_w, grad_bias


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------

def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
) -> Tuple[np.ndarray, dict]:
    """Fully connected layer: ``y = x @ W.T + b``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out, {"x": x, "has_bias": bias is not None}


def linear_backward(
    grad_out: np.ndarray, weight: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Backward pass of :func:`linear_forward`."""
    x = cache["x"]
    grad_weight = grad_out.T @ x
    grad_bias = grad_out.sum(axis=0) if cache["has_bias"] else None
    grad_x = grad_out @ weight
    return grad_x, grad_weight, grad_bias


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------

def max_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int | None = None, padding: int = 0
) -> Tuple[np.ndarray, dict]:
    """Max pooling over non-overlapping or strided windows."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)

    x_r = x.reshape(n * c, 1, h, w)
    cols = im2col(x_r, kernel, kernel, stride, padding)  # (N*C*oh*ow, k*k)
    argmax = cols.argmax(axis=1)
    out = cols[np.arange(cols.shape[0]), argmax]
    out = out.reshape(n, c, out_h, out_w)

    cache = {
        "argmax": argmax,
        "cols_shape": cols.shape,
        "x_shape": x.shape,
        "kernel": kernel,
        "stride": stride,
        "padding": padding,
    }
    return out, cache


def max_pool2d_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`max_pool2d_forward`."""
    n, c, h, w = cache["x_shape"]
    kernel = cache["kernel"]
    stride = cache["stride"]
    padding = cache["padding"]
    argmax = cache["argmax"]

    grad_cols = np.zeros(cache["cols_shape"], dtype=grad_out.dtype)
    grad_flat = grad_out.reshape(-1)
    grad_cols[np.arange(grad_cols.shape[0]), argmax] = grad_flat

    grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, kernel, stride, padding)
    return grad_x.reshape(n, c, h, w)


def avg_pool2d_forward(
    x: np.ndarray, kernel: int, stride: int | None = None, padding: int = 0
) -> Tuple[np.ndarray, dict]:
    """Average pooling."""
    stride = stride or kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)

    x_r = x.reshape(n * c, 1, h, w)
    cols = im2col(x_r, kernel, kernel, stride, padding)
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    cache = {
        "x_shape": x.shape,
        "kernel": kernel,
        "stride": stride,
        "padding": padding,
        "cols_shape": cols.shape,
    }
    return out, cache


def avg_pool2d_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`avg_pool2d_forward`."""
    n, c, h, w = cache["x_shape"]
    kernel = cache["kernel"]
    stride = cache["stride"]
    padding = cache["padding"]

    grad_flat = grad_out.reshape(-1, 1) / float(kernel * kernel)
    grad_cols = np.broadcast_to(grad_flat, cache["cols_shape"]).copy()
    grad_x = col2im(grad_cols, (n * c, 1, h, w), kernel, kernel, stride, padding)
    return grad_x.reshape(n, c, h, w)


def global_avg_pool_forward(x: np.ndarray) -> Tuple[np.ndarray, dict]:
    """Global average pooling: ``(N, C, H, W) -> (N, C)``."""
    out = x.mean(axis=(2, 3))
    return out, {"x_shape": x.shape}


def global_avg_pool_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`global_avg_pool_forward`."""
    n, c, h, w = cache["x_shape"]
    grad = grad_out[:, :, None, None] / float(h * w)
    return np.broadcast_to(grad, (n, c, h, w)).copy()


# ---------------------------------------------------------------------------
# Batch normalisation
# ---------------------------------------------------------------------------

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
    """Batch normalisation over the channel axis of ``(N, C, H, W)`` or ``(N, C)``.

    Every statistic is a reduction over axis 0 of the ``(M, C)`` channel
    matrix.  ``running_mean`` / ``running_var`` are updated in place when
    ``training``; in evaluation mode the output is ``x * scale + shift`` and
    the cache keeps the input itself, no normalised copy.
    """
    mat = _channel_matrix(x)

    if not training:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        scale = gamma * inv_std
        out = mat * scale
        out += beta - running_mean * scale
        cache = {
            "x": mat,
            "mean": running_mean,
            "inv_std": inv_std,
            "gamma": gamma,
            "training": False,
        }
        return _from_channel_matrix(out, x.shape), cache

    mean = mat.mean(axis=0)
    x_hat = mat - mean
    var = np.einsum("mc,mc->c", x_hat, x_hat) / mat.shape[0]
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    running_var *= 1.0 - momentum
    running_var += momentum * var

    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat *= inv_std
    out = x_hat * gamma
    out += beta

    cache = {"x_hat": x_hat, "inv_std": inv_std, "gamma": gamma, "training": True}
    return _from_channel_matrix(out, x.shape), cache


def batchnorm_backward(
    grad_out: np.ndarray, cache: dict
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backward pass of :func:`batchnorm_forward`.

    Returns ``(grad_x, grad_gamma, grad_beta)``.  In evaluation mode the
    mean/var are treated as constants (the standard inference behaviour).
    """
    inv_std = cache["inv_std"]
    gamma = cache["gamma"]
    grad_mat = _channel_matrix(grad_out)
    grad_beta = grad_mat.sum(axis=0)

    if not cache["training"]:
        # sum(g * x_hat) with x_hat = (x - mean) * inv_std, from the saved input.
        grad_gamma = (
            np.einsum("mc,mc->c", grad_mat, cache["x"]) - cache["mean"] * grad_beta
        ) * inv_std
        grad_x = grad_mat * (gamma * inv_std)
        return _from_channel_matrix(grad_x, grad_out.shape), grad_gamma, grad_beta

    x_hat = cache["x_hat"]
    grad_gamma = np.einsum("mc,mc->c", grad_mat, x_hat)
    # inv_std * (g*gamma - mean(g*gamma) - x_hat * mean(g*gamma*x_hat)), gamma factored out.
    m = grad_mat.shape[0]
    grad_x = x_hat * (grad_gamma / -m)
    grad_x += grad_mat
    grad_x -= grad_beta / m
    grad_x *= gamma * inv_std
    return _from_channel_matrix(grad_x, grad_out.shape), grad_gamma, grad_beta


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

def relu_forward(x: np.ndarray) -> Tuple[np.ndarray, dict]:
    """Rectified linear unit."""
    return np.maximum(x, 0.0), {"mask": x > 0}


def relu_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`relu_forward`."""
    return grad_out * cache["mask"]


def relu6_forward(x: np.ndarray) -> Tuple[np.ndarray, dict]:
    """ReLU6 activation used by MobileNetV2."""
    mask = (x > 0) & (x < 6.0)
    return np.clip(x, 0.0, 6.0), {"mask": mask}


def relu6_backward(grad_out: np.ndarray, cache: dict) -> np.ndarray:
    """Backward pass of :func:`relu6_forward`."""
    return grad_out * cache["mask"]


# ---------------------------------------------------------------------------
# Softmax / cross-entropy
# ---------------------------------------------------------------------------

def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable log-softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_forward(
    logits: np.ndarray, targets: np.ndarray, label_smoothing: float = 0.0
) -> Tuple[float, dict]:
    """Mean cross-entropy loss over a batch of integer class targets."""
    n, num_classes = logits.shape
    log_probs = log_softmax(logits)

    if label_smoothing > 0.0:
        smooth = label_smoothing / num_classes
        target_dist = np.full_like(log_probs, smooth)
        target_dist[np.arange(n), targets] += 1.0 - label_smoothing
        loss = -(target_dist * log_probs).sum(axis=1).mean()
        cache = {"log_probs": log_probs, "target_dist": target_dist, "n": n}
    else:
        loss = -log_probs[np.arange(n), targets].mean()
        cache = {"log_probs": log_probs, "targets": targets, "n": n, "target_dist": None}
    return float(loss), cache


def cross_entropy_backward(cache: dict) -> np.ndarray:
    """Gradient of the mean cross-entropy loss with respect to the logits."""
    log_probs = cache["log_probs"]
    n = cache["n"]
    probs = np.exp(log_probs)
    if cache["target_dist"] is not None:
        grad = (probs - cache["target_dist"]) / n
    else:
        grad = probs.copy()
        grad[np.arange(n), cache["targets"]] -= 1.0
        grad /= n
    return grad
