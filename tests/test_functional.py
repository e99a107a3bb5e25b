"""Unit tests for the numerical kernels in repro.nn.functional."""

import numpy as np
import pytest

from repro.nn import functional as F


def naive_conv2d(x, weight, bias, stride, padding):
    """Direct nested-loop convolution used as the reference implementation."""
    n, c_in, h, w = x.shape
    c_out, _, kh, kw = weight.shape
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    x_p = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, c_out, out_h, out_w))
    for b in range(n):
        for oc in range(c_out):
            for i in range(out_h):
                for j in range(out_w):
                    patch = x_p[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                    out[b, oc, i, j] = np.sum(patch * weight[oc])
            if bias is not None:
                out[b, oc] += bias[oc]
    return out


class TestConvOutputSize:
    def test_basic(self):
        assert F.conv_output_size(8, 3, 1, 1) == 8
        assert F.conv_output_size(8, 3, 2, 1) == 4
        assert F.conv_output_size(7, 7, 1, 0) == 1

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            F.conv_output_size(2, 5, 1, 0)


class TestIm2col:
    def test_shape(self, rng):
        x = rng.normal(size=(2, 3, 8, 8))
        cols = F.im2col(x, 3, 3, stride=1, padding=1)
        assert cols.shape == (2 * 8 * 8, 3 * 3 * 3)

    def test_identity_kernel1(self, rng):
        x = rng.normal(size=(1, 2, 4, 4))
        cols = F.im2col(x, 1, 1)
        expected = x.transpose(0, 2, 3, 1).reshape(-1, 2)
        np.testing.assert_allclose(cols, expected)

    def test_col2im_adjoint(self, rng):
        """col2im must be the adjoint of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.normal(size=(1, 2, 6, 6))
        cols = F.im2col(x, 3, 3, stride=2, padding=1)
        y = rng.normal(size=cols.shape)
        lhs = np.sum(cols * y)
        rhs = np.sum(x * F.col2im(y, x.shape, 3, 3, stride=2, padding=1))
        assert lhs == pytest.approx(rhs)


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_naive(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 7, 7))
        weight = rng.normal(size=(4, 3, 3, 3))
        bias = rng.normal(size=4)
        out, _ = F.conv2d_forward(x, weight, bias, stride, padding)
        expected = naive_conv2d(x, weight, bias, stride, padding)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_channel_mismatch_raises(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        weight = rng.normal(size=(2, 4, 3, 3))
        with pytest.raises(ValueError):
            F.conv2d_forward(x, weight, None, 1, 1)

    def test_backward_weight_grad(self, rng, gradcheck):
        x = rng.normal(size=(2, 2, 5, 5))
        weight = rng.normal(size=(3, 2, 3, 3))
        bias = rng.normal(size=3)
        grad_out = rng.normal(size=(2, 3, 5, 5))

        out, cache = F.conv2d_forward(x, weight, bias, 1, 1)
        _, grad_w, grad_b = F.conv2d_backward(grad_out, weight, cache)

        def loss():
            y, _ = F.conv2d_forward(x, weight, bias, 1, 1)
            return float(np.sum(y * grad_out))

        num_grad_w = gradcheck(loss, weight)
        np.testing.assert_allclose(grad_w, num_grad_w, atol=1e-4)
        num_grad_b = gradcheck(loss, bias)
        np.testing.assert_allclose(grad_b, num_grad_b, atol=1e-4)

    def test_backward_input_grad(self, rng, gradcheck):
        x = rng.normal(size=(1, 2, 4, 4))
        weight = rng.normal(size=(2, 2, 3, 3))
        grad_out = rng.normal(size=(1, 2, 4, 4))
        out, cache = F.conv2d_forward(x, weight, None, 1, 1)
        grad_x, _, _ = F.conv2d_backward(grad_out, weight, cache)

        def loss():
            y, _ = F.conv2d_forward(x, weight, None, 1, 1)
            return float(np.sum(y * grad_out))

        num_grad_x = gradcheck(loss, x)
        np.testing.assert_allclose(grad_x, num_grad_x, atol=1e-4)


class TestDepthwiseConv:
    def test_matches_grouped_naive(self, rng):
        x = rng.normal(size=(2, 3, 6, 6))
        weight = rng.normal(size=(3, 1, 3, 3))
        out, _ = F.depthwise_conv2d_forward(x, weight, None, 1, 1)
        # Reference: per-channel regular conv.
        for c in range(3):
            ref = naive_conv2d(x[:, c : c + 1], weight[c : c + 1], None, 1, 1)
            np.testing.assert_allclose(out[:, c : c + 1], ref, atol=1e-10)

    def test_backward_grads(self, rng, gradcheck):
        x = rng.normal(size=(1, 2, 5, 5))
        weight = rng.normal(size=(2, 1, 3, 3))
        grad_out = rng.normal(size=(1, 2, 5, 5))
        out, cache = F.depthwise_conv2d_forward(x, weight, None, 1, 1)
        grad_x, grad_w, _ = F.depthwise_conv2d_backward(grad_out, weight, cache)

        def loss():
            y, _ = F.depthwise_conv2d_forward(x, weight, None, 1, 1)
            return float(np.sum(y * grad_out))

        np.testing.assert_allclose(grad_w, gradcheck(loss, weight), atol=1e-4)
        np.testing.assert_allclose(grad_x, gradcheck(loss, x), atol=1e-4)

    def test_bad_shape_raises(self, rng):
        x = rng.normal(size=(1, 3, 5, 5))
        weight = rng.normal(size=(4, 1, 3, 3))
        with pytest.raises(ValueError):
            F.depthwise_conv2d_forward(x, weight, None, 1, 1)


class TestLinear:
    def test_forward(self, rng):
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        out, _ = F.linear_forward(x, w, b)
        np.testing.assert_allclose(out, x @ w.T + b)

    def test_backward(self, rng, gradcheck):
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(3, 6))
        b = rng.normal(size=3)
        grad_out = rng.normal(size=(4, 3))
        out, cache = F.linear_forward(x, w, b)
        grad_x, grad_w, grad_b = F.linear_backward(grad_out, w, cache)

        def loss():
            y, _ = F.linear_forward(x, w, b)
            return float(np.sum(y * grad_out))

        np.testing.assert_allclose(grad_w, gradcheck(loss, w), atol=1e-5)
        np.testing.assert_allclose(grad_b, gradcheck(loss, b), atol=1e-5)
        np.testing.assert_allclose(grad_x, gradcheck(loss, x), atol=1e-5)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, _ = F.max_pool2d_forward(x, 2)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_backward_routes_to_argmax(self):
        x = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        out, cache = F.max_pool2d_forward(x, 2)
        grad = F.max_pool2d_backward(np.ones_like(out), cache)
        expected = np.zeros((1, 1, 4, 4))
        expected[0, 0, 1, 1] = expected[0, 0, 1, 3] = 1
        expected[0, 0, 3, 1] = expected[0, 0, 3, 3] = 1
        np.testing.assert_allclose(grad, expected)

    def test_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 4))
        out, cache = F.avg_pool2d_forward(x, 2)
        np.testing.assert_allclose(out[0, 0, 0, 0], x[0, 0, :2, :2].mean())
        grad = F.avg_pool2d_backward(np.ones_like(out), cache)
        np.testing.assert_allclose(grad, np.full_like(x, 0.25))

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 5, 3, 3))
        out, cache = F.global_avg_pool_forward(x)
        np.testing.assert_allclose(out, x.mean(axis=(2, 3)))
        grad = F.global_avg_pool_backward(np.ones_like(out), cache)
        np.testing.assert_allclose(grad, np.full_like(x, 1.0 / 9))


class TestBatchNorm:
    def test_training_normalises(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 5, 5))
        gamma, beta = np.ones(4), np.zeros(4)
        mean, var = np.zeros(4), np.ones(4)
        out, _ = F.batchnorm_forward(x, gamma, beta, mean, var, training=True)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated(self, rng):
        x = rng.normal(loc=2.0, size=(16, 3, 4, 4))
        mean, var = np.zeros(3), np.ones(3)
        F.batchnorm_forward(x, np.ones(3), np.zeros(3), mean, var, training=True, momentum=1.0)
        np.testing.assert_allclose(mean, x.mean(axis=(0, 2, 3)))

    def test_eval_uses_running_stats(self, rng):
        x = rng.normal(size=(4, 3, 2, 2))
        mean = np.full(3, 5.0)
        var = np.full(3, 4.0)
        out, _ = F.batchnorm_forward(x, np.ones(3), np.zeros(3), mean, var, training=False)
        np.testing.assert_allclose(out, (x - 5.0) / np.sqrt(4.0 + 1e-5), rtol=1e-6)

    def test_backward_gradcheck(self, rng, gradcheck):
        x = rng.normal(size=(4, 2, 3, 3))
        gamma = rng.normal(size=2)
        beta = rng.normal(size=2)
        grad_out = rng.normal(size=x.shape)
        mean, var = np.zeros(2), np.ones(2)
        out, cache = F.batchnorm_forward(x, gamma, beta, mean, var, training=True)
        grad_x, grad_gamma, grad_beta = F.batchnorm_backward(grad_out, cache)

        def loss():
            m, v = np.zeros(2), np.ones(2)
            y, _ = F.batchnorm_forward(x, gamma, beta, m, v, training=True)
            return float(np.sum(y * grad_out))

        np.testing.assert_allclose(grad_gamma, gradcheck(loss, gamma), atol=1e-4)
        np.testing.assert_allclose(grad_beta, gradcheck(loss, beta), atol=1e-4)
        np.testing.assert_allclose(grad_x, gradcheck(loss, x), atol=1e-4)


class TestActivations:
    def test_relu(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        out, cache = F.relu_forward(x)
        np.testing.assert_allclose(out, [[0, 0, 2]])
        grad = F.relu_backward(np.ones_like(x), cache)
        np.testing.assert_allclose(grad, [[0, 0, 1]])

    def test_relu6(self):
        x = np.array([[-1.0, 3.0, 8.0]])
        out, cache = F.relu6_forward(x)
        np.testing.assert_allclose(out, [[0, 3, 6]])
        grad = F.relu6_backward(np.ones_like(x), cache)
        np.testing.assert_allclose(grad, [[0, 1, 0]])


class TestSoftmaxCrossEntropy:
    def test_softmax_sums_to_one(self, rng):
        logits = rng.normal(size=(5, 7)) * 10
        probs = F.softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)

    def test_log_softmax_consistency(self, rng):
        logits = rng.normal(size=(3, 4))
        np.testing.assert_allclose(np.exp(F.log_softmax(logits)), F.softmax(logits))

    def test_cross_entropy_value(self):
        logits = np.log(np.array([[0.7, 0.2, 0.1]]))
        targets = np.array([0])
        loss, _ = F.cross_entropy_forward(logits, targets)
        assert loss == pytest.approx(-np.log(0.7), rel=1e-6)

    def test_cross_entropy_gradient_numeric(self, rng, gradcheck):
        logits = rng.normal(size=(4, 5))
        targets = rng.integers(0, 5, size=4)
        _, cache = F.cross_entropy_forward(logits, targets)
        grad = F.cross_entropy_backward(cache)

        def loss():
            value, _ = F.cross_entropy_forward(logits, targets)
            return value

        np.testing.assert_allclose(grad, gradcheck(loss, logits), atol=1e-5)

    def test_label_smoothing_gradient_numeric(self, rng, gradcheck):
        logits = rng.normal(size=(3, 4))
        targets = rng.integers(0, 4, size=3)
        _, cache = F.cross_entropy_forward(logits, targets, label_smoothing=0.1)
        grad = F.cross_entropy_backward(cache)

        def loss():
            value, _ = F.cross_entropy_forward(logits, targets, label_smoothing=0.1)
            return value

        np.testing.assert_allclose(grad, gradcheck(loss, logits), atol=1e-5)

    def test_label_smoothing_increases_loss_on_confident_prediction(self):
        logits = np.array([[10.0, -10.0]])
        targets = np.array([0])
        plain, _ = F.cross_entropy_forward(logits, targets)
        smoothed, _ = F.cross_entropy_forward(logits, targets, label_smoothing=0.2)
        assert smoothed > plain


# ---------------------------------------------------------------------------
# Channel-last training kernels vs the NCHW bodies they replaced
# ---------------------------------------------------------------------------

def _resnet_tiny_conv_shapes():
    """Distinct ``(c_in, size, c_out, kernel, stride, padding)`` of ``resnet_tiny``'s convs."""
    from repro.nn.layers import Conv2d
    from repro.nn.models import resnet_tiny
    from repro.nn.models.base import conv_input_sizes

    model = resnet_tiny(num_classes=3, input_size=12, seed=0)
    sizes = conv_input_sizes(model)
    return list(dict.fromkeys(
        (m.in_channels, sizes[name][0], m.out_channels, m.kernel_size, m.stride, m.padding)
        for name, m in model.named_modules()
        if isinstance(m, Conv2d)
    ))


#: Every resnet_tiny conv, plus the stride x padding corners it does not use.
CONV_SHAPES = _resnet_tiny_conv_shapes() + [
    (5, 9, 7, 3, 1, 0),
    (5, 9, 7, 3, 2, 0),
    (5, 9, 7, 1, 1, 1),
    (5, 9, 7, 1, 2, 1),
    (4, 8, 6, 2, 2, 1),
]
BN_SHAPES = sorted({(c_out, size) for _, size, c_out, *_ in CONV_SHAPES}) + [(10, None)]
PARITY_CASES = (
    [("conv", shape) for shape in CONV_SHAPES]
    + [("batchnorm", shape) for shape in BN_SHAPES]
    + [("relu", (48, 12))]
)


def _laid_out(rng, shape, layout):
    """Random values of logical ``shape`` in one memory layout a kernel can be handed.

    ``channel_last`` is what a conv / batch-norm / ReLU returns, ``nchw`` is
    C-contiguous (the image, a pooling output), ``sliced`` is an arbitrary
    non-contiguous window of a larger array.
    """
    if layout == "sliced":
        n, c, *spatial = shape
        big = rng.normal(size=(n + 1, 2 * c + 1, *(s + 2 for s in spatial)))
        return big[(slice(1, None), slice(1, None, 2), *(slice(1, -1) for _ in spatial))]
    if layout == "channel_last" and len(shape) == 4:
        n, c, h, w = shape
        return rng.normal(size=(n, h, w, c)).transpose(0, 3, 1, 2)
    return rng.normal(size=shape)


def _assert_parity(new, old):
    assert len(new) == len(old)
    for got, want in zip(new, old):
        if want is None:
            assert got is None
            continue
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("layout", ["channel_last", "nchw", "sliced"])
@pytest.mark.parametrize("case", PARITY_CASES, ids=lambda case: f"{case[0]}{case[1]}")
def test_matches_nchw_oracle(case, layout):
    """New kernel vs old body, <= 1e-10 on every output, gradient and running statistic."""
    import nchw_kernels_oracle as oracle

    kind, shape = case
    rng = np.random.default_rng(PARITY_CASES.index(case))
    for batch in (2, 4, 16):
        if kind == "conv":
            c_in, size, c_out, kernel, stride, padding = shape
            x = _laid_out(rng, (batch, c_in, size, size), layout)
            weight = rng.normal(size=(c_out, c_in, kernel, kernel))
            for bias in (rng.normal(size=c_out), None):
                new_out, new_cache = F.conv2d_forward(x, weight, bias, stride, padding)
                old_out, old_cache = oracle.conv2d_forward(x, weight, bias, stride, padding)
                grad_out = _laid_out(rng, old_out.shape, layout)
                _assert_parity(
                    (new_out, *F.conv2d_backward(grad_out, weight, new_cache)),
                    (old_out, *oracle.conv2d_backward(grad_out, weight, old_cache)),
                )
        elif kind == "batchnorm":
            channels, size = shape
            full = (batch, channels) if size is None else (batch, channels, size, size)
            x = _laid_out(rng, full, layout)
            grad_out = _laid_out(rng, full, layout)
            gamma, beta = rng.normal(size=channels), rng.normal(size=channels)
            for training in (True, False):
                results = []
                for kernels in (F, oracle):
                    mean, var = np.linspace(-1, 1, channels), np.linspace(0.5, 2, channels)
                    out, cache = kernels.batchnorm_forward(
                        x, gamma, beta, mean, var, training, momentum=0.3
                    )
                    results.append((out, *kernels.batchnorm_backward(grad_out, cache), mean, var))
                _assert_parity(*results)
        else:
            channels, size = shape
            x = _laid_out(rng, (batch, channels, size, size), layout)
            grad_out = _laid_out(rng, x.shape, layout)
            results = []
            for kernels in (F, oracle):
                out, cache = kernels.relu_forward(x)
                results.append((out, kernels.relu_backward(grad_out, cache)))
            _assert_parity(*results)


def test_pointwise_conv_on_channel_last_input_copies_nothing(rng):
    """A 1x1 stride-1 conv's column matrix is its input's memory, and so on down a chain."""
    x = rng.normal(size=(4, 6, 6, 8)).transpose(0, 3, 1, 2)
    weight = rng.normal(size=(5, 8, 1, 1))
    out, cache = F.conv2d_forward(x, weight, None)
    assert np.shares_memory(cache["cols"], x)
    for kernel_out in (
        out,
        F.relu_forward(out)[0],
        F.batchnorm_forward(out, np.ones(5), np.zeros(5), np.zeros(5), np.ones(5), True)[0],
        F.conv2d_backward(out, weight, cache)[0],
    ):
        assert kernel_out.transpose(0, 2, 3, 1).flags.c_contiguous
