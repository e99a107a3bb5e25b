"""The engine's compiled inference plan: a flat list of ops, no ``Module`` in it.

:func:`compile_plan` walks a model **once**.  Leaf layers are looked up by
exact type in :data:`_LEAVES`; anything else that has sub-modules
(``Bottleneck``, ``InvertedResidual``, ``Sequential``, the classifier itself)
has its own ``forward`` run on a recording placeholder (:class:`_Value`) that
supports calling a module and ``+`` — so there is no per-architecture code
here, and a layer the table does not know fails at build with the layer's
qualified name, never at the first predict.

What the walk fuses, always into the op that *produced* the activation and
only when nothing else has read it:

* a ``BatchNorm`` (its running statistics — inference semantics) into the
  conv / depthwise / linear before it, recorded by the batch-norm's name and
  ``eps``;
* a ``ReLU`` / ``ReLU6`` as a flag, applied in place on the op's output;
* a residual ``a + b`` in place on whichever operand is an op's own buffer.

The walk reads no array and does no arithmetic, so its :class:`Plan` is the
same for every model of one architecture: a serving process compiles one per
architecture and :func:`bind` makes each tenant's ops from it.  The fold is
done there, from ``state_dict`` keys: ``gamma / sqrt(var + eps)`` scales the
output channels, ``beta - mean * scale`` joins the bias, and the scale goes
into the layer's *encoded* weight (``fmt.scale_columns``) — scaling output
channels scales columns of the ``(reduction, out)`` matrix, so every pruned
zero stays a zero.

Activations between ops are laid out the way the kernels produce and consume
them: ``(channels, N, H, W)`` C-contiguous — ``weight.T @ activations`` is
``(out, N * oh * ow)`` — i.e. the transpose of the channel-last
``(N * oh * ow, out)`` matrix, over the same memory.  A 1x1 convolution feeds
the previous GEMM's output to the next with a reshape (stride 2: one strided
copy); a ``k x k`` one gathers through ``backend.im2col`` from an NCHW *view*
of that buffer.  The ``fast`` backend gathers into ``(C * k * k, N * oh * ow)``
memory and returns its transpose, so the ``.T`` here hands the kernel a
C-contiguous operand (and a depthwise op's reshape is a view).  NCHW storage
exists only at the input edge.

Ops are instances of module-level classes holding arrays, formats and the
backend — never the engine, the module or a closure — so a dropped engine is
freed by reference counting alone.  A plan's own ops hold no array: a bound
conv op is a copy, and the ops that carry no weight are shared by every
binding.  ``backend.im2col`` and ``backend.sparse_matmul`` are looked up by
attribute on every call: a profiler that wraps them on the backend instance
after a plan was compiled still sees every kernel.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

import numpy as np

from ..nn import functional as F
from ..nn import layers as L
from ..nn.models.base import prunable_layers
from ..nn.module import Module
from ..sparsity.formats import WeightFormat

__all__ = ["Plan", "compile_plan", "bind", "run_plan"]


class _Op:
    """One step: reads ``values[src]``, returns the activation for the next slot."""

    __slots__ = ("src", "name", "bias", "act")

    def __init__(self, src: int, name: str = "", **fields) -> None:
        self.src, self.name, self.bias, self.act = src, name, None, None
        for key, value in fields.items():
            setattr(self, key, value)

    def finish(self, out: np.ndarray) -> np.ndarray:
        """Folded bias, then the fused activation, in place on the op's own output."""
        if self.bias is not None:
            out += self.bias
        if self.act is not None:
            np.maximum(out, 0.0, out=out)
            if self.act == "relu6":
                np.minimum(out, 6.0, out=out)
        return out


class _Conv(_Op):
    """A convolution — or a linear layer, which is a 1x1 one over ``(features, N, 1, 1)``.

    ``channels`` (its outputs), ``biased`` and ``folds`` (the ``(name, eps)``
    of each batch-norm folded into it, in order) are what :func:`bind` reads;
    ``fmt`` and ``bias`` are set on a tenant's copy.
    """

    __slots__ = ("backend", "fmt", "kernel", "stride", "padding", "channels", "biased", "folds")

    def operand(self, x: np.ndarray):
        """``(reduction, N * oh * ow)`` for the GEMM, and ``(oh, ow)``."""
        kernel, stride, padding = self.kernel, self.stride, self.padding
        if kernel == 1 and padding == 0:  # no unfolding: the activation is the operand
            if stride > 1:
                x = x[:, :, ::stride, ::stride]
            return x.reshape(x.shape[0], -1), x.shape[2:]
        size = tuple(F.conv_output_size(extent, kernel, stride, padding) for extent in x.shape[2:])
        nchw = x.transpose(1, 0, 2, 3)
        return self.backend.im2col(nchw, kernel, kernel, stride, padding).T, size

    def __call__(self, values: List[np.ndarray]) -> np.ndarray:
        operand, size = self.operand(values[self.src])
        out = self.finish(self.backend.sparse_matmul(self.fmt, operand))
        return out.reshape(out.shape[0], -1, *size)


class _Depthwise(_Conv):
    """One ``k x k`` filter per channel; ``fmt`` is the dense ``(channels, k * k)`` weight."""

    __slots__ = ()

    def __call__(self, values: List[np.ndarray]) -> np.ndarray:
        operand, size = self.operand(values[self.src])
        channels, taps = self.fmt.shape
        out = np.einsum("ckb,ck->cb", operand.reshape(channels, taps, -1), self.fmt)
        return self.finish(out).reshape(channels, -1, *size)


class _Add(_Op):
    __slots__ = ("other", "inplace")

    def __call__(self, values: List[np.ndarray]) -> np.ndarray:
        out = values[self.src]
        return self.finish(np.add(out, values[self.other], out=out if self.inplace else None))


class _Pool(_Op):
    __slots__ = ("reduce", "kernel", "stride", "padding")

    def __call__(self, values: List[np.ndarray]) -> np.ndarray:
        x = values[self.src]
        if not self.kernel:  # global average: (c, n, h, w) -> (c, n, 1, 1)
            return self.finish(x.mean(axis=(2, 3), keepdims=True))
        windows, _ = F.im2col_windows(x, self.kernel, self.kernel, self.stride, self.padding)
        return self.finish(self.reduce(windows, axis=(2, 3)))


class _Flatten(_Op):
    __slots__ = ()

    def __call__(self, values: List[np.ndarray]) -> np.ndarray:
        x = values[self.src]
        channels, n = x.shape[:2]  # -> (c * h * w, n, 1, 1), features in the module's order
        return x.reshape(channels, n, -1).transpose(0, 2, 1).reshape(-1, n, 1, 1)


class _Value:
    """Recording placeholder for one activation: what a ``forward`` sees at build.

    ``Module.__call__`` hands a module to :meth:`record_module` instead of
    computing; ``+`` records a residual add.  ``op`` is the op whose own
    buffer this is (``None``: the input, or a view of another activation),
    ``uses`` how many ops read it so far, ``slot`` ``None`` once something
    was fused into its producer — reading the pre-fusion activation afterwards
    cannot be honoured and fails the build.
    """

    __slots__ = ("tracer", "slot", "op", "uses")

    def __init__(self, tracer: "_Tracer", slot: int, op: Optional[_Op] = None) -> None:
        self.tracer, self.slot, self.op, self.uses = tracer, slot, op, 0

    def record_module(self, module: Module) -> "_Value":
        return self.tracer.call(module, self)

    def __add__(self, other: "_Value") -> "_Value":
        return self.tracer.add(self, other)


class _Tracer:
    """Build-time state of one walk; dropped when :func:`compile_plan` returns."""

    def __init__(self, module: Module, backend) -> None:
        self.backend = backend
        self.names = {id(sub): name or "<root>" for name, sub in module.named_modules()}
        self.ops: List[_Op] = []

    # -- plumbing -------------------------------------------------------------
    def call(self, module: Module, value: _Value) -> _Value:
        name, kind = self.names[id(module)], type(module).__name__
        if type(module) in _LEAVES:
            return _LEAVES[type(module)](self, name, module, value)
        if not module._modules:
            raise ValueError(f"cannot compile layer {name!r}: {kind} is not in the engine's op table")
        try:
            return module.forward(value)
        except (AttributeError, TypeError) as exc:
            raise ValueError(
                f"cannot compile {name!r}: {kind}.forward does more than call sub-modules "
                f"and add their outputs ({exc})"
            ) from exc

    def read(self, value: _Value, reader: str) -> int:
        if value.slot is None:
            raise ValueError(
                f"cannot compile {reader}: it reads an activation that a batch-norm, an "
                f"activation or an in-place add was already fused into"
            )
        value.uses += 1
        return value.slot

    def emit(self, op: _Op, own_buffer: bool = True) -> _Value:
        self.ops.append(op)
        return _Value(self, len(self.ops), op if own_buffer else None)

    def fused(self, value: _Value, what: str, producers=_Op) -> _Value:
        """``value`` after ``what`` is applied in place by the op that produced it.

        Legal only on an op's own, so-far-unread output with no activation on
        it yet; the pre-fusion placeholder goes dead.
        """
        if value.slot is None or value.uses or not isinstance(value.op, producers) or value.op.act:
            raise ValueError(
                f"cannot compile {what}: its input must be a "
                f"{'conv / linear' if producers is _Conv else 'plan op'} output that nothing "
                f"else reads and no activation was applied to"
            )
        value.slot, slot = None, value.slot
        return _Value(self, slot, value.op)

    # -- leaf layers ----------------------------------------------------------
    def conv(self, name: str, layer, value: _Value) -> _Value:
        if any(op.name == name for op in self.ops):
            raise ValueError(f"cannot compile layer {name!r}: it is called twice in one forward")
        return self.emit((_Depthwise if type(layer) is L.DepthwiseConv2d else _Conv)(
            self.read(value, repr(name)), name, backend=self.backend, fmt=None,
            kernel=getattr(layer, "kernel_size", 1), stride=getattr(layer, "stride", 1),
            padding=getattr(layer, "padding", 0), channels=layer.weight.data.shape[0],
            biased=layer.bias is not None, folds=[],
        ))

    def batchnorm(self, name: str, layer, value: _Value) -> _Value:
        value = self.fused(value, f"batch-norm {name!r}", _Conv)
        value.op.folds.append((name, layer.eps))
        return value

    def activation(self, name: str, layer, value: _Value) -> _Value:
        value = self.fused(value, f"{type(layer).__name__} {name!r}")
        value.op.act = "relu6" if type(layer) is L.ReLU6 else "relu"
        return value

    def pool(self, name: str, layer, value: _Value) -> _Value:
        reduce = {L.MaxPool2d: np.max, L.AvgPool2d: np.mean}.get(type(layer))
        return self.emit(_Pool(
            self.read(value, repr(name)), name, reduce=reduce,
            kernel=getattr(layer, "kernel", 0), stride=getattr(layer, "stride", 0),
            padding=getattr(layer, "padding", 0),
        ))

    def flatten(self, name: str, layer, value: _Value) -> _Value:
        return self.emit(_Flatten(self.read(value, repr(name)), name), own_buffer=False)

    def identity(self, name: str, layer, value: _Value) -> _Value:
        return value

    def add(self, a: _Value, b: _Value) -> _Value:
        # In place on an operand that is an op's own, so-far-unread buffer;
        # a + b == b + a bit for bit, so either side will do.
        if a.op is None or a.uses:
            a, b = b, a
        inplace = a.op is not None and not a.uses and a is not b
        op = _Add(self.read(a, "a residual add"), other=self.read(b, "a residual add"),
                  inplace=inplace)
        if inplace:
            a.slot = None  # its buffer now holds the sum
        return self.emit(op)


#: Exact layer type -> the tracer method that compiles it.
_LEAVES = {
    **dict.fromkeys((L.Conv2d, L.DepthwiseConv2d, L.Linear), _Tracer.conv),
    **dict.fromkeys((L.BatchNorm2d, L.BatchNorm1d), _Tracer.batchnorm),
    **dict.fromkeys((L.ReLU, L.ReLU6), _Tracer.activation),
    **dict.fromkeys((L.MaxPool2d, L.AvgPool2d, L.GlobalAvgPool2d), _Tracer.pool),
    **dict.fromkeys((L.Identity, L.Dropout), _Tracer.identity),  # dropout at inference
    L.Flatten: _Tracer.flatten,
}


class Plan(NamedTuple):
    """What one walk compiles: the same for every model of one architecture.

    ``ops`` never hold a tenant's arrays (:func:`bind` copies the conv ops it
    fills in); ``layers`` is every prunable layer's ``(reduction, out)``
    shape, in layer order; ``shapes`` the shape of every other
    ``state_dict`` key (everything but the prunable weights).
    """

    ops: List[_Op]
    layers: Dict[str, Tuple[int, int]]
    shapes: Dict[str, Tuple[int, ...]]


def compile_plan(module: Module, backend) -> Plan:
    """Walk ``module`` once, reading no weight; raises ``ValueError`` naming the
    layer for anything the plan cannot express."""
    tracer = _Tracer(module, backend)
    tracer.call(module, _Value(tracer, 0))
    layers = {name: (layer.weight.data.size // len(layer.weight.data), len(layer.weight.data))
              for name, layer in prunable_layers(module).items()}
    shapes = {key: param.data.shape for key, param in module.named_parameters()
              if key.removesuffix(".weight") not in layers}
    shapes.update((f"{key}::buffer", buffer.shape) for key, buffer in module.named_buffers())
    return Plan(tracer.ops, layers, shapes)


def bind(
    plan: Plan, state: Mapping[str, np.ndarray], formats: Mapping[str, WeightFormat]
) -> Tuple[List[_Op], Dict[str, WeightFormat]]:
    """One model's ops over ``plan``, and its folded encodings by layer, in layer order.

    ``state`` holds the non-prunable arrays by ``state_dict`` key and
    ``formats`` each prunable layer's *unfolded* encoding.  Per batch-norm
    folded into an op, ``scale = gamma / sqrt(var + eps)`` multiplies the
    output channels and ``beta - mean * scale`` joins the bias; a depthwise
    op's weight is scaled here, every other op's encoding by
    ``fmt.scale_columns``.  A prunable layer the forward never calls is kept
    unscaled.  Raises ``ValueError`` naming a layer whose encoding is missing
    or does not encode its ``(reduction, out)`` matrix, or a state key that is
    missing or mis-shaped.
    """
    if sorted(formats) != sorted(plan.layers):
        raise ValueError(
            f"formats must cover exactly the prunable layers {sorted(plan.layers)}; "
            f"got {sorted(formats)}"
        )
    for name, shape in plan.layers.items():
        if formats[name].shape != shape:
            raise ValueError(f"format for layer {name!r} encodes a {formats[name].shape} "
                             f"matrix; the layer's weight is {shape}")
    for key, shape in plan.shapes.items():
        got = np.shape(state[key]) if key in state else "nothing"
        if got != shape:
            raise ValueError(f"state {key!r} must be a {shape} array; got {got}")
    folded = {name: formats[name] for name in plan.layers}
    ops = [copy.copy(op) if isinstance(op, _Conv) else op for op in plan.ops]
    for op in (op for op in ops if isinstance(op, _Conv)):
        scale = np.ones(op.channels)
        op.bias = state[f"{op.name}.bias"][:, None].copy() if op.biased else None
        for name, eps in op.folds:
            gamma, beta, mean, var = (state[f"{name}.{key}"] for key in (
                "gamma", "beta", "running_mean::buffer", "running_var::buffer"))
            bn_scale = gamma / np.sqrt(var + eps)
            scale = scale * bn_scale
            shift = (beta - mean * bn_scale)[:, None]
            op.bias = shift if op.bias is None else op.bias * bn_scale[:, None] + shift
        if type(op) is _Depthwise:  # (channels, 1, k, k)
            weight = state[f"{op.name}.weight"]
            op.fmt = (weight * scale[:, None, None, None]).reshape(len(weight), -1)
        else:
            op.fmt = folded[op.name] = folded[op.name].scale_columns(scale)
    return ops, folded


def run_plan(plan: List[_Op], batch: np.ndarray) -> np.ndarray:
    """Execute ``plan`` on one ``(N, C, H, W)`` batch; returns the ``(N, classes)`` logits."""
    values = [batch.swapaxes(0, 1)]
    for op in plan:
        values.append(op(values))
    return np.ascontiguousarray(values[-1].reshape(-1, len(batch)).T)
