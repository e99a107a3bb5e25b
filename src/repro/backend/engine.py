"""Inference engine: a pruned model + a compute backend + compressed weights.

:class:`Engine` is the one API experiments and the hardware workload model
consume for inference.  It encodes every prunable layer's (masked) weight
into a chosen storage format (any of :data:`WEIGHT_FORMATS`), re-routes
those layers' forward passes through the backend's ``sparse_matmul``, and
exposes ``predict`` plus batched multi-input dispatch.

Typical use::

    engine = Engine(pruned_model, backend="fast", weight_format="crisp",
                    n=2, m=4, block_size=16)
    logits = engine.predict(batch)            # (N, num_classes)
    classes = engine.predict_classes(batch)
    all_logits = engine.predict_many([b0, b1, b2])   # one fused dispatch

The engine only touches inference: attaching it swaps the ``forward`` of
Conv2d/Linear layers for compressed-format equivalents and leaves training
untouched (``detach`` restores the originals; the engine is also a context
manager that detaches on exit).
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from ..nn import functional as F
from ..nn.layers import Conv2d, Linear
from ..nn.models.base import prunable_layers
from ..nn.module import Module
from ..sparsity.formats import FormatSummary, WeightFormat, encode
from .base import Backend, resolve_backend, weight_formats

__all__ = ["Engine", "WEIGHT_FORMATS"]

#: Weight-format names accepted by :class:`Engine`: every entry of
#: ``sparsity.formats.FORMATS`` that the backends have a kernel for.
WEIGHT_FORMATS = weight_formats()


class Engine:
    """Wrap a (pruned) module with a backend and compressed weight formats."""

    def __init__(
        self,
        module: Module,
        backend: Union[str, Backend] = "fast",
        weight_format: str = "crisp",
        n: int = 2,
        m: int = 4,
        block_size: int = 16,
        attach: bool = True,
        formats: Optional[Dict[str, WeightFormat]] = None,
    ) -> None:
        self.module = module
        self.backend = resolve_backend(backend)
        if weight_format not in weight_formats(self.backend):
            raise ValueError(
                f"Unknown weight_format {weight_format!r}; "
                f"available: {weight_formats(self.backend)}"
            )
        self.weight_format = weight_format
        self.n = n
        self.m = m
        self.block_size = block_size
        self._formats: "OrderedDict[str, WeightFormat]" = OrderedDict()
        self._original_forward: Dict[str, object] = {}
        if formats is None:
            self.refresh_formats()
        else:
            self.install_formats(formats)
        if attach:
            self.attach()

    @classmethod
    def from_spec(
        cls,
        module: Module,
        spec,
        attach: bool = True,
        formats: Optional[Dict[str, WeightFormat]] = None,
    ) -> "Engine":
        """Build an engine from an :class:`~repro.serve.types.EngineSpec`.

        Accepts any object with ``backend`` / ``weight_format`` / ``n`` /
        ``m`` / ``block_size`` attributes, so the serving layer's specs (and
        their deserialized copies) materialize engines without this module
        importing :mod:`repro.serve`.
        """
        return cls(
            module,
            backend=spec.backend,
            weight_format=spec.weight_format,
            n=spec.n,
            m=spec.m,
            block_size=spec.block_size,
            attach=attach,
            formats=formats,
        )

    @property
    def spec(self):
        """This engine's configuration as a serializable ``EngineSpec``."""
        from ..serve.types import EngineSpec

        return EngineSpec(
            backend=self.backend.name,
            weight_format=self.weight_format,
            n=self.n,
            m=self.m,
            block_size=self.block_size,
        )

    # -- weight compression ---------------------------------------------------
    def refresh_formats(self) -> None:
        """(Re-)encode every prunable layer's effective weight.

        Call after pruning masks or weights change while an engine is alive.
        The *effective* (mask-applied) weight is encoded, so STE-style dense
        shadow weights never leak into inference.
        """
        self._formats.clear()
        for name, layer in prunable_layers(self.module).items():
            w_eff = layer.weight.effective()
            if isinstance(layer, Conv2d):
                weight2d = w_eff.reshape(layer.out_channels, -1).T
            else:  # Linear
                weight2d = w_eff.T
            self._formats[name] = encode(
                self.weight_format, weight2d, self.n, self.m, self.block_size
            )

    def install_formats(self, formats: Dict[str, WeightFormat]) -> None:
        """Install precomputed encodings instead of re-encoding the module.

        The seam for shared-memory serving: a worker process maps another
        process's encoded arrays and hands them in here, so the encoded
        bytes exist once per host and the worker skips the per-layer encode
        (2.5-3 ms for a CRISP ``resnet_tiny``'s 14 layers).  That is true of
        storage only: the ``fast`` kernels decode each format into a private
        GEMM operand on first use (``fmt.derived``, ~250 KiB for that
        ``resnet_tiny``), one copy per process per resident engine.  ``formats``
        must cover exactly this module's prunable layers, each encoding the
        ``(reduction, out_channels)`` matrix of its layer — a mismatch fails
        here, not inside a kernel at the first predict; entries are kept in
        layer order.
        """
        layers = prunable_layers(self.module)
        if sorted(formats) != sorted(layers):
            raise ValueError(
                f"formats must cover exactly the prunable layers {sorted(layers)}; "
                f"got {sorted(formats)}"
            )
        for name, layer in layers.items():
            out_channels = layer.weight.data.shape[0]
            expected = (layer.weight.data.size // out_channels, out_channels)
            if formats[name].shape != expected:
                raise ValueError(
                    f"format for layer {name!r} encodes a {formats[name].shape} "
                    f"matrix; the layer's weight is {expected}"
                )
        self._formats.clear()
        for name in layers:
            self._formats[name] = formats[name]

    @property
    def formats(self) -> Mapping[str, WeightFormat]:
        """Read-only view of the installed encodings, by layer name, in layer order."""
        return MappingProxyType(self._formats)

    @property
    def is_lossless(self) -> bool:
        """Whether every encoded weight round-trips exactly.

        Only a format that can drop values ever says no: CRISP, when the
        weights violate the hybrid N:M + block pattern the engine was
        configured with (i.e. the model was pruned with another one).
        """
        return all(fmt.is_lossless for fmt in self._formats.values())

    # -- layer re-routing -----------------------------------------------------
    # Forward closures look the format up by *name* on every call (instead of
    # capturing the format object at attach time), so refresh_formats() on a
    # live engine takes effect immediately — re-pruned tenants are never
    # served a stale encoding.
    def _conv_forward(self, layer: Conv2d, name: str):
        kernel = layer.kernel_size

        def forward(x: np.ndarray) -> np.ndarray:
            n = x.shape[0]
            out_h = F.conv_output_size(x.shape[2], kernel, layer.stride, layer.padding)
            out_w = F.conv_output_size(x.shape[3], kernel, layer.stride, layer.padding)
            cols = self.backend.im2col(
                x, kernel, kernel, layer.stride, layer.padding, training=False
            )
            out = self.backend.sparse_matmul(self._formats[name], cols.T).T  # (N*oh*ow, S)
            if layer.bias is not None:
                out = out + layer.bias.data
            layer._cache = {"x_shape": x.shape}
            return out.reshape(n, out_h, out_w, layer.out_channels).transpose(0, 3, 1, 2)

        return forward

    def _linear_forward(self, layer: Linear, name: str):
        def forward(x: np.ndarray) -> np.ndarray:
            out = self.backend.sparse_matmul(self._formats[name], x.T).T  # (batch, out_features)
            if layer.bias is not None:
                out = out + layer.bias.data
            layer._cache = {"x_shape": x.shape}
            return out

        return forward

    def attach(self) -> "Engine":
        """Swap prunable layers' forward passes for compressed-format compute."""
        if self._original_forward:
            return self
        for name, layer in prunable_layers(self.module).items():
            self._original_forward[name] = layer.__dict__.get("forward")
            if isinstance(layer, Conv2d):
                layer.forward = self._conv_forward(layer, name)
            else:
                layer.forward = self._linear_forward(layer, name)
        return self

    def detach(self) -> "Engine":
        """Restore the original layer forward passes."""
        for name, layer in prunable_layers(self.module).items():
            if name not in self._original_forward:
                continue
            original = self._original_forward[name]
            if original is None:
                layer.__dict__.pop("forward", None)
            else:  # pragma: no cover - nested engines
                layer.forward = original
        self._original_forward.clear()
        return self

    @property
    def attached(self) -> bool:
        return bool(self._original_forward)

    def __enter__(self) -> "Engine":
        return self.attach()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.detach()

    # -- inference ------------------------------------------------------------
    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Run one inference batch ``(N, C, H, W)`` and return the logits."""
        batch = np.asarray(batch, dtype=np.float64)
        was_training = self.module.training
        self.module.eval()
        try:
            return self.module(batch)
        finally:
            self.module.train(was_training)

    def predict_classes(self, batch: np.ndarray) -> np.ndarray:
        """Argmax class predictions for one batch."""
        return self.predict(batch).argmax(axis=1)

    def predict_many(self, batches: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Batched multi-input dispatch: fuse several inputs into one forward.

        Concatenating the requests amortises per-call overhead (im2col
        workspace setup, Python dispatch) across all of them — the serving
        pattern for aggregated inference traffic.  Returns one logits array
        per input, in order.
        """
        batches = [np.asarray(b, dtype=np.float64) for b in batches]
        if not batches:
            return []
        sizes = [b.shape[0] for b in batches]
        fused = batches[0] if len(batches) == 1 else np.concatenate(batches, axis=0)
        logits = self.predict(fused)
        splits = np.cumsum(sizes)[:-1]
        return np.split(logits, splits, axis=0)

    # -- reporting ------------------------------------------------------------
    def format_summaries(self) -> Dict[str, FormatSummary]:
        """Per-layer storage summaries of the encoded weights."""
        return {name: fmt.summary() for name, fmt in self._formats.items()}

    def total_weight_bits(self) -> int:
        """Total bits (data + metadata) of all compressed prunable weights."""
        return sum(s.total_bits for s in self.format_summaries().values())

    def stats(self) -> Dict[str, object]:
        """Engine-level report: backend, format, storage and workspace counters."""
        return {
            "backend": self.backend.name,
            "weight_format": self.weight_format,
            "layers": len(self._formats),
            "lossless": self.is_lossless,
            "total_weight_bits": self.total_weight_bits(),
            "workspace": self.backend.workspace_stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Engine(backend={self.backend.name!r}, format={self.weight_format!r}, "
            f"layers={len(self._formats)}, attached={self.attached})"
        )
