"""Inference engine: a pruned model + a compute backend + compressed weights.

:class:`Engine` is the one API experiments and the hardware workload model
consume for inference.  Building one *compiles* the model
(:mod:`repro.backend.plan`): a single walk emits a flat list of ops — conv /
depthwise / linear / add / pool / flatten — with every ``BatchNorm`` folded
into the conv or linear before it and every ReLU fused onto the op it
follows, and ``predict`` runs that list.  The walk reads no weight, so a
serving process walks each architecture once and builds every tenant's
engine from the same plan (:meth:`Engine.bound`, with no module at all).
No ``Module`` is called, and nothing on the module is written — except that
an engine handed encodings (``formats=``) decodes them into its module when
:attr:`Engine.module` is first read — and any number of threads may predict
on one engine.

Typical use::

    engine = Engine(pruned_model, backend="fast", weight_format="crisp",
                    n=2, m=4, block_size=16)
    logits = engine.predict(batch)            # (N, num_classes)
    all_logits = engine.predict_many([b0, b1, b2])   # one fused dispatch

Two contracts follow from compiling:

* **Snapshot.**  An engine holds the weights, masks *and batch-norm
  statistics* the module had when it was built.  Training or re-pruning the
  module afterwards changes nothing an engine serves until
  :meth:`Engine.refresh_formats`, which recompiles.
* **Encode, then fold.**  Each prunable layer's mask-applied, *unfolded*
  weight is encoded (:func:`encode_weights`) — or handed in already encoded,
  which is what a registry record stores — and its batch-norm scale is then
  multiplied into the stored values of a copy (``fmt.scale_columns``): into
  columns of the ``(reduction, out)`` matrix, one ``w * scale`` per value,
  the product encoding the folded matrix would have stored.  Those *folded*
  encodings are what :attr:`Engine.formats`, :meth:`Engine.format_summaries`
  and :meth:`Engine.total_weight_bits` report.  A zero stays a zero, so
  ``nnz``, the bit counts and ``is_lossless`` are those of the unfolded
  weight (a channel whose ``gamma`` is exactly 0 can only lose non-zeros).
  Folding reorders float operations: an engine agrees with
  ``module.eval()``'s forward to round-off (<= 1e-9), and engines built from
  one model agree with each other bit for bit, whichever process built them.

``Engine.detach()`` and the ``attach=`` keyword are left from the time an
engine patched ``forward`` closures onto the module.  Both do nothing; they
are accepted only because ``benchmarks/crispbench`` (frozen for gain PRs)
still spells them, and the next ``benchmark`` PR removes those callers.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from .. import blas
from ..nn.models.base import prunable_layers
from ..nn.module import Module
from ..sparsity.formats import FormatSummary, WeightFormat, encode
from .base import Backend, resolve_backend, weight_formats
from .plan import Plan, bind, compile_plan, run_plan

__all__ = ["Engine", "WEIGHT_FORMATS", "encode_weights", "load_weights"]

#: Weight-format names accepted by :class:`Engine`: every entry of
#: ``sparsity.formats.FORMATS`` that the backends have a kernel for.
WEIGHT_FORMATS = weight_formats()


def encode_weights(module: Module, spec) -> Dict[str, WeightFormat]:
    """Each prunable layer's effective (mask-applied, unfolded) weight, encoded.

    ``spec`` is anything with ``weight_format`` / ``n`` / ``m`` /
    ``block_size``; each layer encodes its ``(reduction, out_channels)``
    matrix, in layer order.
    """
    weights = {name: layer.weight.effective() for name, layer in prunable_layers(module).items()}
    return {name: encode(spec.weight_format, w.reshape(len(w), -1).T, spec.n, spec.m, spec.block_size)
            for name, w in weights.items()}


def load_weights(module: Module, formats: Mapping[str, WeightFormat]) -> Module:
    """Write each encoding's decoded weight into its layer; the inverse of :func:`encode_weights`.

    The mask is the weight's non-zeros: the encodings keep no mask, so a kept
    weight that is exactly 0.0 reads as pruned here, and a lossy encoding's
    dropped values read as pruned too.
    """
    for name, layer in prunable_layers(module).items():
        layer.weight.data = np.ascontiguousarray(formats[name].to_dense().T).reshape(layer.weight.shape)
        layer.weight.set_mask(layer.weight.data != 0)
    return module


class Engine:
    """A (pruned) module compiled for one backend and one compressed weight format."""

    def __init__(
        self,
        module: Module,
        backend: Union[str, Backend] = "fast",
        weight_format: str = "crisp",
        n: int = 2,
        m: int = 4,
        block_size: int = 16,
        attach: bool = True,  # ignored; the next benchmark PR removes crispbench's callers
        formats: Optional[Dict[str, WeightFormat]] = None,
    ) -> None:
        self._configure(backend, weight_format, n, m, block_size)
        self._module, self._undecoded = module, None
        if formats is None:
            self.refresh_formats()
        else:
            self.install_formats(formats)

    def _configure(self, backend, weight_format: str, n: int, m: int, block_size: int) -> None:
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

    @classmethod
    def bound(cls, plan: Plan, state: Mapping[str, np.ndarray], formats: Mapping[str, WeightFormat],
              spec, build_module: Callable[[], Module]) -> "Engine":
        """An engine over an already compiled ``plan``, from stored arrays alone.

        ``state`` is the non-prunable ``state_dict`` and ``formats`` the
        unfolded encodings (what a registry record stores): :func:`bind`
        folds batch-norm into copies of the value arrays and checks every
        format and state shape.  ``spec`` is anything with ``backend`` /
        ``weight_format`` / ``n`` / ``m`` / ``block_size`` attributes, so the
        serving layer's specs build engines without this module importing
        :mod:`repro.serve`.  No module is built; ``build_module()`` makes one
        on the first read of :attr:`module`.
        """
        engine = cls.__new__(cls)
        engine._configure(spec.backend, spec.weight_format, spec.n, spec.m, spec.block_size)
        engine._bind(plan, state, formats, build_module)
        return engine

    @property
    def spec(self):
        """This engine's configuration as a serializable ``EngineSpec``."""
        from ..serve.types import EngineSpec

        return EngineSpec(self.backend.name, self.weight_format, self.n, self.m, self.block_size)

    # -- compilation ----------------------------------------------------------
    def _bind(self, plan: Plan, state, formats, undecoded: Optional[Callable[[], Module]]) -> None:
        """Bind ``plan`` to ``state`` and unfolded ``formats``; swap ops and folded formats in.

        Both are replaced by assignment, so a predict running on another
        thread finishes on the ops it started with.  ``undecoded`` builds the
        module on the next read of :attr:`module` (``None``: it is current).
        """
        ops, folded = bind(plan, state, formats)
        for array in (array for fmt in folded.values() for array in fmt.arrays().values()):
            array.flags.writeable = False  # the kernels memoize what they derive from it
        self._formats, self._plan, self._undecoded = folded, ops, undecoded

    def refresh_formats(self) -> None:
        """Recompile: re-read the module, re-encode every prunable layer, fold.

        Call after weights, pruning masks or batch-norm statistics change
        while an engine is alive; until then the engine serves the snapshot
        it was built from.  The *effective* (mask-applied) weight is encoded,
        so STE-style dense shadow weights never leak into inference.  A layer
        the plan cannot express raises ``ValueError`` naming it — from here
        and from the constructor, never from a predict.
        """
        module = self.module
        self._bind(compile_plan(module, self.backend), module.state_dict(),
                   encode_weights(module, self), None)

    def install_formats(self, formats: Dict[str, WeightFormat]) -> None:
        """Serve precomputed encodings instead of encoding the module's weights.

        ``formats`` are *unfolded* encodings — what :func:`encode_weights`
        returns and a registry record stores — and :func:`bind` folds this
        module's batch-norm into copies of them, so an install encodes
        nothing.  The module supplies the architecture and the non-prunable
        state; from here on its prunable weights are these encodings', decoded
        into it on the first read of :attr:`module`.  Each folded value array
        is this engine's own; every other array is adopted as it is (a
        registry record's or a shared-memory segment's read-only views stay
        views).  The ``fast`` kernels decode each format into a private GEMM
        operand on first use (``fmt.derived``, ~250 KiB for a CRISP
        ``resnet_tiny``), one copy per process per resident engine.

        They must cover exactly this module's prunable layers, each encoding
        the ``(reduction, out_channels)`` matrix of its layer — a mismatch
        fails here, naming the layer, not inside a kernel at the first
        predict; entries are kept in layer order.
        """
        module = self.module
        self._bind(compile_plan(module, self.backend), module.state_dict(), formats,
                   lambda: load_weights(module, formats))

    @property
    def module(self) -> Module:
        """The module this engine compiles, built or decoded on first read when it is not current.

        Serving never reads it, so an engine built from stored arrays
        (:meth:`bound`, :meth:`install_formats`) pays for the module (and the
        decode, :func:`load_weights`) only when something asks for the
        weights — the hardware workload model, :meth:`refresh_formats`.
        Two threads reading it first at once may both build it; each gets a
        complete module.
        """
        undecoded = self._undecoded
        if undecoded is not None:
            self._module, self._undecoded = undecoded(), None
        return self._module

    @property
    def formats(self) -> Mapping[str, WeightFormat]:
        """Read-only view of the folded encodings, by layer name, in layer order."""
        return MappingProxyType(self._formats)

    @property
    def is_lossless(self) -> bool:
        """Whether every encoded weight round-trips exactly.

        Only a format that can drop values ever says no: CRISP, when the
        weights violate the hybrid N:M + block pattern the engine was
        configured with (i.e. the model was pruned with another one).
        """
        return all(fmt.is_lossless for fmt in self._formats.values())

    # -- inference ------------------------------------------------------------
    def predict(self, batch: np.ndarray) -> np.ndarray:
        """Run one inference batch ``(N, C, H, W)`` and return the logits.

        Executes the compiled plan: nothing on the module is read or written,
        so any number of threads may predict on one engine at once.
        """
        return run_plan(self._plan, np.asarray(batch, dtype=np.float64))

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
        """Engine-level report: backend, format, storage, workspace counters and
        the process's BLAS (:func:`repro.blas.state`)."""
        return {
            "backend": self.backend.name,
            "weight_format": self.weight_format,
            "layers": len(self._formats),
            "lossless": self.is_lossless,
            "total_weight_bits": self.total_weight_bits(),
            "workspace": self.backend.workspace_stats(),
            "blas": blas.state(),
        }

    def detach(self) -> "Engine":
        """Does nothing (see the module docstring); kept for crispbench's ``check.py``."""
        return self
