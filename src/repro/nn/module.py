"""Module and parameter abstractions for the NumPy deep-learning substrate.

The design mirrors the familiar ``torch.nn`` API at a small scale:

* :class:`Parameter` wraps a NumPy array together with its gradient and an
  optional pruning mask (the hook used by :mod:`repro.pruning`).
* :class:`Module` provides parameter registration, traversal
  (``named_parameters`` / ``named_modules``), train/eval switching and
  state-dict save/load.
* :class:`Sequential` chains sub-modules with automatic backward ordering.

Every concrete layer implements ``forward(x)`` and ``backward(grad_out)``;
the backward pass accumulates ``param.grad`` in place and returns the
gradient with respect to the layer input.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["Parameter", "Module", "Sequential", "check_state"]


class Parameter:
    """A trainable tensor with gradient storage and an optional sparsity mask.

    Attributes
    ----------
    data:
        The parameter values.
    grad:
        Accumulated gradient (same shape as ``data``), or ``None`` before the
        first backward pass.
    mask:
        Optional binary mask applied multiplicatively by the pruning
        framework, stored as a ``bool`` array of ``data``'s shape (one byte
        per weight wherever it travels: state dicts, registry records,
        shared-memory segments).  ``None`` means dense.
    requires_grad:
        When ``False`` the optimiser skips this parameter.
    """

    def __init__(self, data: np.ndarray, requires_grad: bool = True, name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.mask: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into the stored gradient, allocating on first use."""
        if grad.shape != self.data.shape:
            raise ValueError(
                f"Gradient shape {grad.shape} does not match parameter shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def apply_mask(self) -> None:
        """Zero out the masked entries of ``data`` (no-op when dense)."""
        if self.mask is not None:
            self.data *= self.mask

    def effective(self) -> np.ndarray:
        """The weight actually used in the forward pass: ``data * mask``.

        ``data`` itself is left untouched so that straight-through-estimator
        fine-tuning (:mod:`repro.pruning.ste`) can keep a dense copy evolving
        underneath the mask.
        """
        if self.mask is None:
            return self.data
        return self.data * self.mask

    def set_mask(self, mask: Optional[np.ndarray]) -> None:
        """Install (or clear) a binary pruning mask and apply it immediately.

        Any array whose non-zero entries mark the kept weights is accepted
        (0/1 floats from the mask builders, ``float64`` masks saved by older
        registries); it is stored as ``bool``.
        """
        if mask is None:
            self.mask = None
            return
        mask = np.asarray(mask) != 0
        if mask.shape != self.data.shape:
            raise ValueError(
                f"Mask shape {mask.shape} does not match parameter shape {self.data.shape}"
            )
        self.mask = mask
        self.apply_mask()

    def density(self) -> float:
        """Fraction of non-zero entries in the (masked) parameter."""
        if self.mask is not None:
            return float(self.mask.mean())
        return float(np.count_nonzero(self.data)) / max(1, self.data.size)

    def sparsity(self) -> float:
        """Fraction of zero entries: ``1 - density``."""
        return 1.0 - self.density()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Parameter(name={self.name!r}, shape={self.shape}, sparsity={self.sparsity():.2f})"


class Module:
    """Base class for all layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.training = True

    # -- registration -------------------------------------------------------
    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        param.name = name
        self._parameters[name] = param
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def register_buffer(self, name: str, value: np.ndarray) -> np.ndarray:
        self._buffers[name] = value
        return value

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            if not hasattr(self, "_parameters"):
                raise RuntimeError("Call Module.__init__() before assigning parameters")
            self.register_parameter(name, value)
        elif isinstance(value, Module):
            if not hasattr(self, "_modules"):
                raise RuntimeError("Call Module.__init__() before assigning sub-modules")
            self.register_module(name, value)
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, Parameter)`` for this module and children."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(qualified_name, Module)`` in depth-first order (self first)."""
        yield prefix.rstrip("."), self
        for mod_name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{mod_name}.")

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield f"{prefix}{name}", buf
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{mod_name}.")

    # -- train / eval --------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively."""
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    # -- gradients -----------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of every parameter in the module tree."""
        for _, param in self.named_parameters():
            param.zero_grad()

    def apply_masks(self) -> None:
        """Re-apply every installed pruning mask (after an optimiser step)."""
        for _, param in self.named_parameters():
            param.apply_mask()

    # -- state dict ----------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat dict of parameter data, masks and buffers (all copied)."""
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
            if param.mask is not None:
                state[f"{name}::mask"] = param.mask.copy()
        for name, buf in self.named_buffers():
            state[f"{name}::buffer"] = buf.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter data / masks / buffers produced by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        for name, param in params.items():
            if name in state:
                if state[name].shape != param.data.shape:
                    raise ValueError(
                        f"Shape mismatch for {name}: {state[name].shape} vs {param.data.shape}"
                    )
                param.data = state[name].copy()
            mask_key = f"{name}::mask"
            if mask_key in state:
                param.set_mask(state[mask_key])
        buffers = dict(self.named_buffers())
        for name, buf in buffers.items():
            key = f"{name}::buffer"
            if key in state:
                np.copyto(buf, state[key])

    def count_parameters(self, only_trainable: bool = False) -> int:
        """Total number of scalar parameters."""
        return sum(
            p.size
            for p in self.parameters()
            if (p.requires_grad or not only_trainable)
        )

    # -- forward / backward --------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # An inference engine compiling its plan passes a recording placeholder.
        record = getattr(x, "record_module", None)
        return self.forward(x) if record is None else record(self)


def check_state(shapes: Mapping[str, Tuple[int, ...]], state: Mapping[str, np.ndarray]) -> None:
    """Raise ``ValueError`` naming the first key of ``shapes`` that ``state``
    misses or holds at another shape (:meth:`Module.load_state_dict` skips
    a missing key)."""
    for key, shape in shapes.items():
        got = np.shape(state[key]) if key in state else "nothing"
        if got != shape:
            raise ValueError(f"state {key!r} must be a {shape} array; got {got}")


class Sequential(Module):
    """A chain of modules executed in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for idx, module in enumerate(modules):
            name = str(idx)
            self.register_module(name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = str(len(self._order))
        self.register_module(name, module)
        self._order.append(name)
        return self

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, idx: int) -> Module:
        return self._modules[self._order[idx]]

    def __iter__(self) -> Iterator[Module]:
        for name in self._order:
            yield self._modules[name]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for name in self._order:
            x = self._modules[name](x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for name in reversed(self._order):
            grad_out = self._modules[name].backward(grad_out)
        return grad_out
