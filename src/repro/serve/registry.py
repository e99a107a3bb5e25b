"""Model registry: pruned models stored under stable, addressable ids.

The registry is the serving system's source of truth.  Each entry is a
model as it ships: every prunable layer's weight encoded once, at
:meth:`ModelRegistry.register`, in the :class:`~repro.serve.types.EngineSpec`'s
format (*unfolded*: batch-norm is folded in by each engine build), plus the
non-prunable state (batch-norm parameters and statistics, biases, depthwise
weights) and enough architecture metadata to rebuild the module from the
model zoo.  Dense prunable weights and masks are not stored;
:meth:`ModelRegistry.materialize` decodes them.

Ids are *stable*: registering the same user profile with the same
architecture and spec always produces the same id, so a request stream
recorded against one registry replays against a reloaded copy.

On-disk layout (one directory per model)::

    <root>/
      versions.json   # tenant -> {versions: [...], active: id}; only
                      # written when any tenant has lifecycle versions
      <model_id>/
        record.json   # arch, num classes, spec, profile, metadata, and per
                      # prunable layer its format's kind and params
        state.npz     # the non-prunable state (Module.state_dict keys) and
                      # each format's arrays as "<layer>.weight::<array>"

A directory written before records held encodings (``state.npz`` holding
every weight and mask, no ``formats`` in ``record.json``) still loads: each
such record is encoded once, on load.

Versioning (the lifecycle plane, :mod:`repro.lifecycle`): a tenant's base
id is version 1; :meth:`ModelRegistry.register_version` stacks further
versions under ``<tenant>@v<N>`` ids, :meth:`ModelRegistry.set_active`
flips which one :meth:`ModelRegistry.resolve` routes the tenant's traffic
to, and version-change subscribers (engine caches) are notified so no
stale engine survives a promote or rollback.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backend import get_backend
from ..backend.engine import Engine, encode_weights, load_weights
from ..backend.plan import Plan, compile_plan
from ..data.loader import UserProfile
from ..nn.models import build_model, prunable_layers
from ..nn.module import Module, check_state
from ..records import json_line
from ..sparsity.formats import FORMATS, WeightFormat
from .types import EngineSpec

__all__ = ["ModelRecord", "ModelRegistry"]

#: The compiled plan of each ``(arch, num_classes, input_size, backend)`` this
#: process has built an engine for: one walk per architecture, not per tenant
#: (two threads missing one key at once may both walk; either plan serves).
_PLANS: Dict[Tuple[str, int, int, str], Plan] = {}


@dataclass
class ModelRecord:
    """One registered model: encoded weights + non-prunable state + serving spec + provenance."""

    model_id: str
    arch: str
    num_classes: int
    input_size: int
    spec: EngineSpec
    #: ``Module.state_dict`` entries of everything but the prunable weights.
    state: Dict[str, np.ndarray]
    #: Each prunable layer's unfolded encoding, by layer name.
    formats: Dict[str, WeightFormat]
    profile: Optional[UserProfile] = None
    metadata: Dict[str, object] = field(default_factory=dict)

    def _skeleton(self) -> Module:
        """The zoo module with the non-prunable state loaded (prunable weights: the zoo's init).

        Raises ``ValueError`` naming a non-prunable state key that is missing
        or mis-shaped, as :meth:`build_engine` does.
        """
        module = build_model(self.arch, num_classes=self.num_classes,
                             input_size=self.input_size, seed=0)
        prunable = {f"{name}.weight" for name in prunable_layers(module)}  # a zoo init has no masks
        check_state({key: value.shape for key, value in module.state_dict().items()
                     if key not in prunable}, self.state)
        module.load_state_dict(self.state)
        return module

    def build_module(self) -> Module:
        """The module with the stored encodings decoded into it (:func:`load_weights`)."""
        return load_weights(self._skeleton(), self.formats)

    def build_engine(self) -> Engine:
        """Bind the stored arrays to their architecture's plan, encoding and decoding nothing.

        The one engine build of the serving system: the registry's (over
        ``ndarray``s) and a shard child's (over read-only shared-memory
        views).  The plan is compiled once per architecture key in the
        process, from a zoo module; a build after that constructs no module
        — it folds batch-norm from ``state`` into copies of the stored value
        arrays (:func:`~repro.backend.plan.bind`).  ``engine.module`` is
        built from this record on its first read.  A format that does not
        fit its layer, or a state array that is missing or mis-shaped,
        raises ``ValueError`` naming it.
        """
        key = (self.arch, self.num_classes, self.input_size, self.spec.backend)
        if key not in _PLANS:
            skeleton = build_model(self.arch, self.num_classes, self.input_size, seed=0)
            _PLANS[key] = compile_plan(skeleton, get_backend(self.spec.backend))
        return Engine.bound(_PLANS[key], self.state, self.formats, self.spec, self.build_module)

    def record_dict(self) -> Dict:
        """JSON-serializable half of the record (arrays live in ``state.npz``)."""
        return {
            "model_id": self.model_id,
            "arch": self.arch,
            "num_classes": self.num_classes,
            "input_size": self.input_size,
            "spec": self.spec.to_dict(),
            "formats": {n: {"kind": f.name, "params": f.params()} for n, f in self.formats.items()},
            "profile": None
            if self.profile is None
            else {
                "user_id": self.profile.user_id,
                "preferred_classes": list(self.profile.preferred_classes),
            },
            "metadata": self.metadata,
        }


def _encoded(module: Module, spec: EngineSpec) -> Dict[str, Dict]:
    """What a record stores of ``module``: the unfolded ``formats`` and the other ``state``."""
    formats = encode_weights(module, spec)
    prunable = {f"{name}.weight{suffix}" for name in formats for suffix in ("", "::mask")}
    state = {key: value for key, value in module.state_dict().items() if key not in prunable}
    return {"state": state, "formats": formats}


def _stable_model_id(arch: str, spec: EngineSpec, profile: Optional[UserProfile]) -> str:
    """Deterministic id from (architecture, spec, user profile)."""
    payload = {"arch": arch, "spec": spec.to_dict()}
    if profile is not None:
        payload["profile"] = {
            "user_id": profile.user_id,
            "preferred_classes": list(profile.preferred_classes),
        }
    digest = hashlib.sha1(json_line(payload).encode()).hexdigest()[:8]
    user = f"u{profile.user_id}-" if profile is not None else ""
    return f"{arch}-{user}{digest}"


class ModelRegistry:
    """In-memory registry of pruned models with directory persistence."""

    def __init__(self) -> None:
        self._records: Dict[str, ModelRecord] = {}
        #: tenant base id -> ordered version ids (the base id is version 1).
        self._versions: Dict[str, List[str]] = {}
        #: tenant base id -> the version id traffic resolves to.
        self._active: Dict[str, str] = {}
        #: callbacks fired as (tenant, old_active, new_active) on set_active.
        self._version_subscribers: List = []

    # -- registration ---------------------------------------------------------
    def register(
        self,
        module: Module,
        spec: Optional[EngineSpec] = None,
        model_id: Optional[str] = None,
        profile: Optional[UserProfile] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> str:
        """Encode a (pruned) module's weights under a stable id and return the id.

        Each prunable layer's effective weight is encoded here, once, in the
        spec's format; a model not pruned to the spec's pattern is stored as
        CRISP's lossy encoding of it, which is what its engines served anyway.
        The id is the *tenant address*, derived from (architecture, spec,
        profile) only — deliberately not from pruning hyper-parameters.
        Re-registering the same address overwrites the stored weights, which
        is how a tenant's model gets refreshed in place (re-personalization
        with a new sparsity target updates the model behind the same id;
        ``metadata`` records which settings produced the current weights).
        Pass an explicit ``model_id`` to keep several variants of one
        profile side by side.
        """
        arch = getattr(module, "arch_name", type(module).__name__.lower())
        spec = spec or EngineSpec()
        if model_id is None:
            model_id = _stable_model_id(arch, spec, profile)
        record = ModelRecord(
            model_id=model_id,
            arch=arch,
            num_classes=int(getattr(module, "num_classes", 0)),
            input_size=int(getattr(module, "input_size", 0)),
            spec=spec,
            **_encoded(module, spec),
            profile=profile,
            metadata=dict(metadata or {}),
        )
        self._records[model_id] = record
        return model_id

    def unregister(self, model_id: str) -> None:
        self._records.pop(model_id, None)
        if model_id in self._versions:
            # Dropping a tenant's base id drops its whole version history.
            for version_id in self._versions.pop(model_id):
                if version_id != model_id:
                    self._records.pop(version_id, None)
            self._active.pop(model_id, None)
            return
        for tenant, version_ids in self._versions.items():
            if model_id in version_ids:
                version_ids.remove(model_id)
                if self._active.get(tenant) == model_id:
                    self._active[tenant] = version_ids[-1]
                break

    # -- versioning -----------------------------------------------------------
    def register_version(
        self,
        tenant: str,
        module: Module,
        spec: Optional[EngineSpec] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> str:
        """Stack a new version of ``tenant``'s model and return its id.

        The tenant's originally registered id is version 1; this call
        stores the module under the stable id ``<tenant>@v<N>`` (N = 2, 3,
        ...) *without* touching which version serves traffic — promotion is
        an explicit, separate :meth:`set_active` call, which is what lets a
        canary phase route a fraction of traffic at the new id first.
        """
        base = self.get(tenant)  # KeyError for unknown tenants
        version_ids = self._versions.setdefault(tenant, [tenant])
        self._active.setdefault(tenant, tenant)
        version_id = f"{tenant}@v{len(version_ids) + 1}"
        self.register(
            module,
            spec=spec or base.spec,
            model_id=version_id,
            profile=base.profile,
            metadata=metadata,
        )
        version_ids.append(version_id)
        return version_id

    def versions(self, tenant: str) -> List[str]:
        """All version ids for ``tenant``, oldest first (base id = v1)."""
        if tenant in self._versions:
            return list(self._versions[tenant])
        self.get(tenant)  # KeyError for unknown tenants
        return [tenant]

    def active_version(self, tenant: str) -> str:
        """The version id ``tenant``'s traffic currently resolves to."""
        if tenant in self._active:
            return self._active[tenant]
        self.get(tenant)  # KeyError for unknown tenants
        return tenant

    def resolve(self, model_id: str) -> str:
        """Map a tenant address to its active version (pass-through else)."""
        return self._active.get(model_id, model_id)

    def set_active(self, tenant: str, version_id: str) -> str:
        """Flip which version serves ``tenant`` and notify subscribers.

        Subscribers are notified even when the active version is unchanged
        (a rollback re-asserts the old version): caches must still drop any
        engines built for the abandoned canary version.
        """
        if version_id not in self.versions(tenant):
            raise KeyError(
                f"{version_id!r} is not a version of {tenant!r}; "
                f"versions: {self.versions(tenant)}"
            )
        old = self.active_version(tenant)
        self._versions.setdefault(tenant, [tenant])
        self._active[tenant] = version_id
        for callback in list(self._version_subscribers):
            callback(tenant, old, version_id)
        return old

    def subscribe_versions(self, callback) -> None:
        """Register ``callback(tenant, old_active, new_active)``."""
        self._version_subscribers.append(callback)

    # -- lookup ---------------------------------------------------------------
    def get(self, model_id: str) -> ModelRecord:
        if model_id not in self._records:
            raise KeyError(f"Unknown model id {model_id!r}; registered: {self.ids()}")
        return self._records[model_id]

    def ids(self) -> List[str]:
        return sorted(self._records)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    # -- materialization ------------------------------------------------------
    def materialize(self, model_id: str) -> Module:
        """Rebuild the stored module (a fresh instance on every call).

        Its prunable weights are the stored encodings decoded, masks their
        non-zeros: a lossy encoding comes back as served, and a kept weight
        that is exactly 0.0 comes back pruned.
        """
        return self.get(model_id).build_module()

    def build_engine(self, model_id: str, attach: bool = True):
        """Compile the stored encodings into an engine (:meth:`ModelRecord.build_engine`).

        ``attach`` is ignored; the next ``benchmark`` PR removes crispbench's callers.
        """
        return self.get(model_id).build_engine()

    # -- persistence ----------------------------------------------------------
    def save(self, root) -> Path:
        """Write every record under ``root`` (one subdirectory per model)."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        for model_id, record in self._records.items():
            model_dir = root / model_id
            model_dir.mkdir(parents=True, exist_ok=True)
            (model_dir / "record.json").write_text(
                json.dumps(record.record_dict(), indent=2, sort_keys=True)
            )
            encoded = {f"{n}.weight::{k}": a for n, f in record.formats.items() for k, a in f.arrays().items()}
            np.savez(model_dir / "state.npz", **record.state, **encoded)
        if self._versions:
            payload = {
                tenant: {
                    "versions": list(version_ids),
                    "active": self.active_version(tenant),
                }
                for tenant, version_ids in self._versions.items()
            }
            (root / "versions.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True)
            )
        return root

    @classmethod
    def load(cls, root) -> "ModelRegistry":
        """Load a registry from the directory layout written by :meth:`save`."""
        root = Path(root)
        if not root.is_dir():
            raise FileNotFoundError(f"Registry directory {root} does not exist")
        registry = cls()
        for record_path in sorted(root.glob("*/record.json")):
            payload = json.loads(record_path.read_text())
            with np.load(record_path.parent / "state.npz") as npz:
                state = {key: npz[key] for key in npz.files}  # fresh arrays, memory order kept
            profile = None
            if payload.get("profile") is not None:
                profile = UserProfile(
                    user_id=int(payload["profile"]["user_id"]),
                    preferred_classes=[int(c) for c in payload["profile"]["preferred_classes"]],
                )
            record = ModelRecord(
                model_id=payload["model_id"],
                arch=payload["arch"],
                num_classes=int(payload["num_classes"]),
                input_size=int(payload["input_size"]),
                spec=EngineSpec.from_dict(payload["spec"]),
                state=state,
                formats={},
                profile=profile,
                metadata=payload.get("metadata", {}),
            )
            if "formats" not in payload:  # dense weights and masks: encode them once, here
                record = replace(record, **_encoded(record._skeleton(), record.spec))
            for name, block in payload.get("formats", {}).items():
                kind = FORMATS[block["kind"]]
                arrays = {key: state.pop(f"{name}.weight::{key}") for key in kind.array_names}
                record.formats[name] = kind.from_parts(block["params"], arrays)
            registry._records[record.model_id] = record
        versions_path = root / "versions.json"
        if versions_path.is_file():
            payload = json.loads(versions_path.read_text())
            for tenant in sorted(payload):
                entry = payload[tenant]
                version_ids = [v for v in entry["versions"] if v in registry]
                if not version_ids:
                    continue
                registry._versions[tenant] = version_ids
                active = entry.get("active", tenant)
                registry._active[tenant] = (
                    active if active in version_ids else version_ids[-1]
                )
        return registry
