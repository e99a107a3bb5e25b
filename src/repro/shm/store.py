"""Shared-memory weight store: publish once, map zero-copy everywhere.

One :class:`SharedWeightStore` lives in the serving frontend's process and
owns a named :mod:`multiprocessing.shared_memory` segment per published
model.  A segment is a copy of the registry record's arrays
(:class:`~repro.serve.registry.ModelRecord`), packed 64-byte aligned; no
engine is built to publish one:

* the non-prunable state (batch-norm parameters and statistics, biases,
  depthwise weights) — read in place by each engine build, which folds it
  into the engine's own bias and depthwise arrays;
* the *unfolded* encoding of every prunable layer, whatever its format: the
  store packs ``fmt.arrays()`` next to ``fmt.params()`` and rebuilds through
  ``FORMATS[kind].from_parts`` (the :class:`~repro.sparsity.formats.WeightFormat`
  contract), so it names no format and a format's stored fields are listed
  in one place — consumed in place as read-only ``np.ndarray`` views.  A
  worker's engine folds batch-norm into a private copy of each value array
  (``fmt.scale_columns``) with the arithmetic every other build uses; index
  and offset arrays stay the shared bytes.

The manifest entry describing a segment is a plain JSON-compatible dict
(segment name + per-array dtype/shape/offset), so it rides the gateway's
wire envelopes between parent and worker; the weights themselves never
touch a pipe or a pickle.

Lifetime: the parent is the single owner.  Workers attach by name (and are
immediately unregistered from the ``resource_tracker`` so a crashing worker
can never reap a segment the fleet still serves from), the store counts
attached workers, and :meth:`SharedWeightStore.close` unlinks every segment
it ever created — including ones already retired by re-publication — which
is what the no-leaked-``/dev/shm`` tests assert.
"""

from __future__ import annotations

import os
import secrets
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import InternalError, NotFoundError
from ..sparsity.formats import FORMATS

__all__ = ["SegmentLayout", "SharedWeightStore", "SharedModelSource", "attach_segment"]

#: Alignment of every packed array within a segment.  64 bytes keeps any
#: dtype naturally aligned and arrays cache-line separated.
_ALIGN = 64


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def attach_segment(name: str, untrack: bool = False) -> shared_memory.SharedMemory:
    """Open an existing segment, optionally without tracker registration.

    ``SharedMemory(name=...)`` registers the segment with the process's
    ``resource_tracker`` even for plain attachments.  Whether that matters
    depends on *whose* tracker this process talks to:

    * fork children (and same-process attachments) inherit the creator's
      tracker — the registry is a name *set*, so the attach-register is a
      no-op and must NOT be undone, or the creator loses its crash guard.
    * spawn children run their own tracker — left registered, a worker's
      exit (clean or SIGKILLed) unlinks segments the parent still serves
      from.  Those callers pass ``untrack=True`` (``track=False`` on Python
      3.13+, manual unregister before that).
    """
    if not untrack:
        return shared_memory.SharedMemory(name=name)
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track kwarg; unregister by hand
        segment = shared_memory.SharedMemory(name=name)
        try:
            resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
        except Exception:  # pragma: no cover - tracker internals shifted
            pass
        return segment


def _close_segment(segment: shared_memory.SharedMemory) -> None:
    """Close a mapping, tolerating still-exported views.

    ``mmap.close`` refuses while ndarray views are alive (``BufferError``).
    Views die with the process anyway, and closing the mapping is not what
    frees the segment — unlinking is — so a refused close is non-fatal.
    """
    try:
        segment.close()
    except BufferError:
        pass


def _view(segment: shared_memory.SharedMemory, desc: Dict) -> np.ndarray:
    """A read-only ndarray view over one packed array (zero-copy)."""
    arr = np.ndarray(
        tuple(desc["shape"]),
        dtype=np.dtype(str(desc["dtype"])),
        buffer=segment.buf,
        offset=int(desc["offset"]),
        order=str(desc.get("order", "C")),
    )
    arr.flags.writeable = False
    return arr


@dataclass
class SegmentLayout:
    """Accumulates arrays into one contiguous, aligned segment image."""

    arrays: List[Tuple[Dict, np.ndarray]] = field(default_factory=list)
    size: int = 0

    def add(self, array: np.ndarray) -> Dict:
        """Reserve space for ``array``; returns its manifest descriptor.

        Memory order is preserved: the engine's dense fallback is an
        F-contiguous transposed view, and repacking it C-contiguous would
        change BLAS summation order — a 1-ulp drift that breaks the
        bit-exact parity contract between process and threaded serving.
        """
        if array.flags.f_contiguous and not array.flags.c_contiguous:
            order = "F"
            array = np.asfortranarray(array)
        else:
            order = "C"
            array = np.ascontiguousarray(array)
        offset = _align(self.size)
        self.size = offset + array.nbytes
        desc = {
            "offset": offset,
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "order": order,
        }
        self.arrays.append((desc, array))
        return desc

    def write_into(self, segment: shared_memory.SharedMemory) -> None:
        """Copy every reserved array to its offset in ``segment``."""
        for desc, array in self.arrays:
            if array.nbytes == 0:
                continue
            target = np.ndarray(
                array.shape,
                dtype=array.dtype,
                buffer=segment.buf,
                offset=desc["offset"],
                order=desc["order"],
            )
            target[...] = array


# ---------------------------------------------------------------------------
# Compressed-format (de)serialization
# ---------------------------------------------------------------------------

def _describe_format(fmt, layout: SegmentLayout) -> Dict:
    """Manifest block for one encoded layer: kind + params + array descriptors."""
    if getattr(fmt, "name", None) not in FORMATS:  # a worker could not rebuild it
        raise InternalError(f"cannot share unknown weight format {type(fmt).__name__}")
    return {
        "kind": fmt.name,
        "params": fmt.params(),
        "arrays": {name: layout.add(array) for name, array in fmt.arrays().items()},
    }


def _rebuild_format(block: Dict, segment: shared_memory.SharedMemory):
    """Reconstruct one encoded layer over shared-buffer views (no copies).

    ``ValueError`` when the block's param / array names are not the ones its
    format declares.
    """
    cls = FORMATS.get(block["kind"])
    if cls is None:
        raise InternalError(f"unknown shared format kind {block['kind']!r}")
    arrays = {name: _view(segment, desc) for name, desc in block["arrays"].items()}
    return cls.from_parts(block["params"], arrays)


def _build_engine_from_entry(entry: Dict, segment: shared_memory.SharedMemory):
    """Materialize an engine from one installed manifest entry.

    The entry's views become a :class:`~repro.serve.registry.ModelRecord`
    and it builds the engine the way the registry does
    (:meth:`~repro.serve.registry.ModelRecord.build_engine`), from the
    process's plan for the architecture: each folded value array, bias and
    depthwise weight is the engine's own; every other format array stays a
    view.  A missing or mis-shaped state or format array is
    ``InternalError`` (malformed).
    """
    from ..serve.registry import ModelRecord
    from ..serve.types import EngineSpec

    fields = entry["record"]
    try:
        record = ModelRecord(
            model_id=entry["model_id"],
            arch=fields["arch"],
            num_classes=int(fields["num_classes"]),
            input_size=int(fields["input_size"]),
            spec=EngineSpec.from_dict(fields["spec"]),
            state={key: _view(segment, desc) for key, desc in entry["state"].items()},
            formats={name: _rebuild_format(b, segment) for name, b in entry["formats"].items()},
        )
        return record.build_engine()
    except ValueError as exc:
        # The manifest is this fleet's own: a block that does not match its
        # format, or its layer, is a server fault, not a bad request.
        raise InternalError(
            f"shared manifest of {entry['model_id']!r} is malformed: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Parent side: the publisher
# ---------------------------------------------------------------------------

class _Published:
    """Bookkeeping for one live publication of a model."""

    __slots__ = ("entry", "version", "record", "segment")

    def __init__(self, entry, version, record, segment) -> None:
        self.entry = entry
        self.version = version
        self.record = record
        self.segment = segment


class SharedWeightStore(AbstractContextManager):
    """Parent-side publisher of per-model shared-memory weight segments.

    Wraps a :class:`~repro.serve.registry.ModelRegistry` and publishes
    models lazily: :meth:`ensure` is cheap when the registry still holds
    the record a segment was built from, and re-publishes (bumping the
    version and retiring the old segment) when re-personalization replaced
    it.  The store also doubles as an engine source for the *parent*
    process — :meth:`build_engine` maps its own segments exactly the way a
    worker does, so frontend introspection (``ClusterService.engine``)
    reflects the bytes workers serve from.
    """

    def __init__(self, registry, prefix: Optional[str] = None) -> None:
        self.registry = registry
        # Unique per store: two clusters over one registry must not collide.
        self.prefix = prefix or f"repro-shm-{os.getpid()}-{secrets.token_hex(3)}"
        self._published: Dict[str, _Published] = {}
        self._version = 0
        self._refs = 0
        self._closed = False
        #: Names of every segment ever created (leak-test bookkeeping):
        #: name -> whether it has been unlinked.
        self._segments: Dict[str, bool] = {}
        self._local = SharedModelSource()

    # -- publication ----------------------------------------------------------
    def ensure(self, model_id: str) -> Tuple[Dict, int]:
        """Publish ``model_id`` if absent or stale; returns (entry, version).

        Staleness is record identity: re-registering a model id (the
        re-personalization path) installs a new record object in the
        registry, which forces a fresh segment on the next ensure.
        """
        self._ensure_open()
        record = self.registry.get(model_id)
        published = self._published.get(model_id)
        if published is not None and published.record is record:
            return published.entry, published.version
        return self.publish(model_id)

    def publish(self, model_id: str) -> Tuple[Dict, int]:
        """Copy one record's arrays into a fresh segment."""
        self._ensure_open()
        record = self.registry.get(model_id)

        layout = SegmentLayout()
        state_desc = {
            key: layout.add(array) for key, array in sorted(record.state.items())
        }
        formats_desc = {
            name: _describe_format(fmt, layout)
            for name, fmt in record.formats.items()
        }

        self._version += 1
        name = f"{self.prefix}-{self._version}"
        segment = shared_memory.SharedMemory(
            create=True, name=name, size=max(1, layout.size)
        )
        layout.write_into(segment)
        self._segments[name] = False

        entry = {
            "model_id": model_id,
            "segment": name,
            "version": self._version,
            "record": {
                "arch": record.arch,
                "num_classes": record.num_classes,
                "input_size": record.input_size,
                "spec": record.spec.to_dict(),
            },
            "state": state_desc,
            "formats": formats_desc,
        }

        previous = self._published.get(model_id)
        self._published[model_id] = _Published(entry, self._version, record, segment)
        # The parent consumes its own mapping directly — re-attaching by name
        # would double-register the segment with the resource tracker.
        self._local.install(entry, segment=segment)
        if previous is not None:
            # Retire the replaced segment immediately: POSIX keeps existing
            # mappings valid after unlink, so workers mid-batch on the old
            # version finish safely while /dev/shm stays clean.
            self._unlink(previous.segment)
        return entry, self._version

    def build_engine(self, model_id: str):
        """A parent-process engine over this store's own shared segments."""
        self.ensure(model_id)
        return self._local.build_engine(model_id)

    # -- introspection ---------------------------------------------------------
    def segment_names(self, live_only: bool = True) -> List[str]:
        """Segment-name bookkeeping: live names, or every name ever created."""
        if live_only:
            return sorted(
                name for name, unlinked in self._segments.items() if not unlinked
            )
        return sorted(self._segments)

    @property
    def refs(self) -> int:
        """Number of attached workers currently holding the store open."""
        return self._refs

    # -- lifetime --------------------------------------------------------------
    def acquire(self) -> "SharedWeightStore":
        """Register one attached worker (refcounted cleanup bookkeeping)."""
        self._ensure_open()
        self._refs += 1
        return self

    def release(self) -> None:
        """Drop one worker's reference (on its drain/stop/kill)."""
        self._refs = max(0, self._refs - 1)

    def _unlink(self, segment: shared_memory.SharedMemory) -> None:
        _close_segment(segment)
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reaped
            # ``unlink`` unregisters only after a successful shm_unlink; do
            # it by hand so the tracker doesn't warn about the name at exit.
            try:
                resource_tracker.unregister(segment._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:
                pass
        self._segments[segment.name] = True

    def close(self) -> None:
        """Unlink every segment this store ever created (idempotent).

        Called by the owning service after its workers stopped; also safe
        while stragglers are attached — their mappings stay valid, only the
        names disappear, which is the leak-free-shutdown contract.
        """
        if self._closed:
            return
        self._closed = True
        self._local.close()
        for published in self._published.values():
            self._unlink(published.segment)
        self._published.clear()

    def _ensure_open(self) -> None:
        if self._closed:
            raise InternalError("SharedWeightStore is closed")

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Worker side: the consumer
# ---------------------------------------------------------------------------

class _AttachedModel:
    __slots__ = ("entry", "segment")

    def __init__(self, entry: Dict, segment: shared_memory.SharedMemory) -> None:
        self.entry = entry
        self.segment = segment


class SharedModelSource:
    """Worker-side engine source over installed shared-memory manifests.

    Satisfies the engine-source protocol of
    :class:`~repro.serve.cache.EngineCache` (``build_engine(model_id)``), so
    a process shard wires it in where the threaded shard wires the registry.
    Models arrive as manifest entries over the control channel
    (:meth:`install`); their weight bytes are mapped, never copied.
    """

    def __init__(self, untrack: bool = False) -> None:
        self._models: Dict[str, _AttachedModel] = {}
        #: Whether attachments bypass this process's resource tracker.  Set
        #: by spawn-started workers, whose private tracker would otherwise
        #: unlink live segments on worker exit (see :func:`attach_segment`).
        self.untrack = untrack

    def install(self, entry: Dict, segment: Optional[shared_memory.SharedMemory] = None) -> bool:
        """Install (or version-replace) one model's manifest entry.

        Returns whether an older version was replaced.  ``segment`` lets a
        caller that already holds the mapping hand it over; otherwise the
        segment is attached by name (honouring ``untrack``, see
        :func:`attach_segment`).
        """
        model_id = entry["model_id"]
        previous = self._models.get(model_id)
        if previous is not None and previous.entry["version"] == entry["version"]:
            return False
        if segment is None:
            segment = attach_segment(entry["segment"], untrack=self.untrack)
        self._models[model_id] = _AttachedModel(entry, segment)
        if previous is not None:
            _close_segment(previous.segment)
            return True
        return False

    def build_engine(self, model_id: str):
        """Materialize an engine for one installed model."""
        attached = self._models.get(model_id)
        if attached is None:
            raise NotFoundError(
                f"model {model_id!r} has no installed shared-weight manifest; "
                f"installed: {sorted(self._models)}"
            )
        return _build_engine_from_entry(attached.entry, attached.segment)

    def model_ids(self) -> List[str]:
        return sorted(self._models)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._models

    def __len__(self) -> int:
        return len(self._models)

    def close(self) -> None:
        """Close every mapping (attachments only — unlinking is the owner's)."""
        for attached in self._models.values():
            _close_segment(attached.segment)
        self._models.clear()
