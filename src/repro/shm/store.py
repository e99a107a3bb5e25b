"""Shared-memory weight store: publish once, map zero-copy everywhere.

One :class:`SharedWeightStore` lives in the serving frontend's process and
owns a named :mod:`multiprocessing.shared_memory` segment per published
model.  A segment holds the registry record's tenant image
(:meth:`~repro.serve.registry.ModelRecord.to_image`), the same bytes
``ModelRegistry.save`` writes to disk; no engine is built to publish one.
A worker parses it once, with :meth:`~repro.serve.registry.ModelRecord.from_image`
over the read-only mapping, and keeps the record: its non-prunable state and
every layer's *unfolded* encoding, whatever its format, are read-only
``np.ndarray`` views over the shared bytes.  A worker's engine multiplies
batch-norm into the operands its backend makes of the shared values
(``Backend.bind_weights``), with the arithmetic every other build uses; the
record's arrays stay the shared bytes.

The install entry that names a segment is ``{"model_id", "segment",
"version"}``, so it rides the gateway's wire envelopes between parent and
worker; the weights themselves never touch a pipe or a pickle.

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
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Optional, Tuple

from ..errors import InternalError, NotFoundError
from ..serve.registry import ModelRecord

__all__ = ["SharedWeightStore", "SharedModelSource", "attach_segment"]


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
    """Close a mapping; one that ndarray views still read is unmapped with the last of them.

    ``mmap.close`` refuses while views are alive (``BufferError``), and
    ``SharedMemory.__del__`` would retry it.  Dropping the segment's own
    reference leaves the views' export holding the mmap, which unmaps when it
    is freed.  Closing is not what frees the segment — unlinking is.
    """
    try:
        segment.close()
    except BufferError:
        segment._mmap = None  # type: ignore[attr-defined]
        segment.close()


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
        """Copy one record's tenant image into a fresh segment."""
        self._ensure_open()
        record = self.registry.get(model_id)

        image = record.to_image()
        self._version += 1
        name = f"{self.prefix}-{self._version}"
        segment = shared_memory.SharedMemory(create=True, name=name, size=len(image))
        segment.buf[:len(image)] = image
        self._segments[name] = False
        entry = {"model_id": model_id, "segment": name, "version": self._version}

        previous = self._published.get(model_id)
        self._published[model_id] = _Published(entry, self._version, record, segment)
        if previous is not None:
            # Retire the replaced segment immediately: POSIX keeps existing
            # mappings valid after unlink, so workers mid-batch on the old
            # version finish safely while /dev/shm stays clean.
            self._unlink(previous.segment)
        return entry, self._version

    def build_engine(self, model_id: str):
        """A parent-process engine over this store's own shared segments.

        The current publication is parsed here, on its first build, not at
        :meth:`publish`: only this introspection path reads it.  The parent
        installs its own mapping — re-attaching by name would double-register
        the segment with the resource tracker.
        """
        entry, _ = self.ensure(model_id)
        self._local.install(entry, segment=self._published[model_id].segment)
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
    __slots__ = ("version", "record", "segment")

    def __init__(self, version: int, record: ModelRecord,
                 segment: shared_memory.SharedMemory) -> None:
        self.version = version
        self.record = record
        self.segment = segment


class SharedModelSource:
    """Worker-side engine source over installed shared-memory tenant images.

    Satisfies the engine-source protocol of
    :class:`~repro.serve.cache.EngineCache` (``build_engine(model_id)``), so
    a process shard wires it in where the threaded shard wires the registry.
    Models arrive as install entries over the control channel
    (:meth:`install`); their weight bytes are mapped, never copied.
    """

    def __init__(self, untrack: bool = False) -> None:
        self._models: Dict[str, _AttachedModel] = {}
        #: Whether attachments bypass this process's resource tracker.  Set
        #: by spawn-started workers, whose private tracker would otherwise
        #: unlink live segments on worker exit (see :func:`attach_segment`).
        self.untrack = untrack

    def install(self, entry: Dict, segment: Optional[shared_memory.SharedMemory] = None) -> bool:
        """Install (or version-replace) one model's install entry.

        Returns whether an older version was replaced.  ``segment`` lets a
        caller that already holds the mapping hand it over; otherwise the
        segment is attached by name (honouring ``untrack``, see
        :func:`attach_segment`).  The image is parsed here, once; one that
        does not parse is ``InternalError``.
        """
        model_id = entry["model_id"]
        previous = self._models.get(model_id)
        if previous is not None and previous.version == entry["version"]:
            return False
        if segment is None:
            segment = attach_segment(entry["segment"], untrack=self.untrack)
        try:
            record = ModelRecord.from_image(segment.buf.toreadonly(), f"segment {entry['segment']}")
        except ValueError as exc:
            raise InternalError(str(exc)) from exc
        self._models[model_id] = _AttachedModel(entry["version"], record, segment)
        if previous is not None:
            _close_segment(previous.segment)
            return True
        return False

    def build_engine(self, model_id: str):
        """Build an engine for one installed model (:meth:`ModelRecord.build_engine`).

        A state or format array that is missing or does not fit its layer is
        ``InternalError`` (malformed): the image is this fleet's own, so it
        is a server fault, not a bad request.
        """
        attached = self._models.get(model_id)
        if attached is None:
            raise NotFoundError(
                f"model {model_id!r} has no installed shared-memory image; "
                f"installed: {sorted(self._models)}"
            )
        try:
            return attached.record.build_engine()
        except ValueError as exc:
            raise InternalError(f"shared image of {model_id!r} is malformed: {exc}") from exc

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
