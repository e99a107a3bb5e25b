"""Zero-copy shared-memory weight distribution for multi-process serving.

The compressed weight formats the engines serve from — CSR / blocked-ELLPACK
index and value arrays, CRISP group tables, dense fallbacks — are read-only,
densely-packed numpy buffers: exactly the payload
:mod:`multiprocessing.shared_memory` maps into every worker process without
copying or pickling.  This package is that seam:

* :class:`SharedWeightStore` — parent-side publisher.  Copies each
  registered model's tenant image
  (:meth:`~repro.serve.registry.ModelRecord.to_image`: its encoded formats
  *and* its non-prunable state, the bytes the registry saves to disk) into
  one named shared-memory segment, named by an install entry small enough
  to ride a wire envelope.  Owns segment lifetime: refcounted by attached
  workers and unlinked on :meth:`~SharedWeightStore.close`.
* :class:`SharedModelSource` — worker-side consumer.  Installs entries,
  maps the named segments, parses each image once
  (:meth:`~repro.serve.registry.ModelRecord.from_image`) and builds
  :class:`~repro.backend.engine.Engine` instances whose format arrays are
  read-only ``np.ndarray`` views over the shared buffers (zero-copy; only
  the folded value arrays, biases and depthwise weights are the engine's
  own).  It satisfies the :class:`~repro.serve.cache.EngineCache`
  engine-source protocol, so a process shard's cache/scheduler stack runs
  unchanged.

The weight payload never crosses a pipe: parent and children exchange only
model ids, segment names and versions.
"""

from .store import SharedModelSource, SharedWeightStore, attach_segment

__all__ = ["SharedWeightStore", "SharedModelSource", "attach_segment"]
