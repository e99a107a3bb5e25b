"""Multi-tenant engine cache: LRU over lazily materialized engines.

Materializing an :class:`~repro.backend.engine.Engine` is the per-tenant
fixed cost of serving.  The registry record already holds every prunable
layer's encoding and the process holds one compiled plan per architecture,
so a build encodes, decodes and walks nothing and constructs no module: it
binds the record's arrays to the plan, and the ``fast`` backend writes every
stored value, batch-norm scale multiplied in, into the engine's GEMM
operands in the same pass.  The first forward after it is a warm one; on a
2-core x86-64 VM a CRISP-encoded ``resnet_tiny`` miss (build + first
single-image forward) costs about 2.5 warm forwards.
The cache amortises that cost across requests: the first request for a
model id pays the build, subsequent requests reuse the compiled engine, and
a bounded capacity keeps memory proportional to the number of *hot* tenants
rather than the number of registered ones (the paper's millions-of-users
setting).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from ..metrics.events import emit
from .registry import ModelRegistry

__all__ = ["EngineCache"]


class EngineCache:
    """Capacity-bounded LRU cache of per-tenant inference engines."""

    def __init__(self, registry: ModelRegistry, capacity: int = 4) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.registry = registry
        self.capacity = capacity
        self._engines: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Lifecycle seam: when the registry tracks tenant versions, a
        # promote/rollback must never serve a stale engine — drop every
        # cached version of the tenant the moment its active version flips.
        subscribe = getattr(registry, "subscribe_versions", None)
        if callable(subscribe):
            subscribe(self._on_version_change)

    def _on_version_change(self, tenant: str, old: str, new: str) -> None:
        for version_id in self.registry.versions(tenant):
            self.evict(version_id, reason="version_change")

    def get(self, model_id: str):
        """Return the engine for ``model_id``, building it on first use.

        Touching an entry makes it most-recently-used; inserting beyond
        capacity evicts the least-recently-used engine.  Nothing but the
        cache refers to an engine and an engine is acyclic, so a dropped one
        — formats and decoded kernel operands with it — is freed at once.
        """
        if model_id in self._engines:
            self.hits += 1
            self._engines.move_to_end(model_id)
            return self._engines[model_id]
        self.misses += 1
        engine = self.registry.build_engine(model_id)
        self._engines[model_id] = engine
        self._evict_overflow()
        return engine

    def _evict_overflow(self) -> None:
        """Drop from the LRU end until capacity is respected."""
        while len(self._engines) > self.capacity:
            model_id, _ = self._engines.popitem(last=False)
            self.evictions += 1
            emit("cache_evict", model_id=model_id, reason="capacity")

    def put(self, model_id: str, engine) -> None:
        """Insert (or replace) an entry directly, as most-recently-used.

        The normal path is :meth:`get` building engines lazily; ``put`` is
        the seam for callers that need to plant a specific engine under an
        id — fault injection poisoning a live entry, or tests staging a
        pre-built engine.  Inserting beyond capacity evicts from the LRU end
        as usual.
        """
        self._engines.pop(model_id, None)
        self._engines[model_id] = engine
        self._evict_overflow()

    def evict(self, model_id: str, reason: str = "explicit") -> bool:
        """Drop one entry; returns whether it existed."""
        if self._engines.pop(model_id, None) is None:
            return False
        self.evictions += 1
        emit("cache_evict", model_id=model_id, reason=reason)
        return True

    def cached_ids(self) -> List[str]:
        """Model ids currently resident, least-recently-used first."""
        return list(self._engines)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._engines

    def __len__(self) -> int:
        return len(self._engines)

    def stats(self) -> Dict[str, object]:
        """Hit/miss/eviction counters plus the derived hit rate.

        The schema is shared verbatim by the single-process facade
        (``PersonalizationService.stats()["cache"]``) and the per-shard
        blocks of ``ClusterService.stats()``, so dashboards read both paths
        with one parser.
        """
        lookups = self.hits + self.misses
        return {
            "capacity": self.capacity,
            "resident": len(self._engines),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
