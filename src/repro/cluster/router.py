"""Consistent-hash tenant → shard routing with incremental rebalancing.

Tenants (model ids) are placed on a hash ring of virtual nodes (``replicas``
points per shard).  A key routes to the first shard point at or clockwise
past its own hash, which gives the two properties the cluster needs:

* **determinism** — routing depends only on the key and the shard set, never
  on process state, so every frontend (and a restarted cluster) agrees on
  tenant placement and each shard's engine cache sees a stable tenant subset;
* **minimal movement** — adding a shard steals only ~1/(shards+1) of the
  keys (each stolen key moves *to the new shard*), and removing a shard
  reassigns only the removed shard's keys.  Everything else stays put, so
  rebalancing does not flush the surviving shards' engine caches.

Plain ring routing is statistically balanced only for large key counts; a
small fleet can split badly (16 tenants over 4 shards can land 7 on one).
For placement over a *known* key set, :meth:`ConsistentHashRouter.balanced_assignments`
applies the bounded-load variant of consistent hashing: keys are placed in
ring order and a key whose owner is at the load bound walks clockwise to the
next shard with room, so no shard exceeds ``ceil(len(keys) / shards)``.

Hashing is SHA-1 based (not Python's salted ``hash()``) so placement is
reproducible across processes and runs.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from typing import Dict, Hashable, Iterable, List, Optional, Sequence

__all__ = ["ConsistentHashRouter"]


def _hash_point(key: str) -> int:
    """64-bit ring position of ``key`` (stable across processes)."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRouter:
    """Hash ring mapping tenant keys to shard ids."""

    def __init__(self, shard_ids: Sequence[Hashable] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._points: List[int] = []  # sorted ring positions
        self._owners: Dict[int, Hashable] = {}  # ring position -> shard id
        self._shards: set = set()
        for shard_id in shard_ids:
            self.add_shard(shard_id)

    # -- membership ------------------------------------------------------------
    def _virtual_points(self, shard_id: Hashable) -> List[int]:
        return [
            _hash_point(f"shard:{shard_id!r}:{replica}")
            for replica in range(self.replicas)
        ]

    def add_shard(self, shard_id: Hashable) -> None:
        """Insert one shard's virtual nodes into the ring."""
        if shard_id in self._shards:
            raise ValueError(f"shard {shard_id!r} already on the ring")
        self._shards.add(shard_id)
        for point in self._virtual_points(shard_id):
            # SHA-1 collisions between distinct virtual-node labels are not a
            # practical concern, but keep ownership deterministic if one ever
            # happens: first shard to claim a point keeps it.
            if point in self._owners:
                continue
            bisect.insort(self._points, point)
            self._owners[point] = shard_id

    def remove_shard(self, shard_id: Hashable) -> None:
        """Remove one shard's virtual nodes; its keys reroute clockwise."""
        if shard_id not in self._shards:
            raise KeyError(f"shard {shard_id!r} not on the ring")
        self._shards.discard(shard_id)
        for point in self._virtual_points(shard_id):
            if self._owners.get(point) != shard_id:
                continue
            del self._owners[point]
            index = bisect.bisect_left(self._points, point)
            if index < len(self._points) and self._points[index] == point:
                self._points.pop(index)

    def shard_ids(self) -> List[Hashable]:
        """Current shard membership, sorted by repr for determinism."""
        return sorted(self._shards, key=repr)

    def __contains__(self, shard_id: Hashable) -> bool:
        return shard_id in self._shards

    # -- routing ---------------------------------------------------------------
    def route(self, key: str) -> Hashable:
        """The shard owning ``key`` (first ring point clockwise of its hash)."""
        if not self._points:
            raise RuntimeError("cannot route: no shards on the ring")
        position = _hash_point(f"key:{key}")
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):  # wrap past the top of the ring
            index = 0
        return self._owners[self._points[index]]

    def assignments(self, keys: Iterable[str]) -> Dict[Hashable, List[str]]:
        """Partition ``keys`` by owning shard (shards with no keys included)."""
        table: Dict[Hashable, List[str]] = {shard: [] for shard in self.shard_ids()}
        for key in keys:
            table[self.route(key)].append(key)
        return table

    def _route_with_room(
        self, key: str, loads: Dict[Hashable, int], max_load: int
    ) -> Hashable:
        """The first shard clockwise of ``key`` whose load is below the bound."""
        position = _hash_point(f"key:{key}")
        start = bisect.bisect_right(self._points, position) % len(self._points)
        visited: set = set()
        for step in range(len(self._points)):
            owner = self._owners[self._points[(start + step) % len(self._points)]]
            if owner in visited:
                continue
            if loads[owner] < max_load:
                return owner
            visited.add(owner)
        # Every shard is at the bound (caller passed a max_load below the
        # pigeonhole minimum); fall back to the plain ring owner.
        return self._owners[self._points[start]]

    def balanced_assignments(
        self, keys: Iterable[str], max_load: Optional[int] = None
    ) -> Dict[Hashable, List[str]]:
        """Bounded-load placement of a known key set (deterministic).

        Keys are placed in ring order (position, then key, so ties are
        stable); each lands on its ring owner unless that shard is already at
        ``max_load`` keys, in which case it walks clockwise to the next shard
        with room.  The default bound, ``ceil(len(keys) / shards)``, yields
        the tightest balance the pigeonhole principle allows — the property a
        capacity-bounded engine cache needs, since one over-subscribed shard
        thrashes like an unsharded deployment.  Placement depends only on the
        key set and the shard set, so every frontend over the same registry
        agrees on it.
        """
        keys = list(keys)
        shards = self.shard_ids()
        if not shards:
            raise RuntimeError("cannot route: no shards on the ring")
        if max_load is None:
            max_load = math.ceil(len(keys) / len(shards)) if keys else 1
        elif max_load < 1:
            raise ValueError(f"max_load must be >= 1, got {max_load}")
        table: Dict[Hashable, List[str]] = {shard: [] for shard in shards}
        loads: Dict[Hashable, int] = {shard: 0 for shard in shards}
        for key in sorted(keys, key=lambda k: (_hash_point(f"key:{k}"), k)):
            shard = self._route_with_room(key, loads, max_load)
            table[shard].append(key)
            loads[shard] += 1
        return table

    # -- reporting -------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        return {
            "shards": [repr(s) if not isinstance(s, (int, str)) else s for s in self.shard_ids()],
            "replicas": self.replicas,
            "points": len(self._points),
        }
