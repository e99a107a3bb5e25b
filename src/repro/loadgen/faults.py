"""Chaos layer: scripted faults against a live :class:`ClusterService`.

The :class:`FaultInjector` is the executable side of a scenario's
:class:`~repro.loadgen.scenario.FaultEvent` schedule.  It drives the
cluster's own chaos seams — :meth:`ClusterService.kill_shard`, the shard
workers' ``chaos_delay_s`` knob, and :meth:`EngineCache.put` — so every
fault exercises exactly the paths production failures would: admission
control under backlog, clean future failure on crash, drain on heal,
rebalance on reroute, cache rebuild after poisoning.

Shard targets are indices into the *live* sorted shard-id list (modulo its
length), tenant targets indices into the workload's model-id list, so the
same scenario runs unchanged against any fleet size.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..cluster.frontend import ClusterService
from ..metrics.events import emit
from .scenario import FaultEvent

__all__ = ["FaultInjector", "PoisonedEngineError", "PoisonedEngine"]


class PoisonedEngineError(RuntimeError):
    """A poisoned engine-cache entry was asked to predict."""


class PoisonedEngine:
    """A stand-in engine that fails every prediction (cache-poison fault).

    Mimics the :class:`~repro.backend.engine.Engine` surface the serving
    path touches (``predict`` / ``predict_many``) so it can sit
    in an :class:`~repro.serve.cache.EngineCache` slot undetected until the
    scheduler dispatches to it.
    """

    def __init__(self, model_id: str) -> None:
        self.model_id = model_id

    def _raise(self, *args, **kwargs):
        raise PoisonedEngineError(
            f"engine-cache entry for {self.model_id!r} is poisoned"
        )

    predict = _raise
    predict_many = _raise


class FaultInjector:
    """Executes fault events against one cluster and logs what it did."""

    def __init__(self, cluster: ClusterService) -> None:
        self.cluster = cluster
        self.log: List[Dict[str, object]] = []
        self._killed: List[int] = []  # kill order, for heal_shard
        self._slowed: Dict[int, float] = {}

    # -- target resolution -------------------------------------------------------
    def _shard_id(self, index: int) -> int:
        shard_ids = self.cluster.shard_ids()
        if not shard_ids:
            raise RuntimeError("cluster has no shards to target")
        return shard_ids[index % len(shard_ids)]

    def _model_id(self, index: int, model_ids: Sequence[str]) -> str:
        if not model_ids:
            raise RuntimeError("no tenants to target")
        return model_ids[index % len(model_ids)]

    # -- primitive faults --------------------------------------------------------
    def kill_shard(self, index: int = 0) -> int:
        """Crash the ``index``-th live shard; returns the killed shard id."""
        shard_id = self._shard_id(index)
        self.cluster.kill_shard(shard_id)
        self._killed.append(shard_id)
        return shard_id

    def heal_shard(self) -> Optional[int]:
        """Remove the earliest still-present killed shard (reroutes tenants).

        A dead *last* shard cannot be removed (the cluster refuses to drop
        its only shard), so on a one-shard fleet the heal is a no-op: the
        outage simply persists, which is also what the real system would do.
        """
        while self._killed:
            shard_id = self._killed.pop(0)
            if shard_id not in self.cluster.shard_ids():
                continue
            if self.cluster.shards == 1:
                self._killed.insert(0, shard_id)  # nothing to fail over to
                return None
            self.cluster.remove_shard(shard_id)
            return shard_id
        return None

    def slow_shard(self, index: int, delay_s: float) -> int:
        """Degrade one shard: every dispatch sleeps ``delay_s`` first."""
        shard_id = self._shard_id(index)
        self.cluster.worker(shard_id).chaos_delay_s = float(delay_s)
        self._slowed[shard_id] = float(delay_s)
        return shard_id

    def restore_shard(self, index: int) -> int:
        """Clear an injected slowdown on the ``index``-th live shard."""
        shard_id = self._shard_id(index)
        self.cluster.worker(shard_id).chaos_delay_s = 0.0
        self._slowed.pop(shard_id, None)
        return shard_id

    def poison_cache(self, model_id: str) -> int:
        """Replace the owning shard's cached engine with a poisoned one.

        The next dispatch touching the entry raises
        :class:`PoisonedEngineError` (failing that batch's futures cleanly);
        the entry stays poisoned until healed.  Returns the owning shard id.
        """
        worker = self.cluster.worker_for(model_id)
        worker.put_engine(model_id, PoisonedEngine(model_id))
        emit("cache_poison", model_id=model_id, shard=worker.shard_id)
        return worker.shard_id

    def heal_cache(self, model_id: str) -> int:
        """Evict the tenant's (poisoned) entry so the next request rebuilds."""
        worker = self.cluster.worker_for(model_id)
        worker.evict(model_id)
        return worker.shard_id

    def restore_all(self) -> None:
        """Clear every injected slowdown (end-of-run hygiene)."""
        for shard_id in list(self._slowed):
            if shard_id in self.cluster.shard_ids():
                self.cluster.worker(shard_id).chaos_delay_s = 0.0
        self._slowed.clear()

    # -- scheduled dispatch ------------------------------------------------------
    def fire(self, event: FaultEvent, model_ids: Sequence[str]) -> Dict[str, object]:
        """Execute one scheduled fault event; returns (and logs) a summary."""
        if event.action == "kill_shard":
            shard_id = self.kill_shard(event.target)
            summary = f"killed shard {shard_id}"
        elif event.action == "heal_shard":
            shard_id = self.heal_shard()
            summary = (
                f"healed: removed dead shard {shard_id}, tenants rerouted"
                if shard_id is not None
                else "heal_shard: nothing to heal"
            )
        elif event.action == "slow_shard":
            shard_id = self.slow_shard(event.target, event.delay_s)
            summary = f"slowed shard {shard_id} by {event.delay_s * 1e3:.0f}ms/dispatch"
        elif event.action == "restore_shard":
            shard_id = self.restore_shard(event.target)
            summary = f"restored shard {shard_id}"
        elif event.action == "poison_cache":
            model_id = self._model_id(event.target, model_ids)
            shard_id = self.poison_cache(model_id)
            summary = f"poisoned cache entry {model_id!r} on shard {shard_id}"
        elif event.action == "heal_cache":
            model_id = self._model_id(event.target, model_ids)
            shard_id = self.heal_cache(model_id)
            summary = f"evicted cache entry {model_id!r} on shard {shard_id}"
        else:  # pragma: no cover - FaultEvent validates actions
            raise ValueError(f"Unknown fault action {event.action!r}")
        entry = {"at_request": event.at_request, "action": event.action, "summary": summary}
        self.log.append(entry)
        emit("fault", action=event.action, at_request=event.at_request,
             summary=summary)
        return entry
