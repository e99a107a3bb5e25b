"""Tenant-popularity models: which tenant each request addresses.

A :class:`PopularityModel` maps a request index to a tenant index, given the
fleet size and a seeded generator.  Combined with an arrival process it
fixes the whole workload shape: *when* requests land and *who* they are for.

Skew is the interesting axis for a sharded, cache-bounded runtime — uniform
traffic flatters every design, while a Zipf head concentrated on one shard
is what exposes placement and cache-capacity decisions:

* :class:`UniformPopularity` — every tenant equally likely (the control);
* :class:`ZipfPopularity` — classic power-law skew over a seeded tenant
  permutation, so *which* tenants are hot varies by seed while the skew
  itself does not;
* :class:`HotSetChurn` — a small hot set takes most of the traffic and is
  periodically rotated, modelling trending tenants; every rotation is a
  cache-warmup cliff for whichever shards inherit the new hot set.
* :class:`ClassDriftPopularity` — tenants stay uniform, but each tenant's
  *hot class set* shifts mid-scenario on a seeded schedule.  A model pruned
  to the phase-0 head keeps serving while the labels walk away from it —
  the drift signal the lifecycle plane exists to catch.

Determinism contract: ``sequence(n, tenants, rng)`` is a pure function of
its arguments — same model, same fleet size, same seeded ``rng`` state →
the same tenant sequence, bit for bit.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Sequence, Type

import numpy as np

__all__ = [
    "PopularityModel",
    "UniformPopularity",
    "ZipfPopularity",
    "HotSetChurn",
    "ClassDriftPopularity",
    "POPULARITIES",
]


class PopularityModel(abc.ABC):
    """Base class: a named generator of per-request tenant indices."""

    kind = "abstract"

    @abc.abstractmethod
    def sequence(self, n: int, tenants: int, rng: np.random.Generator) -> List[int]:
        """``n`` tenant indices in ``[0, tenants)``."""

    def to_dict(self) -> Dict[str, object]:
        payload = {"kind": self.kind}
        payload.update(vars(self))
        return payload


@dataclass
class UniformPopularity(PopularityModel):
    """Every tenant equally popular — the no-skew control."""

    kind = "uniform"

    def sequence(self, n: int, tenants: int, rng: np.random.Generator) -> List[int]:
        return rng.integers(0, tenants, size=n).tolist()


@dataclass
class ZipfPopularity(PopularityModel):
    """Zipf-skewed popularity: rank ``r`` carries weight ``1 / (r+1)^alpha``.

    Ranks are assigned to tenants through a seeded permutation, so the hot
    tenant differs between seeds (placement-sensitivity is part of what the
    scenario probes) while the skew profile is fixed by ``alpha``.
    """

    alpha: float = 1.1
    kind = "zipf"

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")

    def sequence(self, n: int, tenants: int, rng: np.random.Generator) -> List[int]:
        ranks = rng.permutation(tenants)
        weights = 1.0 / np.power(np.arange(1, tenants + 1, dtype=np.float64), self.alpha)
        probabilities = weights / weights.sum()
        return ranks[rng.choice(tenants, size=n, p=probabilities)].tolist()


@dataclass
class HotSetChurn(PopularityModel):
    """A rotating hot set: most traffic on few tenants, and the few change.

    ``hot_fraction`` of the fleet (at least one tenant) receives
    ``hot_mass`` of the requests; every ``churn_every`` requests the hot set
    rotates to the next window of a seeded permutation.  Each rotation
    invalidates cache locality on the shards that inherit the new hot
    tenants — the scenario for testing warmup behaviour under drift.
    """

    hot_fraction: float = 0.25
    hot_mass: float = 0.85
    churn_every: int = 16
    kind = "hot-churn"

    def __post_init__(self) -> None:
        if not 0.0 < self.hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction must be in (0, 1], got {self.hot_fraction}")
        if not 0.0 < self.hot_mass <= 1.0:
            raise ValueError(f"hot_mass must be in (0, 1], got {self.hot_mass}")
        if self.churn_every < 1:
            raise ValueError(f"churn_every must be >= 1, got {self.churn_every}")

    def sequence(self, n: int, tenants: int, rng: np.random.Generator) -> List[int]:
        order = rng.permutation(tenants)
        hot_size = max(1, int(round(self.hot_fraction * tenants)))
        picks = []
        for i in range(n):
            rotation = (i // self.churn_every) * hot_size
            hot = [int(order[(rotation + j) % tenants]) for j in range(hot_size)]
            if rng.random() < self.hot_mass or hot_size == tenants:
                picks.append(hot[int(rng.integers(0, hot_size))])
            else:
                cold = int(rng.integers(0, tenants - hot_size))
                picks.append([t for t in range(tenants) if t not in hot][cold])
        return picks


@dataclass
class ClassDriftPopularity(PopularityModel):
    """Uniform tenants whose *hot class sets* drift on a seeded schedule.

    Every tenant owns a hot set of ``head_size`` classes out of
    ``num_classes``; per-request labels are drawn from the addressed
    tenant's *current* hot set.  Every ``shift_every`` requests the
    scenario enters a new phase, and the tenants picked by
    ``shift_fraction`` rotate their hot set one window along a per-tenant
    seeded permutation — exactly the :class:`HotSetChurn` rotation, applied
    to classes instead of tenants.

    The class schedule is keyed by ``drift_seed`` (not the workload rng),
    so :meth:`hot_classes` is a pure function of ``(tenant, phase)``: a
    fleet builder can align each tenant's served head with its phase-0 hot
    set, and a detector's ground truth is reconstructable after the fact.
    """

    num_classes: int = 6
    head_size: int = 3
    shift_every: int = 32
    shift_fraction: float = 1.0
    drift_seed: int = 0
    kind = "class-drift"

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 1 <= self.head_size < self.num_classes:
            raise ValueError(
                f"head_size must be in [1, num_classes), got {self.head_size}"
            )
        if self.shift_every < 1:
            raise ValueError(f"shift_every must be >= 1, got {self.shift_every}")
        if not 0.0 < self.shift_fraction <= 1.0:
            raise ValueError(
                f"shift_fraction must be in (0, 1], got {self.shift_fraction}"
            )

    def sequence(self, n: int, tenants: int, rng: np.random.Generator) -> List[int]:
        return rng.integers(0, tenants, size=n).tolist()

    def _shifts_by(self, tenant: int, phase: int) -> int:
        """How many times ``tenant``'s hot set has rotated by ``phase``."""
        if self.shift_fraction >= 1.0:
            return phase
        # Staggered rolling drift: a tenant participates in phase q's shift
        # iff q falls on its stride slot, so ~shift_fraction of the fleet
        # moves each phase and the schedule stays a pure function.
        stride = max(1, int(round(1.0 / self.shift_fraction)))
        return sum(1 for q in range(1, phase + 1) if q % stride == tenant % stride)

    def hot_classes(self, tenant: int, phase: int) -> List[int]:
        """The tenant's hot class set during ``phase`` (pure, seeded)."""
        if phase < 0:
            raise ValueError(f"phase must be >= 0, got {phase}")
        order = np.random.default_rng(
            (self.drift_seed + 1) * 1_000_003 + tenant
        ).permutation(self.num_classes)
        rotation = self._shifts_by(tenant, phase) * self.head_size
        return [
            int(order[(rotation + j) % self.num_classes])
            for j in range(self.head_size)
        ]

    def labels(
        self,
        n: int,
        tenants: int,
        tenant_seq: Sequence[int],
        rng: np.random.Generator,
    ) -> List[int]:
        """Per-request true-class labels from each tenant's current hot set.

        Consumes the shared workload ``rng`` (one draw per request) so the
        label stream is covered by the scenario's determinism contract.
        """
        del tenants  # the schedule is per-tenant; fleet size is implicit
        picks = []
        for i in range(n):
            hot = self.hot_classes(int(tenant_seq[i]), i // self.shift_every)
            picks.append(hot[int(rng.integers(0, len(hot)))])
        return picks


#: Registry of popularity kinds (CLI listing / scenario description).
POPULARITIES: Dict[str, Type[PopularityModel]] = {
    cls.kind: cls
    for cls in (UniformPopularity, ZipfPopularity, HotSetChurn, ClassDriftPopularity)
}
