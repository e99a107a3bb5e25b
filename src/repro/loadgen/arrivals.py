"""Arrival processes: when each request of a scenario fires (virtual time).

An :class:`ArrivalProcess` turns a request count into a non-decreasing
sequence of arrival offsets in *virtual seconds* — the traffic's shape,
independent of how fast the machine under test can absorb it.  The
:class:`~repro.loadgen.driver.LoadDriver` paces submissions to these
offsets (scaled by its ``time_scale``; ``0`` replays as fast as possible).

Every process is a pure function of its parameters and the seeded generator
it is handed: the same ``(process, seed)`` pair always yields the same
offsets, bit for bit — the deterministic-seed contract of
:mod:`repro.loadgen`.

The shapes cover the serving-paper canon:

* :class:`ConstantRate` — open-loop, evenly spaced (the benchmark classic);
* :class:`PoissonArrivals` — open-loop with exponential gaps (memoryless
  user traffic);
* :class:`BurstyOnOff` — back-to-back bursts separated by idle gaps (the
  queue-filling shape that exercises micro-batching and admission control);
* :class:`DiurnalRamp` — a sinusoidal rate sweep between a trough and a
  peak (the day/night cycle compressed into seconds);
* :class:`ClosedLoop` — no timestamps at all: a fixed number of outstanding
  requests, the next one firing when one completes.
"""

from __future__ import annotations

import math
import abc
from dataclasses import dataclass
from typing import Dict, List, Type

import numpy as np

__all__ = [
    "ArrivalProcess",
    "ConstantRate",
    "PoissonArrivals",
    "BurstyOnOff",
    "DiurnalRamp",
    "ClosedLoop",
    "ARRIVALS",
]


class ArrivalProcess(abc.ABC):
    """Base class: a named generator of arrival offsets."""

    #: Registry key; subclasses override.
    kind = "abstract"
    #: Closed-loop processes have no timestamps; the driver windows instead.
    closed_loop = False

    @abc.abstractmethod
    def times(self, n: int, rng: np.random.Generator) -> List[float]:
        """``n`` non-decreasing arrival offsets in virtual seconds."""

    def to_dict(self) -> Dict[str, object]:
        """JSON description (stable keys, stable order via sort_keys)."""
        payload = {"kind": self.kind}
        payload.update(vars(self))
        return payload


def _check_positive(**values: float) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be > 0, got {value}")


@dataclass
class ConstantRate(ArrivalProcess):
    """Open-loop arrivals at a fixed ``rate`` (requests per virtual second)."""

    rate: float = 500.0
    kind = "constant"

    def __post_init__(self) -> None:
        _check_positive(rate=self.rate)

    def times(self, n: int, rng: np.random.Generator) -> List[float]:
        gap = 1.0 / self.rate
        return [i * gap for i in range(n)]


@dataclass
class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson process: i.i.d. exponential gaps at mean ``rate``."""

    rate: float = 500.0
    kind = "poisson"

    def __post_init__(self) -> None:
        _check_positive(rate=self.rate)

    def times(self, n: int, rng: np.random.Generator) -> List[float]:
        gaps = rng.exponential(scale=1.0 / self.rate, size=n)
        return np.cumsum(gaps).tolist()

@dataclass
class BurstyOnOff(ArrivalProcess):
    """On/off bursts: ``burst_size`` requests at ``burst_rate``, then idle.

    The on-period fills queues faster than any worker drains them (fused
    dispatch, admission control); the off-period lets the fleet catch up.
    This is the shape that separates a micro-batching runtime from a
    request-at-a-time one.
    """

    burst_size: int = 16
    burst_rate: float = 2000.0
    idle_s: float = 0.05
    kind = "bursty"

    def __post_init__(self) -> None:
        _check_positive(burst_rate=self.burst_rate, idle_s=self.idle_s)
        if self.burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {self.burst_size}")

    def times(self, n: int, rng: np.random.Generator) -> List[float]:
        gap = 1.0 / self.burst_rate
        offsets = []
        for i in range(n):
            burst, position = divmod(i, self.burst_size)
            offsets.append(burst * (self.burst_size * gap + self.idle_s) + position * gap)
        return offsets


@dataclass
class DiurnalRamp(ArrivalProcess):
    """Sinusoidal rate sweep from ``base_rate`` up to ``peak_rate`` and back.

    The instantaneous rate follows one period of
    ``base + (peak - base) * (1 - cos(2*pi*t/period)) / 2`` — a trough at
    ``t = 0``, the peak at ``t = period/2``.  Gaps are generated by stepping
    virtual time with the rate at the current offset, so the request stream
    thins and thickens the way day/night traffic does.
    """

    base_rate: float = 100.0
    peak_rate: float = 1200.0
    period_s: float = 0.4
    kind = "diurnal"

    def __post_init__(self) -> None:
        _check_positive(base_rate=self.base_rate, peak_rate=self.peak_rate, period_s=self.period_s)
        if self.peak_rate < self.base_rate:
            raise ValueError(
                f"peak_rate must be >= base_rate, got {self.peak_rate} < {self.base_rate}"
            )

    def rate_at(self, t: float) -> float:
        phase = (1.0 - math.cos(2.0 * math.pi * t / self.period_s)) / 2.0
        return self.base_rate + (self.peak_rate - self.base_rate) * phase

    def times(self, n: int, rng: np.random.Generator) -> List[float]:
        offsets, t = [], 0.0
        for _ in range(n):
            offsets.append(t)
            t += 1.0 / self.rate_at(t)
        return offsets


@dataclass
class ClosedLoop(ArrivalProcess):
    """Closed-loop load: ``concurrency`` requests outstanding at all times.

    There are no arrival timestamps — the driver submits the next request
    the moment one of the outstanding ones resolves, so the offered rate
    follows the service rate (the think-time-zero closed system of classic
    queueing benchmarks).
    """

    concurrency: int = 8
    kind = "closed-loop"
    closed_loop = True

    def __post_init__(self) -> None:
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")

    def times(self, n: int, rng: np.random.Generator) -> List[float]:
        return [0.0] * n


#: Registry of arrival-process kinds (CLI listing / scenario description).
ARRIVALS: Dict[str, Type[ArrivalProcess]] = {
    cls.kind: cls
    for cls in (ConstantRate, PoissonArrivals, BurstyOnOff, DiurnalRamp, ClosedLoop)
}
