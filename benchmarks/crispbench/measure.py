"""The benchmark's own ruler: clock, CPU and memory readings, percentiles, rounds."""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import time
from typing import Dict, Iterable, Sequence

import numpy

clock = time.perf_counter

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_seconds() -> float:
    """User+sys CPU of this process plus its live multiprocessing children.

    ``RUSAGE_CHILDREN`` only counts children already waited for, and the
    process workers live for the whole window, so their CPU is read from
    ``/proc/<pid>/stat`` (utime + stime, in clock ticks).
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                # Fields after the parenthesised command name; utime and stime
                # are fields 14 and 15 of the whole line.
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the child exited between the listing and the read
        total += (int(fields[11]) + int(fields[12])) * _TICK_S
    return total


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus that of its largest waited-for child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond percentile ``q``."""
    return int(count * (100.0 - q) / 100.0 + 1e-9)


def round_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median round and the spread ``(max - min) / median`` over the rounds."""
    median = statistics.median(values)
    spread = (max(values) - min(values)) / median if median else 0.0
    return {"value": median, "spread": spread, "rounds": list(values)}


class Stopwatch:
    """Wall and CPU time of one round, with the off-the-clock parts taken out."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.running = False
        self.resume()

    def resume(self) -> None:
        self.running = True
        self._cpu0 = cpu_seconds()
        self._wall0 = clock()

    def pause(self) -> None:
        self.wall_s += clock() - self._wall0
        self.cpu_s += cpu_seconds() - self._cpu0
        self.running = False

    stop = pause

    def elapsed(self) -> float:
        return self.wall_s + (clock() - self._wall0 if self.running else 0.0)


def host_stamp() -> Dict[str, object]:
    """What two result files must share before their timings are compared."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def median_ms(seconds: Iterable[float]) -> float:
    """Median of ``seconds`` in milliseconds; 0.0 when nothing was measured."""
    seconds = list(seconds)
    return statistics.median(seconds) * 1e3 if seconds else 0.0
