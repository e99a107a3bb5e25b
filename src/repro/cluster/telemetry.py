"""Per-shard serving telemetry: counters, latency percentiles, distributions.

Every :class:`~repro.cluster.loop.ShardLoop` owns one
:class:`ShardTelemetry` and records into it from the thread that runs it while
the frontend records admission rejections from caller threads — all mutation
goes through one lock per telemetry object.  Snapshots are plain JSON-compatible
dicts with a *stable schema* shared by every shard, so
:meth:`~repro.cluster.frontend.ClusterService.stats` can both report shards
side by side and merge them into cluster totals
(:func:`merge_snapshots` / :meth:`ShardTelemetry.merge`).

The latency surface follows the profiler/step-instrumentation idiom of the
related serving repos: a bounded sample reservoir per histogram, summarised
as p50/p95/p99 (plus mean/max) rather than raw traces.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..records import pack, unpack

__all__ = [
    "LatencyHistogram",
    "ShardTelemetry",
    "merge_snapshots",
    "STATS_SCHEMA",
    "assert_stats_schema",
]

#: The unified top-level stats schema every serving facade emits: block name
#: -> fields the block must carry.  ``PersonalizationService.stats()``,
#: ``ClusterService.stats()`` and ``Gateway.stats()`` all validate against
#: this before returning, so dashboards read any deployment shape unchanged.
STATS_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "latency": ("count", "mean_ms", "max_ms"),
    "cache": ("hits", "misses", "evictions", "hit_rate"),
    "queue": ("pending", "max_depth"),
    "errors": ("failed", "rejected"),
}


#: Blocks whose numeric fields are all semantically non-negative (counts,
#: depths, milliseconds) — validated value-wise, not just key-wise.
_NONNEGATIVE_BLOCKS = ("latency", "queue")


def assert_stats_schema(stats: Dict[str, object]) -> Dict[str, object]:
    """Validate (and return) a stats dict against :data:`STATS_SCHEMA`.

    Raises ``AssertionError`` naming every missing block/field, so a schema
    drift fails loudly at the facade that introduced it rather than in a
    dashboard.  Blocks may carry *more* fields than the schema requires —
    the contract is a shared floor, not a ceiling.

    Values are checked too, not just keys: every numeric field of the
    ``latency`` and ``queue`` blocks must be finite and non-negative.  A NaN
    percentile or a negative queue depth is a telemetry bug upstream — and
    it would silently corrupt every time series, alert rule, and SLO report
    fed from this snapshot, so it fails here, at the source.
    """
    problems = []
    for block_name, fields in STATS_SCHEMA.items():
        block = stats.get(block_name)
        if not isinstance(block, dict):
            problems.append(f"missing block {block_name!r}")
            continue
        absent = [field for field in fields if field not in block]
        if absent:
            problems.append(f"block {block_name!r} missing fields {absent}")
        if block_name in _NONNEGATIVE_BLOCKS:
            for field, value in block.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                value = float(value)
                if value != value or value in (float("inf"), float("-inf")):
                    problems.append(
                        f"block {block_name!r} field {field!r} is not finite"
                        f" ({value})"
                    )
                elif value < 0:
                    problems.append(
                        f"block {block_name!r} field {field!r} is negative"
                        f" ({value})"
                    )
    if problems:
        raise AssertionError(
            "stats schema violation: " + "; ".join(problems)
        )
    return stats


class LatencyHistogram:
    """Latency samples with percentile summaries over a bounded reservoir.

    The reservoir keeps the most recent ``max_samples`` observations (a
    sliding window, so long-running shards report current behaviour, not
    boot-time warmup), while ``count`` / ``total`` / ``max`` accumulate over
    the histogram's whole lifetime.
    """

    def __init__(self, max_samples: int = 8192) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self._samples: Deque[float] = deque(maxlen=max_samples)
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def record(self, seconds: float) -> None:
        seconds = float(seconds)
        self._samples.append(seconds)
        self.count += 1
        self.total += seconds
        if seconds > self.max:
            self.max = seconds

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile ``q`` (0-100) over the reservoir."""
        return self._percentile(sorted(self._samples), q)

    @staticmethod
    def _percentile(ordered: List[float], q: float) -> float:
        if not ordered:
            return 0.0
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        frac = rank - low
        return ordered[low] * (1.0 - frac) + ordered[high] * frac

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def samples(self) -> Tuple[float, ...]:
        """The resident reservoir samples (oldest first), for external merges.

        This is the exposed surface percentile mergers need: percentiles
        cannot be combined from p50/p95/p99 summaries, only from the
        underlying samples.
        """
        return tuple(self._samples)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        """Fold ``other`` into this histogram (for cluster-level summaries).

        Bounded by *this* histogram's reservoir capacity: when the combined
        samples overflow it, the oldest are dropped.  For a lossless merge of
        several histograms use :meth:`merged`, which sizes the output to hold
        every resident sample.
        """
        self._samples.extend(other._samples)
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)
        return self

    @classmethod
    def merged(cls, histograms: Iterable["LatencyHistogram"]) -> "LatencyHistogram":
        """A new histogram holding every input's resident samples, losslessly.

        Unlike :meth:`merge` this never mutates its inputs and never drops a
        resident sample: the output reservoir is sized to the combined sample
        count, so its percentiles equal those of one reservoir that had
        recorded all the samples itself — the "true merged p99" a cluster
        report needs.
        """
        histograms = list(histograms)
        out = cls(max_samples=max(1, sum(len(h._samples) for h in histograms)))
        for histogram in histograms:
            out.merge(histogram)
        return out

    def summary(self) -> Dict[str, float]:
        """The stable latency schema (milliseconds)."""
        ordered = sorted(self._samples)  # one sort serves all three percentiles
        return {
            "count": self.count,
            "mean_ms": self.mean * 1e3,
            "p50_ms": self._percentile(ordered, 50) * 1e3,
            "p95_ms": self._percentile(ordered, 95) * 1e3,
            "p99_ms": self._percentile(ordered, 99) * 1e3,
            "max_ms": self.max * 1e3,
        }

    def to_wire(self) -> Dict[str, object]:
        """JSON form carrying the reservoir itself (packed, see
        :func:`repro.records.pack`), for a lossless merge in another process
        (see :meth:`samples` for why summaries will not do)."""
        return {
            "samples": pack(list(self._samples), "<f8"),
            "count": self.count,
            "total": self.total,
            "max": self.max,
        }

    @classmethod
    def from_wire(cls, wire: Dict[str, object]) -> "LatencyHistogram":
        samples = unpack(wire["samples"], "<f8").tolist()  # packed, or the old list
        histogram = cls(max_samples=max(1, len(samples)))
        histogram._samples.extend(samples)
        histogram.count, histogram.total, histogram.max = wire["count"], wire["total"], wire["max"]
        return histogram


class ShardTelemetry:
    """Thread-safe counters and distributions for one serving shard.

    Records four kinds of event:

    * admission — ``record_submit`` / ``record_reject`` (frontend threads);
    * dispatch — ``record_dispatch(batch_size, queue_depth)`` once per fused
      flush (worker thread);
    * completion — ``record_completion(latency_s)`` once per answered
      request (worker thread);
    * failure — ``record_failure`` for requests answered with an exception.
    """

    def __init__(self, shard_id, max_samples: int = 8192) -> None:
        self.shard_id = shard_id
        self._lock = threading.Lock()
        self.latency = LatencyHistogram(max_samples=max_samples)
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.failed = 0
        self.dispatches = 0
        self._batch_sizes: Counter = Counter()
        self._batch_max = 0
        self._depth_samples = 0
        self._depth_total = 0
        self._depth_max = 0

    # -- recording (any thread) ------------------------------------------------
    def record_submit(self, n: int = 1) -> None:
        with self._lock:
            self.submitted += n

    def record_reject(self, n: int = 1) -> None:
        with self._lock:
            self.rejected += n

    def record_dispatch(self, batch_size: int, queue_depth: int) -> None:
        with self._lock:
            self.dispatches += 1
            self._batch_sizes[int(batch_size)] += 1
            self._batch_max = max(self._batch_max, int(batch_size))
            self._depth_samples += 1
            self._depth_total += int(queue_depth)
            self._depth_max = max(self._depth_max, int(queue_depth))

    def record_completion(self, latency_s: float) -> None:
        with self._lock:
            self.completed += 1
            self.latency.record(latency_s)

    def record_failure(self, n: int = 1) -> None:
        with self._lock:
            self.failed += n

    # -- reporting -------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """One shard's telemetry as a JSON-compatible dict (stable schema)."""
        with self._lock:
            mean_batch = (
                sum(size * count for size, count in self._batch_sizes.items())
                / self.dispatches
                if self.dispatches
                else 0.0
            )
            return {
                "shard": self.shard_id,
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "failed": self.failed,
                "latency": self.latency.summary(),
                "batch_size": {
                    "dispatches": self.dispatches,
                    "mean": mean_batch,
                    "max": self._batch_max,
                    # JSON objects key by string; keep the distribution sparse.
                    "histogram": {
                        str(size): count
                        for size, count in sorted(self._batch_sizes.items())
                    },
                },
                "queue_depth": {
                    "samples": self._depth_samples,
                    "mean": (
                        self._depth_total / self._depth_samples
                        if self._depth_samples
                        else 0.0
                    ),
                    "max": self._depth_max,
                },
            }

    def merged_latency(self) -> LatencyHistogram:
        """A copy of the latency histogram, safe to fold into a cluster total."""
        with self._lock:
            return LatencyHistogram.merged([self.latency])


def merge_snapshots(snapshots: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Aggregate per-shard snapshots into cluster totals (same sub-schema).

    Counter fields sum; latency percentiles cannot be merged from summaries
    alone, so the merged ``latency`` block reports count/mean/max exactly and
    leaves percentile merging to callers holding the histograms (see
    :meth:`ShardTelemetry.merged_latency`).
    """
    snapshots = list(snapshots)
    totals: Dict[str, object] = {
        "shards": len(snapshots),
        "submitted": sum(s["submitted"] for s in snapshots),
        "completed": sum(s["completed"] for s in snapshots),
        "rejected": sum(s["rejected"] for s in snapshots),
        "failed": sum(s["failed"] for s in snapshots),
    }
    dispatches = sum(s["batch_size"]["dispatches"] for s in snapshots)
    weighted = sum(
        s["batch_size"]["mean"] * s["batch_size"]["dispatches"] for s in snapshots
    )
    totals["batch_size"] = {
        "dispatches": dispatches,
        "mean": weighted / dispatches if dispatches else 0.0,
        "max": max((s["batch_size"]["max"] for s in snapshots), default=0),
    }
    count = sum(s["latency"]["count"] for s in snapshots)
    weighted_ms = sum(s["latency"]["mean_ms"] * s["latency"]["count"] for s in snapshots)
    totals["latency"] = {
        "count": count,
        "mean_ms": weighted_ms / count if count else 0.0,
        "max_ms": max((s["latency"]["max_ms"] for s in snapshots), default=0.0),
    }
    totals["queue_depth"] = {
        "max": max((s["queue_depth"]["max"] for s in snapshots), default=0),
    }
    return totals
