"""Seeded property tests for the cluster's telemetry merge.

Mirrors ``test_router_properties.py``: 50 seeded trials per invariant over
random fleets (1–8 shards) with random reservoir sizes (some shards overflow
theirs), checking the invariants ``ClusterService.merged_latency`` and the
``totals`` block of ``ClusterService.stats()`` rest on:

* **lossless merge** — :meth:`LatencyHistogram.merged` holds exactly the
  shards' resident samples, in shard order, with lifetime count/total/max
  summed, its percentiles equal one pooled reservoir's whatever the shard
  order, and its inputs are left untouched;
* **bounded merge** — :meth:`LatencyHistogram.merge` keeps the newest
  ``max_samples`` of the combined reservoirs and the lifetime totals of both;
* **wire round trip** — ``from_wire(to_wire())`` reproduces the reservoir
  bit for bit, so a merge over process workers' wire frames equals the merge
  over the in-process histograms;
* **snapshot merge** — :func:`merge_snapshots` sums every counter and
  reports the pooled latency count/mean/max and batch-size mean of the
  events the shards recorded.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cluster import LatencyHistogram, ShardTelemetry, merge_snapshots

TRIALS = list(range(50))


def _random_histograms(seed):
    """A seeded fleet of histograms, with the raw streams each one recorded."""
    rng = np.random.default_rng(seed)
    histograms, streams = [], []
    for _ in range(int(rng.integers(1, 9))):
        histogram = LatencyHistogram(max_samples=int(rng.integers(1, 40)))
        stream = rng.exponential(0.005, size=int(rng.integers(0, 60))).tolist()
        for value in stream:
            histogram.record(value)
        histograms.append(histogram)
        streams.append(stream)
    return histograms, streams


def _percentiles(summary):
    return {key: summary[key] for key in ("p50_ms", "p95_ms", "p99_ms")}


class TestLosslessMerge:
    @pytest.mark.parametrize("seed", TRIALS)
    def test_merged_equals_one_pooled_reservoir(self, seed):
        histograms, streams = _random_histograms(seed)
        residents = [h.samples() for h in histograms]
        merged = LatencyHistogram.merged(histograms)

        # Every resident sample survives, in shard order; nothing is invented.
        pooled = [value for samples in residents for value in samples]
        assert list(merged.samples()) == pooled
        # Lifetime totals cover evicted samples too.
        every = [value for stream in streams for value in stream]
        assert merged.count == len(every)
        assert merged.total == pytest.approx(sum(every))
        assert merged.max == max(every, default=0.0)

        reference = LatencyHistogram(max_samples=max(1, len(pooled)))
        for value in pooled:
            reference.record(value)
        assert _percentiles(merged.summary()) == _percentiles(reference.summary())

        # Shard order changes nothing a dashboard reads.
        order = np.random.default_rng(seed + 1).permutation(len(histograms))
        shuffled = LatencyHistogram.merged(histograms[i] for i in order)
        assert _percentiles(shuffled.summary()) == _percentiles(merged.summary())
        assert shuffled.count == merged.count and shuffled.max == merged.max

        # Pure: the inputs still hold what they held.
        assert [h.samples() for h in histograms] == residents


class TestBoundedMerge:
    @pytest.mark.parametrize("seed", TRIALS)
    def test_merge_keeps_the_newest_samples_and_lifetime_totals(self, seed):
        histograms, streams = _random_histograms(seed)
        target, target_stream = histograms[0], streams[0]
        capacity = target.max_samples
        combined = list(target.samples())
        for other in histograms[1:]:
            combined.extend(other.samples())
            assert target.merge(other) is target

        assert target.max_samples == capacity
        assert list(target.samples()) == combined[-capacity:]
        every = target_stream + [value for stream in streams[1:] for value in stream]
        assert target.count == len(every)
        assert target.total == pytest.approx(sum(every))
        assert target.max == max(every, default=0.0)


class TestWireRoundTrip:
    @pytest.mark.parametrize("seed", TRIALS)
    def test_wire_frames_merge_like_the_histograms_they_carry(self, seed):
        histograms, _ = _random_histograms(seed)
        # Through JSON text, as a process worker's reply travels.
        rebuilt = [
            LatencyHistogram.from_wire(json.loads(json.dumps(h.to_wire())))
            for h in histograms
        ]
        for original, copy in zip(histograms, rebuilt):
            assert copy.samples() == original.samples()
            assert (copy.count, copy.total, copy.max) == (
                original.count,
                original.total,
                original.max,
            )
            assert copy.summary() == original.summary()
        assert (
            LatencyHistogram.merged(rebuilt).summary()
            == LatencyHistogram.merged(histograms).summary()
        )


class TestSnapshotMerge:
    @pytest.mark.parametrize("seed", TRIALS)
    def test_totals_sum_counters_and_pool_the_recorded_events(self, seed):
        rng = np.random.default_rng(seed)
        shards = [ShardTelemetry(i, max_samples=16) for i in range(int(rng.integers(1, 9)))]
        counts = {"submitted": 0, "rejected": 0, "failed": 0}
        latencies, batches, depths = [], [], []
        for telemetry in shards:
            submitted, rejected, failed = (int(n) for n in rng.integers(0, 20, size=3))
            telemetry.record_submit(submitted)
            telemetry.record_reject(rejected)
            telemetry.record_failure(failed)
            counts["submitted"] += submitted
            counts["rejected"] += rejected
            counts["failed"] += failed
            for _ in range(int(rng.integers(0, 6))):
                batch, depth = int(rng.integers(1, 9)), int(rng.integers(0, 32))
                telemetry.record_dispatch(batch_size=batch, queue_depth=depth)
                batches.append(batch)
                depths.append(depth)
            for value in rng.exponential(0.005, size=int(rng.integers(0, 30))):
                telemetry.record_completion(float(value))
                latencies.append(float(value))

        totals = merge_snapshots(t.snapshot() for t in shards)
        assert totals["shards"] == len(shards)
        assert totals["completed"] == len(latencies)
        for field, expected in counts.items():
            assert totals[field] == expected
        assert totals["batch_size"]["dispatches"] == len(batches)
        assert totals["batch_size"]["mean"] == pytest.approx(
            float(np.mean(batches)) if batches else 0.0
        )
        assert totals["batch_size"]["max"] == max(batches, default=0)
        assert totals["queue_depth"]["max"] == max(depths, default=0)
        assert totals["latency"]["count"] == len(latencies)
        assert totals["latency"]["mean_ms"] == pytest.approx(
            float(np.mean(latencies)) * 1e3 if latencies else 0.0
        )
        assert totals["latency"]["max_ms"] == pytest.approx(max(latencies, default=0.0) * 1e3)
        # The percentile side: every shard's copy merges into one lifetime count.
        merged = LatencyHistogram.merged(t.merged_latency() for t in shards)
        assert merged.count == len(latencies)
