"""The benchmark's definitions: workloads, end-to-end metrics, per-layer metrics.

This module is the single source of the names, units, directions and bounds.
``BENCHMARK.json`` repeats the part of it the driver reads; the self-tests
check that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: How many complete set-ups an untraced run performs; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Timed rounds per window; timing metrics report the median round.
ROUNDS = 3

#: Requests in the output-correctness sample compared with the reference engine.
AGREEMENT_SAMPLE = 256

#: CRISP target sparsity of every personalized tenant, and the accepted band.
TARGET_SPARSITY = 0.8
SPARSITY_BAND = 0.05


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the deployment shape it runs against."""

    name: str
    why: str  #: one line, repeated in BENCHMARK.json
    op: str  #: what one operation is: "predict", "envelope" or "personalize"
    tenants: int  #: fleet personalized in set-up
    cache_capacity: int  #: engines resident per shard
    workers: str = "threaded"
    transport: str = "loopback"
    zipf_alpha: Optional[float] = None  #: None = uniform tenant popularity
    tail_percentile: int = 95
    poller_hz: float = 0.0  #: background TelemetryPoller rate (0 = none)


#: Requests per ``batch-proc`` envelope.
ENVELOPE = 16
#: Classes (of the dataset's 8) in every tenant's profile.
PROFILE_CLASSES = 3
SHARDS = 2

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="edge-hot",
        why="single-image predicts, every engine resident: the forward pass and "
        "per-request overhead dominate; cache, encode and pruning must not show",
        op="predict",
        tenants=8,
        cache_capacity=8,
        tail_percentile=95,
    ),
    Workload(
        name="batch-proc",
        why="16-request Zipf envelopes over HTTP into process workers with shared-memory "
        "weights: fusion, wire codec, socket, pipe and the stats path are used only here",
        op="envelope",
        tenants=8,
        cache_capacity=8,
        workers="process",
        transport="http",
        zipf_alpha=1.1,
        tail_percentile=80,
        poller_hz=4.0,
    ),
    Workload(
        name="cold-churn",
        why="12 tenants over 4 resident engines, so most predicts rebuild and re-encode an "
        "engine: cache, registry and formats do the work and the kernels little",
        op="predict",
        tenants=12,
        cache_capacity=2,
        tail_percentile=80,
    ),
    Workload(
        name="onboard",
        why="personalize new users through the gateway: the write path, where pruning, "
        "training kernels and loaders work and a speed-up that costs accuracy shows",
        op="personalize",
        tenants=0,
        cache_capacity=8,
        tail_percentile=75,
    ),
)


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(f"unknown workload {name!r}; known: {[w.name for w in WORKLOADS]}")


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the system would see, with its regression bound."""

    name: str
    unit: str
    better: str
    bound: float  #: share of the baseline median by which it may worsen
    what: str
    per_round: bool = False  #: timing metric: median of the timed rounds


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median wall time of one complete set-up: universal pre-train, fleet "
             "personalization, deployment start, warm-up"),
    EndToEnd("throughput_ops", "op/s", "higher", 0.25,
             "operations answered OK per second of round wall time", per_round=True),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.25,
             "median operation latency on the caller's clock, send to decoded reply",
             per_round=True),
    EndToEnd("latency_tail_ms", "ms", "lower", 0.25,
             "the workload's fixed tail percentile of operation latency over the window"),
    EndToEnd("cpu_ms_per_op", "ms", "lower", 0.25,
             "user+sys CPU of the benchmark process and its live children over the "
             "timed window, per operation: waits do not count, spinning does",
             per_round=True),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.25,
             "ru_maxrss of the process plus that of its largest child, at the end of the run"),
    EndToEnd("success_rate", "ratio", "higher", 0.002,
             "1 - (failed + rejected + timed-out + wrong-output operations) / attempted"),
    EndToEnd("top1_agreement", "ratio", "higher", 0.002,
             "share of the sampled requests whose served class equals the reference "
             "backend's on the same pruned model"),
    EndToEnd("pruned_accuracy", "ratio", "higher", 0.03,
             "mean validation accuracy, on the user's own classes, of the first 16 tenants "
             "personalized in the run (one cycle of the profile design)"),
)


@dataclass(frozen=True)
class PerLayer:
    """A metric of one layer, measured from outside; the layer (a ``src/repro/``
    package) is the name's prefix."""

    name: str
    unit: str
    better: str
    moves: str  #: the end-to-end metric @ workload it is predicted to move
    what: str


PER_LAYER: Tuple[PerLayer, ...] = (
    PerLayer("gateway.client_self_ms", "ms", "lower", "latency_p50_ms @ batch-proc",
             "GatewayClient.predict[_batch]/personalize minus its transport child"),
    PerLayer("gateway.transport_self_ms", "ms", "lower", "latency_p50_ms @ batch-proc",
             "Transport.send minus Gateway.handle: JSON to/from bytes, socket round trip"),
    PerLayer("gateway.handle_self_ms", "ms", "lower", "latency_p50_ms, cpu_ms_per_op @ edge-hot",
             "Gateway.handle minus the backend call: middleware, routing, envelope decode"),
    PerLayer("gateway.wire_encode_us", "us", "lower", "cpu_ms_per_op @ batch-proc",
             "ApiRequest.to_json + ApiResponse.to_json, timed alone on real payloads"),
    PerLayer("gateway.wire_decode_us", "us", "lower", "cpu_ms_per_op @ batch-proc",
             "ApiRequest.from_json + ApiResponse.from_json, timed alone on real payloads"),
    PerLayer("gateway.wire_bytes_per_op", "B", "lower", "gateway.transport_self_ms",
             "request + response JSON length (exact count)"),
    PerLayer("cluster.self_ms", "ms", "lower", "latency_p50_ms @ edge-hot",
             "backend predict span minus shard-side scheduler spans: routing, queue hop, "
             "flush-interval wait, future wake-up"),
    PerLayer("cluster.proc_roundtrip_ms", "ms", "lower", "latency_p50_ms, throughput_ops @ batch-proc",
             "total backend predict[_batch] span; with process workers it holds the pipe and "
             "the child's whole dispatch, not separable from outside"),
    PerLayer("cluster.mean_fused_group", "req", "higher", "throughput_ops @ batch-proc",
             "requests served per engine dispatch, summed over shards"),
    PerLayer("cluster.dispatches_per_op", "count", "lower", "cpu_ms_per_op @ batch-proc",
             "engine dispatches per operation"),
    PerLayer("cluster.queue_depth_max", "req", "lower", "latency_tail_ms @ batch-proc",
             "deepest shard queue seen at a dispatch"),
    PerLayer("cluster.shard_imbalance", "ratio", "lower", "latency_tail_ms @ batch-proc",
             "max over mean of per-shard completions in the window"),
    PerLayer("cluster.rejected", "count", "lower", "success_rate @ all",
             "requests rejected or failed at the shards in the window"),
    PerLayer("shm.publish_ms", "ms", "lower", "setup_s @ batch-proc",
             "wall time of cluster start; with process workers it publishes every tenant's segments"),
    PerLayer("shm.leaked_segments", "count", "lower", "success_rate @ batch-proc",
             "/dev/shm entries created by the run and present after shutdown (non-zero fails the run)"),
    PerLayer("serve.cache_hit_ratio", "ratio", "higher", "latency_p50_ms @ cold-churn",
             "engine-cache hits over lookups in the window"),
    PerLayer("serve.build_engine_ms", "ms", "lower", "latency_p50_ms, throughput_ops @ cold-churn",
             "total ModelRegistry.build_engine span per cache miss"),
    PerLayer("serve.scheduler_self_ms", "ms", "lower", "cpu_ms_per_op @ batch-proc",
             "BatchScheduler.submit + flush minus cache and engine children, per operation"),
    PerLayer("serve.first_predict_ms", "ms", "lower", "latency_tail_ms @ cold-churn",
             "a predict whose engine is not resident: cold build plus forward"),
    PerLayer("serve.register_ms", "ms", "lower", "latency_p50_ms @ onboard",
             "ModelRegistry.register span inside a personalize"),
    PerLayer("backend.forward_ms", "ms", "lower", "latency_p50_ms @ edge-hot",
             "total Engine.predict_many span per call"),
    PerLayer("backend.sparse_matmul_ms", "ms", "lower", "backend.forward_ms",
             "sum of the fast backend's sparse_matmul spans inside one forward"),
    PerLayer("backend.im2col_ms", "ms", "lower", "backend.forward_ms",
             "sum of the fast backend's im2col spans inside one forward"),
    PerLayer("backend.other_ms", "ms", "lower", "backend.forward_ms",
             "forward minus the two above: batch-norm, activation, pooling, bias, reshapes"),
    PerLayer("backend.flops_per_forward", "count", "lower", "backend.forward_ms",
             "computed: 2 x nnz x columns over the encoded layers, batch 1"),
    PerLayer("backend.bytes_per_forward", "B", "lower", "backend.forward_ms",
             "computed: format data + metadata bytes + float64 activation bytes touched, batch 1"),
    PerLayer("backend.weight_kib_per_tenant", "KiB", "lower", "peak_rss_mb @ all",
             "Engine.total_weight_bits() / 8192, mean over the fleet (exact)"),
    PerLayer("backend.max_abs_logit_err", "logit", "lower", "top1_agreement @ all",
             "largest absolute difference to the reference logits on the sample"),
    PerLayer("sparsity.encode_ms", "ms", "lower", "serve.build_engine_ms",
             "sum of CRISPFormat.from_dense spans inside one build_engine"),
    PerLayer("sparsity.metadata_ratio", "ratio", "lower", "backend.weight_kib_per_tenant",
             "metadata bits over total bits of the encoded weights (exact)"),
    PerLayer("pruning.saliency_ms", "ms", "lower", "latency_p50_ms @ onboard",
             "class_aware_saliency spans per personalize"),
    PerLayer("pruning.mask_ms", "ms", "lower", "latency_p50_ms @ onboard",
             "crisp_prune self time per personalize: N:M and block selection steps"),
    PerLayer("pruning.finetune_ms", "ms", "lower", "latency_p50_ms, cpu_ms_per_op @ onboard",
             "ste_finetune + recovery Trainer.fit spans per personalize"),
    PerLayer("pruning.achieved_sparsity", "ratio", "higher", "success_rate @ onboard",
             "mean achieved sparsity of the tenants personalized in the run"),
    PerLayer("data.loaders_ms", "ms", "lower", "latency_p50_ms @ onboard",
             "build_user_loaders span per personalize"),
    PerLayer("metrics.stats_call_ms", "ms", "lower", "latency_tail_ms @ batch-proc",
             "median of 20 client.stats() calls right after the window"),
    PerLayer("hw.crisp_stc_cycles", "cycles", "lower", "backend.forward_ms",
             "the accelerator model's predicted cycles for tenant 0 on CRISP-STC (exact)"),
    PerLayer("hw.speedup_vs_dense", "x", "higher", "backend.forward_ms",
             "the accelerator model's predicted speed-up of CRISP-STC over dense (exact)"),
    PerLayer("trace.coverage", "ratio", "higher", "-",
             "median over operations of descendant self time over root duration"),
    PerLayer("trace.overhead_ratio", "ratio", "lower", "-",
             "latency_p50_ms of the traced rounds over the untraced round of the same run"),
)
