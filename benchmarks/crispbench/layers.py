"""Per-layer metrics, measured from outside the program.

Counts are deltas of the public ``stats()`` dicts across the window; times are
medians over spans of the traced rounds (self time unless the registry says
*total*); "computed" values are derived from tensor and format shapes.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

import numpy as np

from .measure import clock, median_ms
from .spans import Forest, Span, coverage


# -- counts ---------------------------------------------------------------------


def from_stats(before: Dict, after: Dict, ops: int) -> Dict[str, float]:
    """Window deltas of the cluster's per-shard counters."""
    then = {shard["shard"]: shard for shard in before["per_shard"]}
    served = dispatches = hits = misses = refused = 0
    completed: List[int] = []
    depth = 0
    for shard in after["per_shard"]:
        base = then[shard["shard"]]
        served += shard["scheduler"]["requests_served"] - base["scheduler"]["requests_served"]
        dispatches += shard["scheduler"]["dispatches"] - base["scheduler"]["dispatches"]
        hits += shard["cache"]["hits"] - base["cache"]["hits"]
        misses += shard["cache"]["misses"] - base["cache"]["misses"]
        now, was = shard["telemetry"], base["telemetry"]
        refused += now["rejected"] - was["rejected"] + now["failed"] - was["failed"]
        completed.append(now["completed"] - was["completed"])
        depth = max(depth, now["queue_depth"]["max"])
    mean_completed = sum(completed) / len(completed)
    return {
        "cluster.mean_fused_group": served / dispatches if dispatches else 0.0,
        "cluster.dispatches_per_op": dispatches / ops if ops else 0.0,
        "cluster.queue_depth_max": float(depth),
        "cluster.shard_imbalance": max(completed) / mean_completed if mean_completed else 0.0,
        "cluster.rejected": float(refused),
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


# -- computed from shapes ----------------------------------------------------------


def from_shapes(registry, fleet_ids: Sequence[str]) -> Dict[str, float]:
    """Storage, operation and traffic counts of the encoded models, and the
    accelerator model's prediction for tenant 0.  Nothing here is timed."""
    from repro.hw import compare_accelerators, workloads_from_engine

    weight_bits: List[int] = []
    metadata_bits = total_bits = 0
    flops: List[float] = []
    traffic: List[float] = []
    report = None
    for model_id in fleet_ids:
        engine = registry.build_engine(model_id, attach=False)
        summaries = engine.format_summaries()
        weight_bits.append(engine.total_weight_bits())
        metadata_bits += sum(s.metadata_bits for s in summaries.values())
        total_bits += sum(s.total_bits for s in summaries.values())
        workloads = workloads_from_engine(engine, batch=1)
        flops.append(sum(2.0 * summaries[w.name].nnz * w.output_positions for w in workloads))
        # float64 activations: the im2col columns read and the output written.
        activations = sum(
            8.0 * w.output_positions * (w.reduction + w.out_channels) for w in workloads
        )
        traffic.append(engine.total_weight_bits() / 8.0 + activations)
        if report is None:
            report = compare_accelerators(workloads)
    crisp_stc = next(n for n in report.accelerator_names if n.startswith("crisp-stc"))
    return {
        "backend.flops_per_forward": float(np.mean(flops)),
        "backend.bytes_per_forward": float(np.mean(traffic)),
        "backend.weight_kib_per_tenant": float(np.mean(weight_bits)) / 8192.0,
        "sparsity.metadata_ratio": metadata_bits / total_bits,
        "hw.crisp_stc_cycles": float(report.total_cycles(crisp_stc)),
        "hw.speedup_vs_dense": float(report.overall_speedup(crisp_stc)),
    }


# -- the wire codec, timed alone -----------------------------------------------------


def from_wire(gateway, requests: Sequence) -> Dict[str, float]:
    """Encode/decode cost and size of the workload's own envelopes.

    ``requests`` are ``ApiRequest`` objects rebuilt from the plan; each is
    answered once by the gateway to obtain its real response, then both
    envelopes are encoded and decoded on their own.
    """
    from repro.gateway import ApiRequest, ApiResponse

    encode: List[float] = []
    decode: List[float] = []
    sizes: List[int] = []
    for request in requests:
        response = gateway.handle(request)
        started = clock()
        raw_request = request.to_json()
        raw_response = response.to_json()
        encoded = clock()
        ApiRequest.from_json(raw_request)
        ApiResponse.from_json(raw_response)
        decoded = clock()
        encode.append(encoded - started)
        decode.append(decoded - encoded)
        sizes.append(len(raw_request) + len(raw_response))
    return {
        "gateway.wire_encode_us": statistics.median(encode) * 1e6,
        "gateway.wire_decode_us": statistics.median(decode) * 1e6,
        "gateway.wire_bytes_per_op": float(statistics.median(sizes)),
    }


# -- spans ------------------------------------------------------------------------------


#: The root span of one operation, by the workload's kind of operation.
ROOT_OF = {
    "predict": "client.predict",
    "envelope": "client.predict_batch",
    "personalize": "client.personalize",
}


def op_roots(forest: Forest, op: str) -> List[Span]:
    return [s for s in forest.roots if s.name == ROOT_OF[op]]


def from_read_spans(outer: Forest, inner: Forest, op: str) -> Dict[str, float]:
    """Layer times of the read path.

    ``outer`` holds the rounds against the workload's own deployment; ``inner``
    holds rounds in which the shard-side spans were reachable (the same forest
    on threaded workers, a threaded replica of the fleet for process workers).
    Gateway and cluster times are taken under the workload's own operations;
    shard-side times over every call of that name, whichever request caused it.
    """

    under_ops = {
        id(forest): [s for root in op_roots(forest, op) for s in [root, *forest.descendants(root)]]
        for forest in (outer, inner)
    }

    def layer_spans(forest: Forest, prefix: str) -> List[Span]:
        return [s for s in under_ops[id(forest)] if s.name.startswith(prefix)]

    def self_ms(forest: Forest, prefix: str) -> float:
        return median_ms(forest.self_time(s) for s in layer_spans(forest, prefix))

    scheduler_per_call = []
    for call in (s for s in inner.spans.values() if s.name.startswith("cluster.predict")):
        below = inner.descendants(call)
        scheduler_per_call.append(
            sum(s.duration for s in below if s.name == "scheduler.submit")
            + sum(inner.self_time(s) for s in below if s.name == "scheduler.flush")
        )
    forwards = inner.named("engine.predict_many")
    matmul = [sum(k.duration for k in inner.inside(f, "kernel.sparse_matmul")) for f in forwards]
    im2col = [sum(k.duration for k in inner.inside(f, "kernel.im2col")) for f in forwards]
    other = [f.duration - a - b for f, a, b in zip(forwards, matmul, im2col)]
    builds = inner.named("registry.build_engine")
    return {
        "gateway.client_self_ms": self_ms(outer, "client."),
        "gateway.transport_self_ms": self_ms(outer, "transport."),
        "gateway.handle_self_ms": self_ms(outer, "gateway."),
        "cluster.proc_roundtrip_ms": median_ms(s.duration for s in layer_spans(outer, "cluster.")),
        "cluster.self_ms": self_ms(inner, "cluster."),
        "serve.scheduler_self_ms": median_ms(scheduler_per_call),
        "serve.build_engine_ms": median_ms(b.duration for b in builds),
        "sparsity.encode_ms": median_ms(
            sum(e.duration for e in inner.inside(b, "format.from_dense")) for b in builds
        ),
        "backend.forward_ms": median_ms(f.duration for f in forwards),
        "backend.sparse_matmul_ms": median_ms(matmul),
        "backend.im2col_ms": median_ms(im2col),
        "backend.other_ms": median_ms(other),
        "trace.coverage": statistics.median(coverage(inner, op_roots(inner, op)) or [0.0]),
    }


def from_write_spans(forest: Forest) -> Dict[str, float]:
    """Layer times of one personalize (set-up fleet or onboarded users)."""
    calls = forest.named("serve.personalize")

    def per_call(*names: str) -> float:
        return median_ms(
            sum(s.duration for s in forest.descendants(call) if s.name in names)
            for call in calls
        )

    heavy = ("pruning.saliency", "pruning.ste_finetune", "nn.trainer_fit")
    return {
        "pruning.saliency_ms": per_call("pruning.saliency"),
        # crisp_prune minus saliency and fine-tuning: N:M masks, block scores and
        # selection, mask installation, the accuracy evaluations.
        "pruning.mask_ms": median_ms(
            p.duration - sum(s.duration for s in forest.descendants(p) if s.name in heavy)
            for p in forest.named("pruning.crisp_prune")
        ),
        "pruning.finetune_ms": per_call("pruning.ste_finetune", "nn.trainer_fit"),
        "data.loaders_ms": per_call("data.build_user_loaders"),
        "serve.register_ms": per_call("serve.register"),
    }


def shares(forest: Forest, roots: Sequence[Span]) -> Dict[str, float]:
    """Share of root time spent in each layer (self time by span-name prefix)."""
    layer_of = {
        "client": "gateway", "transport": "gateway", "gateway": "gateway",
        "cluster": "cluster", "scheduler": "serve", "cache": "serve",
        "registry": "serve", "serve": "serve", "engine": "backend",
        "kernel": "backend", "format": "sparsity", "pruning": "pruning",
        "nn": "nn", "data": "data",
    }
    totals: Dict[str, float] = {}
    whole = 0.0
    for root in roots:
        whole += root.duration
        for span in [root, *forest.descendants(root)]:
            layer = layer_of[span.name.split(".", 1)[0]]
            totals[layer] = totals.get(layer, 0.0) + forest.self_time(span)
    return {layer: value / whole for layer, value in sorted(totals.items())} if whole else {}
