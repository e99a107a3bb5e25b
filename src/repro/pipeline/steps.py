"""Built-in steps: the standard prune → encode → register → replay → score chain.

Each function here is a :class:`~repro.pipeline.step.Step` body over the
real subsystems — magnitude-masked fleets (the loadgen construction),
:func:`repro.sparsity.compare_formats` encodings, the
:class:`~repro.serve.registry.ModelRegistry` persistence layout, serving
through the :class:`~repro.serve.api.ServingAPI`, and dense-oracle
scoring (precision@k over served classes + per-tenant accuracy curves).
Everything is seeded, so a step's JSON output is byte-stable across re-runs
— which is what makes the content-addressed cache *verifiable* rather than
merely convenient.

:func:`standard_chain` wires them into the canonical five-step DAG.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np

from ..records import round6
from .step import Step, StepContext

__all__ = [
    "prune_fleet",
    "encode_formats",
    "register_fleet",
    "replay_requests",
    "score_replay",
    "standard_chain",
]


# ---------------------------------------------------------------------------
# prune: magnitude-masked tenant models
# ---------------------------------------------------------------------------

def prune_fleet(ctx: StepContext) -> Dict[str, object]:
    """Build ``tenants`` magnitude-sparsified models; weights land in artifacts.

    Tenant ``i`` is built from seed ``seed + i`` — the same construction the
    loadgen fleet uses — and its full state dict (weights, masks, buffers)
    is saved as ``tenant-<i>.npz`` for the downstream encode/register steps.
    """
    from ..loadgen.fleet import magnitude_masked_model
    from ..nn.models.base import prunable_layers

    p = ctx.params
    tenants = int(p["tenants"])
    seed = int(p["seed"])
    sparsity = float(p["sparsity"])
    per_tenant: List[Dict[str, object]] = []
    for i in range(tenants):
        model = magnitude_masked_model(
            p["model_name"], int(p["num_classes"]), int(p["input_size"]), sparsity, seed + i
        )
        masks = [layer.weight.mask for layer in prunable_layers(model).values()]
        kept = int(sum(mask.sum() for mask in masks))
        total = sum(mask.size for mask in masks)
        state = model.state_dict()
        ctx.save_arrays(f"tenant-{i}", **state)
        per_tenant.append(
            {
                "tenant": f"tenant-{i}",
                "seed": seed + i,
                "kept_weights": kept,
                "total_weights": total,
                "density": round6(kept / total),
            }
        )
    return {
        "model_name": p["model_name"],
        "num_classes": int(p["num_classes"]),
        "input_size": int(p["input_size"]),
        "seed": seed,
        "sparsity": sparsity,
        "tenants": per_tenant,
    }


# ---------------------------------------------------------------------------
# encode: per-tenant compressed-format bit costs
# ---------------------------------------------------------------------------

def encode_formats(ctx: StepContext) -> Dict[str, object]:
    """Encode each tenant's largest masked matrix in every sparse format.

    The per-format bit costs (Fig. 4's primitive) become the step output, so
    a sweep over N:M / block-size parameters is a sweep over this one step —
    upstream pruning stays cached.
    """
    from ..sparsity.formats import compare_formats

    p = ctx.params
    fleet = ctx.inputs["prune"]
    report: Dict[str, object] = {}
    for entry in fleet["tenants"]:
        state = ctx.load_arrays("prune", entry["tenant"])
        # The largest 2-D masked parameter is the layer worth encoding; key
        # order ties are broken lexicographically for determinism.
        weights = {
            name: array
            for name, array in sorted(state.items())
            if name.endswith("weight") and array.ndim == 2
        }
        name, matrix = max(weights.items(), key=lambda item: (item[1].size, item[0]))
        # Stored data is already masked (set_mask zeroes in place), but apply
        # the saved mask anyway so the encoding never trusts that invariant.
        mask_key = f"{name}::mask"
        if mask_key in state:
            matrix = matrix * state[mask_key]
        summaries = compare_formats(
            matrix, n=int(p["n"]), m=int(p["m"]), block_size=int(p["block_size"])
        )
        report[entry["tenant"]] = {
            "layer": name,
            "shape": list(matrix.shape),
            "formats": {
                fmt: {
                    "nnz": s.nnz,
                    "data_bits": s.data_bits,
                    "metadata_bits": s.metadata_bits,
                    "total_bits": s.total_bits,
                }
                for fmt, s in sorted(summaries.items())
            },
        }
    return {"n": int(p["n"]), "m": int(p["m"]), "block_size": int(p["block_size"]),
            "tenants": report}


# ---------------------------------------------------------------------------
# register: persist the fleet as a serving registry
# ---------------------------------------------------------------------------

def register_fleet(ctx: StepContext) -> Dict[str, object]:
    """Rebuild the pruned modules and persist them as a ModelRegistry.

    The registry directory (one ``<model_id>.img`` tenant image per model)
    lands in this step's artifacts, so any later step — or a human — can
    ``ModelRegistry.load`` it straight out of the store.
    """
    from ..nn.models import build_model
    from ..serve.registry import ModelRegistry
    from ..serve.types import EngineSpec

    p = ctx.params
    fleet = ctx.inputs["prune"]
    spec = EngineSpec(backend=p["backend"], weight_format=p["weight_format"])
    registry = ModelRegistry()
    digests: Dict[str, str] = {}
    for entry in fleet["tenants"]:
        state = ctx.load_arrays("prune", entry["tenant"])
        model = build_model(
            fleet["model_name"],
            num_classes=int(fleet["num_classes"]),
            input_size=int(fleet["input_size"]),
            seed=0,
        )
        model.load_state_dict(state)
        model_id = registry.register(model, spec=spec, model_id=entry["tenant"])
        digest = hashlib.sha256()
        for name in sorted(state):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(state[name]).tobytes())
        digests[model_id] = digest.hexdigest()
    registry.save(ctx.artifact_dir / "registry")
    return {
        "model_ids": sorted(digests),
        "spec": spec.to_dict(),
        "state_sha256": digests,
    }


# ---------------------------------------------------------------------------
# replay: serve a deterministic request stream through the ServingAPI
# ---------------------------------------------------------------------------

def replay_requests(ctx: StepContext) -> Dict[str, object]:
    """Serve a seeded mixed-tenant request stream; logits land in artifacts.

    The registry is loaded from the ``register`` step's artifacts and served
    through the real Serving API v2 stack (service → scheduler → engines),
    so micro-batching and the compressed formats are on the measured path.
    Inputs and served logits are saved per tenant for the scoring step.
    """
    from ..serve.registry import ModelRegistry
    from ..serve.service import PersonalizationService, ServiceConfig
    from ..serve.types import PredictRequest

    p = ctx.params
    fleet = ctx.inputs["prune"]
    model_ids = list(ctx.inputs["register"]["model_ids"])
    registry = ModelRegistry.load(ctx.input_dir("register") / "registry")
    rng = np.random.default_rng(int(p["seed"]))
    rounds = int(p["rounds"])
    batch = int(p["batch"])
    shape = (batch, 3, int(fleet["input_size"]), int(fleet["input_size"]))

    inputs = {mid: [] for mid in model_ids}
    requests = []
    for round_index in range(rounds):
        for mid in model_ids:
            x = rng.standard_normal(shape)
            inputs[mid].append(x)
            requests.append(
                PredictRequest(
                    model_id=mid, inputs=x, request_id=f"replay-{mid}-{round_index}"
                )
            )

    service = PersonalizationService(
        ServiceConfig(cache_capacity=max(2, len(model_ids))), registry=registry
    )
    responses = service.predict_batch(requests)

    logits = {mid: [] for mid in model_ids}
    batched_with = []
    for request, response in zip(requests, responses):
        logits[request.model_id].append(np.asarray(response.logits))
        batched_with.append(int(response.batched_with))

    digest = hashlib.sha256()
    arrays = {}
    for mid in model_ids:
        arrays[f"inputs-{mid}"] = np.concatenate(inputs[mid], axis=0)
        arrays[f"logits-{mid}"] = np.concatenate(logits[mid], axis=0)
        digest.update(np.ascontiguousarray(arrays[f"logits-{mid}"]).tobytes())
    ctx.save_arrays("replay", **arrays)
    return {
        "requests": len(requests),
        "rounds": rounds,
        "batch": batch,
        "logits_sha256": digest.hexdigest(),
        "max_batched_with": max(batched_with),
    }


# ---------------------------------------------------------------------------
# score: precision@k + per-tenant accuracy curves against the dense oracle
# ---------------------------------------------------------------------------

def score_replay(ctx: StepContext) -> Dict[str, object]:
    """Score served logits against the dense (unmasked) oracle models.

    The oracle for tenant ``i`` is the same architecture/seed rebuilt
    *without* pruning masks, so the score measures exactly what sparsity
    cost: ``precision@k`` is the mean overlap between the served top-k class
    set and the oracle's, and each tenant's accuracy curve is the top-k
    accuracy of the served ranking against the oracle's argmax label as k
    grows (the drain-style per-tenant view).
    """
    from ..nn.models import build_model

    p = ctx.params
    fleet = ctx.inputs["prune"]
    ks = [int(k) for k in p["ks"]]
    num_classes = int(fleet["num_classes"])
    per_tenant: Dict[str, object] = {}
    precision_sums = {k: 0.0 for k in ks}
    samples = 0
    for entry in fleet["tenants"]:
        mid = entry["tenant"]
        arrays = ctx.load_arrays("replay", "replay")
        served = arrays[f"logits-{mid}"]
        inputs = arrays[f"inputs-{mid}"]
        oracle_model = build_model(
            fleet["model_name"],
            num_classes=num_classes,
            input_size=int(fleet["input_size"]),
            seed=int(entry["seed"]),
        )
        oracle = oracle_model(inputs)
        served_rank = np.argsort(-served, axis=1)
        oracle_rank = np.argsort(-oracle, axis=1)
        labels = oracle_rank[:, 0]
        n = served.shape[0]
        samples += n
        for k in ks:
            overlap = [
                len(set(served_rank[i, :k]) & set(oracle_rank[i, :k])) / k
                for i in range(n)
            ]
            precision_sums[k] += float(np.sum(overlap))
        curve = [
            round6(float(np.mean([labels[i] in served_rank[i, :k] for i in range(n)])))
            for k in range(1, num_classes + 1)
        ]
        per_tenant[mid] = {"samples": n, "accuracy_curve": curve}
    return {
        "samples": samples,
        "precision_at_k": {
            str(k): round6(precision_sums[k] / samples) for k in ks
        },
        "tenants": per_tenant,
    }


# ---------------------------------------------------------------------------
# the canonical chain
# ---------------------------------------------------------------------------

def standard_chain(
    tenants: int = 3,
    seed: int = 0,
    num_classes: int = 6,
    input_size: int = 12,
    sparsity: float = 0.7,
    model_name: str = "resnet_tiny",
    backend: str = "fast",
    weight_format: str = "csr",
    n: int = 2,
    m: int = 4,
    block_size: int = 16,
    rounds: int = 2,
    batch: int = 2,
    ks=(1, 3),
) -> List[Step]:
    """The five-step prune → encode → register → replay → score DAG."""
    return [
        Step(
            "prune",
            prune_fleet,
            params={
                "tenants": tenants,
                "seed": seed,
                "num_classes": num_classes,
                "input_size": input_size,
                "sparsity": sparsity,
                "model_name": model_name,
            },
        ),
        Step(
            "encode",
            encode_formats,
            params={"n": n, "m": m, "block_size": block_size},
            deps=("prune",),
        ),
        Step(
            "register",
            register_fleet,
            params={"backend": backend, "weight_format": weight_format},
            deps=("prune",),
        ),
        Step(
            "replay",
            replay_requests,
            params={"seed": seed, "rounds": rounds, "batch": batch},
            deps=("prune", "register"),
        ),
        Step(
            "score",
            score_replay,
            params={"ks": list(ks)},
            deps=("prune", "replay"),
        ),
    ]
