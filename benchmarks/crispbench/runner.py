"""One benchmark run: set up, drive the window, check outputs, name every metric."""

from __future__ import annotations

import statistics
import sys
from typing import Dict, List, Optional

from . import check, layers
from .harness import Caller, Round, deploy, personalize_request, set_up
from .measure import (
    MIN_BEYOND,
    clock,
    host_stamp,
    median_ms,
    peak_rss_mb,
    percentile,
    round_summary,
    samples_beyond,
)
from .plan import make_plan
from .registry import END_TO_END, PER_LAYER, ROUNDS, SETUP_REPEATS, Workload
from .registry import workload as find_workload

#: Tenants whose engine is evicted and rebuilt after a traced window, so that
#: every workload has cold-build spans whatever its hit ratio.
COLD_PROBES = 4
STATS_CALLS = 20
WIRE_SAMPLES = 16


def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool = False,
    spans_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run workload ``name`` once and return the full result record."""
    workload = find_workload(name)
    plan = make_plan(workload, seed, tenants=min(2, workload.tenants) if smoke else None)
    shm_before = check.shm_entries()
    result: Dict[str, object] = {
        "schema": 1,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "smoke": smoke,
        "plan_digest": plan.digest,
        "host": host_stamp(),
        "tail_percentile": workload.tail_percentile,
    }
    if trace:
        from .spans import Tracer  # untraced runs import nothing from spans.py

        tracer = Tracer()
        try:
            body = _traced(workload, plan, seconds, tracer, shm_before)
        finally:
            tracer.restore()
        if spans_path:
            tracer.dump(spans_path)
            result["spans_file"] = spans_path
    else:
        body = _untraced(workload, plan, seconds, 1 if smoke else SETUP_REPEATS, shm_before)
    result.update(body)
    return result


# -- shared pieces --------------------------------------------------------------------


def _verify(caller: Caller, rounds: List[Round], leaks: Dict[str, int]) -> Dict[str, object]:
    """Check everything received; returns counts, the sample verdict and fleet quality."""
    registry = caller.deployment.service.registry
    ops = [op for r in rounds for op in r.ops]
    sample = check.agreement(registry, caller.sample)
    quality = check.fleet_quality(registry, caller.deployment.fleet_ids + caller.onboarded)
    failures = {
        "failed_ops": sum(not op.ok for op in ops),
        "wrong_outputs": sample["wrong_outputs"],
        "sparsity_out_of_band": quality["out_of_band"],
        **leaks,
    }
    errors = sorted({op.error for op in ops if op.error})
    return {
        "attempted": len(ops),
        "failed": sum(failures.values()),
        "failures": failures,
        "errors": errors[:8],
        "sample": sample,
        "quality": quality,
    }


def _shutdown(caller: Caller, shm_before) -> Dict[str, int]:
    caller.deployment.close()
    return {
        "leaked_segments": len(check.leaked_segments(shm_before)),
        "live_children": check.live_children(),
    }


# -- the untraced run: end-to-end metrics ----------------------------------------------


def _untraced(workload: Workload, plan, seconds: float, repeats: int, shm_before) -> Dict:
    setups: List[float] = []
    caller = None
    for _ in range(repeats):
        if caller is not None:
            caller.deployment.close()
        caller, took = set_up(workload, plan)
        setups.append(took)
    rounds = [caller.round(seconds / ROUNDS) for _ in range(ROUNDS)]
    leaks = _shutdown(caller, shm_before)
    verdict = _verify(caller, rounds, leaks)

    tail_q = workload.tail_percentile
    per_round = [r.summary(tail_q) for r in rounds]
    good = [op.latency_s for r in rounds for op in r.ops if op.ok]
    values: Dict[str, Dict[str, object]] = {}
    for metric in END_TO_END:
        if metric.per_round:
            values[metric.name] = round_summary([s[metric.name] for s in per_round])
            values[metric.name]["n"] = len(good)
    values["latency_tail_ms"] = {
        "value": percentile(good, tail_q) * 1e3 if good else 0.0,
        "spread": round_summary([s["latency_tail_ms"] for s in per_round])["spread"],
        "n": len(good),
        "beyond": samples_beyond(len(good), tail_q),
        "supported": samples_beyond(len(good), tail_q) >= MIN_BEYOND,
    }
    values["setup_s"] = {"value": statistics.median(setups), "n": len(setups), "repeats": setups}
    values["peak_rss_mb"] = {"value": peak_rss_mb()}
    values["success_rate"] = {
        "value": 1.0 - min(1.0, verdict["failed"] / verdict["attempted"]),
        "n": verdict["attempted"],
    }
    values["top1_agreement"] = {
        "value": verdict["sample"]["top1_agreement"], "n": verdict["sample"]["sampled"],
    }
    values["pruned_accuracy"] = {
        "value": verdict["quality"]["pruned_accuracy"], "n": verdict["quality"]["tenants"],
    }
    return _record(verdict, values, END_TO_END)


# -- the traced run: per-layer metrics --------------------------------------------------


def _traced(workload: Workload, plan, seconds: float, tracer, shm_before) -> Dict:
    from .spans import Forest

    tracer.install_write_path()  # before set-up, so the fleet's personalizations are seen
    caller, _ = set_up(workload, plan)
    start_ms = caller.deployment.start_s * 1e3
    before = caller.deployment.client.stats()
    rounds = [caller.round(seconds / ROUNDS)]  # untraced, for the overhead ratio
    tracer.install_read_path(caller.deployment.client)
    mark = len(tracer.spans)
    rounds.append(caller.round(seconds / ROUNDS))
    gateway_side = None
    if workload.workers == "process":
        # The children's internals cannot be reached from here.  Everything on
        # this side of the pipe is measured now; the shard side is measured on
        # a threaded replica serving the same fleet and the same plan.
        outer = Forest(tracer.spans[mark:])
        gateway_side = _gateway_side(caller, rounds, before)
        caller.deployment.close()
        caller.deployment = deploy(
            workload, caller.deployment.service, caller.deployment.fleet_ids, workers="threaded"
        )
        caller.warm_up()
        mark = len(tracer.spans)
    rounds.append(caller.round(seconds / ROUNDS))
    if gateway_side is None:
        gateway_side = _gateway_side(caller, rounds, before)
    _cold_probe(caller)
    inner = Forest(tracer.spans[mark:])
    if workload.workers != "process":
        outer = inner
    registry = caller.deployment.service.registry
    shapes = layers.from_shapes(registry, caller.deployment.fleet_ids or caller.onboarded)
    leaks = _shutdown(caller, shm_before)  # also sees what the process deployment left
    verdict = _verify(caller, rounds, leaks)

    tail_q = workload.tail_percentile
    untraced_p50, traced_p50 = (r.summary(tail_q)["latency_p50_ms"] for r in rounds[:2])
    measured: Dict[str, float] = {
        **gateway_side,
        **layers.from_read_spans(outer, inner, workload.op),
        **layers.from_write_spans(Forest(tracer.spans)),
        **shapes,
        "shm.publish_ms": start_ms,
        "shm.leaked_segments": float(leaks["leaked_segments"]),
        "serve.first_predict_ms": median_ms(caller.first_predict_s),
        "backend.max_abs_logit_err": verdict["sample"]["max_abs_logit_err"],
        "pruning.achieved_sparsity": verdict["quality"]["achieved_sparsity"],
        "trace.overhead_ratio": traced_p50 / untraced_p50 if untraced_p50 else 0.0,
    }
    record = _record(verdict, {k: {"value": v} for k, v in measured.items()}, PER_LAYER)
    record["spans"] = len(tracer.spans)
    record["layer_shares"] = layers.shares(inner, layers.op_roots(inner, workload.op))
    if outer is not inner:
        record["layer_shares_process"] = layers.shares(outer, layers.op_roots(outer, workload.op))
    return record


def _gateway_side(caller: Caller, rounds: List[Round], before: Dict) -> Dict[str, float]:
    """What is measured against the workload's own deployment, after its last
    round: counter deltas since ``before``, the cost of ``stats()``, the wire codec."""
    deployment = caller.deployment
    after = deployment.client.stats()
    return {
        **layers.from_stats(before, after, sum(len(r.ops) for r in rounds)),
        "metrics.stats_call_ms": _stats_call_ms(deployment.client),
        **layers.from_wire(deployment.gateway, _wire_requests(caller)),
    }


def _cold_probe(caller: Caller) -> None:
    """Evict a few tenants and ask for each once: a cold build plus a forward."""
    deployment = caller.deployment
    for j, model_id in enumerate((deployment.fleet_ids or caller.onboarded)[:COLD_PROBES]):
        deployment.cluster.worker_for(model_id).evict(model_id)
        started = clock()
        deployment.client.predict(model_id, caller.plan.input_of(j), request_id=f"cold{j}")
        caller.first_predict_s.append(clock() - started)


def _stats_call_ms(client) -> float:
    took = []
    for _ in range(STATS_CALLS):
        started = clock()
        client.stats()
        took.append(clock() - started)
    return median_ms(took)


def _wire_requests(caller: Caller) -> List:
    """The plan's first operations again, as raw envelopes for the codec timing."""
    from repro.gateway import ApiRequest
    from repro.serve import PredictRequest

    plan, ids = caller.plan, caller.deployment.fleet_ids

    def predict(k: int, rid: str) -> Dict:
        return PredictRequest(ids[plan.tenant_of(k)], plan.input_of(k), rid).to_dict()

    if caller.workload.op == "predict":
        return [
            ApiRequest("predict", predict(k, f"wire{k}"), request_id=f"wire{k}")
            for k in range(WIRE_SAMPLES)
        ]
    if caller.workload.op == "envelope":
        return [
            ApiRequest("predict_batch", {
                "requests": [predict(k, f"wire{op}.{k}") for k in plan.requests_of(op)]
            })
            for op in range(WIRE_SAMPLES)
        ]
    # Re-personalizing an onboarded user refreshes the same model in place.
    return [
        ApiRequest("personalize", personalize_request(profile).to_dict())
        for profile in plan.new_users[:3]
    ]


# -- the record ---------------------------------------------------------------------------


def _record(verdict: Dict, values: Dict[str, Dict], definitions) -> Dict:
    metrics = {}
    for metric in definitions:
        entry = {"unit": metric.unit, **values[metric.name]}
        entry["value"] = float(entry["value"])
        metrics[metric.name] = entry
    return {
        "correct": verdict["failed"] == 0,
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "failures": verdict["failures"],
        "errors": verdict["errors"],
        "metrics": metrics,
    }


def report(result: Dict, stream=sys.stdout) -> None:
    """Every metric by name with its unit, then the one-line JSON the driver reads."""
    import json

    print(
        f"crispbench {result['workload']} seed={result['seed']} "
        f"{'traced' if result['traced'] else 'untraced'} plan={result['plan_digest'][:12]}",
        file=stream,
    )
    for name, entry in result["metrics"].items():
        extras = "".join(
            f"  {key}={entry[key]:.3g}" if isinstance(entry[key], float) else f"  {key}={entry[key]}"
            for key in ("n", "spread", "beyond")
            if key in entry
        )
        print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}{extras}", file=stream)
    if result["failed"]:
        print(f"  FAILED: {result['failures']} {result['errors']}", file=stream)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in result["metrics"].items()
        },
    }
    print(json.dumps(line), file=stream)
