"""Named pipelines: every experiment of the repository as a content-addressed DAG.

Twelve presets ship with the CLI (``repro pipeline --list-steps``):

* ``standard`` — the tiny five-step prune → encode → register → replay →
  score chain from :mod:`repro.pipeline.steps` (the CI smoke pipeline);
* ``fig1`` ``fig2`` ``fig3`` ``fig4`` ``fig7`` ``fig8`` ``headline`` — the
  paper's figures (:mod:`repro.pipeline.figures`): one setup step per
  pre-trained model, one step per sweep point, one collect step.  Editing a
  point re-runs exactly that point; the pre-trained setup stays cached;
* ``loadgen-sweep`` — one deterministic loadgen scenario per step plus a
  collect step pinning each scenario's outcome counts and predictions
  digest;
* ``autoscale-compare`` — the autoscaled-vs-static evaluation as a DAG:
  pin a scenario plan, replay it through the deterministic fluid simulator
  under the stock autoscaling policy and under a static fleet pinned at the
  same peak capacity, then score shard-seconds saved at (proxy) equal SLO;
* ``lifecycle-compare`` — the tenant-lifecycle evaluation as a DAG: pin a
  class-drift workload, replay it with the lifecycle disabled (static: v1
  serves forever) and enabled (drift-detect → re-prune → canary → promote),
  then score the served-head accuracy recovered at held SLO.

Every preset accepts ``smoke=True``, which shrinks it to seconds for CI.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..records import round6
from .figures import FIGURES
from .step import Pipeline, Step, StepContext
from .steps import standard_chain
from .store import PipelineStore

__all__ = ["PIPELINES", "build_pipeline", "compare_preset", "pipeline_names"]

StepFn = Callable[[StepContext], Dict[str, object]]


# ---------------------------------------------------------------------------
# loadgen-sweep: deterministic scenario payloads as cacheable points
# ---------------------------------------------------------------------------

def loadgen_point(ctx: StepContext) -> Dict[str, object]:
    """Run one fault-free loadgen scenario; output its deterministic payload."""
    from ..experiments.loadgen_cli import LoadgenConfig, run_loadgen

    p = ctx.params
    config = LoadgenConfig(
        scenario=p["scenario"],
        shards=int(p["shards"]),
        tenants=int(p["tenants"]),
        requests=int(p["requests"]),
        seed=int(p["seed"]),
        time_scale=0.0,
    )
    _, payload = run_loadgen(config)
    return payload


def loadgen_collect(ctx: StepContext) -> Dict[str, object]:
    """Pin every scenario's outcome counts + predictions digest in one table."""
    table: Dict[str, object] = {}
    for dep in sorted(ctx.step.deps):
        outcomes = ctx.inputs[dep].get("outcomes", {})
        table[dep] = {
            "requests": outcomes.get("requests"),
            "completed": outcomes.get("completed"),
            "rejected": outcomes.get("rejected"),
            "predictions_digest": outcomes.get("predictions_digest"),
        }
    return {"scenarios": table}


def _loadgen_sweep_steps(smoke: bool = False) -> List[Step]:
    scenarios = ["steady-uniform"] if smoke else ["steady-uniform", "poisson-zipf", "zipf-burst"]
    params = {"shards": 2, "tenants": 4, "requests": 8 if smoke else 24, "seed": 0}
    steps = [
        Step(f"scenario-{name}", loadgen_point, params={"scenario": name, **params})
        for name in scenarios
    ]
    return [*steps, Step("collect", loadgen_collect, deps=tuple(step.name for step in steps))]


# ---------------------------------------------------------------------------
# the *-compare presets: pin a scenario, replay it under two arms, score them
# ---------------------------------------------------------------------------

def compare_preset(
    pin: StepFn,
    pin_params: Dict[str, object],
    replay: StepFn,
    arms: Dict[str, Dict[str, object]],
    score: StepFn,
) -> List[Step]:
    """The DAG every ``*-compare`` preset is: a ``scenario`` step pinning the
    plan, one ``replay`` step per arm (``arms`` maps step name -> params), and
    a ``compare`` step scoring the arms in ``arms`` order."""
    return [
        Step("scenario", pin, params=pin_params),
        *(Step(name, replay, params=params, deps=("scenario",)) for name, params in arms.items()),
        Step("compare", score, deps=tuple(arms)),
    ]


# ---------------------------------------------------------------------------
# autoscale-compare: autoscaled vs static replay of one scenario
# ---------------------------------------------------------------------------

def autoscale_scenario(ctx: StepContext) -> Dict[str, object]:
    """Pin the scenario plan both arms replay (content-addresses the inputs)."""
    from ..loadgen import build_scenario

    p = ctx.params
    scenario = build_scenario(p["scenario"], requests=int(p["requests"]))
    return {
        "scenario": scenario.to_dict(),
        "seed": int(p["seed"]),
        "tick_s": float(p["tick_s"]),
        "service_rate": float(p["service_rate"]),
    }


def autoscale_replay(ctx: StepContext) -> Dict[str, object]:
    """Replay the pinned scenario through the fluid model under one policy.

    ``params["policy"]`` picks the arm: ``"autoscaled"`` runs the stock
    rules between the step's min/max clamps, ``"static"`` pins the fleet at
    ``max_shards`` — the capacity a fixed deployment must provision for the
    same peak.  Both arms are pure functions of the pinned plan, so the
    cache key IS the determinism contract: re-running cannot change bytes.
    """
    from ..autoscale import default_policy, simulate_autoscaler, static_policy

    p = ctx.params
    plan = ctx.inputs[ctx.step.deps[0]]
    if p["policy"] == "static":
        policy = static_policy(int(p["max_shards"]))
    else:
        policy = default_policy(
            min_shards=int(p["min_shards"]), max_shards=int(p["max_shards"])
        )
    return simulate_autoscaler(
        scenario=plan["scenario"]["name"],
        requests=plan["scenario"]["requests"],
        seed=plan["seed"],
        policy=policy,
        tick_s=plan["tick_s"],
        service_rate=plan["service_rate"],
    )


#: What the scorecard keeps of each arm (the autoscaled arm adds its actions).
_ARM_KEYS = ("shard_seconds", "peak_shards", "peak_p99_ms", "drained")


def autoscale_compare(ctx: StepContext) -> Dict[str, object]:
    """Score the two arms: shard-seconds saved at (proxy) equal SLO."""
    auto = ctx.inputs["autoscaled"]
    static = ctx.inputs["static"]
    saved = static["shard_seconds"] - auto["shard_seconds"]
    ratio = saved / static["shard_seconds"] if static["shard_seconds"] else 0.0
    return {
        "scenario": auto["scenario"],
        "autoscaled": {key: auto[key] for key in (*_ARM_KEYS, "actions")},
        "static": {key: static[key] for key in _ARM_KEYS},
        "shard_seconds_saved": round6(saved),
        "savings_ratio": round6(ratio),
        "autoscaler_wins": bool(
            auto["drained"]
            and static["drained"]
            and auto["shard_seconds"] < static["shard_seconds"]
        ),
    }


def _autoscale_compare_steps(smoke: bool = False) -> List[Step]:
    max_shards = 6
    return compare_preset(
        autoscale_scenario,
        {
            "scenario": "diurnal-ramp",
            "requests": 160 if smoke else 512,
            "seed": 0,
            "tick_s": 0.02 if smoke else 0.01,
            "service_rate": 400.0,
        },
        autoscale_replay,
        {
            "autoscaled": {"policy": "autoscaled", "min_shards": 2, "max_shards": max_shards},
            "static": {"policy": "static", "max_shards": max_shards},
        },
        autoscale_compare,
    )


# ---------------------------------------------------------------------------
# lifecycle-compare: static vs lifecycle-managed replay of one drift workload
# ---------------------------------------------------------------------------

def lifecycle_scenario(ctx: StepContext) -> Dict[str, object]:
    """Pin the drift workload both arms replay (plan digest included)."""
    from ..loadgen import build_scenario

    p = ctx.params
    scenario = build_scenario(p["scenario"], requests=int(p["requests"]))
    return {
        "scenario": scenario.to_dict(),
        "name": p["scenario"],
        "requests": int(p["requests"]),
        "tenants": int(p["tenants"]),
        "seed": int(p["seed"]),
    }


def lifecycle_replay(ctx: StepContext) -> Dict[str, object]:
    """Replay the pinned drift workload with the lifecycle on or off.

    ``params["lifecycle"]`` picks the arm: ``False`` is the static fleet
    (v1 serves forever — what PRs 1–9 did), ``True`` runs the full
    drift-detect → re-prune → canary → promote loop.  Both arms are pure
    functions of the pinned plan, so the content-addressed cache key IS
    the determinism contract: a re-run cannot change a byte.
    """
    from ..lifecycle import run_lifecycle_replay

    p = ctx.params
    plan = ctx.inputs[ctx.step.deps[0]]
    return run_lifecycle_replay(
        scenario=plan["name"],
        tenants=plan["tenants"],
        requests=plan["requests"],
        seed=plan["seed"],
        lifecycle=bool(p["lifecycle"]),
    )


def lifecycle_compare_step(ctx: StepContext) -> Dict[str, object]:
    """Score the arms: accuracy recovered at held SLO, plus the audit trail."""
    from ..lifecycle import score_lifecycle

    managed = ctx.inputs["managed"]
    return {
        "scenario": managed["scenario"],
        "requests": managed["requests"],
        **score_lifecycle(ctx.inputs["static"], managed),
        "states_seen": sorted({t["to_state"] for t in managed["audit"]}),
    }


def _lifecycle_compare_steps(smoke: bool = False) -> List[Step]:
    return compare_preset(
        lifecycle_scenario,
        {"scenario": "drift-step", "requests": 128 if smoke else 192, "tenants": 4, "seed": 0},
        lifecycle_replay,
        {"static": {"lifecycle": False}, "managed": {"lifecycle": True}},
        lifecycle_compare_step,
    )


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

def _standard_steps(smoke: bool = False) -> List[Step]:
    if smoke:
        return standard_chain(tenants=2, rounds=1, batch=1)
    return standard_chain()


#: Preset name -> step-list builder (``smoke`` shrinks it for CI).
PIPELINES: Dict[str, Callable[..., List[Step]]] = {
    "standard": _standard_steps,
    **FIGURES,
    "loadgen-sweep": _loadgen_sweep_steps,
    "autoscale-compare": _autoscale_compare_steps,
    "lifecycle-compare": _lifecycle_compare_steps,
}


def pipeline_names() -> List[str]:
    return sorted(PIPELINES)


def build_pipeline(
    name: str, store: Optional[PipelineStore], smoke: bool = False
) -> Pipeline:
    """Materialize a named preset over ``store`` (``None``: inspect only)."""
    if name not in PIPELINES:
        raise KeyError(f"unknown pipeline {name!r}; available: {pipeline_names()}")
    return Pipeline(PIPELINES[name](smoke=smoke), store)
