"""Scenario workload generation + fault injection for the serving runtime.

The serving stack (:mod:`repro.serve` single-process,
:mod:`repro.cluster` sharded) is only as credible as the traffic it has
survived.  This package is the benchmark-and-evaluation layer that
generates that traffic — deterministic, seedable, adversarial — and scores
the runtime's behaviour under it:

* :mod:`repro.loadgen.arrivals` — arrival processes (constant-rate,
  Poisson, bursty on/off, diurnal ramp, closed-loop);
* :mod:`repro.loadgen.popularity` — tenant-popularity models (uniform,
  Zipf-skewed, hot-set churn, class drift);
* :mod:`repro.loadgen.scenario` — named :class:`Scenario` presets composing
  the two, plus scheduled :class:`FaultEvent` chaos, synthesized into
  replayable :class:`Workload` plans;
* :mod:`repro.loadgen.driver` — :class:`LoadDriver`: one loop that paces
  (or windows) a workload into any :class:`~repro.serve.api.ServingAPI` or
  gateway client through its ``submit`` futures, fires the scheduled faults
  between submissions and scores every outcome by one rule (a refusal or a
  quota is *rejected*, any other error *failed*);
* :mod:`repro.loadgen.report` — :class:`SLOReport`: p50/p95/p99 latency,
  goodput, rejection rate, per-shard imbalance, cluster merged percentiles;
* :mod:`repro.loadgen.faults` — :class:`FaultInjector`: kill/slow a shard,
  poison an engine-cache entry, heal — the executable chaos layer;
* :mod:`repro.loadgen.fleet` — cheap deterministic tenant fleets.

Deterministic-seed contract: a workload is a pure function of
``(scenario, model_ids, seed)`` — arrival offsets, tenant sequence, inputs
and fault schedule are bit-stable across runs and machines
(:meth:`Workload.digest` proves it), and for fault-free scenarios so are
the outcome counts and the predictions digest.  Only wall-clock latency
measurements vary; the report keeps them in a separate ``slo`` block.

Quickstart::

    from repro.cluster import ClusterConfig, ClusterService
    from repro.loadgen import LoadDriver, build_scenario, synthetic_fleet

    registry, model_ids = synthetic_fleet(tenants=8, seed=0)
    scenario = build_scenario("zipf-burst")
    workload = scenario.synthesize(model_ids, seed=0)
    with ClusterService(ClusterConfig(shards=4), registry=registry) as cluster:
        report = LoadDriver(cluster).run(workload)
    print(report.render())            # p50/p95/p99, goodput, 503s, imbalance
    payload = report.to_dict()        # JSON-ready; timing=False -> byte-stable
"""

from .arrivals import (
    ARRIVALS,
    ArrivalProcess,
    BurstyOnOff,
    ClosedLoop,
    ConstantRate,
    DiurnalRamp,
    PoissonArrivals,
)
from .driver import LoadDriver
from .faults import FaultInjector, PoisonedEngine, PoisonedEngineError
from .fleet import FLEET_INPUT_SHAPE, synthetic_fleet
from .popularity import (
    POPULARITIES,
    ClassDriftPopularity,
    HotSetChurn,
    PopularityModel,
    UniformPopularity,
    ZipfPopularity,
)
from .report import RequestOutcome, SLOReport
from .scenario import (
    FAULT_ACTIONS,
    SCENARIOS,
    FaultEvent,
    Scenario,
    ScheduledRequest,
    Workload,
    build_scenario,
)

__all__ = [
    "ArrivalProcess",
    "ConstantRate",
    "PoissonArrivals",
    "BurstyOnOff",
    "DiurnalRamp",
    "ClosedLoop",
    "ARRIVALS",
    "PopularityModel",
    "UniformPopularity",
    "ZipfPopularity",
    "HotSetChurn",
    "ClassDriftPopularity",
    "POPULARITIES",
    "Scenario",
    "ScheduledRequest",
    "Workload",
    "FaultEvent",
    "FAULT_ACTIONS",
    "SCENARIOS",
    "build_scenario",
    "LoadDriver",
    "SLOReport",
    "RequestOutcome",
    "FaultInjector",
    "PoisonedEngine",
    "PoisonedEngineError",
    "synthetic_fleet",
    "FLEET_INPUT_SHAPE",
]
