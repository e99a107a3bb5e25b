"""CLI ``loadgen``: run a traffic scenario against the serving runtime.

The experiments CLI's window into :mod:`repro.loadgen`: build a synthetic
tenant fleet, synthesize a named scenario, replay it through a
:class:`~repro.cluster.ClusterService` with ``--shards`` workers, and print
the :class:`~repro.loadgen.report.SLOReport`.

JSON output is split along the determinism line:

* ``--json [PATH]`` (default: stdout) emits the *deterministic* payload —
  scenario, plan digest, planned distribution and (for fault-free
  scenarios) outcome counts + predictions digest.  Two runs of
  ``loadgen --scenario zipf-burst --shards 4 --seed 0 --json`` produce
  byte-identical output; CI diffs them to enforce it.
* ``--measure`` adds the wall-clock ``slo`` block (latency percentiles,
  goodput, cluster merged p99) to the JSON — honest numbers that naturally
  differ between runs.  The human-readable report on stderr-free stdout
  always shows them.
"""

from __future__ import annotations

import json
import sys
from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..cluster import ClusterConfig, ClusterService
from ..gateway import (
    ClusterBackend,
    Gateway,
    GatewayClient,
    LoopbackTransport,
    serve_http,
)
from ..loadgen import (
    SCENARIOS,
    DriverConfig,
    LoadDriver,
    SLOReport,
    build_scenario,
    synthetic_fleet,
)
from ..metrics import (
    EventLog,
    MetricsRegistry,
    SLOMonitor,
    TelemetryPoller,
    default_rules,
    set_event_log,
)
from ..records import json_line, write_jsonl

__all__ = ["LoadgenConfig", "run_loadgen", "print_loadgen", "TRANSPORTS"]

#: --smoke shrinks every scenario to this many requests.
SMOKE_REQUESTS = 16

#: How the driver reaches the serving runtime:
#: * ``local`` — Serving API v2 in process (ClusterBackend; async futures);
#: * ``loopback`` — GatewayClient through the full JSON wire, in process;
#: * ``http`` — GatewayClient over a real socket (ephemeral
#:   ThreadingHTTPServer booted for the run);
#: * ``direct`` — deprecated alias: the raw ClusterService is handed to the
#:   driver, which auto-adapts it onto the same ClusterBackend ``local``
#:   builds explicitly (the old entry point, one shim away from the new).
TRANSPORTS = ("local", "loopback", "http", "direct")


@dataclass
class LoadgenConfig:
    """Knobs of one CLI loadgen run."""

    scenario: str = "steady-uniform"
    shards: int = 1
    workers: str = "threaded"  #: cluster worker kind (see repro.cluster.WORKER_KINDS)
    tenants: int = 8
    requests: Optional[int] = None  #: None -> the preset's default
    seed: int = 0
    cache_capacity: int = 2
    time_scale: float = 1.0
    backend: str = "fast"  #: compute backend the tenant engines pin
    transport: str = "local"  #: see TRANSPORTS
    smoke: bool = False
    trace: bool = False  #: record per-request hop spans into the SLO report
    monitor: bool = False  #: attach TelemetryPoller + EventLog + SLOMonitor
    autoscale: bool = False  #: close the loop: Autoscaler on the poller (implies monitor)
    max_shards: Optional[int] = None  #: autoscale ceiling (default: shards * 4)
    poll_interval_s: float = 0.05  #: metrics sampling interval (monitor runs)
    alert_p99_ms: float = 250.0  #: p99-over-threshold rule (monitor runs)
    alert_burn_rate: float = 0.05  #: rejection-burn-rate rule (monitor runs)
    alert_queue_depth: float = 64.0  #: queue-depth-sustained rule (monitor runs)

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; available: {sorted(SCENARIOS)}"
            )
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; available: {TRANSPORTS}"
            )
        from ..cluster import WORKER_KINDS

        if self.workers not in WORKER_KINDS:
            raise ValueError(
                f"unknown worker kind {self.workers!r}; available: {WORKER_KINDS}"
            )
        for name in ("shards", "tenants", "cache_capacity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.requests is not None and self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.time_scale < 0:
            raise ValueError(f"time_scale must be >= 0, got {self.time_scale}")
        if self.poll_interval_s <= 0:
            raise ValueError(
                f"poll_interval_s must be > 0, got {self.poll_interval_s}"
            )
        if self.smoke and self.requests is None:
            self.requests = SMOKE_REQUESTS
        if self.autoscale:
            # The control loop rides the telemetry plane: no poller, no loop.
            self.monitor = True
            if self.max_shards is None:
                self.max_shards = self.shards * 4
        if self.max_shards is not None and self.max_shards < self.shards:
            raise ValueError(
                f"max_shards must be >= shards, got "
                f"{self.max_shards} < {self.shards}"
            )
        # A one-shard fleet has nothing to fail over to: shard-kill chaos
        # needs at least two shards to demonstrate heal/reroute.
        faults = SCENARIOS[self.scenario]().faults
        actions = {f.action for f in faults}
        if self.shards < 2 and "kill_shard" in actions:
            raise ValueError(
                f"scenario {self.scenario!r} kills a shard; run it with --shards >= 2"
            )
        # The gateway client transports are synchronous; fault schedules need
        # the async cluster target to race faults against in-flight futures.
        if faults and self.transport in ("loopback", "http"):
            raise ValueError(
                f"chaos scenario {self.scenario!r} needs an async cluster "
                "target; use --transport local (or direct)"
            )
        if self.trace:
            if faults:
                # The two modes need incompatible transports: hop tracing
                # wants the gateway-fronted wire, chaos wants raw futures.
                raise ValueError(
                    f"--trace cannot run chaos scenario {self.scenario!r}; "
                    "trace a fault-free scenario instead"
                )
            if self.transport in ("local", "direct"):
                # Hop decomposition covers gateway → middleware → frontend →
                # shard → engine, so a traced run must cross the gateway.
                self.transport = "loopback"


def run_loadgen(config: LoadgenConfig) -> Tuple[SLOReport, Dict[str, object]]:
    """Run one scenario; returns (report, deterministic JSON payload).

    The cluster's queue bound is sized to the whole workload so fault-free
    scenarios never shed load for capacity reasons — that is what keeps
    their outcome counts deterministic.  Scenarios that exist to exercise
    admission control (e.g. ``slow-shard``) declare their own ``high_water``
    and genuinely reject under backlog, by design.

    The replay reaches the cluster through ``config.transport``: the
    Serving API v2 backend in process (``local``), a ``GatewayClient`` over
    the loopback wire or a real HTTP socket, or the deprecated raw-facade
    path (``direct``).  Outcome counts and the predictions digest are
    transport-invariant by construction; the plan's ``per_shard`` view is
    not — a wire client sees one opaque endpoint, so it reports the whole
    plan under shard "0" while in-process targets report true placement.
    Byte-compare artifacts per transport (as CI does for loopback vs HTTP),
    or compare digests across transports.
    """
    scenario = build_scenario(config.scenario, requests=config.requests)
    registry, model_ids = synthetic_fleet(
        tenants=config.tenants, seed=config.seed, backend=config.backend
    )
    workload = scenario.synthesize(model_ids, seed=config.seed)
    max_pending = max(256, len(workload))
    cluster_config = ClusterConfig(
        shards=config.shards,
        workers=config.workers,
        cache_capacity=config.cache_capacity,
        max_pending=max_pending,
        # Scenarios built to trip admission control carry their own
        # threshold; everything else gets an effectively unbounded queue so
        # deterministic scenarios never shed load for capacity reasons.
        high_water=min(scenario.high_water or max_pending, max_pending),
    )
    driver_config = DriverConfig(time_scale=config.time_scale)
    from .. import trace as _trace

    if config.trace:
        # Fresh per-hop aggregator for this run's stats/SLO surfaces.
        _trace.reset_aggregator()
    with _trace.tracing(config.trace) if config.trace else _nullcontext():
        with ClusterService(cluster_config, registry=registry) as cluster:
            poller = previous_log = scaler = None
            if config.monitor:
                # The continuous observability plane, attached for the run:
                # lifecycle events into a fresh process-wide log, the
                # cluster's unified stats sampled into ring-buffer series,
                # and the stock SLO rules evaluated on every sample.  The
                # poller watches the *cluster* regardless of transport — the
                # common denominator every front door serves from.
                events = EventLog()
                previous_log = set_event_log(events)
                monitor = SLOMonitor(
                    MetricsRegistry(),
                    default_rules(
                        p99_ms=config.alert_p99_ms,
                        burn_ratio=config.alert_burn_rate,
                        queue_depth=config.alert_queue_depth,
                    ),
                    event_log=events,
                )
                poller = TelemetryPoller(
                    cluster,
                    monitor.registry,
                    interval_s=config.poll_interval_s,
                    monitor=monitor,
                )
                if config.autoscale:
                    # Close the loop before the first sample: the Autoscaler
                    # ticks on every poll (rule path) and on every alert
                    # transition (SLOMonitor hand-off), actuating the live
                    # cluster's add_shard / graceful remove_shard.
                    from ..autoscale import Autoscaler, default_policy

                    scaler = Autoscaler(
                        cluster,
                        default_policy(
                            min_shards=config.shards,
                            max_shards=config.max_shards,
                        ),
                    )
                    scaler.attach(poller)
                    scaler.wire(monitor)
                poller.start()
            try:
                if config.transport == "direct":
                    report = LoadDriver(cluster, driver_config).run(workload)
                elif config.transport == "local":
                    report = LoadDriver(ClusterBackend(cluster), driver_config).run(workload)
                else:
                    gateway = Gateway(ClusterBackend(cluster))
                    if config.transport == "loopback":
                        client = GatewayClient(LoopbackTransport(gateway))
                        report = LoadDriver(client, driver_config).run(workload)
                    else:  # http: a real socket on an ephemeral port
                        with serve_http(gateway) as server:
                            with GatewayClient(server.transport()) as client:
                                report = LoadDriver(client, driver_config).run(workload)
            finally:
                if poller is not None:
                    # The final sample folds the run's tail window in, so a
                    # replay shorter than one poll interval still lands its
                    # whole story (and gets one post-run rule evaluation).
                    poller.stop(final_sample=True)
                    set_event_log(previous_log)
            if poller is not None:
                report.metrics_summary = {
                    "samples": poller.samples,
                    "events": len(events),
                    "event_counts": events.counts(),
                    "series": monitor.registry.summary(),
                    "alerts": [alert.to_dict() for alert in monitor.alerts],
                    "alerts_fired": monitor.fired,
                }
                # The full artifacts (ring buffers, event ring, rule state)
                # for --metrics-json / --events-jsonl and the monitor CLI.
                report.monitor_artifacts = {
                    "metrics": monitor.registry.to_dict(),
                    "exposition": monitor.registry.render(),
                    "events": [event.to_dict() for event in events.events()],
                    "monitor": monitor.to_dict(),
                }
            if scaler is not None:
                # Snapshot the control loop while the cluster is still open:
                # decisions, fleet history and the shard-seconds integral the
                # autoscaled-vs-static comparison scores on.
                report.autoscale_summary = {
                    **scaler.to_dict(),
                    "shard_seconds": round(scaler.shard_seconds(), 6),
                }
    return report, report.to_dict(timing=False)


def print_loadgen(
    config: LoadgenConfig,
    json_target: Optional[str] = None,
    measure: bool = False,
    metrics_json: Optional[str] = None,
    events_jsonl: Optional[str] = None,
    decisions_jsonl: Optional[str] = None,
) -> SLOReport:
    """Run, print the human report, and optionally emit/persist JSON.

    ``json_target``: ``None`` (no JSON), ``"-"`` (stdout), or a path.
    With ``measure`` the JSON gains the wall-clock ``slo`` block.
    ``metrics_json`` / ``events_jsonl`` persist a monitored run's full
    time-series dump and event log (they imply ``--monitor`` upstream);
    ``decisions_jsonl`` persists an autoscaled run's decision log, one
    sorted-keys JSON line per verdict.
    """
    report, payload = run_loadgen(config)
    if measure:
        payload = report.to_dict(timing=True)
    serialized = json.dumps(payload, indent=2, sort_keys=True)
    if json_target == "-":
        # JSON-only stdout so the output can be diffed/piped byte-for-byte.
        sys.stdout.write(serialized + "\n")
    else:
        print(report.render())
        if json_target is not None:
            with open(json_target, "w") as fh:
                fh.write(serialized + "\n")
            print(f"wrote {json_target}")
    artifacts = getattr(report, "monitor_artifacts", None)
    if metrics_json is not None and artifacts is not None:
        dump = {
            "metrics": artifacts["metrics"],
            "monitor": artifacts["monitor"],
        }
        with open(metrics_json, "w") as fh:
            fh.write(json.dumps(dump, indent=2, sort_keys=True) + "\n")
        if json_target != "-":
            print(f"wrote {metrics_json}")
    if events_jsonl is not None and artifacts is not None:
        write_jsonl(events_jsonl, map(json_line, artifacts["events"]))
        if json_target != "-":
            print(f"wrote {events_jsonl}")
    summary = getattr(report, "autoscale_summary", None)
    if decisions_jsonl is not None and summary is not None:
        write_jsonl(decisions_jsonl, map(json_line, summary["decisions"]))
        if json_target != "-":
            print(f"wrote {decisions_jsonl}")
    return report
