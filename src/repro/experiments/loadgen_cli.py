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
  byte-identical output
  (``tests/test_loadgen.py::TestLoadgenCLI::test_json_stdout_is_byte_stable``).
* ``--measure`` adds the wall-clock ``slo`` block (latency percentiles,
  goodput, cluster merged p99) to the JSON — honest numbers that naturally
  differ between runs.  The human-readable report on stderr-free stdout
  always shows them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..cluster import WORKER_KINDS, ClusterConfig, ClusterService
from ..gateway import Gateway, GatewayClient, LoopbackTransport, serve_http
from ..loadgen import (
    SCENARIOS,
    LoadDriver,
    SLOReport,
    build_scenario,
    synthetic_fleet,
)
from ..metrics import (
    Event,
    EventLog,
    MetricsRegistry,
    SLOMonitor,
    TelemetryPoller,
    default_rules,
    set_event_log,
)
from .common import emit_json, flag

__all__ = ["LoadgenConfig", "run_loadgen", "print_loadgen", "TRANSPORTS"]

#: --smoke shrinks every scenario to this many requests.
SMOKE_REQUESTS = 16

#: How the driver reaches the serving runtime:
#: * ``local`` — Serving API v2 in process (the ClusterService; async futures);
#: * ``loopback`` — GatewayClient through the full JSON wire, in process;
#: * ``http`` — GatewayClient over a real socket (ephemeral
#:   ThreadingHTTPServer booted for the run).
TRANSPORTS = ("local", "loopback", "http")


@dataclass
class LoadgenConfig:
    """Knobs of one CLI loadgen run; each flagged field is its CLI option."""

    scenario: str = flag(
        "--scenario", default="steady-uniform",
        help="named traffic scenario preset (see `loadgen --list-scenarios`; "
        "default: steady-uniform, for lifecycle drift-step)",
    )
    shards: int = flag("--shards", default=1)
    workers: str = flag("--workers", default="threaded")
    tenants: int = flag(
        "--loadgen-tenants", default=8, metavar="N",
        help="synthetic tenant fleet size (default: 8, for lifecycle 4)",
    )
    requests: Optional[int] = flag(
        "--loadgen-requests", metavar="N",
        help="override the scenario's request count (fault schedules rescale)",
    )  #: None -> the preset's default
    seed: int = flag(
        "--seed", default=0,
        help="workload seed: same (scenario, tenants, seed) -> same plan, "
        "bit for bit (default: 0)",
    )
    cache_capacity: int = flag("--serve-capacity", default=2)
    time_scale: float = flag(
        "--time-scale", default=1.0,
        help="virtual->wall pacing multiplier; 0 replays as fast as possible "
        "(default: 1.0)",
    )
    backend: str = flag(
        "--backend", default="fast", choices=("reference", "fast"),
        help="EngineSpec.backend of the tenant engines loadgen / monitor build "
        "(default: fast).  Figure commands accept and ignore it: training and "
        "pruning have one implementation",
    )
    transport: str = flag(
        "--transport", default="local", choices=TRANSPORTS,
        help="how the replay reaches the runtime: Serving API v2 in process "
        "(local), GatewayClient over the JSON loopback wire, or GatewayClient "
        "over a real HTTP socket on an ephemeral port; default: local",
    )
    smoke: bool = flag(
        "--smoke", default=False,
        help=f"shrink the scenario to {SMOKE_REQUESTS} requests "
        "(fast CI sanity run; 'pipeline' also honours it)",
    )
    trace: bool = flag(
        "--trace", default=False,
        help="record per-request hop spans (gateway/middleware/frontend/"
        "shard/engine) into the SLO report; forces a gateway transport",
    )
    monitor: bool = flag(
        "--monitor", default=False,
        help="attach the metrics plane (TelemetryPoller + EventLog + "
        "SLOMonitor) to the loadgen run; the report gains a metrics line "
        "and --measure JSON a slo.metrics block",
    )
    autoscale: bool = flag(
        "--autoscale", default=False,
        help="close the control loop: attach an Autoscaler to the telemetry "
        "poller (implies --monitor); --shards is the floor, --max-shards "
        "the ceiling; the report gains an autoscale line and --measure "
        "JSON a slo.autoscale block",
    )
    max_shards: Optional[int] = flag(
        "--max-shards", metavar="N",
        help="autoscale shard ceiling (default: shards * 4)",
    )
    poll_interval_s: float = flag(
        "--poll-interval", default=0.05, metavar="SECONDS",
        help="metrics sampling interval (default: 0.05)",
    )
    alert_p99_ms: float = flag(
        "--alert-p99-ms", default=250.0, metavar="MS",
        help="p99-over-threshold alert rule threshold (default: 250)",
    )
    alert_burn_rate: float = flag(
        "--alert-burn-rate", default=0.05, metavar="RATIO",
        help="rejection/failure burn-rate alert threshold (default: 0.05)",
    )
    alert_queue_depth: float = flag(
        "--alert-queue-depth", default=64.0, metavar="N",
        help="queue-depth-sustained alert threshold (default: 64)",
    )
    json: Optional[str] = flag(
        "--json", nargs="?", const="-", metavar="PATH",
        help="emit the report as JSON to PATH (or stdout when no PATH); "
        "without --measure the payload is deterministic and byte-stable "
        "across runs of the same scenario/seed",
    )
    measure: bool = flag(
        "--measure", default=False,
        help="include the wall-clock SLO block (latency percentiles, goodput, "
        "cluster merged p99) in the JSON payload",
    )
    metrics_json: Optional[str] = flag(
        "--metrics-json", metavar="PATH",
        help="write the monitored run's full time-series + alert dump to "
        "PATH (implies --monitor for loadgen; also honoured by 'monitor')",
    )
    events_jsonl: Optional[str] = flag(
        "--events-jsonl", metavar="PATH",
        help="write the monitored run's structured event log to PATH, one "
        "JSON object per line (implies --monitor)",
    )
    decisions_jsonl: Optional[str] = flag(
        "--decisions-jsonl", metavar="PATH",
        help="write the autoscaled run's decision log to PATH, one JSON "
        "object per line (implies --autoscale)",
    )

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"unknown scenario {self.scenario!r}; available: {sorted(SCENARIOS)}"
            )
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; available: {TRANSPORTS}"
            )
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
        # A dump only makes sense on a run that produces it, so each implies
        # its plane rather than silently writing nothing.
        if self.metrics_json or self.events_jsonl:
            self.monitor = True
        if self.decisions_jsonl:
            self.autoscale = True
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
        # The fault injector kills, slows and poisons the cluster's shards
        # through its handle, which a gateway client does not have.
        if faults and self.transport in ("loopback", "http"):
            raise ValueError(
                f"chaos scenario {self.scenario!r} needs the cluster itself "
                "as the target; use --transport local"
            )
        if self.trace:
            if faults:
                # The two modes need incompatible transports: hop tracing
                # wants the gateway-fronted wire, chaos wants raw futures.
                raise ValueError(
                    f"--trace cannot run chaos scenario {self.scenario!r}; "
                    "trace a fault-free scenario instead"
                )
            if self.transport == "local":
                # Hop decomposition covers gateway → middleware → frontend →
                # shard → engine, so a traced run must cross the gateway.
                self.transport = "loopback"

    def alert_rules(self) -> list:
        """The stock SLO alert rules at this run's thresholds."""
        return default_rules(
            p99_ms=self.alert_p99_ms,
            burn_ratio=self.alert_burn_rate,
            queue_depth=self.alert_queue_depth,
        )


def run_loadgen(
    config: LoadgenConfig, on_event: Optional[Callable[[Event], None]] = None
) -> Tuple[SLOReport, Dict[str, object]]:
    """Run one scenario; returns (report, deterministic JSON payload).

    ``on_event`` subscribes to a monitored run's event log: it sees each
    lifecycle event and alert transition as it is appended.

    The cluster's queue bound is sized to the whole workload so fault-free
    scenarios never shed load for capacity reasons — that is what keeps
    their outcome counts deterministic.  Scenarios that exist to exercise
    admission control (e.g. ``slow-shard``) declare their own ``high_water``
    and genuinely reject under backlog, by design.

    The replay reaches the cluster through ``config.transport``: the
    Serving API v2 backend in process (``local``) or a ``GatewayClient`` over
    the loopback wire or a real HTTP socket.  Outcome counts and the
    predictions digest are transport-invariant by construction; the plan's
    ``per_shard`` view is not — a wire client sees one opaque endpoint, so it reports the whole
    plan under shard "0" while in-process targets report true placement.
    Byte-compare artifacts per transport, or compare the ``outcomes`` block
    across transports (``tests/test_cli_gates.py`` does, for every
    fault-free scenario).
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
    from .. import trace as _trace

    if config.trace:
        # Fresh per-hop aggregator for this run's stats/SLO surfaces.
        _trace.reset_aggregator()
    with _trace.tracing(config.trace):
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
                if on_event is not None:
                    events.subscribe(on_event)
                previous_log = set_event_log(events)
                monitor = SLOMonitor(
                    MetricsRegistry(),
                    config.alert_rules(),
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
                if config.transport == "local":
                    report = LoadDriver(cluster, config.time_scale).run(workload)
                else:
                    gateway = Gateway(cluster)
                    if config.transport == "loopback":
                        client = GatewayClient(LoopbackTransport(gateway))
                        report = LoadDriver(client, config.time_scale).run(workload)
                    else:  # http: a real socket on an ephemeral port
                        with serve_http(gateway) as server:
                            with GatewayClient(server.transport()) as client:
                                report = LoadDriver(client, config.time_scale).run(workload)
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


def print_loadgen(config: LoadgenConfig) -> SLOReport:
    """Run, print the human report, and emit the JSON targets the config names.

    ``config.json`` of ``"-"`` replaces the report with the JSON on stdout;
    with ``measure`` the JSON gains the wall-clock ``slo`` block.  The
    monitored and autoscaled runs' dumps go to their own paths.
    """
    report, payload = run_loadgen(config)
    if config.measure:
        payload = report.to_dict(timing=True)
    if config.json != "-":
        print(report.render())
    emit_json(payload, config.json)
    artifacts = getattr(report, "monitor_artifacts", None)
    if artifacts is not None:
        emit_json(
            {"metrics": artifacts["metrics"], "monitor": artifacts["monitor"]},
            config.metrics_json,
        )
        emit_json(artifacts["events"], config.events_jsonl)
    if report.autoscale_summary is not None:
        emit_json(report.autoscale_summary["decisions"], config.decisions_jsonl)
    return report
