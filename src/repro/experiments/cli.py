"""Command-line entry point: figure regeneration and the serving demo.

Installed as the ``repro-experiments`` console script; also runnable as
``python -m repro.experiments``.  Usage::

    python -m repro.experiments fig1          # accuracy vs N:M ratio
    python -m repro.experiments fig4 fig8     # several figures in one go
    python -m repro.experiments all           # every figure
    python -m repro.experiments --list        # available experiment names
    python -m repro.experiments serve         # multi-tenant serving replay
    python -m repro.experiments serve --serve-users 3 --serve-requests 24
    python -m repro.experiments serve --shards 4 --workers threaded \
        --stats-json serve_stats.json         # sharded cluster replay
    python -m repro.experiments loadgen --scenario zipf-burst --shards 4 \
        --seed 0 --json                       # deterministic scenario replay
    python -m repro.experiments --backend reference loadgen --smoke
                                              # tenant engines' backend (figures ignore it)
    python -m repro.experiments loadgen --scenario shard-failure --shards 3 \
        --measure --json slo.json             # chaos run + measured SLOReport
    python -m repro.experiments loadgen --scenario steady-uniform --shards 2 \
        --transport http --json               # replay over a real HTTP socket
    python -m repro.experiments loadgen --scenario shard-failure --shards 2 \
        --monitor --metrics-json metrics.json --events-jsonl events.jsonl
    python -m repro.experiments loadgen --scenario diurnal-ramp --shards 2 \
        --autoscale --max-shards 4 --measure \
        --decisions-jsonl decisions.jsonl     # closed-loop autoscaled replay
    python -m repro.experiments monitor --scenario shard-failure --shards 2 \
        --watch                               # stream chaos events + alerts
    python -m repro.experiments monitor --url http://127.0.0.1:8080 \
        --ticks 10 --json -                   # scrape a live gateway's /statsz

Each experiment prints the same rows/series the corresponding paper figure
reports (at the reduced scale documented in EXPERIMENTS.md).  ``serve``
personalizes several users through :mod:`repro.serve` and replays a mixed
request stream per-request vs micro-batched; with ``--shards N`` the same
stream also replays through the :mod:`repro.cluster` sharded runtime and the
per-shard telemetry (latency percentiles, queue depth, batch sizes) is
printed and optionally persisted with ``--stats-json``.  ``loadgen`` drives
a named :mod:`repro.loadgen` traffic scenario (arrival process × tenant
popularity × optional fault schedule) against the sharded runtime and
reports the SLO scorecard; see the EXPERIMENTS.md scenario cookbook.
"""

from __future__ import annotations

import argparse
from typing import Callable, Dict, List, Sequence

from .common import format_table
from .fig1_nm_ratios import run_fig1
from .fig2_layerwise import run_fig2
from .fig3_crisp_vs_block import run_fig3
from .fig4_metadata import aggregate_overheads, run_fig4
from .fig7_class_sweep import run_fig7
from .fig8_hardware import aggregate_fig8, run_fig8
from .headline import run_headline
from .lifecycle_cli import LifecycleCliConfig, print_lifecycle
from .loadgen_cli import SMOKE_REQUESTS as LOADGEN_SMOKE_REQUESTS
from .loadgen_cli import LoadgenConfig, print_loadgen
from .monitor_cli import MonitorConfig, print_monitor
from .pipeline_cli import PipelineCliConfig, list_pipeline_steps, print_pipeline
from .serve_demo import ServeDemoConfig, print_serve_demo

__all__ = ["EXPERIMENTS", "run_experiment", "main"]


def _print_fig4() -> None:
    rows = run_fig4()
    print(format_table(rows))
    print("\naverage metadata overhead vs CRISP:")
    for fmt, ratio in sorted(aggregate_overheads(rows).items()):
        print(f"  {fmt:>16}: {ratio:5.2f}x")


def _print_fig8() -> None:
    rows = run_fig8()
    print(format_table(aggregate_fig8(rows)))


def _print_headline() -> None:
    for key, value in run_headline().items():
        print(f"{key:>24}: {value:.3f}")


def _table_printer(runner: Callable[[], List[dict]]) -> Callable[[], None]:
    def _print() -> None:
        print(format_table(runner()))

    return _print


#: Experiment name -> zero-argument callable that runs it and prints its table.
EXPERIMENTS: Dict[str, Callable[[], None]] = {
    "fig1": _table_printer(run_fig1),
    "fig2": _table_printer(run_fig2),
    "fig3": _table_printer(run_fig3),
    "fig4": _print_fig4,
    "fig7": _table_printer(run_fig7),
    "fig8": _print_fig8,
    "headline": _print_headline,
}

#: Every runnable command: the figure experiments plus the serving demo, the
#: scenario load generator, the metrics-plane monitor, the experiment
#: pipeline runner, and the tenant-lifecycle replay (all need CLI flags, so
#: they are dispatched outside the EXPERIMENTS map).
ALL_COMMANDS = sorted(
    [*EXPERIMENTS, "serve", "loadgen", "monitor", "pipeline", "lifecycle"]
)


def _write_stats_json(path: str, report: Dict) -> None:
    """Persist the serve replay's telemetry (``--stats-json``).

    Keeps the machine-readable surface: timings, the single-process service
    counters, and — when the replay ran sharded — the full cluster stats
    (per-shard latency percentiles, queue depths, batch distribution).
    """
    import json

    payload = {
        "timings": report["timings"],
        "stats": report["stats"],
        "gateway": report.get("gateway"),
        "cluster": report.get("cluster"),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"wrote {path}")


def run_experiment(name: str) -> None:
    """Run one named experiment and print its reproduced table."""
    if name not in EXPERIMENTS:
        raise KeyError(f"Unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    print(f"\n===== {name} =====")
    EXPERIMENTS[name]()


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the CRISP paper's evaluation figures at reduced scale.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment names (fig1 fig2 fig3 fig4 fig7 fig8 headline), "
        "'serve' (multi-tenant serving replay), or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    parser.add_argument(
        "--backend",
        choices=("reference", "fast"),
        default="fast",
        help="EngineSpec.backend of the tenant engines loadgen / monitor build "
        "(default: fast).  Figure commands accept and ignore it: training and "
        "pruning have one implementation",
    )
    serve_group = parser.add_argument_group("serve options")
    serve_group.add_argument(
        "--serve-users", type=int, default=2, help="tenants to personalize (default: 2)"
    )
    serve_group.add_argument(
        "--serve-requests", type=int, default=12, help="requests to replay (default: 12)"
    )
    serve_group.add_argument(
        "--serve-capacity", type=int, default=2,
        help="engine cache capacity, per process or per shard (default: 2)",
    )
    serve_group.add_argument(
        "--shards", type=int, default=1,
        help="serving shards; > 1 also replays the stream through the "
        "repro.cluster sharded runtime (default: 1)",
    )
    serve_group.add_argument(
        "--workers", choices=("threaded", "process"), default="threaded",
        help="cluster worker execution model: GIL-sharing shard threads, or "
        "shard processes serving zero-copy from shared-memory weights "
        "(default: threaded)",
    )
    serve_group.add_argument(
        "--stats-json", metavar="PATH",
        help="write the serve replay's service/cluster telemetry to PATH as JSON",
    )
    loadgen_group = parser.add_argument_group("loadgen options")
    loadgen_group.add_argument(
        "--scenario", default=None,
        help="named traffic scenario preset (see `loadgen --list-scenarios`; "
        "default: steady-uniform, for lifecycle drift-step)",
    )
    loadgen_group.add_argument(
        "--list-scenarios", action="store_true",
        help="list the scenario presets with their descriptions and exit",
    )
    loadgen_group.add_argument(
        "--seed", type=int, default=0,
        help="workload seed: same (scenario, tenants, seed) -> same plan, "
        "bit for bit (default: 0)",
    )
    loadgen_group.add_argument(
        "--loadgen-tenants", type=int, default=None, metavar="N",
        help="synthetic tenant fleet size (default: 8, for lifecycle 4)",
    )
    loadgen_group.add_argument(
        "--loadgen-requests", type=int, default=None, metavar="N",
        help="override the scenario's request count (fault schedules rescale)",
    )
    loadgen_group.add_argument(
        "--transport", choices=("local", "loopback", "http", "direct"),
        default="local",
        help="how the replay reaches the runtime: Serving API v2 in process "
        "(local), GatewayClient over the JSON loopback wire, GatewayClient "
        "over a real HTTP socket on an ephemeral port, or 'direct' — the "
        "deprecated raw-facade entry point, auto-adapted to the same "
        "backend as 'local'; default: local",
    )
    loadgen_group.add_argument(
        "--time-scale", type=float, default=1.0,
        help="virtual->wall pacing multiplier; 0 replays as fast as possible "
        "(default: 1.0)",
    )
    loadgen_group.add_argument(
        "--json", nargs="?", const="-", metavar="PATH",
        help="emit the report as JSON to PATH (or stdout when no PATH); "
        "without --measure the payload is deterministic and byte-stable "
        "across runs of the same scenario/seed",
    )
    loadgen_group.add_argument(
        "--measure", action="store_true",
        help="include the wall-clock SLO block (latency percentiles, goodput, "
        "cluster merged p99) in the JSON payload",
    )
    loadgen_group.add_argument(
        "--smoke", action="store_true",
        help=f"shrink the scenario to {LOADGEN_SMOKE_REQUESTS} requests "
        "(fast CI sanity run; 'pipeline' also honours it)",
    )
    loadgen_group.add_argument(
        "--trace", action="store_true",
        help="record per-request hop spans (gateway/middleware/frontend/"
        "shard/engine) into the SLO report; forces a gateway transport",
    )
    loadgen_group.add_argument(
        "--autoscale", action="store_true",
        help="close the control loop: attach an Autoscaler to the telemetry "
        "poller (implies --monitor); --shards is the floor, --max-shards "
        "the ceiling; the report gains an autoscale line and --measure "
        "JSON a slo.autoscale block",
    )
    loadgen_group.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="autoscale shard ceiling (default: shards * 4)",
    )
    loadgen_group.add_argument(
        "--decisions-jsonl", metavar="PATH",
        help="write the autoscaled run's decision log to PATH, one JSON "
        "object per line (requires --autoscale)",
    )
    monitor_group = parser.add_argument_group("monitor / metrics options")
    monitor_group.add_argument(
        "--monitor", action="store_true",
        help="attach the metrics plane (TelemetryPoller + EventLog + "
        "SLOMonitor) to the loadgen run; the report gains a metrics line "
        "and --measure JSON a slo.metrics block",
    )
    monitor_group.add_argument(
        "--metrics-json", metavar="PATH",
        help="write the monitored run's full time-series + alert dump to "
        "PATH (implies --monitor for loadgen; also honoured by 'monitor')",
    )
    monitor_group.add_argument(
        "--events-jsonl", metavar="PATH",
        help="write the monitored run's structured event log to PATH, one "
        "JSON object per line (implies --monitor)",
    )
    monitor_group.add_argument(
        "--poll-interval", type=float, default=0.05, metavar="SECONDS",
        help="metrics sampling interval (default: 0.05)",
    )
    monitor_group.add_argument(
        "--alert-p99-ms", type=float, default=250.0, metavar="MS",
        help="p99-over-threshold alert rule threshold (default: 250)",
    )
    monitor_group.add_argument(
        "--alert-burn-rate", type=float, default=0.05, metavar="RATIO",
        help="rejection/failure burn-rate alert threshold (default: 0.05)",
    )
    monitor_group.add_argument(
        "--alert-queue-depth", type=float, default=64.0, metavar="N",
        help="queue-depth-sustained alert threshold (default: 64)",
    )
    monitor_group.add_argument(
        "--url", metavar="BASE_URL",
        help="monitor: scrape a live gateway's GET /statsz instead of "
        "running a scenario in process (e.g. http://127.0.0.1:8080)",
    )
    monitor_group.add_argument(
        "--ticks", type=int, default=5, metavar="N",
        help="monitor --url: number of /statsz scrapes (default: 5)",
    )
    monitor_group.add_argument(
        "--watch", action="store_true",
        help="monitor: stream lifecycle events live (in-process mode) or "
        "redraw the dashboard per scrape (--url mode)",
    )
    lifecycle_group = parser.add_argument_group("lifecycle options")
    lifecycle_group.add_argument(
        "--managed-only", action="store_true",
        help="lifecycle: replay only the managed arm instead of the "
        "static-vs-managed compare",
    )
    lifecycle_group.add_argument(
        "--audit-jsonl", metavar="PATH",
        help="lifecycle: write the managed arm's state-machine audit log to "
        "PATH, one JSON transition per line (byte-stable per seed)",
    )
    pipeline_group = parser.add_argument_group("pipeline options")
    pipeline_group.add_argument(
        "--pipeline", default="standard", metavar="NAME",
        help="named pipeline to run (see --list-steps; default: standard)",
    )
    pipeline_group.add_argument(
        "--store", default=None, metavar="PATH",
        help="content-addressed store directory (default: .repro-pipeline)",
    )
    pipeline_group.add_argument(
        "--status", action="store_true",
        help="report per-step cache residency without executing anything",
    )
    pipeline_group.add_argument(
        "--list-steps", action="store_true",
        help="list the pipeline's steps (execution order, deps, params) and exit",
    )
    pipeline_group.add_argument(
        "--force", action="append", default=[], metavar="STEP",
        help="re-run STEP even when cached (repeatable)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name in ALL_COMMANDS:
            print(name)
        return 0
    if args.list_steps:
        try:
            list_pipeline_steps(
                PipelineCliConfig(pipeline=args.pipeline, smoke=args.smoke)
            )
        except ValueError as exc:
            parser.error(str(exc))
        return 0
    if args.list_scenarios:
        from repro.loadgen import SCENARIOS

        for name in sorted(SCENARIOS):
            print(f"{name:>16}: {SCENARIOS[name]().description}")
        return 0

    requested = list(args.experiments)
    if not requested:
        parser.print_help()
        return 1
    if requested == ["all"]:
        # 'pipeline' is excluded: it persists an on-disk store, which should
        # only happen when explicitly requested.
        requested = [name for name in ALL_COMMANDS if name != "pipeline"]

    unknown = [name for name in requested if name not in ALL_COMMANDS]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; available: {ALL_COMMANDS}")

    if "serve" in requested:
        try:
            serve_config = ServeDemoConfig(
                users=args.serve_users,
                requests=args.serve_requests,
                cache_capacity=args.serve_capacity,
                shards=args.shards,
                workers=args.workers,
            )
        except ValueError as exc:
            parser.error(str(exc))

    # Flags with no default of their own: left off, each command's config
    # dataclass supplies its default (loadgen and lifecycle differ).
    given = {
        key: value
        for key, value in (("scenario", args.scenario), ("tenants", args.loadgen_tenants))
        if value is not None
    }

    # What `loadgen` and `monitor` both read from the flags: the scenario run.
    scenario_run = dict(
        **given,
        shards=args.shards,
        workers=args.workers,
        requests=args.loadgen_requests,
        seed=args.seed,
        cache_capacity=args.serve_capacity,
        time_scale=args.time_scale,
        backend=args.backend,
        transport=args.transport,
        smoke=args.smoke,
        poll_interval_s=args.poll_interval,
        alert_p99_ms=args.alert_p99_ms,
        alert_burn_rate=args.alert_burn_rate,
        alert_queue_depth=args.alert_queue_depth,
    )

    if "loadgen" in requested:
        try:
            loadgen_config = LoadgenConfig(
                **scenario_run,
                trace=args.trace,
                # The dump flags only make sense on a monitored run, so they
                # imply --monitor rather than silently writing nothing.
                monitor=bool(
                    args.monitor or args.metrics_json or args.events_jsonl
                ),
                autoscale=bool(args.autoscale or args.decisions_jsonl),
                max_shards=args.max_shards,
            )
        except ValueError as exc:
            parser.error(str(exc))

    if "monitor" in requested:
        try:
            monitor_config = MonitorConfig(
                **scenario_run, url=args.url, ticks=args.ticks, watch=args.watch
            )
        except ValueError as exc:
            parser.error(str(exc))

    if "lifecycle" in requested:
        try:
            lifecycle_config = LifecycleCliConfig(
                **given,
                requests=args.loadgen_requests,
                seed=args.seed,
                compare=not args.managed_only,
                smoke=args.smoke,
            )
        except ValueError as exc:
            parser.error(str(exc))

    if "pipeline" in requested:
        try:
            pipeline_config = PipelineCliConfig(
                pipeline=args.pipeline,
                store=args.store if args.store is not None else ".repro-pipeline",
                smoke=args.smoke,
                force=tuple(args.force),
                status_only=args.status,
            )
        except ValueError as exc:
            parser.error(str(exc))

    for name in requested:
        if name == "serve":
            print("\n===== serve =====")
            report = print_serve_demo(serve_config)
            if args.stats_json:
                _write_stats_json(args.stats_json, report)
        elif name == "loadgen":
            # No banner in JSON-to-stdout mode: the output must stay a
            # clean, diffable JSON document.
            if args.json != "-":
                print("\n===== loadgen =====")
            print_loadgen(
                loadgen_config,
                json_target=args.json,
                measure=args.measure,
                metrics_json=args.metrics_json,
                events_jsonl=args.events_jsonl,
                decisions_jsonl=args.decisions_jsonl,
            )
        elif name == "monitor":
            if args.json != "-":
                print("\n===== monitor =====")
            print_monitor(monitor_config, json_target=args.metrics_json or args.json)
        elif name == "lifecycle":
            if args.json != "-":
                print("\n===== lifecycle =====")
            print_lifecycle(
                lifecycle_config,
                json_target=args.json,
                audit_jsonl=args.audit_jsonl,
                decisions_jsonl=args.decisions_jsonl,
            )
        elif name == "pipeline":
            print("\n===== pipeline =====")
            print_pipeline(pipeline_config)
        else:
            run_experiment(name)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
