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

The CLI is one table, :data:`COMMANDS`: a command name maps to its config
dataclass (``None`` for the figures, which take no options) and the function
that runs it.  Every option is a field of the config that reads it (see
:func:`~repro.experiments.common.flag`), so adding a command is one row here
plus one dataclass.  An option left off the command line leaves each
command's own default in effect.
"""

from __future__ import annotations

import argparse
import typing
from dataclasses import fields
from typing import Callable, Dict, Sequence

from .common import format_table
from .fig1_nm_ratios import run_fig1
from .fig2_layerwise import run_fig2
from .fig3_crisp_vs_block import run_fig3
from .fig4_metadata import aggregate_overheads, run_fig4
from .fig7_class_sweep import run_fig7
from .fig8_hardware import aggregate_fig8, run_fig8
from .headline import run_headline
from .lifecycle_cli import LifecycleCliConfig, print_lifecycle
from .loadgen_cli import LoadgenConfig, print_loadgen
from .monitor_cli import MonitorConfig, print_monitor
from .pipeline_cli import PipelineCliConfig, print_pipeline
from .serve_demo import ServeDemoConfig, print_serve_demo

__all__ = ["COMMANDS", "EXPERIMENTS", "run_experiment", "main"]


def _print_fig4() -> None:
    rows = run_fig4()
    print(format_table(rows))
    print("\naverage metadata overhead vs CRISP:")
    for fmt, ratio in sorted(aggregate_overheads(rows).items()):
        print(f"  {fmt:>16}: {ratio:5.2f}x")


def _print_headline() -> None:
    for key, value in run_headline().items():
        print(f"{key:>24}: {value:.3f}")


#: Experiment name -> zero-argument callable that runs it and prints its table.
EXPERIMENTS: Dict[str, Callable[[], None]] = {
    "fig1": lambda: print(format_table(run_fig1())),
    "fig2": lambda: print(format_table(run_fig2())),
    "fig3": lambda: print(format_table(run_fig3())),
    "fig4": _print_fig4,
    "fig7": lambda: print(format_table(run_fig7())),
    "fig8": lambda: print(format_table(aggregate_fig8(run_fig8()))),
    "headline": _print_headline,
}

#: Command name -> (config dataclass or None, runner).  The runner takes the
#: config built from the command line, or nothing when there is none.
COMMANDS: Dict[str, tuple] = {
    **{name: (None, printer) for name, printer in EXPERIMENTS.items()},
    "serve": (ServeDemoConfig, print_serve_demo),
    "loadgen": (LoadgenConfig, print_loadgen),
    "monitor": (MonitorConfig, print_monitor),
    "lifecycle": (LifecycleCliConfig, print_lifecycle),
    "pipeline": (PipelineCliConfig, print_pipeline),
}

ALL_COMMANDS = sorted(COMMANDS)


def run_experiment(name: str) -> None:
    """Run one named experiment and print its reproduced table."""
    if name not in EXPERIMENTS:
        raise KeyError(f"Unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}")
    print(f"\n===== {name} =====")
    EXPERIMENTS[name]()


def _build_parser() -> argparse.ArgumentParser:
    """One option per flagged config field, registered where it carries help.

    Every option defaults to ``argparse.SUPPRESS``: an option left off is
    absent from the namespace, so each config keeps its own default.
    """
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
        "--list-scenarios", action="store_true",
        help="list the scenario presets with their descriptions and exit",
    )
    registered = set()
    for name, (config, _) in COMMANDS.items():
        if config is None:
            continue
        group = parser.add_argument_group(f"{name} options")
        hints = typing.get_type_hints(config)
        for f in fields(config):
            spec = dict(f.metadata)
            option = spec.pop("flag", None)
            if not spec.get("help") or option in registered:
                continue  # not an option, defined by another config, or inherited
            registered.add(option)
            kind = hints[f.name]
            # Optional[X] and Tuple[X, ...] take values of X.
            kind = next((a for a in typing.get_args(kind) if a is not type(None)), kind)
            if kind is bool:
                spec["action"] = "store_false" if f.default else "store_true"
            else:
                spec.setdefault("type", kind)
            group.add_argument(option, default=argparse.SUPPRESS, **spec)
    return parser


def _config_from(config, args: argparse.Namespace):
    """``config`` built from the options given on the command line."""
    dests = {
        f.name: f.metadata["flag"].lstrip("-").replace("-", "_")
        for f in fields(config)
        if "flag" in f.metadata
    }
    return config(**{name: getattr(args, dest) for name, dest in dests.items() if hasattr(args, dest)})


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list:
        for name in ALL_COMMANDS:
            print(name)
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

    unknown = [name for name in requested if name not in COMMANDS]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; available: {ALL_COMMANDS}")

    # Every config is built (and validated) before anything runs.
    configs = {}
    for name in requested:
        config = COMMANDS[name][0]
        if config is not None:
            try:
                configs[name] = _config_from(config, args)
            except ValueError as exc:
                parser.error(str(exc))

    for name in requested:
        run = COMMANDS[name][1]
        config = configs.get(name)
        # No banner in JSON-to-stdout mode: the output must stay a clean,
        # diffable JSON document.
        if getattr(config, "json", None) != "-":
            print(f"\n===== {name} =====")
        if config is None:
            run()
        else:
            run(config)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
