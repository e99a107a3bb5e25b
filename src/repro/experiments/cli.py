"""Command-line entry point: the paper's figures, the serving demo and the runners.

Installed as the ``repro-experiments`` console script; also runnable as
``python -m repro.experiments``.  Usage::

    python -m repro.experiments fig1          # accuracy vs N:M ratio
    python -m repro.experiments fig4 fig8     # several figures in one go
    python -m repro.experiments fig3 headline --store figs
                                              # one store: headline re-uses fig3's points
    python -m repro.experiments fig1 --smoke  # one 2:4 point per architecture
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

Each figure command runs the pipeline preset of its name
(:mod:`repro.pipeline.figures`) into ``--store`` (default: a fresh temporary
directory), reports its steps on stderr and prints the rows the paper figure
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
dataclass and the function that runs it.  Every option is a field of the config that reads it (see
:func:`~repro.experiments.common.flag`), so adding a command is one row here
plus one dataclass.  An option left off the command line leaves each
command's own default in effect.
"""

from __future__ import annotations

import argparse
import functools
import typing
from dataclasses import fields
from typing import Dict, Sequence

from ..pipeline.figures import FIGURES
from .lifecycle_cli import LifecycleCliConfig, print_lifecycle
from .loadgen_cli import LoadgenConfig, print_loadgen
from .monitor_cli import MonitorConfig, print_monitor
from .pipeline_cli import FigureConfig, PipelineCliConfig, print_figure, print_pipeline
from .serve_demo import ServeDemoConfig, print_serve_demo

__all__ = ["COMMANDS", "FIGURES", "main"]

#: Command name -> (config dataclass, runner taking the config built from
#: the command line).  Each paper figure runs the pipeline preset of its name.
COMMANDS: Dict[str, tuple] = {
    **{name: (FigureConfig, functools.partial(print_figure, name)) for name in FIGURES},
    "serve": (ServeDemoConfig, print_serve_demo),
    "loadgen": (LoadgenConfig, print_loadgen),
    "monitor": (MonitorConfig, print_monitor),
    "lifecycle": (LifecycleCliConfig, print_lifecycle),
    "pipeline": (PipelineCliConfig, print_pipeline),
}

ALL_COMMANDS = sorted(COMMANDS)


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


def _configs(parser: argparse.ArgumentParser, args: argparse.Namespace) -> Dict[str, object]:
    """Command name -> its config, built (and validated) from ``args``.

    ``parser.error`` (``SystemExit``) on an unknown command or a rejected
    option value; nothing runs here.
    """
    requested = list(args.experiments)
    if requested == ["all"]:
        # 'pipeline' is excluded: it persists an on-disk store, which should
        # only happen when explicitly requested.
        requested = [name for name in ALL_COMMANDS if name != "pipeline"]
    unknown = [name for name in requested if name not in COMMANDS]
    if unknown:
        parser.error(f"unknown experiment(s): {unknown}; available: {ALL_COMMANDS}")
    configs = {}
    for name in requested:
        try:
            configs[name] = _config_from(COMMANDS[name][0], args)
        except ValueError as exc:
            parser.error(str(exc))
    return configs


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

    if not args.experiments:
        parser.print_help()
        return 1
    # Every config is built (and validated) before anything runs.
    for name, config in _configs(parser, args).items():
        # No banner in JSON-to-stdout mode: the output must stay a clean,
        # diffable JSON document.
        if getattr(config, "json", None) != "-":
            print(f"\n===== {name} =====")
        COMMANDS[name][1](config)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
