"""CLI ``pipeline``: run and inspect content-addressed experiment DAGs.

The experiments CLI's window into :mod:`repro.pipeline`: pick a named
pipeline (``--pipeline``, see :data:`repro.pipeline.PIPELINES`), point it at
an on-disk store (``--store``), and either execute it (cached steps are
verified byte-identical hits, everything else runs) or report per-step cache
residency without executing anything (``--status``).

Resumability is the point: interrupt a run, re-invoke the same command, and
every step that already completed is a cache hit — only the remainder (and
anything whose params/code/inputs changed) executes.  ``--smoke`` selects
each pipeline's shrunken variant for CI.  The figure commands (``fig1`` ...
``headline``) run the preset of their name the same way, into a fresh
temporary store unless ``--store`` names one, and print its rows.
"""

from __future__ import annotations

import sys
import tempfile
from dataclasses import dataclass
from typing import Optional, Tuple

from ..pipeline import PipelineStore, RunSummary, build_pipeline, pipeline_names
from ..records import json_line
from .common import flag, format_table

__all__ = ["FigureConfig", "PipelineCliConfig", "print_figure", "print_pipeline"]


@dataclass
class PipelineCliConfig:
    """Knobs of one CLI pipeline invocation; each flagged field is its CLI option."""

    pipeline: str = flag(
        "--pipeline", default="standard", metavar="NAME",
        help="named pipeline to run (see --list-steps; default: standard)",
    )
    store: str = flag(
        "--store", default=".repro-pipeline", metavar="PATH",
        help="content-addressed store directory (default: .repro-pipeline; "
        "a figure's: a fresh temporary directory)",
    )
    smoke: bool = flag("--smoke", default=False)
    force: Tuple[str, ...] = flag(
        "--force", default=(), action="append", metavar="STEP",
        help="re-run STEP even when cached (repeatable)",
    )
    status_only: bool = flag(
        "--status", default=False,
        help="report per-step cache residency without executing anything",
    )
    list_steps: bool = flag(
        "--list-steps", default=False,
        help="list the pipeline's steps (execution order, deps, params) and exit",
    )

    def __post_init__(self) -> None:
        if self.pipeline not in pipeline_names():
            raise ValueError(
                f"unknown pipeline {self.pipeline!r}; available: {pipeline_names()}"
            )
        self.force = tuple(self.force)


def list_pipeline_steps(config: PipelineCliConfig) -> None:
    """``--list-steps``: the DAG in execution order, with deps and params.

    Listing never touches a store, so none is opened (or created).
    """
    pipeline = build_pipeline(config.pipeline, None, smoke=config.smoke)
    print(f"pipeline {config.pipeline} ({len(pipeline.order)} steps):")
    for name in pipeline.order:
        step = pipeline.steps[name]
        deps = ", ".join(step.deps) if step.deps else "-"
        params = json_line(step.params)
        print(f"  {name:<28} deps: {deps:<40} params: {params}")


def print_pipeline_status(config: PipelineCliConfig) -> None:
    """``--status``: per-step cache residency, no execution."""
    pipeline = build_pipeline(config.pipeline, PipelineStore(config.store), smoke=config.smoke)
    rows = pipeline.status()
    cached = sum(1 for row in rows if row["cached"])
    print(f"pipeline {config.pipeline} @ {config.store}: {cached}/{len(rows)} cached")
    for row in rows:
        state = "cached" if row["cached"] else "stale"
        print(f"  {state:>6}  {row['name']:<28} key={row['key'][:16]}")


def run_pipeline(config: PipelineCliConfig, out=None) -> RunSummary:
    """``pipeline`` (run): execute the DAG, streaming per-step progress to
    ``out`` (default: stdout)."""
    from ..serve import set_universal_model_store

    pipeline = build_pipeline(config.pipeline, PipelineStore(config.store), smoke=config.smoke)

    def progress(result) -> None:
        print(
            f"  {result.status:>4}  {result.name:<28} "
            f"{result.elapsed_s * 1e3:8.1f}ms",
            file=out,
            flush=True,
        )

    print(f"pipeline {config.pipeline} @ {config.store}:", file=out)
    # Steps that pre-train universal backbones share the pipeline store as
    # their disk tier, so a backbone is trained once per content key across
    # runs (and across pipelines pointed at the same store).
    set_universal_model_store(pipeline.store)
    try:
        summary = pipeline.run(force=config.force, progress=progress)
    finally:
        set_universal_model_store(None)
    print(f"  {summary.hits} hit(s), {summary.ran} ran", file=out)
    return summary


@dataclass
class FigureConfig:
    """A figure command's knobs: the store its preset runs into, and its size."""

    store: Optional[str] = flag("--store", default=None)
    smoke: bool = flag("--smoke", default=False)


def print_figure(name: str, config: FigureConfig) -> RunSummary:
    """Run figure preset ``name`` as ``pipeline`` does, with its progress on
    stderr, then print its last step's rows and summary on stdout."""
    with tempfile.TemporaryDirectory(prefix="repro-figure-") as scratch:
        summary = run_pipeline(
            PipelineCliConfig(pipeline=name, store=config.store or scratch, smoke=config.smoke),
            out=sys.stderr,
        )
    output = summary.results[-1].output
    if output.get("rows"):
        print(format_table(output["rows"], output["columns"]))
    scalars = output.get("summary", {})
    width = max(map(len, scalars), default=0)
    for key, value in scalars.items():
        print(f"{key:>{width}}: {value:.3f}")
    return summary


def print_pipeline(config: PipelineCliConfig) -> Optional[RunSummary]:
    """Dispatch one CLI pipeline invocation (list, status or run)."""
    if config.list_steps:
        list_pipeline_steps(config)
        return None
    if config.status_only:
        print_pipeline_status(config)
        return None
    return run_pipeline(config)
