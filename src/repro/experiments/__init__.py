"""The ``python -m repro.experiments`` command line and the plumbing it shares.

Each paper figure is a pipeline preset (:mod:`repro.pipeline.figures`); the
figure commands run it into a store and print its rows.  The other commands
are the serving demo (``serve``) and the ``loadgen`` / ``monitor`` /
``lifecycle`` / ``pipeline`` runners.
"""

from .common import (
    ExperimentScale,
    PersonalizationSetup,
    TINY_SCALE,
    clear_model_cache,
    format_table,
    make_personalization_setup,
    make_service,
    pretrained_universal_model,
)
from .serve_demo import ServeDemoConfig, print_serve_demo, run_serve_demo

__all__ = [
    "ExperimentScale",
    "PersonalizationSetup",
    "TINY_SCALE",
    "clear_model_cache",
    "format_table",
    "make_personalization_setup",
    "make_service",
    "pretrained_universal_model",
    "ServeDemoConfig",
    "run_serve_demo",
    "print_serve_demo",
]
