"""Experiment runners, one per paper figure / table (see DESIGN.md, Sec. 4)."""

from .common import (
    ExperimentScale,
    PersonalizationSetup,
    SMALL_SCALE,
    TINY_SCALE,
    clear_model_cache,
    clone_model,
    format_table,
    make_personalization_setup,
    make_service,
    pretrained_universal_model,
)
from .fig1_nm_ratios import Fig1Config, run_fig1
from .fig2_layerwise import Fig2Config, run_fig2
from .fig3_crisp_vs_block import Fig3Config, run_fig3
from .fig4_metadata import Fig4Config, aggregate_overheads, run_fig4
from .fig7_class_sweep import Fig7Config, run_fig7, sparsity_for_class_count
from .fig8_hardware import Fig8Config, aggregate_fig8, run_fig8
from .headline import HeadlineConfig, run_headline
from .serve_demo import ServeDemoConfig, print_serve_demo, run_serve_demo

__all__ = [
    "ExperimentScale",
    "PersonalizationSetup",
    "SMALL_SCALE",
    "TINY_SCALE",
    "clear_model_cache",
    "clone_model",
    "format_table",
    "make_personalization_setup",
    "make_service",
    "pretrained_universal_model",
    "Fig1Config",
    "run_fig1",
    "Fig2Config",
    "run_fig2",
    "Fig3Config",
    "run_fig3",
    "Fig4Config",
    "aggregate_overheads",
    "run_fig4",
    "Fig7Config",
    "run_fig7",
    "sparsity_for_class_count",
    "Fig8Config",
    "aggregate_fig8",
    "run_fig8",
    "HeadlineConfig",
    "run_headline",
    "ServeDemoConfig",
    "run_serve_demo",
    "print_serve_demo",
]
