"""Shared experiment plumbing: pre-training, personalisation setups and tables.

Every personalisation experiment follows the paper's protocol:

1. train (or reuse) a *universal* model over the full class set of the
   dataset — the stand-in for the pre-trained ImageNet checkpoints the paper
   starts from;
2. sample a user profile (a handful of preferred classes) and build loaders
   restricted to those classes;
3. personalise the model with CRISP or a baseline pruner and measure
   accuracy / FLOPs / sparsity.

The figures run these steps as pipeline presets (:mod:`repro.pipeline.figures`,
which also owns :class:`ExperimentScale`); this module is what the ``serve``
demo, the examples and the CLI's option table share.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..data import DataLoader, SyntheticImageDataset, UserProfile, build_user_loaders, make_dataset, sample_user_profile
from ..nn.models.base import ClassifierModel
from ..pipeline.figures import TINY_SCALE, ExperimentScale
from ..records import json_line
from ..serve import (
    EngineSpec,
    PersonalizationService,
    ServiceConfig,
    clear_universal_model_cache,
    restrict_head_to_classes,
    universal_model,
)

__all__ = [
    "PersonalizationSetup",
    "ExperimentScale",
    "TINY_SCALE",
    "pretrained_universal_model",
    "make_personalization_setup",
    "make_service",
    "format_table",
    "clear_model_cache",
    "flag",
    "emit_json",
]


@dataclass
class PersonalizationSetup:
    """Everything a personalisation experiment needs for one sweep point."""

    dataset: SyntheticImageDataset
    profile: UserProfile
    model: ClassifierModel
    train_loader: DataLoader
    val_loader: DataLoader
    universal_accuracy: float


def clear_model_cache() -> None:
    """Drop cached pre-trained universal models (used by tests)."""
    clear_universal_model_cache()


def pretrained_universal_model(
    scale: ExperimentScale,
    num_classes: int,
    input_size: int,
    seed: int = 0,
    dataset: Optional[SyntheticImageDataset] = None,
) -> Tuple[ClassifierModel, float]:
    """Train (or fetch from cache) a universal model over ``num_classes`` classes.

    Returns ``(model, validation_accuracy)``; every call hands out a model of
    its own, so callers can prune it.
    The cache itself lives in the serving layer
    (:func:`repro.serve.universal_model`) and is keyed by the full training
    protocol, so experiments and a :class:`~repro.serve.PersonalizationService`
    running the same protocol share one pre-trained backbone.
    """
    return universal_model(
        scale.model_name,
        scale.dataset_preset,
        scale.pretrain_epochs,
        num_classes=num_classes,
        input_size=input_size,
        batch_size=scale.batch_size,
        seed=seed,
        dataset=dataset,
    )


def make_service(
    scale: ExperimentScale,
    cache_capacity: int = 4,
    max_batch_size: Optional[int] = None,
    engine: Optional[EngineSpec] = None,
    seed: int = 0,
) -> PersonalizationService:
    """Build a :class:`~repro.serve.PersonalizationService` from an experiment scale.

    This is the bridge the CLI's ``serve`` demo and the serving benchmarks
    use: the scale's training protocol becomes the service's
    personalization protocol, and the serving-specific knobs (engine spec,
    cache capacity, micro-batch limit) ride on top.
    """
    return PersonalizationService(
        ServiceConfig(
            model_name=scale.model_name,
            dataset_preset=scale.dataset_preset,
            pretrain_epochs=scale.pretrain_epochs,
            finetune_epochs=scale.finetune_epochs,
            prune_iterations=scale.prune_iterations,
            batch_size=scale.batch_size,
            samples_per_class=scale.samples_per_class,
            cache_capacity=cache_capacity,
            max_batch_size=max_batch_size,
            engine=engine or EngineSpec(),
            seed=seed,
        )
    )


def make_personalization_setup(
    scale: ExperimentScale,
    num_user_classes: int,
    seed: int = 0,
    user_id: int = 0,
) -> PersonalizationSetup:
    """Build the full personalisation setup for one sweep point.

    The universal model's classification head is re-sized to the user's class
    count by keeping only the head rows of the preferred classes — the same
    "focus the model on the classes the user sees" step the paper performs
    before pruning.
    """
    dataset = make_dataset(scale.dataset_preset, seed=seed)
    model, universal_acc = pretrained_universal_model(
        scale,
        num_classes=dataset.num_classes,
        input_size=dataset.image_size,
        seed=seed,
        dataset=dataset,
    )
    profile = sample_user_profile(dataset, num_user_classes, user_id=user_id, seed=seed + user_id)
    train_loader, val_loader = build_user_loaders(
        dataset,
        profile,
        batch_size=scale.batch_size,
        samples_per_class=scale.samples_per_class,
        seed=seed,
    )

    # Restrict the classifier head to the user's classes (rows of the weight
    # matrix), keeping the backbone intact — the same step the serving
    # facade's personalization path performs.
    restrict_head_to_classes(model, profile.preferred_classes, dataset.num_classes)

    return PersonalizationSetup(
        dataset=dataset,
        profile=profile,
        model=model,
        train_loader=train_loader,
        val_loader=val_loader,
        universal_accuracy=universal_acc,
    )


def format_table(rows: Sequence[Dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render a list of row dicts as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    columns = list(columns) if columns is not None else list(rows[0].keys())

    def fmt(value) -> str:
        if isinstance(value, float):
            return f"{value:.3f}"
        return str(value)

    widths = {col: len(col) for col in columns}
    for row in rows:
        for col in columns:
            widths[col] = max(widths[col], len(fmt(row.get(col, ""))))

    header = " | ".join(col.ljust(widths[col]) for col in columns)
    separator = "-+-".join("-" * widths[col] for col in columns)
    lines = [header, separator]
    for row in rows:
        lines.append(" | ".join(fmt(row.get(col, "")).ljust(widths[col]) for col in columns))
    return "\n".join(lines)


def flag(option: str, default=None, **argparse_kwargs):
    """A config field that is also the CLI option ``option``.

    The field's default and type are the option's.  ``argparse_kwargs``
    (``help``, ``metavar``, ``choices``, ...) go to ``add_argument``: the one
    field that carries ``help`` defines the option, and any other config
    reading the same option declares it bare, ``flag("--shards", default=2)``.
    """
    return field(default=default, metadata={"flag": option, **argparse_kwargs})


def emit_json(payload, target: Optional[str]) -> None:
    """Write ``payload`` to ``target``: the CLI's one JSON emitter.

    A dict is one indented, key-sorted document; a list is JSON lines, one
    canonical line per record (records already serialized pass through).
    No target writes nothing; ``"-"`` puts the JSON and nothing else on
    stdout; a path writes the file and one ``wrote PATH`` line to stderr.
    """
    if not target:
        return
    if isinstance(payload, list):
        text = "".join(
            (record if isinstance(record, str) else json_line(record)) + "\n"
            for record in payload
        )
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if target == "-":
        sys.stdout.write(text)
        return
    with open(target, "w") as fh:
        fh.write(text)
    print(f"wrote {target}", file=sys.stderr)
