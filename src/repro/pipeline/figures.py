"""The paper's figures as pipeline presets: one set of step bodies for all of them.

Every training figure (Fig. 1, 2, 3, 7 and the accuracy half of the
headline) is the same DAG:

* one **setup** step per (model, dataset, class count, seed): it pre-trains
  (or fetches) the universal model, restricts its head to a sampled user's
  classes and saves that state as an artifact;
* one **point** step per sweep point, keyed by its ``method`` parameter
  (``dense`` / ``nm`` / ``block`` / ``crisp`` / ``channel``): it restores the
  setup's state, builds *fresh* loaders from (dataset, profile, seed) and
  runs that pruner, so its output is a function of its own parameters only,
  never of the points that ran before it;
* one small **collect** per figure that shapes the rows the figure prints.

Fig. 4 and Fig. 8 train nothing: each is one deterministic step (plus
Fig. 8's aggregate in its collect).  ``headline`` is a collect over Fig. 3's
points and Fig. 8's step at its own parameters, so over one store it re-uses
their cached outputs.

A preset's last step returns ``{"columns", "rows"}`` and, for Fig. 4 and the
headline, ``"summary"`` scalars: what ``python -m repro.experiments figN``
prints.  Each builder takes the figure's sweep as keyword arguments, and
``smoke=True`` shrinks it for CI.  Imports stay inside the step bodies:
:mod:`repro.pipeline` is loaded on the serving path and must stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..records import round6
from .step import Step, StepContext

__all__ = [
    "ExperimentScale",
    "TINY_SCALE",
    "FIGURES",
    "aggregate_fig8",
    "aggregate_overheads",
    "sparsity_for_class_count",
]


@dataclass(frozen=True)
class ExperimentScale:
    """How heavy a figure run is: the training protocol of every sweep point.

    ``TINY_SCALE`` keeps every point in the sub-second range; it is what the
    CLI runs and what the test suite shrinks further.
    """

    name: str
    dataset_preset: str
    model_name: str
    pretrain_epochs: int
    finetune_epochs: int
    prune_iterations: int
    batch_size: int = 16
    samples_per_class: Optional[int] = None


TINY_SCALE = ExperimentScale(
    name="tiny",
    dataset_preset="synthetic-tiny",
    model_name="resnet_tiny",
    pretrain_epochs=2,
    finetune_epochs=1,
    prune_iterations=2,
)


# ---------------------------------------------------------------------------
# the shared steps: setup and point
# ---------------------------------------------------------------------------

def figure_setup(ctx: StepContext) -> Dict[str, object]:
    """Pre-train the universal model, restrict its head to a user's classes
    and save that state: what every point of this setup starts from."""
    from ..experiments.common import make_personalization_setup

    p = ctx.params
    scale = replace(  # only the pre-training fields are read
        TINY_SCALE,
        model_name=p["model"],
        dataset_preset=p["dataset"],
        pretrain_epochs=p["pretrain_epochs"],
        batch_size=p["batch_size"],
        samples_per_class=p["samples_per_class"],
    )
    setup = make_personalization_setup(scale, p["num_classes"], seed=p["seed"])
    ctx.save_arrays("model", **setup.model.state_dict())
    return {
        **p,
        "classes": setup.profile.preferred_classes,
        "input_size": setup.dataset.image_size,
        "universal_accuracy": round6(setup.universal_accuracy),
    }


#: A point's pattern label per method, formatted from its params.
PATTERNS = {
    "dense": "dense",
    "nm": "{n}:{m}",
    "block": "block-{block_size}",
    "crisp": "{n}:{m}+B{block_size}",
    "channel": "channel",
}


def figure_point(ctx: StepContext) -> Dict[str, object]:
    """One sweep point: the setup's model, fresh loaders, one pruner.

    Every measurement is taken the same way for every method, so a point's
    row means the same thing in every figure.
    """
    from ..data import UserProfile, build_user_loaders, make_dataset
    from ..nn.models import build_model
    from ..nn.models.base import prunable_layers
    from ..pruning import CRISPConfig, CRISPPruner, flops_ratio, layer_sparsities, model_sparsity
    from ..pruning.baselines import block_prune, channel_prune, dense_finetune, nm_prune

    p = ctx.params
    (dep,) = ctx.step.deps
    s = ctx.inputs[dep]
    dataset = make_dataset(s["dataset"], seed=s["seed"])
    train, val = build_user_loaders(
        dataset,
        UserProfile(0, s["classes"]),
        batch_size=s["batch_size"],
        samples_per_class=s["samples_per_class"],
        seed=s["seed"],
    )
    model = build_model(
        s["model"], num_classes=len(s["classes"]), input_size=s["input_size"], seed=0
    )
    model.load_state_dict(ctx.load_arrays(dep, "model"))
    epochs = p["finetune_epochs"]
    prune = {
        "dense": lambda: dense_finetune(model, train, val, epochs=epochs),
        "nm": lambda: nm_prune(model, p["n"], p["m"], train, val, finetune_epochs=epochs),
        "block": lambda: block_prune(
            model, p["target_sparsity"], p["block_size"], train, val, finetune_epochs=epochs
        ),
        "channel": lambda: channel_prune(
            model, p["target_sparsity"], train, val, finetune_epochs=epochs
        ),
        "crisp": lambda: CRISPPruner(
            model,
            CRISPConfig(
                n=p["n"],
                m=p["m"],
                block_size=p["block_size"],
                target_sparsity=p["target_sparsity"],
                iterations=p["prune_iterations"],
                finetune_epochs=epochs,
            ),
        ).prune(train, val),
    }[p["method"]]
    accuracy = prune().final_accuracy
    weights = {name: layer.weight.size for name, layer in prunable_layers(model).items()}
    return {
        "setup": dep,
        "model": s["model"],
        "dataset": s["dataset"],
        "num_classes": len(s["classes"]),
        **p,
        "pattern": PATTERNS[p["method"]].format(**p),
        "sparsity": round6(model_sparsity(model)),
        "accuracy": round6(accuracy or 0.0),
        "flops_ratio": round6(flops_ratio(model, s["input_size"])),
        "layers": [
            [name, round6(value), weights[name]]
            for name, value in layer_sparsities(model).items()
        ],
    }


def setup_step(
    scale: ExperimentScale, model: str, dataset: str, num_classes: int, seed: int
) -> Step:
    """The setup of ``model`` on ``dataset`` for a user of ``num_classes`` classes."""
    return Step(
        f"{model}.{dataset}.c{num_classes}",
        figure_setup,
        params={
            "model": model,
            "dataset": dataset,
            "num_classes": num_classes,
            "seed": seed,
            "pretrain_epochs": scale.pretrain_epochs,
            "batch_size": scale.batch_size,
            "samples_per_class": scale.samples_per_class,
        },
    )


def point_step(scale: ExperimentScale, setup: Step, method: str, **params) -> Step:
    """The ``method`` point over ``setup``, named after its pattern and target."""
    params = {"method": method, "finetune_epochs": scale.finetune_epochs, **params}
    if method == "crisp":
        params["prune_iterations"] = scale.prune_iterations
    name = PATTERNS[method].format(**params).replace(":", "of")
    if "target_sparsity" in params:
        name += f"@{params['target_sparsity']:g}"
    return Step(f"{setup.name}.{name}", figure_point, params=params, deps=(setup.name,))


def collected(steps: List[Step], collect) -> List[Step]:
    """``steps`` plus a ``collect`` step over all of them, in their order."""
    return [*steps, Step("collect", collect, deps=tuple(s.name for s in steps))]


def points(ctx: StepContext) -> List[Dict[str, object]]:
    """The point outputs among a collect's inputs, in dependency order."""
    return [out for out in ctx.inputs.values() if "method" in out]


def dense_accuracy(rows: List[Dict[str, object]]) -> Dict[str, float]:
    """Setup name -> the accuracy of its ``dense`` point (the upper bound)."""
    return {p["setup"]: p["accuracy"] for p in rows if p["method"] == "dense"}


def table(rows: List[Dict[str, object]], **extra) -> Dict[str, object]:
    """A collect's output: the rows and their column order (JSON keys sort)."""
    return {"columns": list(rows[0]) if rows else [], "rows": rows, **extra}


# ---------------------------------------------------------------------------
# Fig. 1: accuracy at N:M ratios, per architecture
# ---------------------------------------------------------------------------

def fig1_collect(ctx: StepContext) -> Dict[str, object]:
    rows = points(ctx)
    dense = dense_accuracy(rows)
    return table([
        {
            "model": p["model"],
            "pattern": p["pattern"],
            "sparsity": p["sparsity"],
            "accuracy": p["accuracy"],
            "dense_accuracy": dense[p["setup"]],
            "accuracy_drop": round6(dense[p["setup"]] - p["accuracy"]),
        }
        for p in rows
    ])


def fig1_preset(
    smoke: bool = False,
    *,
    models: Sequence[str] = ("resnet_tiny", "vgg_tiny", "mobilenet_tiny"),
    nm_ratios: Sequence[Tuple[int, int]] = ((3, 4), (2, 4), (1, 4)),
    num_user_classes: int = 4,
    scale: ExperimentScale = TINY_SCALE,
    seed: int = 0,
) -> List[Step]:
    """Fig. 1: N:M-only pruning per model against dense fine-tuning.

    ``smoke`` keeps one 2:4 point per architecture.
    """
    if smoke:
        nm_ratios = ((2, 4),)
    steps: List[Step] = []
    for model in models:
        setup = setup_step(scale, model, scale.dataset_preset, num_user_classes, seed)
        steps += [setup, point_step(scale, setup, "dense")]
        steps += [point_step(scale, setup, "nm", n=n, m=m) for n, m in nm_ratios]
    return collected(steps, fig1_collect)


# ---------------------------------------------------------------------------
# Fig. 2: the per-layer sparsity CRISP's global criterion allocates
# ---------------------------------------------------------------------------

def fig2_collect(ctx: StepContext) -> Dict[str, object]:
    """One row per layer, then a ``<global>`` row with the spread."""
    (p,) = points(ctx)
    rows = [
        {"layer": name, "sparsity": value, "weights": size, "global_sparsity": p["sparsity"]}
        for name, value, size in p["layers"]
    ]
    low, high = min(r["sparsity"] for r in rows), max(r["sparsity"] for r in rows)
    rows.append({
        "layer": "<global>",
        "sparsity": p["sparsity"],
        "weights": sum(r["weights"] for r in rows),
        "global_sparsity": p["sparsity"],
        "min_layer_sparsity": low,
        "max_layer_sparsity": high,
        "sparsity_spread": round6(high - low),
    })
    return table(rows)


def fig2_preset(
    smoke: bool = False,
    *,
    num_user_classes: int = 4,
    target_sparsity: float = 0.85,
    n: int = 2,
    m: int = 4,
    block_size: int = 8,
    scale: ExperimentScale = TINY_SCALE,
    seed: int = 0,
) -> List[Step]:
    """Fig. 2: one CRISP point at a high global target (already smoke-sized)."""
    setup = setup_step(scale, scale.model_name, scale.dataset_preset, num_user_classes, seed)
    crisp = point_step(
        scale, setup, "crisp", n=n, m=m, block_size=block_size, target_sparsity=target_sparsity
    )
    return collected([setup, crisp], fig2_collect)


# ---------------------------------------------------------------------------
# Fig. 3: CRISP against pure block pruning across sparsity
# ---------------------------------------------------------------------------

def fig3_rows(rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
    dense = dense_accuracy(rows)
    return [
        {
            "method": p["method"],
            "pattern": p["pattern"],
            "block_size": p["block_size"],
            "target_sparsity": p["target_sparsity"],
            "achieved_sparsity": p["sparsity"],
            "accuracy": p["accuracy"],
            "dense_accuracy": dense[p["setup"]],
        }
        for p in rows
        if p["method"] != "dense"
    ]


def fig3_collect(ctx: StepContext) -> Dict[str, object]:
    return table(fig3_rows(points(ctx)))


def fig3_preset(
    smoke: bool = False,
    *,
    sparsity_levels: Sequence[float] = (0.5, 0.75, 0.875),
    block_sizes: Sequence[int] = (8, 16),
    nm_ratios: Sequence[Tuple[int, int]] = ((2, 4),),
    num_user_classes: int = 4,
    scale: ExperimentScale = TINY_SCALE,
    seed: int = 0,
) -> List[Step]:
    """Fig. 3: block and CRISP arms per (block size, target), one setup.

    A CRISP arm below its N:M floor (``1 - n/m``) is skipped.  ``smoke``
    keeps the 87.5 % point at block size 8.
    """
    if smoke:
        sparsity_levels, block_sizes = (0.875,), (8,)
    setup = setup_step(scale, scale.model_name, scale.dataset_preset, num_user_classes, seed)
    steps = [setup, point_step(scale, setup, "dense")]
    for block_size in block_sizes:
        for target in sparsity_levels:
            steps.append(
                point_step(scale, setup, "block", block_size=block_size, target_sparsity=target)
            )
            steps += [
                point_step(
                    scale, setup, "crisp", n=n, m=m, block_size=block_size, target_sparsity=target
                )
                for n, m in nm_ratios
                if target >= 1.0 - n / m - 1e-9
            ]
    return collected(steps, fig3_collect)


# ---------------------------------------------------------------------------
# Fig. 4: metadata overhead of the storage formats (no training)
# ---------------------------------------------------------------------------

def aggregate_overheads(rows: List[Dict]) -> Dict[str, float]:
    """Average metadata-overhead ratio (vs. CRISP) per format across layers."""
    totals: Dict[str, List[float]] = {}
    for row in rows:
        totals.setdefault(row["format"], []).append(row["metadata_vs_crisp"])
    return {fmt: sum(vals) / len(vals) for fmt, vals in totals.items()}


def fig4_formats(ctx: StepContext) -> Dict[str, object]:
    """Encode a hybrid-sparse matrix of each layer shape in every format."""
    import numpy as np

    from ..sparsity import HybridSparsityConfig, compare_formats, hybrid_mask

    p = ctx.params
    rng = np.random.default_rng(p["seed"])
    rows: List[Dict] = []
    for name, rows_dim, cols_dim in p["layer_shapes"]:
        weight = rng.normal(size=(rows_dim, cols_dim))
        mask, _ = hybrid_mask(
            np.abs(weight),
            HybridSparsityConfig(p["n"], p["m"], p["block_size"]),
            target_sparsity=p["target_sparsity"],
        )
        summaries = compare_formats(
            weight * mask, n=p["n"], m=p["m"], block_size=p["block_size"]
        )
        crisp_meta = summaries["crisp"].metadata_bits
        rows += [
            {
                "layer": name,
                "format": fmt,
                "nnz": summary.nnz,
                "data_bits": summary.data_bits,
                "metadata_bits": summary.metadata_bits,
                "total_bits": summary.total_bits,
                "metadata_vs_crisp": summary.metadata_bits / crisp_meta,
            }
            for fmt, summary in summaries.items()
        ]
    overheads = aggregate_overheads(rows).items()
    return table(rows, summary={f"{fmt} metadata overhead": ratio for fmt, ratio in overheads})


#: Reshaped (HWR, S) weight shapes of representative ResNet-50 layers,
#: reduced by 4x in each dimension to keep the dense encodings cheap to build.
FIG4_LAYER_SHAPES: Tuple[Tuple[str, int, int], ...] = (
    ("layer1.conv2", 144, 16),
    ("layer2.conv2", 288, 32),
    ("layer3.conv2", 576, 64),
    ("layer3.conv3", 64, 256),
)


def fig4_preset(
    smoke: bool = False,
    *,
    layer_shapes: Sequence[Tuple[str, int, int]] = FIG4_LAYER_SHAPES,
    n: int = 2,
    m: int = 4,
    block_size: int = 16,
    target_sparsity: float = 0.875,
    seed: int = 0,
) -> List[Step]:
    """Fig. 4: CSR / ELLPACK / blocked-ELLPACK / CRISP metadata, one step."""
    params = {
        "layer_shapes": [list(shape) for shape in layer_shapes],
        "n": n,
        "m": m,
        "block_size": block_size,
        "target_sparsity": target_sparsity,
        "seed": seed,
    }
    return [Step("fig4", fig4_formats, params=params)]


# ---------------------------------------------------------------------------
# Fig. 8: accelerator speedup and energy (analytical, no training)
# ---------------------------------------------------------------------------

def fig8_layers(ctx: StepContext) -> Dict[str, object]:
    """Per-layer cycles and energy of every accelerator at every sweep point."""
    from ..hw import (
        CrispSTC,
        DenseAccelerator,
        DualSideSTC,
        NvidiaSTC,
        compare_accelerators,
        resnet50_reference_layers,
    )

    p = ctx.params
    rows: List[Dict] = []
    for n, m in p["nm_ratios"]:
        for sparsity in p["global_sparsities"]:
            keep = min(1.0, (1.0 - sparsity) / (n / m))
            workloads = resnet50_reference_layers(
                n=n, m=m, block_keep_ratio=keep,
                activation_density=p["activation_density"], batch=p["batch"],
            )
            accelerators = [DenseAccelerator(), NvidiaSTC(), DualSideSTC()]
            accelerators += [CrispSTC(block_size=b) for b in p["block_sizes"]]
            rows += [
                {**record, "pattern": f"{n}:{m}", "global_sparsity": sparsity,
                 "block_keep_ratio": keep}
                for record in compare_accelerators(workloads, accelerators).rows()
            ]
    return {"rows": rows}


def aggregate_fig8(rows: List[Dict]) -> List[Dict]:
    """Per-layer rows -> one row per (pattern, sparsity, accelerator) with the
    network's total-cycle speedup and total-energy efficiency vs dense: the
    numbers behind the paper's "up to 14x / 30x" claims."""
    groups: Dict[Tuple[str, float, str], Dict[str, float]] = {}
    for row in rows:
        key = (row["pattern"], row["global_sparsity"], row["accelerator"])
        entry = groups.setdefault(key, {"cycles": 0.0, "energy": 0.0})
        entry["cycles"] += row["cycles"]
        entry["energy"] += row["energy_uj"]
    aggregated = [
        {
            "pattern": pattern,
            "global_sparsity": sparsity,
            "accelerator": accelerator,
            "total_cycles": entry["cycles"],
            "total_energy_uj": entry["energy"],
            "speedup_vs_dense": groups[(pattern, sparsity, "dense")]["cycles"] / entry["cycles"],
            "energy_eff_vs_dense": groups[(pattern, sparsity, "dense")]["energy"] / entry["energy"],
        }
        for (pattern, sparsity, accelerator), entry in groups.items()
    ]
    return sorted(aggregated, key=lambda r: (r["pattern"], r["global_sparsity"], r["accelerator"]))


def fig8_collect(ctx: StepContext) -> Dict[str, object]:
    return table(aggregate_fig8(ctx.inputs["fig8"]["rows"]))


def fig8_preset(
    smoke: bool = False,
    *,
    nm_ratios: Sequence[Tuple[int, int]] = ((1, 4), (2, 4), (3, 4)),
    block_sizes: Sequence[int] = (16, 32, 64),
    global_sparsities: Sequence[float] = (0.80, 0.85, 0.90),
    activation_density: float = 0.6,
    batch: int = 1,
) -> List[Step]:
    """Fig. 8: CRISP-STC (per block size) vs NVIDIA-STC, DSTC and dense."""
    params = {
        "nm_ratios": [list(ratio) for ratio in nm_ratios],
        "block_sizes": list(block_sizes),
        "global_sparsities": list(global_sparsities),
        "activation_density": activation_density,
        "batch": batch,
    }
    return collected([Step("fig8", fig8_layers, params=params)], fig8_collect)


# ---------------------------------------------------------------------------
# Fig. 7: accuracy vs the number of user classes
# ---------------------------------------------------------------------------

def sparsity_for_class_count(
    num_classes: int, total_classes: int, max_sparsity: float = 0.9, min_sparsity: float = 0.5
) -> float:
    """Global sparsity target as a function of the user's class count.

    Fewer classes allow more pruning: interpolate from ``max_sparsity`` (one
    class) to ``min_sparsity`` (all classes) on a logarithmic class axis.
    """
    if not 1 <= num_classes <= total_classes:
        raise ValueError(f"num_classes must be in [1, {total_classes}], got {num_classes}")
    fraction = min(1.0, math.log(num_classes) / math.log(max(2, total_classes)))
    return max_sparsity - (max_sparsity - min_sparsity) * fraction


def fig7_collect(ctx: StepContext) -> Dict[str, object]:
    keys = ("dataset", "model", "num_classes", "method", "accuracy", "flops_ratio", "sparsity")
    return table([{key: p[key] for key in keys} for p in points(ctx)])


def fig7_preset(
    smoke: bool = False,
    *,
    class_counts: Sequence[int] = (2, 4, 8),
    datasets: Sequence[str] = ("synthetic-tiny",),
    models: Sequence[str] = ("resnet_tiny",),
    n: int = 2,
    m: int = 4,
    block_size: int = 8,
    scale: ExperimentScale = TINY_SCALE,
    max_sparsity: float = 0.875,
    min_sparsity: float = 0.5,
    seed: int = 0,
) -> List[Step]:
    """Fig. 7: dense, CRISP and class-aware channel pruning per class count.

    CRISP's target falls as the class count grows; the channel baseline gets
    a less aggressive budget (at most 60 %), as in the paper.  ``smoke``
    keeps the first class count.
    """
    from ..data.synthetic import DATASET_PRESETS

    if smoke:
        class_counts = class_counts[:1]
    steps: List[Step] = []
    for dataset in datasets:
        total = DATASET_PRESETS[dataset].num_classes
        for model in models:
            for count in class_counts:
                target = sparsity_for_class_count(count, total, max_sparsity, min_sparsity)
                setup = setup_step(scale, model, dataset, count, seed)
                steps += [
                    setup,
                    point_step(scale, setup, "dense"),
                    point_step(scale, setup, "crisp", n=n, m=m, block_size=block_size,
                               target_sparsity=target),
                    point_step(scale, setup, "channel", target_sparsity=min(0.6, target)),
                ]
    return collected(steps, fig7_collect)


# ---------------------------------------------------------------------------
# headline: the abstract's claims, from Fig. 3's points and Fig. 8's step
# ---------------------------------------------------------------------------

def headline_collect(ctx: StepContext) -> Dict[str, object]:
    accuracy = fig3_rows(points(ctx))
    crisp = [r for r in accuracy if r["method"] == "crisp"]
    block = [r for r in accuracy if r["method"] == "block"]
    hardware = aggregate_fig8(ctx.inputs["fig8"]["rows"])

    def best(key: str, accelerator: str) -> float:
        return max(r[key] for r in hardware if r["accelerator"].startswith(accelerator))

    return {"summary": {
        "crisp_accuracy": max(r["accuracy"] for r in crisp),
        "block_accuracy": max(r["accuracy"] for r in block),
        "dense_accuracy": crisp[0]["dense_accuracy"],
        "crisp_sparsity": max(r["achieved_sparsity"] for r in crisp),
        "max_speedup": best("speedup_vs_dense", "crisp-stc"),
        "max_energy_efficiency": best("energy_eff_vs_dense", "crisp-stc"),
        "nvidia_max_speedup": best("speedup_vs_dense", "nvidia-stc"),
        "dstc_max_speedup": best("speedup_vs_dense", "dstc"),
    }}


def headline_preset(
    smoke: bool = False, *, fig3: Optional[Dict] = None, fig8: Optional[Dict] = None
) -> List[Step]:
    """The headline: Fig. 3 at 87.5 % / block 8 and Fig. 8 at 90 % unless
    ``fig3`` / ``fig8`` (keyword arguments of those presets) say otherwise.
    Already smoke-sized."""
    fig3 = {"sparsity_levels": (0.875,), "block_sizes": (8,), **(fig3 or {})}
    fig8 = {"global_sparsities": (0.90,), **(fig8 or {})}
    steps = [*fig3_preset(**fig3)[:-1], *fig8_preset(**fig8)[:-1]]
    return collected(steps, headline_collect)


#: Figure name -> preset builder.
FIGURES = {
    "fig1": fig1_preset,
    "fig2": fig2_preset,
    "fig3": fig3_preset,
    "fig4": fig4_preset,
    "fig7": fig7_preset,
    "fig8": fig8_preset,
    "headline": headline_preset,
}
