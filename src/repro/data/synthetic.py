"""Synthetic class-conditional image datasets.

The paper evaluates on ImageNet-1k and CIFAR-100.  Neither can be downloaded
in this offline environment, so we substitute procedurally generated
class-conditional image distributions that preserve the property the
class-aware pruning experiments rely on: a universal model must separate many
classes, while a personalised model restricted to a handful of user-preferred
classes faces a much easier problem and therefore tolerates far more pruning.

Each class is defined by a deterministic *template* built from a small number
of visual factors (dominant colour, spatial blob layout, orientation of a
sinusoidal grating and a frequency signature).  Samples are noisy, jittered
renderings of their class template, so classes are separable but not
trivially so, and nearby class indices are **not** more similar than distant
ones (factor assignment is hashed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "SyntheticImageDataset",
    "DatasetConfig",
    "make_dataset",
    "DATASET_PRESETS",
]


@dataclass(frozen=True)
class DatasetConfig:
    """Configuration for a synthetic dataset preset."""

    name: str
    num_classes: int
    image_size: int
    channels: int = 3
    noise_level: float = 0.25
    jitter: int = 2
    samples_per_class_train: int = 32
    samples_per_class_val: int = 8


#: Presets mirroring the paper's two datasets at CPU-friendly scale.
DATASET_PRESETS: Dict[str, DatasetConfig] = {
    "synthetic-imagenet": DatasetConfig(
        name="synthetic-imagenet",
        num_classes=40,
        image_size=16,
        samples_per_class_train=24,
        samples_per_class_val=8,
    ),
    "synthetic-cifar100": DatasetConfig(
        name="synthetic-cifar100",
        num_classes=20,
        image_size=16,
        samples_per_class_train=24,
        samples_per_class_val=8,
    ),
    "synthetic-tiny": DatasetConfig(
        name="synthetic-tiny",
        num_classes=8,
        image_size=12,
        samples_per_class_train=12,
        samples_per_class_val=6,
    ),
}


def _class_factors(class_id: int, num_classes: int, rng: np.random.Generator) -> dict:
    """Deterministic visual factors for one class."""
    return {
        "color": rng.uniform(-1.0, 1.0, size=3),
        "blob_centers": rng.uniform(0.15, 0.85, size=(2, 2)),
        "blob_scales": rng.uniform(0.08, 0.25, size=2),
        "orientation": rng.uniform(0.0, np.pi),
        "frequency": rng.uniform(1.5, 4.5),
        "phase": rng.uniform(0.0, 2 * np.pi),
        "contrast": rng.uniform(0.6, 1.2),
    }


def _render_template(factors: dict, size: int, channels: int) -> np.ndarray:
    """Render the noiseless class template image of shape (C, H, W)."""
    ys, xs = np.meshgrid(
        np.linspace(0.0, 1.0, size), np.linspace(0.0, 1.0, size), indexing="ij"
    )

    # Oriented sinusoidal grating.
    theta = factors["orientation"]
    coord = xs * np.cos(theta) + ys * np.sin(theta)
    grating = np.sin(2 * np.pi * factors["frequency"] * coord + factors["phase"])

    # Gaussian blobs.
    blobs = np.zeros_like(xs)
    for (cy, cx), scale in zip(factors["blob_centers"], factors["blob_scales"]):
        blobs += np.exp(-(((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * scale**2)))

    pattern = factors["contrast"] * (0.6 * grating + 0.8 * blobs)
    template = np.empty((channels, size, size))
    for ch in range(channels):
        color = factors["color"][ch % len(factors["color"])]
        template[ch] = pattern * (0.5 + 0.5 * color) + 0.3 * color
    return template


class SyntheticImageDataset:
    """A deterministic synthetic classification dataset.

    Parameters
    ----------
    config:
        Dataset preset configuration.
    seed:
        Master seed.  Class templates depend only on ``seed`` and the class
        id, so train and validation splits of the same dataset share
        templates while drawing independent noise.

    Notes
    -----
    Samples are generated lazily per split and cached, so constructing the
    dataset object is cheap even for large presets.
    """

    def __init__(self, config: DatasetConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self._templates: Dict[int, np.ndarray] = {}
        self._factor_rng = np.random.default_rng(seed)
        self._factors: List[dict] = [
            _class_factors(cid, config.num_classes, self._factor_rng)
            for cid in range(config.num_classes)
        ]
        self._split_cache: Dict[Tuple[str, Tuple[int, ...]], Tuple[np.ndarray, np.ndarray]] = {}

    # -- template / sample generation ----------------------------------------
    @property
    def num_classes(self) -> int:
        return self.config.num_classes

    @property
    def image_size(self) -> int:
        return self.config.image_size

    def class_template(self, class_id: int) -> np.ndarray:
        """Noise-free template image for ``class_id`` (shape ``(C, H, W)``)."""
        self._check_class(class_id)
        if class_id not in self._templates:
            self._templates[class_id] = _render_template(
                self._factors[class_id], self.config.image_size, self.config.channels
            )
        return self._templates[class_id]

    def _check_class(self, class_id: int) -> None:
        if not 0 <= class_id < self.config.num_classes:
            raise ValueError(
                f"class_id {class_id} out of range for {self.config.num_classes} classes"
            )

    def _sample_class(
        self, class_id: int, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``count`` noisy, jittered samples of one class."""
        template = self.class_template(class_id)
        c, h, w = template.shape
        jitter = self.config.jitter
        samples = np.empty((count, c, h, w))
        for i in range(count):
            shifted = template
            if jitter > 0:
                dy = int(rng.integers(-jitter, jitter + 1))
                dx = int(rng.integers(-jitter, jitter + 1))
                shifted = np.roll(np.roll(template, dy, axis=1), dx, axis=2)
            noise = rng.normal(0.0, self.config.noise_level, size=template.shape)
            gain = rng.uniform(0.85, 1.15)
            samples[i] = gain * shifted + noise
        return samples

    # -- splits ----------------------------------------------------------------
    def split(
        self,
        split: str,
        classes: Optional[Sequence[int]] = None,
        samples_per_class: Optional[int] = None,
        remap_labels: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Materialise a data split restricted to ``classes``.

        Parameters
        ----------
        split:
            ``"train"`` or ``"val"``; controls the noise stream and the
            default number of samples per class.
        classes:
            Class ids to include (default: all classes).  This is how the
            "user-preferred classes" subset of the paper is expressed.
        samples_per_class:
            Override of the per-class sample count.
        remap_labels:
            When ``True`` labels are remapped to ``0..len(classes)-1`` in the
            order given (the personalised model's output space); when
            ``False`` original class ids are kept.

        Returns
        -------
        (images, labels):
            ``images`` of shape ``(N, C, H, W)`` and integer ``labels``.
        """
        if split not in ("train", "val"):
            raise ValueError(f"Unknown split {split!r}; expected 'train' or 'val'")
        if classes is None:
            classes = list(range(self.config.num_classes))
        classes = list(classes)
        if len(set(classes)) != len(classes):
            raise ValueError("classes must not contain duplicates")
        for cid in classes:
            self._check_class(cid)

        if samples_per_class is None:
            samples_per_class = (
                self.config.samples_per_class_train
                if split == "train"
                else self.config.samples_per_class_val
            )

        cache_key = (split, tuple(classes), samples_per_class, remap_labels)
        if cache_key in self._split_cache:
            return self._split_cache[cache_key]

        split_offset = 0 if split == "train" else 1_000_003
        images: List[np.ndarray] = []
        labels: List[np.ndarray] = []
        for new_label, class_id in enumerate(classes):
            rng = np.random.default_rng(self.seed + 7919 * class_id + split_offset)
            class_images = self._sample_class(class_id, samples_per_class, rng)
            images.append(class_images)
            label_value = new_label if remap_labels else class_id
            labels.append(np.full(samples_per_class, label_value, dtype=np.int64))

        all_images = np.concatenate(images, axis=0)
        all_labels = np.concatenate(labels, axis=0)

        # Deterministic shuffle so batches mix classes.
        shuffle_rng = np.random.default_rng(self.seed + split_offset + 13)
        order = shuffle_rng.permutation(len(all_labels))
        result = (all_images[order], all_labels[order])
        self._split_cache[cache_key] = result
        return result

    def user_preferred_split(
        self, num_user_classes: int, split: str = "train", seed: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, List[int]]:
        """Sample ``num_user_classes`` classes and return their split.

        Mirrors the paper's protocol of randomly sampling 1..K user-preferred
        classes from the full label space.  Returns ``(images, labels,
        selected_class_ids)`` with labels remapped to ``0..num_user_classes-1``.
        """
        if not 1 <= num_user_classes <= self.config.num_classes:
            raise ValueError(
                f"num_user_classes must be in [1, {self.config.num_classes}], "
                f"got {num_user_classes}"
            )
        rng = np.random.default_rng(self.seed if seed is None else seed)
        selected = sorted(
            rng.choice(self.config.num_classes, size=num_user_classes, replace=False).tolist()
        )
        images, labels = self.split(split, classes=selected)
        return images, labels, selected


def make_dataset(preset: str, seed: int = 0, **overrides) -> SyntheticImageDataset:
    """Construct a dataset from a named preset, optionally overriding fields.

    >>> ds = make_dataset("synthetic-cifar100", num_classes=10)
    """
    if preset not in DATASET_PRESETS:
        raise KeyError(f"Unknown dataset preset {preset!r}; available: {sorted(DATASET_PRESETS)}")
    config = DATASET_PRESETS[preset]
    if overrides:
        config = DatasetConfig(**{**config.__dict__, **overrides})
    return SyntheticImageDataset(config, seed=seed)
