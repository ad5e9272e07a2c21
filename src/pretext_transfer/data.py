"""Synthetic two-domain data, dataset files, sequential folds and imbalance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .manifest import manifest_value, read_artifact, unpack_blob, write_artifact

POSITIVE_CLASS = 1
ALLOWED_RATIOS = (10, 25, 50, 75, 100)

# source cluster means are drawn at this multiple of the noise std; the two
# clusters the target task is built on sit at a fixed separation so the binary
# problem has stable difficulty across seeds
_MEAN_SCALE = 3.0
_TARGET_PAIR_GAP = 3.0


@dataclass
class LabeledSet:
    features: np.ndarray  # [n, d]
    labels: np.ndarray  # [n]
    class_count: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValidationError("features must be a non-empty 2-d matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise ValidationError("labels must align with features")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValidationError("labels must be integers")
        if self.class_count < 1:
            raise ValidationError("class_count must be positive")
        if self.labels.min() < 0 or self.labels.max() >= self.class_count:
            raise ValidationError(f"labels must lie in [0, {self.class_count})")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class UnlabeledSet:
    features: np.ndarray  # [m, d]

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValidationError("features must be a non-empty 2-d matrix")
        if not np.isfinite(self.features).all():
            raise ValidationError("features contain non-finite values")

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class FoldPlan:
    """Per-fold train/test index arrays; test blocks are contiguous per class."""

    train_indices: tuple[np.ndarray, ...]
    test_indices: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class SynthConfig:
    source_class_count: int = 10
    dim: int = 16
    samples_per_class: int = 60
    unlabeled_size: int = 1500
    positives: int = 349
    negatives: int = 349
    shift: float = 2.5
    noise: float = 1.0

    def __post_init__(self):
        if self.source_class_count < 2:
            raise ConfigError("source_class_count must be >= 2")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        if min(self.samples_per_class, self.unlabeled_size, self.positives, self.negatives) < 1:
            raise ConfigError("all sample counts must be >= 1")
        if not (math.isfinite(self.shift) and self.shift >= 0):
            raise ConfigError("shift must be >= 0 and finite")
        if not (math.isfinite(self.noise) and self.noise > 0):
            raise ConfigError("noise must be > 0 and finite")


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def generate_domains(cfg: SynthConfig, seed: int = 0) -> tuple[LabeledSet, UnlabeledSet, LabeledSet]:
    """Source clusters, an unlabeled target pool, and the labeled target set.

    The target's two class means are source cluster means 0 and 1 translated
    by ``shift`` along a seeded direction (the covariate-shift knob). Samples
    are emitted class-grouped, negatives first, so sequential fold blocks are
    class-stratified. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    scale = _MEAN_SCALE * cfg.noise
    means = rng.normal(0.0, scale, size=(cfg.source_class_count, cfg.dim))
    means[1] = means[0] + _TARGET_PAIR_GAP * cfg.noise * _unit(rng.normal(size=cfg.dim))

    blocks = [
        means[c] + rng.normal(0.0, cfg.noise, size=(cfg.samples_per_class, cfg.dim))
        for c in range(cfg.source_class_count)
    ]
    source = LabeledSet(
        np.concatenate(blocks),
        np.repeat(np.arange(cfg.source_class_count), cfg.samples_per_class),
        cfg.source_class_count,
    )

    shift_dir = _unit(rng.normal(size=cfg.dim))
    target_means = means[:2] + cfg.shift * shift_dir
    negatives = target_means[0] + rng.normal(0.0, cfg.noise, size=(cfg.negatives, cfg.dim))
    positives = target_means[1] + rng.normal(0.0, cfg.noise, size=(cfg.positives, cfg.dim))
    target = LabeledSet(
        np.concatenate([negatives, positives]),
        np.concatenate([np.zeros(cfg.negatives, dtype=np.int64),
                        np.ones(cfg.positives, dtype=np.int64)]),
        2,
    )

    positive_fraction = cfg.positives / (cfg.positives + cfg.negatives)
    components = (rng.random(cfg.unlabeled_size) < positive_fraction).astype(np.int64)
    pool = target_means[components] + rng.normal(0.0, cfg.noise, size=(cfg.unlabeled_size, cfg.dim))
    return source, UnlabeledSet(pool), target


def make_folds(dataset: LabeledSet, fold_count: int) -> FoldPlan:
    """Cut each class, in stored order, into contiguous near-equal test blocks."""
    if fold_count < 1:
        raise ValidationError("fold_count must be >= 1")
    per_class_blocks: list[list[np.ndarray]] = []
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size < fold_count:
            raise ValidationError(
                f"class {c} has {idx.size} samples, fewer than fold_count={fold_count}"
            )
        base, remainder = divmod(idx.size, fold_count)
        sizes = [base + 1 if k < remainder else base for k in range(fold_count)]
        bounds = np.cumsum([0] + sizes)
        per_class_blocks.append([idx[bounds[k]:bounds[k + 1]] for k in range(fold_count)])

    all_indices = np.arange(len(dataset))
    test_indices = []
    train_indices = []
    for k in range(fold_count):
        test = np.sort(np.concatenate([blocks[k] for blocks in per_class_blocks]))
        test_indices.append(test)
        train_indices.append(np.setdiff1d(all_indices, test, assume_unique=True))
    return FoldPlan(tuple(train_indices), tuple(test_indices))


def subset(dataset: LabeledSet, indices: np.ndarray) -> LabeledSet:
    return LabeledSet(dataset.features[indices], dataset.labels[indices], dataset.class_count)


def apply_imbalance(train: LabeledSet, positive_class: int, keep_percent: int) -> LabeledSet:
    """Keep the first ceil(n_pos * percent / 100) positives; negatives untouched."""
    if keep_percent not in ALLOWED_RATIOS:
        raise ValidationError(f"keep_percent must be one of {ALLOWED_RATIOS}")
    positive_positions = np.flatnonzero(train.labels == positive_class)
    if positive_positions.size == 0:
        raise ValidationError(f"positive class {positive_class} has no samples")
    keep = -(-positive_positions.size * keep_percent // 100)  # ceiling division
    drop = positive_positions[keep:]
    mask = np.ones(len(train), dtype=bool)
    mask[drop] = False
    return LabeledSet(train.features[mask], train.labels[mask], train.class_count)


def save_dataset(dataset: LabeledSet | UnlabeledSet, path) -> None:
    labeled = isinstance(dataset, LabeledSet)
    n, d = dataset.features.shape
    fields: list[tuple[str, object]] = [
        ("n", n),
        ("d", d),
        ("class_count", dataset.class_count if labeled else 0),
        ("labeled", int(labeled)),
    ]
    int_arrays = [dataset.labels] if labeled else []
    write_artifact(path, "dataset", fields, [dataset.features], int_arrays)


def load_dataset(path) -> LabeledSet | UnlabeledSet:
    pairs, blob = read_artifact(path, "dataset")
    n = manifest_value(pairs, "n", path, int)
    d = manifest_value(pairs, "d", path, int)
    class_count = manifest_value(pairs, "class_count", path, int)
    labeled = manifest_value(pairs, "labeled", path, int)
    (features,), labels = unpack_blob(blob, path, [(n, d)], [n] if labeled else [])
    try:
        return LabeledSet(features, labels[0], class_count) if labeled else UnlabeledSet(features)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
