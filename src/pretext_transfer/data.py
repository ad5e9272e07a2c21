"""Synthetic two-domain data, dataset files, and the fold protocol: test folds and training rows."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, convert_fields
from .manifest import manifest_value, read_artifact, unpack_blob, write_artifact

POSITIVE_CLASS = 1
ALLOWED_RATIOS = (10, 25, 50, 75, 100)

# source cluster means are drawn at this multiple of the noise std; the two
# clusters the target task is built on sit at a fixed separation so the binary
# problem has stable difficulty across seeds
_MEAN_SCALE = 3.0
_TARGET_PAIR_GAP = 3.0


def feature_matrix(values, width: int | None = None) -> np.ndarray:
    """The package's one check of a feature batch: a non-empty, C-ordered
    float64 matrix of finite values, ``width`` columns wide when a width is
    given. Every dataset, network input, k-means fit and CRC batch passes it.

    C order because NumPy sums a non-contiguous row in another order, so the
    k-means assignment's bits would depend on memory layout.
    """
    x = np.ascontiguousarray(values, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValidationError(f"features must be a non-empty 2-d matrix, got shape {x.shape}")
    if width is not None and x.shape[1] != width:
        raise ValidationError(f"features have {x.shape[1]} columns, expected {width}")
    if not np.isfinite(x).all():
        raise ValidationError("features contain non-finite values")
    return x


@dataclass
class LabeledSet:
    features: np.ndarray  # [n, d]
    labels: np.ndarray  # [n]
    class_count: int

    def __post_init__(self):
        self.features = feature_matrix(self.features)
        self.labels = np.asarray(self.labels)
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
        self.features = feature_matrix(self.features)

    def __len__(self) -> int:
        return self.features.shape[0]


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
        convert_fields(self)
        if self.source_class_count < 2:
            raise ValidationError("source_class_count must be >= 2")
        if self.dim < 1:
            raise ValidationError("dim must be >= 1")
        if min(self.samples_per_class, self.unlabeled_size, self.positives, self.negatives) < 1:
            raise ValidationError("all sample counts must be >= 1")
        if not (math.isfinite(self.shift) and self.shift >= 0):
            raise ValidationError("shift must be >= 0 and finite")
        if not (math.isfinite(self.noise) and self.noise > 0):
            raise ValidationError("noise must be > 0 and finite")


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
    # each component's mean is added into the noise in place: the bits of
    # target_means[components] + noise, without a second pool-sized array
    pool = rng.normal(0.0, cfg.noise, size=(cfg.unlabeled_size, cfg.dim))
    for c, mean in enumerate(target_means):
        np.add(mean, pool, out=pool, where=(components == c)[:, None])
    return source, UnlabeledSet(pool), target


def make_folds(dataset: LabeledSet, fold_count: int) -> tuple[np.ndarray, ...]:
    """Each fold's test rows, ascending: every class, in stored order, cut into
    ``fold_count`` contiguous near-equal blocks, the larger blocks first."""
    if fold_count < 2:
        raise ValidationError("fold_count must be >= 2: with one fold every training split is empty")
    per_class = []
    for c in range(dataset.class_count):
        idx = np.flatnonzero(dataset.labels == c)
        if idx.size < fold_count:
            raise ValidationError(f"class {c} has {idx.size} samples, fewer than fold_count={fold_count}")
        per_class.append(np.array_split(idx, fold_count))
    return tuple(np.sort(np.concatenate(blocks)) for blocks in zip(*per_class))


def subset(dataset: LabeledSet, indices: np.ndarray) -> LabeledSet:
    return LabeledSet(dataset.features[indices], dataset.labels[indices], dataset.class_count)


def train_rows(dataset: LabeledSet, test_rows: np.ndarray, keep_percent: int) -> np.ndarray:
    """The rows outside ``test_rows``, ascending, with every negative and only the
    first ceil(n_pos * keep_percent / 100) ``POSITIVE_CLASS`` rows in stored order."""
    if keep_percent not in ALLOWED_RATIOS:
        raise ValidationError(f"keep_percent must be one of {ALLOWED_RATIOS}")
    keep = np.ones(len(dataset), dtype=bool)
    keep[test_rows] = False
    positives = np.flatnonzero(keep & (dataset.labels == POSITIVE_CLASS))
    if positives.size == 0:
        raise ValidationError(f"positive class {POSITIVE_CLASS} has no samples outside the test rows")
    keep[positives[-(-positives.size * keep_percent // 100):]] = False  # ceiling division
    return np.flatnonzero(keep)


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
    fields, blob = read_artifact(path, "dataset")
    n = manifest_value(fields, "n", path, int)
    d = manifest_value(fields, "d", path, int)
    class_count = manifest_value(fields, "class_count", path, int)
    labeled = manifest_value(fields, "labeled", path, int)
    (features,), labels = unpack_blob(blob, path, [(n, d)], [n] if labeled else [])
    try:
        return LabeledSet(features, labels[0], class_count) if labeled else UnlabeledSet(features)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
