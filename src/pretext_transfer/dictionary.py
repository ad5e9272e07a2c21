"""Class-structured feature dictionary and collaborative-representation scoring.

Test features are coded over the whole dictionary with ridge-regularized least
squares; per-class reconstruction residuals are mapped to a probability vector
with inverse-squared-residual normalization, so an exact class reconstruction
dominates. Classes may contribute unequal column counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clustering import extract_projection
from .data import LabeledSet
from .errors import ConfigError, ShapeError, ValidationError
from .manifest import manifest_value, read_artifact, unpack_blob, write_artifact
from .network import NetworkState

_ZERO_NORM = 1e-12
_SOLVE_TOL = 1e-8


@dataclass(frozen=True)
class CRCConfig:
    ridge: float = 1e-3
    epsilon: float = 1e-12

    def __post_init__(self):
        if self.ridge <= 0:
            raise ConfigError("ridge must be > 0")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")


@dataclass
class FeatureDictionary:
    columns: np.ndarray  # [p, N], unit-norm columns
    class_offsets: list[tuple[int, int, int]]  # (class index, start column, count)

    @property
    def class_count(self) -> int:
        return len(self.class_offsets)

    @property
    def feature_dim(self) -> int:
        return self.columns.shape[0]


def build_dictionary(m1: NetworkState, train: LabeledSet) -> FeatureDictionary:
    """Stack normalized projection features per class, classes in ascending order."""
    features = extract_projection(m1, train.features)
    norms = np.linalg.norm(features, axis=1)
    bad = np.flatnonzero(norms <= _ZERO_NORM)
    if bad.size:
        raise ValidationError(f"zero-norm projection feature for training sample {bad[0]}")
    columns_blocks = []
    class_offsets = []
    start = 0
    for c in range(train.class_count):
        idx = np.flatnonzero(train.labels == c)
        if idx.size == 0:
            raise ValidationError(f"class {c} has no training samples")
        columns_blocks.append((features[idx] / norms[idx, None]).T)
        class_offsets.append((c, start, int(idx.size)))
        start += int(idx.size)
    return FeatureDictionary(np.concatenate(columns_blocks, axis=1), class_offsets)


def class_probabilities(fdict: FeatureDictionary, features, cfg: CRCConfig) -> np.ndarray:
    """Class probabilities for each row of a feature batch.

    Each row is normalized and ridge-coded over the whole dictionary (one Gram
    solve for all rows); each class's reconstruction residual r_c then weighs
    in as (r_c + epsilon)^-2, and the weights of a row are normalized to sum to 1.
    """
    y = np.asarray(features, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != fdict.feature_dim:
        raise ShapeError(f"features must be a matrix with {fdict.feature_dim} columns")
    if not np.isfinite(y).all():
        raise ValidationError("features contain non-finite values")
    norms = np.linalg.norm(y, axis=1)
    if (norms <= _ZERO_NORM).any():
        raise ValidationError("cannot normalize a zero test vector")
    y_unit = (y / norms[:, None]).T  # [p, n]
    d = fdict.columns
    gram = d.T @ d + cfg.ridge * np.eye(d.shape[1])
    rhs = d.T @ y_unit
    codes = np.linalg.solve(gram, rhs)  # [N, n]
    if np.linalg.norm(gram @ codes - rhs) > _SOLVE_TOL * max(1.0, np.linalg.norm(rhs)):
        raise ArithmeticError("normal-equation solve exceeded the residual tolerance")
    weights = np.empty((y.shape[0], fdict.class_count))
    for c, start, count in fdict.class_offsets:
        recon = d[:, start:start + count] @ codes[start:start + count]
        weights[:, c] = (np.linalg.norm(y_unit - recon, axis=0) + cfg.epsilon) ** -2
    return weights / weights.sum(axis=1, keepdims=True)


def save_dictionary(fdict: FeatureDictionary, path) -> None:
    offsets = ",".join(f"{c}:{start}:{count}" for c, start, count in fdict.class_offsets)
    fields: list[tuple[str, object]] = [
        ("p", fdict.feature_dim),
        ("columns", fdict.columns.shape[1]),
        ("class_offsets", offsets),
    ]
    write_artifact(path, "dictionary", fields, [fdict.columns])


def load_dictionary(path) -> FeatureDictionary:
    pairs, blob = read_artifact(path, "dictionary")
    p = int(manifest_value(pairs, "p", path))
    n = int(manifest_value(pairs, "columns", path))
    offsets = []
    for part in manifest_value(pairs, "class_offsets", path).split(","):
        c, start, count = part.split(":")
        offsets.append((int(c), int(start), int(count)))
    (columns,), _ = unpack_blob(blob, path, [(p, n)])
    return FeatureDictionary(columns, offsets)
