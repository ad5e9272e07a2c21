"""Class-structured feature dictionary and collaborative-representation scoring.

Test features are coded over the whole dictionary with ridge-regularized least
squares, solved through the push-through identity in the feature dimension;
per-class reconstruction residuals are mapped to a probability vector with
inverse-squared-residual normalization, so an exact class reconstruction
dominates. Classes may contribute unequal column counts; the dictionary stores
only those counts, and each class's column range is derived from them.
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
    """Unit-norm feature columns [p, N] grouped by class in ascending order:
    class c owns the class_counts[c] columns after those of classes 0..c-1."""

    columns: np.ndarray
    class_counts: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return len(self.class_counts)

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
    class_counts = []
    for c in range(train.class_count):
        idx = np.flatnonzero(train.labels == c)
        if idx.size == 0:
            raise ValidationError(f"class {c} has no training samples")
        columns_blocks.append((features[idx] / norms[idx, None]).T)
        class_counts.append(int(idx.size))
    return FeatureDictionary(np.concatenate(columns_blocks, axis=1), tuple(class_counts))


def class_probabilities(fdict: FeatureDictionary, features, cfg: CRCConfig) -> np.ndarray:
    """Class probabilities for each row of a feature batch.

    Each row y is normalized and ridge-coded over the whole dictionary D
    [p, N]: alpha = (D^T D + ridge I)^-1 D^T y, computed as the equal
    D^T (D D^T + ridge I)^-1 y, one p x p solve for all rows. Each class's
    reconstruction residual r_c then weighs in as (r_c + epsilon)^-2, and the
    weights of a row are normalized to sum to 1.
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
    gram = d @ d.T + cfg.ridge * np.eye(d.shape[0])  # [p, p]
    solved = np.linalg.solve(gram, y_unit)
    if np.linalg.norm(gram @ solved - y_unit) > _SOLVE_TOL * max(1.0, np.linalg.norm(y_unit)):
        raise ArithmeticError("push-through solve exceeded the residual tolerance")
    codes = d.T @ solved  # [N, n]
    bounds = np.cumsum((0, *fdict.class_counts))
    weights = np.empty((y.shape[0], fdict.class_count))
    for c, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        recon = d[:, start:stop] @ codes[start:stop]
        weights[:, c] = (np.linalg.norm(y_unit - recon, axis=0) + cfg.epsilon) ** -2
    return weights / weights.sum(axis=1, keepdims=True)


def save_dictionary(fdict: FeatureDictionary, path) -> None:
    fields = [("p", fdict.feature_dim), ("class_counts", ",".join(map(str, fdict.class_counts)))]
    write_artifact(path, "dictionary", fields, [fdict.columns])


def _parse_counts(raw: str) -> tuple[int, ...]:
    counts = tuple(int(part) for part in raw.split(","))
    if min(counts) < 1:
        raise ValueError("every class needs at least one column")
    return counts


def load_dictionary(path) -> FeatureDictionary:
    pairs, blob = read_artifact(path, "dictionary")
    p = manifest_value(pairs, "p", path, int)
    counts = manifest_value(pairs, "class_counts", path, _parse_counts)
    (columns,), _ = unpack_blob(blob, path, [(p, sum(counts))])
    return FeatureDictionary(columns, counts)
