"""Class-structured feature dictionary and collaborative-representation scoring.

Test features are coded over the whole dictionary with ridge-regularized least
squares, solved through the push-through identity in the feature dimension.
Each class's reconstruction is its p x p Gram matrix times that solution, which
skips the [N, n] codes over all N columns: about a twelfth of the
multiply-adds, with probabilities within 1e-12 of the codes form. Per-class
reconstruction residuals are mapped to a probability vector with
inverse-squared-residual normalization, so an exact class reconstruction
dominates. Classes may contribute unequal column counts; the dictionary stores
only those counts, and each class's column range is derived from them.
"""

from __future__ import annotations

import math
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
        if not (math.isfinite(self.ridge) and self.ridge > 0):
            raise ConfigError("ridge must be > 0 and finite")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigError("epsilon must be > 0 and finite")


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


def unit_test_columns(features, feature_dim: int) -> np.ndarray:
    """A batch of test features [n, feature_dim] as unit-norm columns
    [feature_dim, n].

    These are ``class_probabilities``' input checks and normalization, so a
    caller that scores one batch against several dictionaries of the same
    width does them once and passes the result to ``unit_class_probabilities``.
    """
    y = np.asarray(features, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != feature_dim:
        raise ShapeError(f"features must be a matrix with {feature_dim} columns")
    if not np.isfinite(y).all():
        raise ValidationError("features contain non-finite values")
    norms = np.linalg.norm(y, axis=1)
    if (norms <= _ZERO_NORM).any():
        raise ValidationError("cannot normalize a zero test vector")
    return (y / norms[:, None]).T


def unit_class_probabilities(fdict: FeatureDictionary, y_unit: np.ndarray, cfg: CRCConfig) -> np.ndarray:
    """``class_probabilities`` of a batch already passed through
    ``unit_test_columns``: ``y_unit`` holds its unit rows as columns [p, n]."""
    if y_unit.shape[0] != fdict.feature_dim:
        raise ShapeError(f"features must be a matrix with {fdict.feature_dim} columns")
    d = fdict.columns
    gram = d @ d.T + cfg.ridge * np.eye(d.shape[0])  # [p, p]
    solved = np.linalg.solve(gram, y_unit)
    if np.linalg.norm(gram @ solved - y_unit) > _SOLVE_TOL * max(1.0, np.linalg.norm(y_unit)):
        raise ValidationError(
            "push-through solve exceeded the residual tolerance: the dictionary "
            f"is too ill-conditioned for ridge = {cfg.ridge!r}; raise the ridge setting"
        )
    bounds = np.cumsum((0, *fdict.class_counts))
    weights = np.empty((y_unit.shape[1], fdict.class_count))
    for c, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        block = d[:, start:stop]
        recon = (block @ block.T) @ solved  # D_c alpha_c, with alpha_c = D_c^T solved
        weights[:, c] = (np.linalg.norm(y_unit - recon, axis=0) + cfg.epsilon) ** -2
    return weights / weights.sum(axis=1, keepdims=True)


def class_probabilities(fdict: FeatureDictionary, features, cfg: CRCConfig) -> np.ndarray:
    """Class probabilities for each row of a feature batch.

    Each row y is normalized and ridge-coded over the whole dictionary D
    [p, N]: alpha = (D^T D + ridge I)^-1 D^T y, computed as the equal
    D^T (D D^T + ridge I)^-1 y, one p x p solve for all rows. Class c's
    reconstruction D_c alpha_c is then (D_c D_c^T) s, with s the solve's
    solution and D_c the class's columns: p x p class Gram matrices take
    p^2 (N + C n) multiply-adds for C classes and n rows, where the [N, n]
    codes alpha and their reconstructions take 2 p N n (about 0.21 M
    against 2.5 M for one default 100% cell), and no [N, n] array is made.
    The two forms differ by rounding alone: the tests hold every probability
    within 1e-12 of the codes form's. Each class's reconstruction residual
    r_c weighs in as (r_c + epsilon)^-2, and the weights of a row are
    normalized to sum to 1.
    """
    return unit_class_probabilities(fdict, unit_test_columns(features, fdict.feature_dim), cfg)


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
