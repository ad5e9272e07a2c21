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

from dataclasses import dataclass

import numpy as np

from .data import LabeledSet, feature_matrix
from .errors import ValidationError
from .manifest import read_artifact, unpack_blob, write_artifact

_ZERO_NORM = 1e-12
_SOLVE_TOL = 1e-8
_EPSILON = 1e-12  # added to each class residual: an exact reconstruction's weight stays finite


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


def build_dictionary(train: LabeledSet) -> FeatureDictionary:
    """The rows of ``train``, as given, as unit columns grouped by class in
    ascending order; within a class, columns keep their sample order."""
    columns = unit_columns(train.features)
    class_counts = np.bincount(train.labels, minlength=train.class_count)
    if (class_counts == 0).any():
        raise ValidationError(f"class {np.flatnonzero(class_counts == 0)[0]} has no training samples")
    order = np.argsort(train.labels, kind="stable")
    return FeatureDictionary(columns[:, order], tuple(map(int, class_counts)))


def unit_columns(features) -> np.ndarray:
    """The rows of a feature matrix [n, p] as unit-norm columns [p, n]: a
    dictionary's columns, or a test batch normalized once for every dictionary
    it is scored against with ``class_probabilities``."""
    y = feature_matrix(features)
    norms = np.linalg.norm(y, axis=1)
    bad = np.flatnonzero(norms <= _ZERO_NORM)
    if bad.size:
        raise ValidationError(f"zero-norm feature row {bad[0]}")
    return (y / norms[:, None]).T


def class_probabilities(fdict: FeatureDictionary, y_unit: np.ndarray, ridge: float) -> np.ndarray:
    """Class probabilities for each column of ``y_unit`` [p, n], a batch of
    unit-norm rows as ``unit_columns`` returns it.

    Each column y is ridge-coded over the whole dictionary D [p, N]:
    alpha = (D^T D + ridge I)^-1 D^T y, computed as the equal
    D^T (D D^T + ridge I)^-1 y, one p x p solve for all columns. Class c's
    reconstruction D_c alpha_c is then (D_c D_c^T) s, with s the solve's
    solution and D_c the class's columns: p x p class Gram matrices take
    p^2 (N + C n) multiply-adds for C classes and n columns, where the [N, n]
    codes alpha and their reconstructions take 2 p N n (about 0.21 M
    against 2.5 M for one default 100% cell), and no [N, n] array is made.
    The two forms differ by rounding alone: the tests hold every probability
    within 1e-12 of the codes form's. Each class's reconstruction residual
    r_c weighs in as (r_c + 1e-12)^-2, and the weights of a row are
    normalized to sum to 1.
    """
    if y_unit.shape[0] != fdict.feature_dim:
        raise ValidationError(f"features have {y_unit.shape[0]} columns, expected {fdict.feature_dim}")
    d = fdict.columns
    gram = d @ d.T + ridge * np.eye(d.shape[0])  # [p, p]
    solved = np.linalg.solve(gram, y_unit)
    # written so that a NaN residual, which compares False, fails the check
    if not np.linalg.norm(gram @ solved - y_unit) <= _SOLVE_TOL * max(1.0, np.linalg.norm(y_unit)):
        raise ValidationError(
            "push-through solve exceeded the residual tolerance: the dictionary "
            f"is too ill-conditioned for ridge = {ridge!r}; raise the ridge setting"
        )
    bounds = np.cumsum((0, *fdict.class_counts))
    weights = np.empty((y_unit.shape[1], fdict.class_count))
    for c, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        block = d[:, start:stop]
        recon = (block @ block.T) @ solved  # D_c alpha_c, with alpha_c = D_c^T solved
        weights[:, c] = (np.linalg.norm(y_unit - recon, axis=0) + _EPSILON) ** -2
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
    (p, counts), blob = read_artifact(path, "dictionary", {"p": int, "class_counts": _parse_counts})
    (columns,), _ = unpack_blob(blob, path, [(p, sum(counts))])
    return FeatureDictionary(columns, counts)
