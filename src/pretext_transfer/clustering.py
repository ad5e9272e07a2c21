"""Pseudo-label generation: representation projections plus seeded K-means."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import LabeledSet
from .errors import ShapeError, ValidationError
from .manifest import manifest_value, read_artifact, unpack_blob, write_artifact
from .network import REPRESENTATION, NetworkState, apply_layer, as_batch

logger = logging.getLogger(__name__)

_CHUNK = 1024


@dataclass
class ClusterModel:
    """Fitted centroids plus the assignment recorded at convergence."""

    centroids: np.ndarray  # [k, p]
    k: int
    seed: int
    inertia: float
    inertia_history: list[float]
    labels: np.ndarray  # assignment of the fitted sample set, [m]


def extract_projection(model: NetworkState, samples) -> np.ndarray:
    """Activation of the last representation layer, used as the low-dim projection."""
    x = as_batch(model, samples)
    out = x
    for layer in model.layers:
        if layer.group != REPRESENTATION:
            break
        out = apply_layer(layer, out)
    return out


def _check_features(features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be a 2-d matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError("features contain non-finite values")
    return x


def _assign(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per sample; ties go to the lowest centroid index."""
    m = x.shape[0]
    labels = np.empty(m, dtype=np.int64)
    sq_dists = np.empty(m)
    for start in range(0, m, _CHUNK):
        block = x[start:start + _CHUNK]
        dists = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        block_labels = dists.argmin(axis=1)
        labels[start:start + _CHUNK] = block_labels
        sq_dists[start:start + _CHUNK] = dists[np.arange(len(block)), block_labels]
    return labels, sq_dists


def _plus_plus_seed(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[int(rng.integers(x.shape[0]))]
    closest = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0.0:
            idx = int(rng.choice(x.shape[0], p=closest / total))
        else:
            idx = int(rng.integers(x.shape[0]))  # fully degenerate data
        centroids[j] = x[idx]
        closest = np.minimum(closest, ((x - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _update_means(
    x: np.ndarray, labels: np.ndarray, k: int, centroids: np.ndarray, sq_dists: np.ndarray
) -> np.ndarray:
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, x.shape[1]))
    np.add.at(sums, labels, x)
    new_centroids = centroids.copy()
    nonempty = counts > 0
    new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    # re-seed each empty cluster at the point worst served by its own centroid
    if not nonempty.all():
        spare = sq_dists.copy()
        for j in np.flatnonzero(~nonempty):
            idx = int(spare.argmax())
            new_centroids[j] = x[idx]
            spare[idx] = -np.inf
    return new_centroids


def kmeans_fit(
    features, k: int, seed: int = 0, max_iters: int = 200, tol: float = 1e-7
) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding and empty-cluster repair."""
    x = _check_features(features)
    if k < 2:
        raise ValidationError("k must be >= 2")
    if x.shape[0] < k:
        raise ValidationError(f"need at least k={k} samples, got {x.shape[0]}")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    if tol < 0:
        raise ValidationError("tol must be >= 0")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_seed(x, k, rng)
    history: list[float] = []
    for _ in range(max_iters):
        labels, sq_dists = _assign(x, centroids)
        history.append(float(sq_dists.sum()))
        new_centroids = _update_means(x, labels, k, centroids, sq_dists)
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol:
            break
    labels, sq_dists = _assign(x, centroids)
    inertia = float(sq_dists.sum())
    history.append(inertia)
    return ClusterModel(centroids, k, seed, inertia, history, labels)


def kmeans_assign(model: ClusterModel, features) -> np.ndarray:
    x = _check_features(features)
    if x.shape[1] != model.centroids.shape[1]:
        raise ValidationError(
            f"feature dimension {x.shape[1]} does not match centroid dimension "
            f"{model.centroids.shape[1]}"
        )
    labels, _ = _assign(x, model.centroids)
    return labels


def pseudo_label(
    source_model: NetworkState,
    samples,
    k: int,
    seed: int = 0,
    max_iters: int = 200,
    tol: float = 1e-7,
) -> tuple[ClusterModel, LabeledSet]:
    """Cluster projected samples and label each original sample with its cluster."""
    projections = extract_projection(source_model, samples)
    model = kmeans_fit(projections, k, seed=seed, max_iters=max_iters, tol=tol)
    return model, LabeledSet(samples, model.labels, k)


def save_cluster_model(model: ClusterModel, path) -> None:
    fields: list[tuple[str, object]] = [
        ("k", model.k),
        ("p", model.centroids.shape[1]),
        ("m", model.labels.shape[0]),
        ("seed", model.seed),
        ("inertia", repr(model.inertia)),
        ("inertia_history", ",".join(repr(v) for v in model.inertia_history)),
    ]
    write_artifact(path, "clusters", fields, [model.centroids], [model.labels])


def load_cluster_model(path) -> ClusterModel:
    pairs, blob = read_artifact(path, "clusters")
    k = int(manifest_value(pairs, "k", path))
    p = int(manifest_value(pairs, "p", path))
    m = int(manifest_value(pairs, "m", path))
    seed = int(manifest_value(pairs, "seed", path))
    inertia = float(manifest_value(pairs, "inertia", path))
    history = [float(v) for v in manifest_value(pairs, "inertia_history", path).split(",") if v]
    (centroids,), (labels,) = unpack_blob(blob, path, [(k, p)], [m])
    return ClusterModel(centroids, k, seed, inertia, history, labels)
