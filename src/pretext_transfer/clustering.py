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

# Rows per assignment block. It bounds the per-block temporaries: with all
# 20000 rows of the pseudo-label pool in one product they added about 3 MB of
# peak RSS (p = 16, k = 10). The harness stages already run BLAS on one thread;
# a [1024, p] @ [p, k] product also stays below OpenBLAS's threading threshold,
# which keeps callers of kmeans_fit outside a stage on one thread too. A
# whole-pool product woke a second thread there and took about 2.5 times the
# CPU time for no less wall time (2 cores).
_CHUNK = 1024


@dataclass
class ClusterModel:
    """Fitted centroids plus the assignment recorded at convergence; the last
    inertia of the history is that of the final assignment."""

    centroids: np.ndarray  # [k, p]
    seed: int
    inertia_history: list[float]
    labels: np.ndarray  # assignment of the fitted sample set, [m]

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def inertia(self) -> float:
        return self.inertia_history[-1]


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
    # C order: NumPy's sum over a row reduces in a different order when the
    # row is not contiguous, so the assignment would depend on memory layout
    x = np.ascontiguousarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"features must be a 2-d matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValidationError("features contain non-finite values")
    return x


def _direct_assign(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per sample by the direct formula ``((x - c)**2).sum()``;
    ties go to the lowest centroid index. This defines the assignment."""
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


@np.errstate(over="ignore", invalid="ignore")
def _sure_nearest(
    block: np.ndarray, centroids: np.ndarray, c_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best-scoring centroid of each row, and whether it is sure: no other
    centroid scores within the rounding slack of it (see ``_assign``)."""
    p = block.shape[1]
    finfo = np.finfo(np.float64)
    # one row per centroid: the min and the count over centroids combine whole
    # contiguous rows; argmin copies to make its axis contiguous, but taking the
    # best score again with min costs less than gathering it by index
    scores = (-2.0 * centroids) @ block.T + c_sq[:, None]
    best = scores.argmin(axis=0)
    scale_sq = (np.sqrt(np.einsum("ij,ij->i", block, block)) + np.sqrt(c_sq.max())) ** 2
    slack = 8.0 * ((p + 8) * finfo.eps * scale_sq + p * finfo.tiny)
    return best, (scores <= scores.min(axis=0) + slack).sum(axis=0) == 1


def _assign(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row of the C-ordered ``x``, bit for bit as
    ``_direct_assign`` finds it, from one matrix product per block.

    A centroid's score is ``|c|² - 2·x·c``, the squared distance less the
    row's common ``|x|²``. With S = |x| + max|c| and p features, the score plus
    ``|x|²`` and the direct formula each round to within (p + 2)·eps/2·S² of
    the exact squared distance, so they differ by at most (p + 2)·eps·S².
    Gradual underflow adds at most half a subnormal step per product, and a
    BLAS kernel that flushes subnormals to zero at most ``tiny`` per product or
    sum. ``slack = 8·((p + 8)·eps·S² + p·tiny)`` is more than twice the whole
    bound, so when no other centroid scores within ``slack`` of the best one,
    the direct formula ranks the best one strictly first as well. Its squared
    distance is then computed by the direct formula's own reduction over the
    same contiguous length-p row, so the bits match. Every other row goes
    through ``_direct_assign``: near and exact ties (which go to the lowest
    index), and rows whose scores or slack an overflow turned into inf or NaN.
    """
    m = x.shape[0]
    labels = np.empty(m, dtype=np.int64)
    sq_dists = np.empty(m)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    for start in range(0, m, _CHUNK):
        block = x[start:start + _CHUNK]
        best, sure = _sure_nearest(block, centroids, c_sq)
        block_sq = ((block - centroids[best]) ** 2).sum(axis=1)
        if not sure.all():
            doubt = ~sure
            best[doubt], block_sq[doubt] = _direct_assign(block[doubt], centroids)
        labels[start:start + _CHUNK] = best
        sq_dists[start:start + _CHUNK] = block_sq
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
    p = x.shape[1]
    # bin (label, column) of every element of x, summed in sample order as np.add.at would
    bins = (labels[:, None] * p + np.arange(p)).ravel()
    sums = np.bincount(bins, weights=x.ravel(), minlength=k * p).reshape(k, p)
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
    history.append(float(sq_dists.sum()))
    return ClusterModel(centroids, seed, history, labels)


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


def _parse_floats(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",")]


def load_cluster_model(path) -> ClusterModel:
    """The ``inertia`` line is written for readers of the file; the model takes
    its inertia from the last ``inertia_history`` entry."""
    pairs, blob = read_artifact(path, "clusters")
    k = manifest_value(pairs, "k", path, int)
    p = manifest_value(pairs, "p", path, int)
    m = manifest_value(pairs, "m", path, int)
    seed = manifest_value(pairs, "seed", path, int)
    history = manifest_value(pairs, "inertia_history", path, _parse_floats)
    (centroids,), (labels,) = unpack_blob(blob, path, [(k, p)], [m])
    return ClusterModel(centroids, seed, history, labels)
