"""Pseudo-label generation: representation projections plus seeded K-means."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .manifest import manifest_value, read_artifact, unpack_blob, write_artifact
from .network import NetworkState, apply_layer, as_batch

# Rows per assignment block. It bounds the per-block temporaries: with all
# 20000 rows of the pseudo-label pool in one product they added about 3 MB of
# peak RSS (p = 16, k = 10). The harness stages already run BLAS on one thread;
# a [1024, p] @ [p, k] product also stays below OpenBLAS's threading threshold,
# which keeps callers of kmeans_fit outside a stage on one thread too. A
# whole-pool product woke a second thread there and took about 2.5 times the
# CPU time for no less wall time (2 cores).
#
# extract_projection runs its layers over blocks of at least _CHUNK rows, so
# its peak is its output plus one block's layer outputs, whatever the hidden
# widths (whole-pool layers held 12 times the output at 20000 rows through
# hidden = 128,64). Its last block takes the remainder, _CHUNK to 2·_CHUNK - 1
# rows, so a batch under 2·_CHUNK rows is one block: in fixed blocks a short
# tail (1025, 1040 or 2049 rows) took another OpenBLAS path, with other bits
# than the whole-batch product; blocks of this rule give its bits.
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
    """Activation of the last representation layer (the one before the head),
    used as the low-dim projection; computed in row blocks (see ``_CHUNK``)
    with the bits of the whole-batch layers."""
    x = as_batch(model, samples)
    layers = model.layers[:-1]
    m = x.shape[0]
    out = np.empty((m, layers[-1].weights.shape[0]))
    blocks = max(m // _CHUNK, 1)
    for b in range(blocks):
        rows = slice(b * _CHUNK, m if b == blocks - 1 else (b + 1) * _CHUNK)
        z = x[rows]
        for layer in layers:
            z = apply_layer(z, layer.weights, layer.bias, layer.activation)
        out[rows] = z
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


@np.errstate(over="ignore")
def _row_norms(x: np.ndarray) -> np.ndarray:
    """|x| of each row, for ``_assign``'s rounding slack; it depends only on
    the rows, so a fit computes it once for all its iterations."""
    return np.sqrt(np.einsum("ij,ij->i", x, x))


def _slack(x_norms: np.ndarray, c_sq: np.ndarray, p: int) -> np.ndarray:
    """Each row's rounding slack (see ``_assign``) for centroids whose squared
    norms are ``c_sq``."""
    finfo = np.finfo(np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return 8.0 * ((p + 8) * finfo.eps * (x_norms + np.sqrt(c_sq.max())) ** 2 + p * finfo.tiny)


@np.errstate(over="ignore", invalid="ignore")
def _sure_nearest(
    block: np.ndarray, neg_2c: np.ndarray, c_sq: np.ndarray, slack: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best-scoring centroid of each row, whether it is sure: no other
    centroid scores within the row's rounding slack of it (see ``_assign``),
    and the row's runner-up score, the lowest of the other centroids. The
    index and the runner-up are only meaningful for sure rows; for the rest
    the index lies in [0, k) and the caller replaces both."""
    # one row per centroid, so every reduction below combines whole contiguous
    # rows (argmin over axis 0 would first copy the scores). A sure row has
    # exactly one centroid within its slack, the best-scoring one, so the sum
    # of its `within` indices is its argmin, and the lowest score outside its
    # slack is its runner-up. Other rows have none (NaN scores) or several,
    # whose index sum can pass k - 1: the clip keeps it a valid index until
    # _assign replaces it
    k = neg_2c.shape[0]
    scores = neg_2c @ block.T + c_sq[:, None]
    within = scores <= scores.min(axis=0) + slack
    best = (within * np.arange(k)[:, None]).sum(axis=0)
    np.minimum(best, k - 1, out=best)
    np.copyto(scores, np.inf, where=within)
    return best, within.sum(axis=0) == 1, scores.min(axis=0)


def _assign(
    x: np.ndarray, centroids: np.ndarray, x_norms: np.ndarray, lower: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row of the C-ordered ``x``, bit for bit as
    ``_direct_assign`` finds it, from one matrix product per block; ``x_norms``
    is ``_row_norms(x)``.

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

    ``lower``, when given, receives each row's bound ℓ for ``kmeans_fit``: a
    lower bound on the exact distance from the row to every centroid but its
    own. A sure row's ℓ² is its runner-up score plus ``|x|²`` less ``slack``.
    The score errs by at most (p + 2)·eps/2·S² plus the underflow terms
    above, ``|x|²`` squared back from ``x_norms`` by (p + 3)·eps·S² plus
    ``tiny``, the sum and the difference round by eps/2·S² each and the square
    root by eps of ℓ²: less than half of ``slack`` in all, so ℓ² stays below
    every other centroid's exact squared distance. A negative ℓ² makes ℓ NaN,
    and a row that is not sure gets NaN.
    """
    m, p = x.shape
    labels = np.empty(m, dtype=np.int64)
    sq_dists = np.empty(m)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    slack = _slack(x_norms, c_sq, p)
    with np.errstate(over="ignore"):
        neg_2c = -2.0 * centroids
    for start in range(0, m, _CHUNK):
        rows = slice(start, start + _CHUNK)
        block = x[rows]
        best, sure, runner_up = _sure_nearest(block, neg_2c, c_sq, slack[rows])
        # the direct formula's ufuncs and row reduction, in one temporary;
        # np.take gathers the same rows as centroids[best] in less time
        diff = block - np.take(centroids, best, axis=0)
        block_sq = np.square(diff, out=diff).sum(axis=1)
        if not sure.all():
            doubt = ~sure
            best[doubt], block_sq[doubt] = _direct_assign(block[doubt], centroids)
            runner_up[doubt] = np.nan
        labels[rows] = best
        sq_dists[rows] = block_sq
        if lower is not None:
            with np.errstate(over="ignore", invalid="ignore"):
                lower[rows] = np.sqrt(runner_up + x_norms[rows] ** 2 - slack[rows])
    return labels, sq_dists


def _bounded_assign(
    x: np.ndarray,
    centroids: np.ndarray,
    x_norms: np.ndarray,
    labels: np.ndarray | None,
    sq_dists: np.ndarray | None,
    lower: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One Lloyd iteration's ``_assign(x, centroids, x_norms)``, bit for bit.
    ``labels`` and ``sq_dists`` are the previous iteration's, or None in the
    first; ``lower`` holds each row's ℓ for these centroids (see ``_assign``
    and ``kmeans_fit``). All three are updated in place.

    A row keeps its label when ℓ² exceeds its squared distance to that
    label's centroid, computed with the direct formula's own ufuncs and row
    reduction, plus its ``slack``. The direct formula's squared distance to
    any other centroid is at least ℓ² less (p + 2)·eps/2·S² and the tiny
    terms of ``_assign``, and rounding ℓ² and the sum costs at most
    eps·(S² + slack): all within ``slack``, so the direct formula ranks the
    label strictly first. A NaN, infinite or non-positive ℓ keeps no row.
    The other rows go through ``_assign`` in gathered blocks of at most
    ``_CHUNK`` rows, which resets their ℓ."""
    if labels is None:
        return _assign(x, centroids, x_norms, lower)
    m, p = x.shape
    for start in range(0, m, _CHUNK):
        rows = slice(start, start + _CHUNK)
        diff = x[rows] - np.take(centroids, labels[rows], axis=0)
        sq_dists[rows] = np.square(diff, out=diff).sum(axis=1)
    bar = _slack(x_norms, np.einsum("ij,ij->i", centroids, centroids), p)
    bar += sq_dists
    with np.errstate(over="ignore", invalid="ignore"):
        doubt = np.flatnonzero(~((lower > 0.0) & (lower < np.inf) & (lower * lower > bar)))
    del bar  # before the gathered blocks allocate their own
    for start in range(0, doubt.size, _CHUNK):
        rows = doubt[start:start + _CHUNK]
        bound = np.empty(rows.size)
        labels[rows], sq_dists[rows] = _assign(x[rows], centroids, x_norms[rows], bound)
        lower[rows] = bound
    return labels, sq_dists


@np.errstate(over="ignore", invalid="ignore")
def _lower_bounds(lower: np.ndarray, shift: float, p: int) -> None:
    """Lower every ℓ in place by more than the largest exact centroid move,
    of which ``shift`` is the computed value (see ``kmeans_fit``)."""
    finfo = np.finfo(np.float64)
    move = (shift + 2.0 * np.sqrt(p * finfo.tiny)) * (1.0 + 2 * (p + 8) * finfo.eps)
    np.multiply(lower, 1.0 - 2.0 * finfo.eps, out=lower)
    np.subtract(lower, move, out=lower)


@np.errstate(over="ignore")
def _plus_plus_seed(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centroids = np.empty((k, x.shape[1]))
    centroids[0] = x[int(rng.integers(x.shape[0]))]
    closest = ((x - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if not np.isfinite(total):  # closest / total would be NaN
            raise ValidationError(
                "k-means++ seeding failed: squared distances between features "
                "overflow float64"
            )
        if total > 0.0:
            idx = int(rng.choice(x.shape[0], p=closest / total))
        else:
            idx = int(rng.integers(x.shape[0]))  # fully degenerate data
        centroids[j] = x[idx]
        closest = np.minimum(closest, ((x - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _update_means(
    x_cols: np.ndarray, labels: np.ndarray, k: int, centroids: np.ndarray, sq_dists: np.ndarray
) -> np.ndarray:
    """Cluster means of the samples, given column by column as ``x_cols``
    ([p, m], C order); an empty cluster is re-seeded at the sample worst
    served by its own centroid."""
    counts = np.bincount(labels, minlength=k)
    # bincount adds each cluster's weights in sample order from 0.0, so every
    # sum has the bits np.add.at gives; one contiguous column per call, which
    # costs about half a single call over a (label, column) bin of every element
    sums = np.empty((k, x_cols.shape[0]))
    for c, column in enumerate(x_cols):
        sums[:, c] = np.bincount(labels, weights=column, minlength=k)
    new_centroids = centroids.copy()
    nonempty = counts > 0
    new_centroids[nonempty] = sums[nonempty] / counts[nonempty, None]
    if not nonempty.all():
        spare = sq_dists.copy()
        for j in np.flatnonzero(~nonempty):
            idx = int(spare.argmax())
            new_centroids[j] = x_cols[:, idx]
            spare[idx] = -np.inf
    return new_centroids


def kmeans_fit(
    features, k: int, seed: int = 0, max_iters: int = 200, tol: float = 1e-7
) -> ClusterModel:
    """Lloyd's algorithm with k-means++ seeding and empty-cluster repair.

    Every assignment is ``_assign``'s, bit for bit, but after the first one a
    row whose label is provably still nearest skips the certificate (Hamerly,
    *Making k-means even faster*, SDM 2010): each row carries ℓ, a lower bound
    on its exact distance to every centroid but its own, which ``_assign``
    sets when the row passes through it and ``_bounded_assign`` tests. When
    the centroids move, the triangle inequality lowers each distance by at
    most the largest exact move M, so ``_lower_bounds`` lowers ℓ by more than
    M. The computed ``shift`` sums p rounded squares of rounded differences,
    which lose at most (p + 2)·eps of M² and, by underflow, ``tiny`` each;
    with the square root's eps/2, M ≤ (shift + √(p·tiny))·(1 + (p + 4)·eps).
    ``_lower_bounds`` subtracts (shift + 2·√(p·tiny))·(1 + 2·(p + 8)·eps),
    whose own roundings keep it above that bound, from ℓ·(1 - 2·eps), so the
    rounding of the difference, at most eps/2 of ℓ, cannot raise the result
    above ℓ - M. An infinite or NaN shift makes every ℓ -inf or NaN.
    """
    x = _check_features(features)
    if k < 2:
        raise ValidationError("k must be >= 2")
    if x.shape[0] < k:
        raise ValidationError(f"need at least k={k} samples, got {x.shape[0]}")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    if not tol >= 0:  # NaN fails this test too
        raise ValidationError("tol must be >= 0")
    rng = np.random.default_rng(seed)
    centroids = _plus_plus_seed(x, k, rng)
    x_norms = _row_norms(x)
    x_cols = np.ascontiguousarray(x.T)  # for _update_means, once per fit
    lower = np.empty(x.shape[0])  # each row's ℓ, set by the first assignment
    labels = sq_dists = None
    history: list[float] = []
    for _ in range(max_iters):
        labels, sq_dists = _bounded_assign(x, centroids, x_norms, labels, sq_dists, lower)
        history.append(float(sq_dists.sum()))
        new_centroids = _update_means(x_cols, labels, k, centroids, sq_dists)
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        _lower_bounds(lower, shift, x.shape[1])
        centroids = new_centroids
        if shift < tol:
            break
    # when no centroid moved, the loop's last assignment is already final
    if shift != 0:
        labels, sq_dists = _bounded_assign(x, centroids, x_norms, labels, sq_dists, lower)
    history.append(float(sq_dists.sum()))
    return ClusterModel(centroids, seed, history, labels)


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
    if m < k:
        raise ValidationError(f"{path}: m = {m} samples cannot fill k = {k} clusters")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= k:
        raise ValidationError(f"{path}: labels must lie in [0, {k})")
    return ClusterModel(centroids, seed, history, labels)
