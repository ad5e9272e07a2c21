"""Dense feed-forward classifier with momentum SGD.

A network is its widths, ``(input, *hidden, projection, labels)``, and one
parameter vector (``NetworkState``): layer k of L maps widths[k] to
widths[k + 1], and applies ReLU exactly when k < L - 2 (``relu``), so the
projection layer and the head are linear. The last layer is the
classification layer (the head); every layer before it is a representation
layer. The head trains at base_lr times a head multiplier that each training
call is given (zero freezes it), and it can be swapped.
States are value objects: the public functions return new NetworkState
objects and leave their arguments unchanged.
`train` runs sessions of one architecture in lockstep under one TrainConfig;
a session brings only its start, labelled set and shuffle seed. It orders
them by row count, largest first, stacks their parameter vectors into one
private [sessions, parameters] buffer, and at every step trains each run of
adjacent sessions that share a batch size on a slice of that buffer. A step
is two kernels that work in place on that slice: `loss_and_grad`, whose
forward pass is `apply_layer` on the stack, writes the gradients, and
`sgd_update` takes the momentum step; neither checks its figures. `train`
checks for divergence once per epoch, and never changes the caller's arrays.
`apply_layer` is the one dense layer: inference calls it on 2-D batches, and
the cluster stage and the dictionary read projections from it.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import LabeledSet, feature_matrix
from .errors import TrainingDiverged, ValidationError, convert_fields
from .manifest import manifest_value, read_artifact, unpack_blob, write_artifact


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 16
    base_lr: float = 3e-4
    momentum: float = 0.9

    def __post_init__(self):
        convert_fields(self)
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ValidationError("base_lr must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must lie in [0, 1)")


@dataclass
class NetworkState:
    """A network's widths and its parameters as one [P] float64 vector: each
    layer's [out, in] weights, then its [out] bias, layer by layer
    (``flat_views`` reads it). The head is the last out·(in+1) values, and a
    checkpoint's blob is this vector."""

    widths: tuple[int, ...]
    params: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def label_count(self) -> int:
        return self.widths[-1]


def relu(k: int, layer_count: int) -> bool:
    """Whether layer k of ``layer_count`` applies ReLU: every layer before the projection layer does."""
    return k < layer_count - 2


def validate_widths(widths: Sequence[int]) -> tuple[int, ...]:
    """The widths as a tuple of Python ints; refuse widths that describe no
    network, naming the first bad position."""
    try:  # operator.index refuses a float, which int() would truncate
        widths = tuple(map(operator.index, widths))
    except TypeError as exc:
        raise ValidationError(f"widths must be integers: {exc}") from None
    if len(widths) < 3:
        raise ValidationError(f"a network needs at least 3 widths (input, projection, labels), got {len(widths)}")
    for i, width in enumerate(widths):
        if width < 1:
            raise ValidationError(f"width {i} must be >= 1, got {width}")
    return widths


def init_network(widths: Sequence[int], seed: int = 0) -> NetworkState:
    """Seeded Gaussian init, std 1/sqrt(input_dim), zero bias."""
    widths = validate_widths(widths)
    rng = np.random.default_rng(seed)
    params = np.zeros(sum(_layer_sizes(widths)))
    for weights in flat_views(params, widths)[0]:
        weights[...] = rng.normal(0.0, 1.0 / np.sqrt(weights.shape[1]), size=weights.shape)
    return NetworkState(widths, params)


def apply_layer(x: np.ndarray, weights: np.ndarray, bias: np.ndarray, relu: bool) -> np.ndarray:
    """The package's one dense layer: ``x @ weights.T + bias``, through ReLU when ``relu``, as
    a new array; x is only read. It takes a [rows, in] batch with one layer's
    [out, in] weights and [out] bias, or a [sessions, rows, in] stack with
    [sessions, out, in] weights and [sessions, out] biases. The bias and the
    ReLU go into the product in place, so a layer holds one output-sized
    array at a time, with the same bits as ``np.maximum(x @ W.T + b, 0.0)``.
    A stack of one gives the 2-D call's bits."""
    z = np.matmul(x, weights.swapaxes(-1, -2))
    z += bias[..., None, :]
    if relu:
        np.maximum(z, 0.0, out=z)
    return z


def forward(state: NetworkState, inputs) -> np.ndarray:
    """Class probabilities, one row per sample, rows summing to 1. The softmax
    runs in place in the logits, which the last layer allocated."""
    z = feature_matrix(inputs, state.input_dim)
    weights, biases = flat_views(state.params, state.widths)
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = apply_layer(z, w, b, relu(k, len(weights)))
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _layer_sizes(widths: Sequence[int]) -> list[int]:
    """Each layer's parameter count, out·(in+1)."""
    return [output_dim * (input_dim + 1) for input_dim, output_dim in zip(widths, widths[1:])]


def flat_views(buffer: np.ndarray, widths: Sequence[int]) -> tuple[list, list]:
    """Per-layer weight and bias views over the last axis of a buffer in the
    parameter layout of ``NetworkState``; leading axes (sessions) are kept."""
    lead = buffer.shape[:-1]
    weights, biases = [], []
    offset = 0
    for input_dim, output_dim in zip(widths, widths[1:]):
        w_size = output_dim * input_dim
        weights.append(buffer[..., offset:offset + w_size].reshape(*lead, output_dim, input_dim))
        offset += w_size
        biases.append(buffer[..., offset:offset + output_dim])
        offset += output_dim
    return weights, biases


def loss_and_grad(weights, biases, x, y, grad_w, grad_b, needs_grad) -> np.ndarray:
    """Mean softmax cross-entropy of each batch in a stack: session s has the
    batch (x[s], y[s]) and the parameters weights[k][s], biases[k][s]. Writes
    the gradient of every layer k with needs_grad[k] into grad_w[k]/grad_b[k],
    leaves the others alone, and returns the per-session losses.

    The forward pass is ``apply_layer`` on the stack, layer by layer; the
    backward pass reads the outputs it kept. Every batch of the stack has the
    same row count. Each session's slice goes through the same BLAS calls,
    with the same shapes, as it would alone, so its figures do not depend on
    the other sessions. Inputs are trusted: callers validate them.
    """
    sessions, n = y.shape
    layer_count = len(weights)
    outputs = [x]
    for k, (w, b) in enumerate(zip(weights, biases)):
        outputs.append(apply_layer(outputs[-1], w, b, relu(k, layer_count)))
    z = outputs[-1]
    z_max = z.max(axis=2, keepdims=True)
    delta = np.exp(z - z_max)
    total = delta.sum(axis=2)
    index = (np.arange(sessions)[:, None], np.arange(n), y)
    losses = (np.log(total) + z_max[:, :, 0] - z[index]).sum(axis=1) / n

    delta /= total[:, :, None]
    delta[index] -= 1.0
    delta /= n
    for k in range(layer_count - 1, -1, -1):
        if needs_grad[k]:
            np.matmul(delta.swapaxes(-1, -2), outputs[k], out=grad_w[k])
            delta.sum(axis=1, out=grad_b[k])
        if k:
            delta = np.matmul(delta, weights[k])
            if relu(k - 1, layer_count):
                delta *= outputs[k] > 0.0
    return losses


def _step_layout(
    widths: tuple[int, ...], config: TrainConfig, head_multiplier: float
) -> tuple[np.ndarray, slice, list[bool]]:
    """The one reading of the rates: per-element learning rates of the flat
    layout, the span of the layers that train, and per layer whether it
    trains (its rate is not zero).

    The representation layers, all but the last, train at base_lr > 0 and the
    head at base_lr * head_multiplier; only the head can be frozen, so the
    layers that train are a prefix and the span starts at 0.
    """
    validate_widths(widths)
    if not (math.isfinite(head_multiplier) and head_multiplier >= 0):  # NaN would freeze every layer
        raise ValidationError(f"head_multiplier must be >= 0 and finite, got {head_multiplier}")
    rates = [config.base_lr] * (len(widths) - 2) + [config.base_lr * head_multiplier]
    sizes = _layer_sizes(widths)
    trains = [rate > 0 for rate in rates]
    return np.repeat(rates, sizes), slice(0, sum(itertools.compress(sizes, trains))), trains


def sgd_update(params: np.ndarray, velocity: np.ndarray, grads: np.ndarray, lr: np.ndarray, momentum: float) -> None:
    """One momentum-SGD step in place on arrays of one shape, ``lr`` broadcast
    over their last axis: velocity <- momentum * velocity - lr * grads, then
    params <- params + velocity; grads is overwritten. It is the arithmetic
    alone: non-finite values pass through, and ``train`` checks for them once
    per epoch."""
    grads *= lr
    velocity *= momentum
    velocity -= grads
    params += velocity


def replace_head(state: NetworkState, new_label_count: int, init_seed: int) -> NetworkState:
    """A new head of the new width; the representation layers are carried over
    untouched. New weights are Gaussian with std 0.01, biases zero, so the
    fresh head starts near-uniform.
    """
    if new_label_count < 2:
        raise ValidationError("new_label_count must be >= 2")
    representation = state.params[:-_layer_sizes(state.widths)[-1]]
    weights = np.random.default_rng(init_seed).normal(0.0, 0.01, size=(new_label_count, state.widths[-2]))
    return NetworkState((*state.widths[:-1], new_label_count),
                        np.concatenate([representation, weights.ravel(), np.zeros(new_label_count)]))


@dataclass(frozen=True)
class Session:
    """One run of ``train``: a starting state, its labelled set, and its shuffle seed."""

    state: NetworkState
    data: LabeledSet
    seed: int


def _step_groups(sizes: list[int], batch_size: int) -> list[tuple[int, list[tuple[int, slice]]]]:
    """The batches of one epoch, step by step: (first row, [(batch size,
    sessions)]). The sizes come largest first, so the sessions that share a
    batch size at a step are adjacent and each group is a slice. A session
    with fewer rows sits out the steps past its last batch."""
    steps = []
    for start in range(0, sizes[0], batch_size):
        batches = [min(n - start, batch_size) for n in sizes if n > start]
        groups, first = [], 0
        for size, members in itertools.groupby(batches):
            end = first + len(list(members))
            groups.append((size, slice(first, end)))
            first = end
        steps.append((start, groups))
    return steps


def train(
    sessions: Sequence[Session], config: TrainConfig, head_multiplier: float
) -> list[tuple[NetworkState, list[float]]]:
    """Epoch loop over sessions in lockstep: per-session seeded shuffling,
    mini-batches, last partial batch kept; one (state, per-epoch mean losses)
    per session, in the caller's order.

    Every session trains under ``config``, with the head at ``head_multiplier``
    times the base rate, and the sessions must share their widths. A
    session's set must have as many classes as its network outputs; its batch
    is read once, for the width. Training runs on a private [sessions,
    parameters] copy, so the callers' states are never modified; frozen layers
    (a zero rate) get no gradients and their parameters come back bit-identical. The
    copy holds the sessions largest first (a stable sort by row count), so at
    every step the sessions with a batch of the same size are a slice of it
    and take that step together; a session with fewer batches sits out the
    extra steps, its velocity untouched. Each session's result is
    bit-identical to training it alone.

    A step is its group's two kernels, ``loss_and_grad`` and ``sgd_update``.
    Divergence is checked once, after each epoch's steps: ``TrainingDiverged``
    names the epoch and every session, in the caller's order, whose epoch
    loss total or parameters are not finite, so every loss and parameter it
    returns is finite. A non-finite loss makes its total non-finite, and a
    non-finite parameter stays so under later updates, so a session is named
    at the epoch in which it diverged.
    """
    sessions = list(sessions)
    if not sessions:
        raise ValidationError("train needs at least one session")
    widths = sessions[0].state.widths
    if any(session.state.widths != widths for session in sessions[1:]):
        raise ValidationError("lockstep sessions must share their widths")
    for session in sessions:
        if session.data.class_count != session.state.label_count:
            raise ValidationError(f"training data has {session.data.class_count} classes, "
                                  f"but the network outputs {session.state.label_count}")
    xs = [feature_matrix(session.data.features, session.state.input_dim) for session in sessions]
    ys = [session.data.labels for session in sessions]
    order = sorted(range(len(sessions)), key=lambda i: xs[i].shape[0], reverse=True)
    sessions, xs, ys = ([seq[i] for i in order] for seq in (sessions, xs, ys))
    sizes = [x.shape[0] for x in xs]
    lr, trainable, needs_grad = _step_layout(widths, config, head_multiplier)
    params = np.stack([session.state.params for session in sessions])
    grads = np.zeros_like(params)
    velocity = np.zeros_like(params)
    lr_t = lr[trainable]
    views = {}
    schedule = _step_groups(sizes, config.batch_size)
    x_epoch = np.zeros((len(sessions), sizes[0], xs[0].shape[1]))
    y_epoch = np.zeros((len(sessions), sizes[0]), dtype=np.int64)
    rngs = [np.random.default_rng(session.seed) for session in sessions]
    histories = [[] for _ in sessions]
    # an overflow or NaN stays silent until the epoch's divergence check
    # raises TrainingDiverged; NumPy's own warning would only precede that error
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            for i, (rng, x, y) in enumerate(zip(rngs, xs, ys)):
                shuffle = rng.permutation(y.shape[0])
                x_epoch[i, :y.shape[0]] = x[shuffle]
                y_epoch[i, :y.shape[0]] = y[shuffle]
            totals = np.zeros(len(sessions))
            for start, groups in schedule:
                for size, members in groups:
                    key = (members.start, members.stop)
                    if key not in views:
                        part, part_grads = params[members], grads[members]
                        views[key] = (*flat_views(part, widths), *flat_views(part_grads, widths),
                                      part[:, trainable], velocity[members, trainable], part_grads[:, trainable])
                    weights, biases, grad_w, grad_b, part_p, part_v, part_g = views[key]
                    rows = slice(start, start + size)
                    totals[members] += loss_and_grad(weights, biases, x_epoch[members, rows],
                                                     y_epoch[members, rows], grad_w, grad_b, needs_grad) * size
                    sgd_update(part_p, part_v, part_g, lr_t, config.momentum)
            diverged = ~(np.isfinite(totals) & np.isfinite(params).all(axis=1))
            if diverged.any():
                names = ", ".join(map(str, sorted(order[row] for row in np.flatnonzero(diverged))))
                raise TrainingDiverged(f"training diverged at epoch {epoch} in session {names}")
            for history, total, n in zip(histories, totals, sizes):
                history.append(float(total / n))
    results = [None] * len(sessions)
    for i, row, history in zip(order, params, histories):
        results[i] = (NetworkState(widths, row), history)
    return results


def accuracy(state: NetworkState, inputs, labels) -> float:
    return float(np.mean(forward(state, inputs).argmax(axis=1) == np.asarray(labels)))


def save_checkpoint(state: NetworkState, path) -> None:
    write_artifact(path, "checkpoint", [("widths", " ".join(map(str, state.widths)))], [state.params])


def load_checkpoint(path) -> NetworkState:
    """Rebuild a state from its widths line and blob; other manifest lines are ignored."""
    fields, blob = read_artifact(path, "checkpoint")
    widths = manifest_value(fields, "widths", path, lambda value: tuple(map(int, value.split())))
    try:
        validate_widths(widths)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    [params], _ = unpack_blob(blob, path, [(sum(_layer_sizes(widths)),)])
    return NetworkState(widths, params)
