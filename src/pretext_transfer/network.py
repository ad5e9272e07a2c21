"""Dense feed-forward classifier with momentum SGD.

The last layer is the classification layer (the head); every layer before it
is a representation layer. The head trains at base_lr times a head multiplier
that each training call is given (zero freezes it), and it can be swapped.
States are value objects: the public functions return new NetworkState
objects and leave their arguments unchanged.
`train` runs sessions of one architecture in lockstep under one TrainConfig;
a session brings only its start, data and shuffle seed. It orders them by
row count, largest first, copies their parameters into one private
[sessions, parameters] buffer, and at every step trains each run of adjacent
sessions that share a batch size on a slice of that buffer. A step is two
kernels that work in place on that slice: `loss_and_grad`, one stacked
matmul per layer, writes the gradients, and `sgd_update` takes the momentum
step. It never changes the caller's arrays.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import LabeledSet
from .errors import ConfigError, ShapeError, TrainingDiverged, ValidationError
from .manifest import manifest_values, read_artifact, unpack_blob, write_artifact

ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class LayerSpec:
    """Shape and activation of one dense layer."""

    input_dim: int
    output_dim: int
    activation: str


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 16
    base_lr: float = 3e-4
    momentum: float = 0.9

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (math.isfinite(self.base_lr) and self.base_lr > 0):
            raise ConfigError("base_lr must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")


@dataclass
class Layer:
    weights: np.ndarray  # [output_dim, input_dim]
    bias: np.ndarray  # [output_dim]
    activation: str

    @property
    def spec(self) -> LayerSpec:
        return LayerSpec(self.weights.shape[1], self.weights.shape[0], self.activation)


@dataclass
class NetworkState:
    layers: list[Layer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def label_count(self) -> int:
        return self.layers[-1].weights.shape[0]


def validate_layer_specs(specs: list[LayerSpec]) -> None:
    if len(specs) < 2:
        raise ConfigError("network needs at least one representation layer and a head")
    for i, spec in enumerate(specs):
        if spec.input_dim < 1 or spec.output_dim < 1:
            raise ConfigError(f"layer {i}: dimensions must be positive")
        if spec.activation not in ACTIVATIONS:
            raise ConfigError(f"layer {i}: unknown activation '{spec.activation}'")
        if i and specs[i - 1].output_dim != spec.input_dim:
            raise ConfigError(
                f"layer {i}: input_dim {spec.input_dim} does not chain with "
                f"previous output_dim {specs[i - 1].output_dim}"
            )
    if specs[-1].activation != "identity":
        raise ConfigError("the head (final layer) must have identity activation")


def layer_specs(state: NetworkState) -> list[LayerSpec]:
    return [layer.spec for layer in state.layers]


def init_network(specs: list[LayerSpec], seed: int = 0) -> NetworkState:
    """Seeded Gaussian init, std 1/sqrt(input_dim), zero bias."""
    specs = list(specs)
    validate_layer_specs(specs)
    rng = np.random.default_rng(seed)
    layers = []
    for spec in specs:
        scale = 1.0 / np.sqrt(spec.input_dim)
        weights = rng.normal(0.0, scale, size=(spec.output_dim, spec.input_dim))
        layers.append(Layer(weights, np.zeros(spec.output_dim), spec.activation))
    return NetworkState(layers)


def as_batch(state: NetworkState, inputs) -> np.ndarray:
    """Validate a sample matrix against the network input contract."""
    x = np.asarray(inputs, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"inputs must be a 2-d matrix, got shape {x.shape}")
    if x.shape[1] != state.input_dim:
        raise ShapeError(
            f"input dimension {x.shape[1]} does not match network input {state.input_dim}"
        )
    if not np.isfinite(x).all():
        raise ValidationError("inputs contain non-finite values")
    return x


def apply_layer(layer: Layer, x: np.ndarray) -> np.ndarray:
    """The layer's output as a new array; x is only read. The bias and the
    activation go into the product in place, so a layer holds one output-sized
    array at a time, with the same bits as ``np.maximum(x @ W.T + b, 0.0)``."""
    z = x @ layer.weights.T
    z += layer.bias
    if layer.activation == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def forward(state: NetworkState, inputs) -> np.ndarray:
    """Class probabilities, one row per sample, rows summing to 1. The softmax
    runs in place in the logits, which the last layer allocated."""
    z = as_batch(state, inputs)
    for layer in state.layers:
        z = apply_layer(layer, z)
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def _flat_views(buffer: np.ndarray, specs: list[LayerSpec]) -> tuple[list, list]:
    """Per-layer weight and bias views over the last axis of a buffer laid out
    weights-then-bias, layer by layer; leading axes (sessions) are kept."""
    lead = buffer.shape[:-1]
    weights, biases = [], []
    offset = 0
    for spec in specs:
        w_size = spec.output_dim * spec.input_dim
        weights.append(buffer[..., offset:offset + w_size].reshape(*lead, spec.output_dim, spec.input_dim))
        offset += w_size
        biases.append(buffer[..., offset:offset + spec.output_dim])
        offset += spec.output_dim
    return weights, biases


def _flatten(weights, biases) -> np.ndarray:
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair], dtype=np.float64)


def loss_and_grad(weights, biases, activations, x, y, grad_w, grad_b, needs_grad) -> np.ndarray:
    """Mean softmax cross-entropy of each batch in a stack: session s has the
    batch (x[s], y[s]) and the parameters weights[k][s], biases[k][s]. Writes
    the gradient of every layer k with needs_grad[k] into grad_w[k]/grad_b[k],
    leaves the others alone, and returns the per-session losses.

    Every batch of the stack has the same row count. Each session's slice goes
    through the same BLAS calls, with the same shapes, as it would alone, so
    its figures do not depend on the other sessions. Inputs are trusted:
    callers validate them.
    """
    sessions, n = y.shape
    outputs = [x]
    out = x
    for w, b, activation in zip(weights, biases, activations):
        out = np.matmul(out, w.transpose(0, 2, 1))
        out += b[:, None, :]
        if activation == "relu":
            np.maximum(out, 0.0, out=out)
        outputs.append(out)
    z = out
    z_max = z.max(axis=2, keepdims=True)
    delta = np.exp(z - z_max)
    total = delta.sum(axis=2)
    index = (np.arange(sessions)[:, None], np.arange(n), y)
    losses = np.add.reduce(np.log(total) + z_max[:, :, 0] - z[index], axis=1) / n

    delta /= total[:, :, None]
    delta[index] -= 1.0
    delta /= n
    for k in range(len(weights) - 1, -1, -1):
        if needs_grad[k]:
            np.matmul(delta.transpose(0, 2, 1), outputs[k], out=grad_w[k])
            np.add.reduce(delta, axis=1, out=grad_b[k])
        if k:
            delta = np.matmul(delta, weights[k])
            if activations[k - 1] == "relu":
                delta *= outputs[k] > 0.0
    return losses


def _step_layout(
    specs: list[LayerSpec], config: TrainConfig, head_multiplier: float
) -> tuple[np.ndarray, slice, list[bool]]:
    """The one reading of the rates: per-element learning rates of the flat
    layout, the span of the layers that train, and per layer whether it
    trains (its rate is not zero).

    The representation layers, all but the last, train at base_lr > 0 and the
    head at base_lr * head_multiplier; only the head can be frozen, so the
    layers that train are a prefix and the span starts at 0.
    """
    validate_layer_specs(specs)
    if not (math.isfinite(head_multiplier) and head_multiplier >= 0):  # NaN would freeze every layer
        raise ConfigError(f"head_multiplier must be >= 0 and finite, got {head_multiplier}")
    rates = [config.base_lr] * (len(specs) - 1) + [config.base_lr * head_multiplier]
    sizes = [spec.output_dim * (spec.input_dim + 1) for spec in specs]
    trains = [rate > 0 for rate in rates]
    return np.repeat(rates, sizes), slice(0, sum(itertools.compress(sizes, trains))), trains


def sgd_update(params: np.ndarray, velocity: np.ndarray, grads: np.ndarray, lr: np.ndarray, momentum: float) -> None:
    """One momentum-SGD step in place on arrays of one shape, ``lr`` broadcast
    over their last axis: velocity <- momentum * velocity - lr * grads, then
    params <- params + velocity; grads is overwritten."""
    grads *= lr
    velocity *= momentum
    velocity -= grads
    params += velocity
    if not np.isfinite(params).all():
        raise TrainingDiverged("parameter update produced non-finite values")


def replace_head(state: NetworkState, new_label_count: int, init_seed: int) -> NetworkState:
    """A new head of the new width; the representation layers are carried over
    untouched. New weights are Gaussian with std 0.01, biases zero, so the
    fresh head starts near-uniform.
    """
    if new_label_count < 2:
        raise ValidationError("new_label_count must be >= 2")
    head = state.layers[-1]
    weights = np.random.default_rng(init_seed).normal(0.0, 0.01, size=(new_label_count, head.weights.shape[1]))
    return NetworkState([*state.layers[:-1], Layer(weights, np.zeros(new_label_count), head.activation)])


@dataclass(frozen=True)
class Session:
    """One run of ``train``: a starting state, its samples and labels, and its shuffle seed."""

    state: NetworkState
    features: np.ndarray
    labels: np.ndarray
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
    times the base rate, and the sessions must share their layer specs.
    Inputs are validated once. Training runs on a private [sessions,
    parameters] copy, so the callers' states are never modified; frozen layers
    (a zero rate) get no gradients and their parameters come back bit-identical. The
    copy holds the sessions largest first (a stable sort by row count), so at
    every step the sessions with a batch of the same size are a slice of it
    and take that step together; a session with fewer batches sits out the
    extra steps, its velocity untouched. Each session's result is
    bit-identical to training it alone.
    """
    sessions = list(sessions)
    if not sessions:
        raise ConfigError("train needs at least one session")
    specs = layer_specs(sessions[0].state)
    if any(layer_specs(session.state) != specs for session in sessions[1:]):
        raise ConfigError("lockstep sessions must share their layer specs")
    xs = [as_batch(session.state, session.features) for session in sessions]
    ys = [LabeledSet(x, session.labels, session.state.label_count).labels for session, x in zip(sessions, xs)]
    order = sorted(range(len(sessions)), key=lambda i: xs[i].shape[0], reverse=True)
    sessions, xs, ys = ([seq[i] for i in order] for seq in (sessions, xs, ys))
    sizes = [x.shape[0] for x in xs]
    lr, trainable, needs_grad = _step_layout(specs, config, head_multiplier)
    params = np.stack([
        _flatten([l.weights for l in session.state.layers], [l.bias for l in session.state.layers])
        for session in sessions
    ])
    grads = np.zeros_like(params)
    velocity = np.zeros_like(params)
    activations = [spec.activation for spec in specs]
    lr_t = lr[trainable]
    views = {}

    def first_bad(members: slice, finite: np.ndarray) -> int:
        """The row in members of the first session, in the caller's order, that is not finite."""
        return min(np.flatnonzero(~finite), key=lambda row: order[members.start + row])

    def step(epoch, members: slice, x, y) -> np.ndarray:
        """One batch for the sessions in members; returns their losses."""
        key = (members.start, members.stop)
        if key not in views:
            part, part_grads = params[members], grads[members]
            views[key] = (*_flat_views(part, specs), *_flat_views(part_grads, specs),
                          part[:, trainable], velocity[members, trainable], part_grads[:, trainable])
        weights, biases, grad_w, grad_b, part_p, part_v, part_g = views[key]
        losses = loss_and_grad(weights, biases, activations, x, y, grad_w, grad_b, needs_grad)
        if not np.isfinite(losses).all():
            bad = first_bad(members, np.isfinite(losses))
            raise TrainingDiverged(
                f"training diverged at epoch {epoch} in session {order[members.start + bad]} (loss={losses[bad]})"
            )
        try:
            sgd_update(part_p, part_v, part_g, lr_t, config.momentum)
        except TrainingDiverged:
            bad = first_bad(members, np.isfinite(part_p).all(axis=1))
            raise TrainingDiverged(
                f"parameter update produced non-finite values at epoch {epoch} in session {order[members.start + bad]}"
            ) from None
        return losses

    schedule = _step_groups(sizes, config.batch_size)
    x_epoch = np.zeros((len(sessions), sizes[0], xs[0].shape[1]))
    y_epoch = np.zeros((len(sessions), sizes[0]), dtype=np.int64)
    rngs = [np.random.default_rng(session.seed) for session in sessions]
    histories = [[] for _ in sessions]
    for epoch in range(config.epochs):
        for i, (rng, x, y) in enumerate(zip(rngs, xs, ys)):
            shuffle = rng.permutation(y.shape[0])
            x_epoch[i, :y.shape[0]] = x[shuffle]
            y_epoch[i, :y.shape[0]] = y[shuffle]
        totals = np.zeros(len(sessions))
        for start, groups in schedule:
            for size, members in groups:
                rows = slice(start, start + size)
                totals[members] += step(epoch, members, x_epoch[members, rows], y_epoch[members, rows]) * size
        for history, total, n in zip(histories, totals, sizes):
            history.append(float(total / n))
    results = [None] * len(sessions)
    for i, row, history in zip(order, params, histories):
        weights, biases = _flat_views(row, specs)
        layers = [Layer(w, b, spec.activation) for w, b, spec in zip(weights, biases, specs)]
        results[i] = (NetworkState(layers), history)
    return results


def accuracy(state: NetworkState, inputs, labels) -> float:
    return float(np.mean(forward(state, inputs).argmax(axis=1) == np.asarray(labels)))


def save_checkpoint(state: NetworkState, path) -> None:
    fields = [("layer", f"{s.input_dim} {s.output_dim} {s.activation}") for s in layer_specs(state)]
    arrays = [a for layer in state.layers for a in (layer.weights, layer.bias)]
    write_artifact(path, "checkpoint", fields, arrays)


def _parse_layer(line: str) -> LayerSpec:
    in_dim, out_dim, activation = line.split()
    return LayerSpec(int(in_dim), int(out_dim), activation)


def load_checkpoint(path) -> NetworkState:
    """Rebuild a state from its layer lines and blob; other manifest lines are ignored."""
    pairs, blob = read_artifact(path, "checkpoint")
    specs = manifest_values(pairs, "layer", path, _parse_layer)
    try:
        validate_layer_specs(specs)
    except ConfigError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    shapes = [shape for s in specs for shape in ((s.output_dim, s.input_dim), (s.output_dim,))]
    arrays, _ = unpack_blob(blob, path, shapes)
    return NetworkState([Layer(w, b, s.activation) for w, b, s in zip(arrays[::2], arrays[1::2], specs)])
