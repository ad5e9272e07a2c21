"""Dense feed-forward classifier with grouped parameters and momentum SGD.

Layers carry a group tag so the earlier "representation" part and the deeper
"classification" part of the model can be trained, frozen and swapped
independently. States are value objects: the public functions return new
NetworkState and Gradients objects and leave their arguments unchanged.
`train` runs several sessions of one architecture in lockstep: it orders them
by row count, largest first, copies their parameters into one private
[sessions, parameters] buffer, and at every step trains each run of adjacent
sessions that share a batch size on a slice of that buffer: one stacked matmul
per layer, updated in place. It never changes the caller's arrays.
"""

from __future__ import annotations

import itertools
import logging
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .data import LabeledSet
from .errors import ConfigError, ShapeError, TrainingDiverged, ValidationError
from .manifest import manifest_values, read_artifact, unpack_blob, write_artifact

logger = logging.getLogger(__name__)

REPRESENTATION = "representation"
CLASSIFICATION = "classification"
GROUPS = (REPRESENTATION, CLASSIFICATION)
ACTIVATIONS = ("relu", "identity")


@dataclass(frozen=True)
class LayerSpec:
    """Shape, activation and parameter group of one dense layer."""

    input_dim: int
    output_dim: int
    activation: str
    group: str


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 16
    base_lr: float = 3e-4
    classifier_lr_multiplier: float = 1.0
    momentum: float = 0.9
    frozen_groups: frozenset = frozenset()
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.base_lr <= 0 or self.classifier_lr_multiplier <= 0:
            raise ConfigError("learning rates must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError("momentum must lie in [0, 1)")
        unknown = set(self.frozen_groups) - set(GROUPS)
        if unknown:
            raise ConfigError(f"unknown parameter groups: {sorted(unknown)}")


@dataclass
class Layer:
    weights: np.ndarray  # [output_dim, input_dim]
    bias: np.ndarray  # [output_dim]
    activation: str
    group: str

    @property
    def spec(self) -> LayerSpec:
        return LayerSpec(self.weights.shape[1], self.weights.shape[0], self.activation, self.group)


@dataclass
class NetworkState:
    layers: list[Layer]

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]

    @property
    def label_count(self) -> int:
        return self.layers[-1].weights.shape[0]


@dataclass
class Gradients:
    """Per-layer weight and bias arrays, shape-identical to a NetworkState."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def validate_layer_specs(specs: list[LayerSpec]) -> None:
    if not specs:
        raise ConfigError("network needs at least one layer")
    for i, spec in enumerate(specs):
        if spec.input_dim < 1 or spec.output_dim < 1:
            raise ConfigError(f"layer {i}: dimensions must be positive")
        if spec.activation not in ACTIVATIONS:
            raise ConfigError(f"layer {i}: unknown activation '{spec.activation}'")
        if spec.group not in GROUPS:
            raise ConfigError(f"layer {i}: unknown group '{spec.group}'")
        if i and specs[i - 1].output_dim != spec.input_dim:
            raise ConfigError(
                f"layer {i}: input_dim {spec.input_dim} does not chain with "
                f"previous output_dim {specs[i - 1].output_dim}"
            )
    if specs[-1].activation != "identity" or specs[-1].group != CLASSIFICATION:
        raise ConfigError("final layer must be an identity-activation classification layer")
    groups = [spec.group for spec in specs]
    if REPRESENTATION not in groups:
        raise ConfigError("need at least one representation layer")
    first_cls = groups.index(CLASSIFICATION)
    if REPRESENTATION in groups[first_cls:]:
        raise ConfigError("representation layers must precede classification layers")


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
        layers.append(Layer(weights, np.zeros(spec.output_dim), spec.activation, spec.group))
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
    z = x @ layer.weights.T + layer.bias
    if layer.activation == "relu":
        return np.maximum(z, 0.0)
    return z


def forward(state: NetworkState, inputs) -> np.ndarray:
    """Class probabilities, one row per sample, rows summing to 1."""
    z = as_batch(state, inputs)
    for layer in state.layers:
        z = apply_layer(layer, z)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


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


def _backprop(weights, biases, activations, x, y, grad_w, grad_b, needs_grad) -> np.ndarray:
    """Mean softmax cross-entropy of each batch in a stack: session s has the
    batch (x[s], y[s]) and the parameters weights[k][s], biases[k][s]. Writes
    the gradient of every layer k with needs_grad[k] into grad_w[k]/grad_b[k],
    leaves the others alone, and returns the per-session losses.

    Every batch of the stack has the same row count. Each session's slice goes
    through the same BLAS calls, with the same shapes, as it would alone, so
    its figures do not depend on the other sessions. Backprop stops at the
    lowest layer that needs a gradient. Inputs are trusted: callers validate them.
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
    lowest = needs_grad.index(True) if True in needs_grad else len(weights)
    for k in range(len(weights) - 1, lowest - 1, -1):
        if needs_grad[k]:
            np.matmul(delta.transpose(0, 2, 1), outputs[k], out=grad_w[k])
            np.add.reduce(delta, axis=1, out=grad_b[k])
        if k > lowest:
            delta = np.matmul(delta, weights[k])
            if activations[k - 1] == "relu":
                delta *= outputs[k] > 0.0
    return losses


def loss_and_grad(state: NetworkState, inputs, labels) -> tuple[float, Gradients]:
    """Mean softmax cross-entropy and its gradient for every parameter.

    Gradients are populated for frozen groups too; freezing is applied at
    update time.
    """
    x = as_batch(state, inputs)
    y = LabeledSet(x, labels, state.label_count).labels
    grads = Gradients(
        [np.empty(layer.weights.shape) for layer in state.layers],
        [np.empty(layer.bias.shape) for layer in state.layers],
    )
    (loss,) = _backprop(
        [layer.weights[None] for layer in state.layers],
        [layer.bias[None] for layer in state.layers],
        [layer.activation for layer in state.layers],
        x[None], y[None],
        [g[None] for g in grads.weights], [g[None] for g in grads.biases],
        [True] * len(state.layers),
    )
    return float(loss), grads


def zero_velocity(state: NetworkState) -> Gradients:
    return Gradients(
        [np.zeros_like(layer.weights) for layer in state.layers],
        [np.zeros_like(layer.bias) for layer in state.layers],
    )


def _check_same_shapes(state: NetworkState, grads: Gradients, name: str) -> None:
    if len(grads.weights) != len(state.layers) or len(grads.biases) != len(state.layers):
        raise ShapeError(f"{name} layer count does not match the network")
    for layer, gw, gb in zip(state.layers, grads.weights, grads.biases):
        if gw.shape != layer.weights.shape or gb.shape != layer.bias.shape:
            raise ShapeError(f"{name} shapes do not match the network parameters")


def _step_layout(specs: list[LayerSpec], config: TrainConfig) -> tuple[np.ndarray, slice]:
    """Per-element learning rates of the flat layout, zero for frozen groups,
    and the span of the trainable parameters.

    The span is contiguous because validate_layer_specs puts every
    representation layer before every classification layer.
    """
    validate_layer_specs(specs)
    rates, sizes = [], []
    for spec in specs:
        if spec.group in config.frozen_groups:
            rates.append(0.0)
        elif spec.group == CLASSIFICATION:
            rates.append(config.base_lr * config.classifier_lr_multiplier)
        else:
            rates.append(config.base_lr)
        sizes.append(spec.output_dim * (spec.input_dim + 1))
    offsets = [0, *itertools.accumulate(sizes)]
    trainable = [i for i, spec in enumerate(specs) if spec.group not in config.frozen_groups]
    span = slice(offsets[trainable[0]], offsets[trainable[-1] + 1]) if trainable else slice(0, 0)
    return np.repeat(rates, sizes), span


def _velocity_step(velocity: np.ndarray, grads: np.ndarray, lr: np.ndarray, momentum: float) -> None:
    """velocity <- momentum * velocity - lr * grads, in place; grads is overwritten."""
    grads *= lr
    velocity *= momentum
    velocity -= grads


def _apply_step(params: np.ndarray, velocity: np.ndarray) -> None:
    params += velocity
    if not np.isfinite(params).all():
        raise TrainingDiverged("parameter update produced non-finite values")


def sgd_update(
    state: NetworkState, grads: Gradients, velocity: Gradients, config: TrainConfig
) -> tuple[NetworkState, Gradients]:
    """One momentum-SGD step with per-group learning rates.

    Frozen groups keep their parameter arrays untouched (bit-identical); their
    velocity follows the same recursion with a zero learning rate.
    """
    _check_same_shapes(state, grads, "gradients")
    _check_same_shapes(state, velocity, "velocity")
    specs = layer_specs(state)
    lr, trainable = _step_layout(specs, config)
    params = _flatten([l.weights for l in state.layers], [l.bias for l in state.layers])
    new_velocity = _flatten(velocity.weights, velocity.biases)
    _velocity_step(new_velocity, _flatten(grads.weights, grads.biases), lr, config.momentum)
    _apply_step(params[trainable], new_velocity[trainable])
    weights, biases = _flat_views(params, specs)
    new_layers = [
        layer if layer.group in config.frozen_groups
        else Layer(w, b, layer.activation, layer.group)
        for layer, w, b in zip(state.layers, weights, biases)
    ]
    return NetworkState(new_layers), Gradients(*_flat_views(new_velocity, specs))


def replace_head(state: NetworkState, new_label_count: int, init_seed: int) -> NetworkState:
    """Reinitialize every classification layer; the last gets the new width.

    Representation layers are carried over untouched. New weights are Gaussian
    with std 0.01, biases zero, so the fresh head starts near-uniform.
    """
    if new_label_count < 2:
        raise ValidationError("new_label_count must be >= 2")
    rng = np.random.default_rng(init_seed)
    last = len(state.layers) - 1
    layers = []
    for i, layer in enumerate(state.layers):
        if layer.group != CLASSIFICATION:
            layers.append(layer)
            continue
        out_dim = new_label_count if i == last else layer.weights.shape[0]
        weights = rng.normal(0.0, 0.01, size=(out_dim, layer.weights.shape[1]))
        layers.append(Layer(weights, np.zeros(out_dim), layer.activation, layer.group))
    return NetworkState(layers)


@dataclass(frozen=True)
class Session:
    """One run of ``train``: a starting state, its samples and labels, and its config."""

    state: NetworkState
    features: np.ndarray
    labels: np.ndarray
    config: TrainConfig


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


def train(sessions: Sequence[Session]) -> list[tuple[NetworkState, list[float]]]:
    """Epoch loop over sessions in lockstep: per-session seeded shuffling,
    mini-batches, last partial batch kept; one (state, per-epoch mean losses)
    per session, in the caller's order.

    The sessions must share their layer specs and every config field but the
    seed. Inputs are validated once. Training runs on a private [sessions,
    parameters] copy, so the callers' states are never modified; frozen layers
    get no weight gradients and their parameters come back bit-identical. The
    copy holds the sessions largest first (a stable sort by row count), so at
    every step the sessions with a batch of the same size are a slice of it
    and take that step together; a session with fewer batches sits out the
    extra steps, its velocity untouched. Each session's result is
    bit-identical to training it alone.
    """
    sessions = list(sessions)
    if not sessions:
        raise ConfigError("train needs at least one session")
    config = sessions[0].config
    specs = layer_specs(sessions[0].state)
    for session in sessions[1:]:
        if layer_specs(session.state) != specs:
            raise ConfigError("lockstep sessions must share their layer specs")
        if replace(session.config, seed=config.seed) != config:
            raise ConfigError("lockstep sessions may differ only in their seed")
    xs = [as_batch(session.state, session.features) for session in sessions]
    ys = [LabeledSet(x, session.labels, session.state.label_count).labels for session, x in zip(sessions, xs)]
    order = sorted(range(len(sessions)), key=lambda i: xs[i].shape[0], reverse=True)
    sessions, xs, ys = ([seq[i] for i in order] for seq in (sessions, xs, ys))
    sizes = [x.shape[0] for x in xs]
    lr, trainable = _step_layout(specs, config)
    params = np.stack([
        _flatten([l.weights for l in session.state.layers], [l.bias for l in session.state.layers])
        for session in sessions
    ])
    grads = np.zeros_like(params)
    velocity = np.zeros_like(params)
    activations = [spec.activation for spec in specs]
    needs_grad = [spec.group not in config.frozen_groups for spec in specs]
    lr_t = lr[trainable]
    views = {}

    def step(epoch, members: slice, x, y) -> np.ndarray:
        """One batch for the sessions in members; returns their losses."""
        key = (members.start, members.stop)
        if key not in views:
            part, part_grads = params[members], grads[members]
            views[key] = (*_flat_views(part, specs), *_flat_views(part_grads, specs),
                          part[:, trainable], velocity[members, trainable], part_grads[:, trainable])
        weights, biases, grad_w, grad_b, part_p, part_v, part_g = views[key]
        losses = _backprop(weights, biases, activations, x, y, grad_w, grad_b, needs_grad)
        if not np.isfinite(losses).all():
            bad = int(np.flatnonzero(~np.isfinite(losses))[0])
            raise TrainingDiverged(
                f"training diverged at epoch {epoch} in session {order[members.start + bad]} (loss={losses[bad]})"
            )
        _velocity_step(part_v, part_g, lr_t, config.momentum)
        _apply_step(part_p, part_v)
        return losses

    schedule = _step_groups(sizes, config.batch_size)
    x_epoch = np.zeros((len(sessions), sizes[0], xs[0].shape[1]))
    y_epoch = np.zeros((len(sessions), sizes[0]), dtype=np.int64)
    rngs = [np.random.default_rng(session.config.seed) for session in sessions]
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
        layers = [Layer(w, b, spec.activation, spec.group) for w, b, spec in zip(weights, biases, specs)]
        results[i] = (NetworkState(layers), history)
    return results


def accuracy(state: NetworkState, inputs, labels) -> float:
    return float(np.mean(forward(state, inputs).argmax(axis=1) == np.asarray(labels)))


def save_checkpoint(state: NetworkState, path) -> None:
    fields = [("layer", f"{s.input_dim} {s.output_dim} {s.activation} {s.group}") for s in layer_specs(state)]
    arrays = [a for layer in state.layers for a in (layer.weights, layer.bias)]
    write_artifact(path, "checkpoint", fields, arrays)


def _parse_layer(line: str) -> LayerSpec:
    in_dim, out_dim, activation, group = line.split()
    return LayerSpec(int(in_dim), int(out_dim), activation, group)


def load_checkpoint(path) -> NetworkState:
    """Rebuild a state from its layer lines and blob; other manifest lines are ignored."""
    pairs, blob = read_artifact(path, "checkpoint")
    specs = manifest_values(pairs, "layer", path, _parse_layer)
    validate_layer_specs(specs)
    shapes = [shape for s in specs for shape in ((s.output_dim, s.input_dim), (s.output_dim,))]
    arrays, _ = unpack_blob(blob, path, shapes)
    return NetworkState([Layer(w, b, s.activation, s.group) for w, b, s in zip(arrays[::2], arrays[1::2], specs)])
