"""Dense feed-forward classifier with grouped parameters and momentum SGD.

Layers carry a group tag so the earlier "representation" part and the deeper
"classification" part of the model can be trained, frozen and swapped
independently. States are value objects: the public functions return new
NetworkState and Gradients objects and leave their arguments unchanged.
`train` copies the parameters into one private flat buffer, updates that copy
in place batch after batch, and never changes the caller's arrays.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, TrainingDiverged, ValidationError
from .manifest import manifest_value, manifest_values, read_artifact, unpack_blob, write_artifact

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
    label_count: int
    seed: int = 0

    @property
    def input_dim(self) -> int:
        return self.layers[0].weights.shape[1]


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
    return NetworkState(layers=layers, label_count=specs[-1].output_dim, seed=seed)


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


def logits(state: NetworkState, inputs) -> np.ndarray:
    x = as_batch(state, inputs)
    out = x
    for layer in state.layers:
        out = apply_layer(layer, out)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(state: NetworkState, inputs) -> np.ndarray:
    """Class probabilities, one row per sample, rows summing to 1."""
    return _softmax(logits(state, inputs))


def _check_labels(labels, label_count: int, n: int) -> np.ndarray:
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != n:
        raise ShapeError(f"labels must be a vector of length {n}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ValidationError("labels must be integers")
    if n == 0:
        raise ValidationError("need at least one sample")
    if y.min() < 0 or y.max() >= label_count:
        raise ValidationError(f"labels must lie in [0, {label_count})")
    return y.astype(np.int64)


def _flat_views(buffer: np.ndarray, specs: list[LayerSpec]) -> tuple[list, list]:
    """Per-layer weight and bias views over a buffer laid out weights-then-bias, layer by layer."""
    weights, biases = [], []
    offset = 0
    for spec in specs:
        w_size = spec.output_dim * spec.input_dim
        weights.append(buffer[offset:offset + w_size].reshape(spec.output_dim, spec.input_dim))
        offset += w_size
        biases.append(buffer[offset:offset + spec.output_dim])
        offset += spec.output_dim
    return weights, biases


def _flatten(weights, biases) -> np.ndarray:
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair], dtype=np.float64)


def _backprop(weights, biases, activations, x, y, grad_w, grad_b, needs_grad) -> float:
    """Mean softmax cross-entropy of (x, y); writes the gradient of every layer k
    with needs_grad[k] into grad_w[k]/grad_b[k] and leaves the others alone.

    Backprop stops at the lowest layer that needs a gradient. Inputs are
    trusted: callers validate them.
    """
    n = x.shape[0]
    outputs = [x]
    out = x
    for w, b, activation in zip(weights, biases, activations):
        out = out @ w.T
        out += b
        if activation == "relu":
            np.maximum(out, 0.0, out=out)
        outputs.append(out)
    z = out
    z_max = z.max(axis=1, keepdims=True)
    delta = np.exp(z - z_max)
    total = delta.sum(axis=1)
    rows = np.arange(n)
    loss = float(np.mean(np.log(total) + z_max[:, 0] - z[rows, y]))

    delta /= total[:, None]
    delta[rows, y] -= 1.0
    delta /= n
    lowest = needs_grad.index(True) if True in needs_grad else len(weights)
    for k in range(len(weights) - 1, lowest - 1, -1):
        if needs_grad[k]:
            np.matmul(delta.T, outputs[k], out=grad_w[k])
            np.sum(delta, axis=0, out=grad_b[k])
        if k > lowest:
            delta = delta @ weights[k]
            if activations[k - 1] == "relu":
                delta *= outputs[k] > 0.0
    return loss


def loss_and_grad(state: NetworkState, inputs, labels) -> tuple[float, Gradients]:
    """Mean softmax cross-entropy and its gradient for every parameter.

    Gradients are populated for frozen groups too; freezing is applied at
    update time.
    """
    x = as_batch(state, inputs)
    y = _check_labels(labels, state.label_count, x.shape[0])
    grads = Gradients(
        [np.empty(layer.weights.shape) for layer in state.layers],
        [np.empty(layer.bias.shape) for layer in state.layers],
    )
    loss = _backprop(
        [layer.weights for layer in state.layers],
        [layer.bias for layer in state.layers],
        [layer.activation for layer in state.layers],
        x, y, grads.weights, grads.biases, [True] * len(state.layers),
    )
    return loss, grads


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
    new_state = NetworkState(new_layers, state.label_count, state.seed)
    return new_state, Gradients(*_flat_views(new_velocity, specs))


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
    return NetworkState(layers, new_label_count, state.seed)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    mean_loss: float
    elapsed_ms: float


def train(
    state: NetworkState, features, labels, config: TrainConfig
) -> tuple[NetworkState, list[EpochStats]]:
    """Epoch loop: seeded shuffling, mini-batches, last partial batch kept.

    Inputs are validated once. Training runs on a private flat copy of the
    parameters, so the caller's state is never modified; frozen layers get
    no weight gradients and their parameters come back bit-identical.
    """
    x = as_batch(state, features)
    n = x.shape[0]
    y = _check_labels(labels, state.label_count, n)
    specs = layer_specs(state)
    lr, trainable = _step_layout(specs, config)
    params = _flatten([l.weights for l in state.layers], [l.bias for l in state.layers])
    grads = np.zeros_like(params)
    velocity = np.zeros_like(params)
    weights, biases = _flat_views(params, specs)
    grad_w, grad_b = _flat_views(grads, specs)
    activations = [spec.activation for spec in specs]
    needs_grad = [spec.group not in config.frozen_groups for spec in specs]
    params_t, velocity_t, grads_t, lr_t = (a[trainable] for a in (params, velocity, grads, lr))

    rng = np.random.default_rng(config.seed)
    history = []
    for epoch in range(config.epochs):
        start_time = time.perf_counter()
        order = rng.permutation(n)
        x_epoch, y_epoch = x[order], y[order]
        total = 0.0
        for start in range(0, n, config.batch_size):
            xb = x_epoch[start:start + config.batch_size]
            yb = y_epoch[start:start + config.batch_size]
            loss = _backprop(weights, biases, activations, xb, yb, grad_w, grad_b, needs_grad)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"training diverged at epoch {epoch} (loss={loss})")
            _velocity_step(velocity_t, grads_t, lr_t, config.momentum)
            _apply_step(params_t, velocity_t)
            total += loss * len(xb)
        elapsed_ms = (time.perf_counter() - start_time) * 1e3
        history.append(EpochStats(epoch, total / n, elapsed_ms))
    layers = [
        Layer(w, b, spec.activation, spec.group) for w, b, spec in zip(weights, biases, specs)
    ]
    return NetworkState(layers, state.label_count, state.seed), history


def predict(state: NetworkState, inputs) -> np.ndarray:
    return forward(state, inputs).argmax(axis=1)


def accuracy(state: NetworkState, inputs, labels) -> float:
    y = np.asarray(labels)
    return float(np.mean(predict(state, inputs) == y))


def save_checkpoint(state: NetworkState, path) -> None:
    fields: list[tuple[str, object]] = [
        ("label_count", state.label_count),
        ("seed", state.seed),
    ]
    arrays = []
    total = 0
    for layer in state.layers:
        spec = layer.spec
        fields.append(("layer", f"{spec.input_dim} {spec.output_dim} {spec.activation} {spec.group}"))
        arrays.extend([layer.weights, layer.bias])
        total += layer.weights.size + layer.bias.size
    fields.append(("params", total))
    write_artifact(path, "checkpoint", fields, arrays)


def load_checkpoint(path) -> NetworkState:
    pairs, blob = read_artifact(path, "checkpoint")
    label_count = int(manifest_value(pairs, "label_count", path))
    seed = int(manifest_value(pairs, "seed", path))
    specs = []
    for line in manifest_values(pairs, "layer"):
        in_dim, out_dim, activation, group = line.split()
        specs.append(LayerSpec(int(in_dim), int(out_dim), activation, group))
    validate_layer_specs(specs)
    total = int(manifest_value(pairs, "params", path))
    if total != sum(s.input_dim * s.output_dim + s.output_dim for s in specs):
        raise ValidationError(f"{path}: params count does not match the layers")
    shapes = [shape for s in specs for shape in ((s.output_dim, s.input_dim), (s.output_dim,))]
    arrays, _ = unpack_blob(blob, path, shapes)
    layers = [Layer(w, b, s.activation, s.group) for w, b, s in zip(arrays[::2], arrays[1::2], specs)]
    if label_count != specs[-1].output_dim:
        raise ValidationError(f"{path}: label_count does not match the final layer width")
    return NetworkState(layers, label_count, seed)
