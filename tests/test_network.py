import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pretext_transfer.clustering import extract_projection
from pretext_transfer.errors import ConfigError, ShapeError, TrainingDiverged, ValidationError
from pretext_transfer.manifest import write_artifact
from pretext_transfer.network import (
    Layer,
    LayerSpec,
    NetworkState,
    Session,
    TrainConfig,
    _flat_views,
    _flatten,
    _step_layout,
    accuracy,
    apply_layer,
    forward,
    init_network,
    layer_specs,
    load_checkpoint,
    loss_and_grad,
    replace_head,
    save_checkpoint,
    sgd_update,
    train,
    validate_layer_specs,
)

TWO_LAYER_SPECS = [
    LayerSpec(4, 6, "relu"),
    LayerSpec(6, 3, "identity"),
]

THREE_LAYER_SPECS = [
    LayerSpec(4, 8, "relu"),
    LayerSpec(8, 5, "identity"),
    LayerSpec(5, 3, "identity"),
]
TWO_HIDDEN_SPECS = [
    LayerSpec(4, 8, "relu"),
    LayerSpec(8, 6, "relu"),
    LayerSpec(6, 5, "relu"),
    LayerSpec(5, 4, "identity"),
    LayerSpec(4, 3, "identity"),
]


def train_one(state, x, y, cfg, seed=0, head_multiplier=1.0):
    """train() of a single session."""
    [result] = train([Session(state, x, y, seed)], cfg, head_multiplier)
    return result


def small_state(seed=0, specs=None):
    return init_network(specs or TWO_LAYER_SPECS, seed=seed)


def flatten_params(state):
    return np.concatenate(
        [np.concatenate([l.weights.ravel(), l.bias.ravel()]) for l in state.layers]
    )


def state_bytes(state):
    return b"".join(l.weights.tobytes() + l.bias.tobytes() for l in state.layers)


def stacked_loss_and_grad(state, x, y, needs_grad=None, fill=0.0):
    """loss_and_grad on a stack of one session: its loss and per-layer
    gradient buffers, which start filled with ``fill``."""
    grad_w = [np.full((1, *l.weights.shape), fill) for l in state.layers]
    grad_b = [np.full((1, *l.bias.shape), fill) for l in state.layers]
    (loss,) = loss_and_grad(
        [l.weights[None] for l in state.layers], [l.bias[None] for l in state.layers],
        [l.activation for l in state.layers], x[None], y[None], grad_w, grad_b,
        needs_grad or [True] * len(state.layers),
    )
    return float(loss), grad_w, grad_b


def reference_loss(state, x, y):
    """Mean cross-entropy from forward's probabilities, independent of loss_and_grad."""
    return -float(np.mean(np.log(forward(state, x)[np.arange(len(y)), y])))


def numeric_gradient(state, x, y, step=1e-5):
    """Central finite differences of reference_loss over every parameter, the gradient oracle."""
    grads = []
    for layer in state.layers:
        for arr_name in ("weights", "bias"):
            arr = getattr(layer, arr_name)
            grad = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = arr[idx]
                arr[idx] = original + step
                loss_plus = reference_loss(state, x, y)
                arr[idx] = original - step
                loss_minus = reference_loss(state, x, y)
                arr[idx] = original
                grad[idx] = (loss_plus - loss_minus) / (2 * step)
            grads.append(grad)
    return grads


def max_relative_error(analytic, numeric):
    # the 1e-3 floor guards against fp noise on near-zero entries
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-3)
        worst = max(worst, float((np.abs(a - n) / denom).max()))
    return worst


class TestForward:
    def test_zero_network_is_uniform(self):
        specs = [
            LayerSpec(3, 4, "relu"),
            LayerSpec(4, 4, "identity"),
        ]
        state = small_state(specs=specs)
        for layer in state.layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        probs = forward(state, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.allclose(probs, 0.25)

    def test_identity_layer_matches_hand_softmax(self):
        state = NetworkState(
            layers=[
                Layer(np.eye(2), np.zeros(2), "identity"),
                Layer(np.eye(2), np.zeros(2), "identity"),
            ],
        )
        probs = forward(state, np.array([[1.0, 0.0]]))
        expected = np.array([math.e / (math.e + 1.0), 1.0 / (math.e + 1.0)])
        assert np.allclose(probs[0], expected, atol=1e-9)

    def test_rows_sum_to_one(self):
        state = small_state(seed=3)
        rng = np.random.default_rng(7)
        for _ in range(100):
            probs = forward(state, rng.normal(size=(4, 4)))
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
            assert (probs > 0).all() and (probs < 1).all()

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            forward(small_state(), np.zeros((2, 5)))

    def test_non_finite_input(self):
        with pytest.raises(ValidationError):
            forward(small_state(), np.array([[np.nan, 0.0, 0.0, 0.0]]))


# the experiment's default network: 16 features, hidden 32, projection 16, 10 classes
DEFAULT_SPECS = [
    LayerSpec(16, 32, "relu"),
    LayerSpec(32, 16, "identity"),
    LayerSpec(16, 10, "identity"),
]


def reference_layer(layer, x):
    z = x @ layer.weights.T + layer.bias
    return np.maximum(z, 0.0) if layer.activation == "relu" else z


class TestInPlaceKernels:
    """apply_layer and forward write into the arrays they allocate, with the
    bits of the plain expressions and without touching the caller's input."""

    @pytest.mark.parametrize("rows", [1, 7, 256, 1000])
    def test_apply_layer_bit_identical_to_reference(self, rows):
        state = init_network(DEFAULT_SPECS, seed=rows)
        x = np.random.default_rng(rows).normal(scale=3.0, size=(rows, 16))
        for layer in state.layers:
            got, expected = apply_layer(layer, x), reference_layer(layer, x)
            assert got.tobytes() == expected.tobytes()
            x = expected

    @pytest.mark.parametrize("rows", [1, 7, 256, 1000])
    def test_forward_bit_identical_to_reference(self, rows):
        state = init_network(DEFAULT_SPECS, seed=rows)
        x = np.random.default_rng(rows).normal(scale=3.0, size=(rows, 16))
        z = x
        for layer in state.layers:
            z = reference_layer(layer, z)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        assert forward(state, x).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

    def test_c_ordered_float64_input_unchanged(self):
        state = init_network(DEFAULT_SPECS, seed=1)
        x = np.random.default_rng(1).normal(size=(50, 16))
        kept = x.copy()
        for fn in (forward, extract_projection):
            out = fn(state, x)
            assert not np.shares_memory(out, x)
            assert x.tobytes() == kept.tobytes()

    @pytest.mark.parametrize("fn", [forward, extract_projection], ids=["forward", "extract_projection"])
    def test_peak_memory_is_one_array_per_layer(self, fn):
        # the hidden and projection outputs must coexist for one product; any
        # further full-size temporary (a bias sum, an activation copy) breaks this
        rows = 20000
        state = init_network(DEFAULT_SPECS, seed=0)
        x = np.random.default_rng(0).normal(size=(rows, 16))
        needed = rows * (32 + 16) * x.itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fn(state, x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * needed


class TestLossAndGrad:
    """The step's gradient kernel, on a stack of one session."""

    def test_uniform_loss_is_ln2(self):
        specs = [
            LayerSpec(3, 4, "relu"),
            LayerSpec(4, 2, "identity"),
        ]
        state = small_state(specs=specs)
        for layer in state.layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        loss, _, _ = stacked_loss_and_grad(state, np.ones((6, 3)), np.array([0, 1, 0, 1, 1, 0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction_zero_loss(self):
        state = NetworkState(
            layers=[
                Layer(np.eye(2), np.zeros(2), "identity"),
                Layer(np.array([[1000.0, 0.0], [0.0, 1000.0]]), np.zeros(2), "identity"),
            ],
        )
        loss, _, _ = stacked_loss_and_grad(state, np.array([[1.0, 0.0]]), np.array([0]))
        assert loss == 0.0

    def test_gradients_match_finite_differences(self):
        # relu and identity hidden layers and the head: every layer is checked
        state = init_network(TWO_HIDDEN_SPECS, seed=11)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        loss, grad_w, grad_b = stacked_loss_and_grad(state, x, y)
        assert loss == pytest.approx(reference_loss(state, x, y), rel=1e-12)
        analytic = [g[0] for pair in zip(grad_w, grad_b) for g in pair]
        assert max_relative_error(analytic, numeric_gradient(state, x, y)) < 1e-4

    def test_layers_without_needs_grad_keep_their_buffers(self):
        state = init_network(THREE_LAYER_SPECS, seed=4)
        x, y = three_class_data(8)
        _, full_w, full_b = stacked_loss_and_grad(state, x, y)
        needs_grad = [True, False, True]
        _, grad_w, grad_b = stacked_loss_and_grad(state, x, y, needs_grad, fill=7.0)
        for k, needed in enumerate(needs_grad):
            for got, full in ((grad_w[k], full_w[k]), (grad_b[k], full_b[k])):
                assert got.tobytes() == (full.tobytes() if needed else np.full_like(got, 7.0).tobytes())

    def test_out_of_range_label(self):
        # the kernel trusts its labels; train validates them before any step
        with pytest.raises(ValidationError):
            train_one(small_state(), np.zeros((2, 4)), np.array([0, 3]), TrainConfig(epochs=1))


class TestSgdUpdate:
    """The step's update kernel, alone and with the rates of _step_layout."""

    ONE_PARAM_SPECS = [LayerSpec(1, 1, "identity"), LayerSpec(1, 2, "identity")]

    def test_vanilla_step(self):
        params = np.array([1.0])
        sgd_update(params, np.zeros(1), np.array([0.5]), np.array([0.1]), 0.0)
        assert params[0] == pytest.approx(0.95, abs=1e-15)

    def test_momentum_two_steps(self):
        # v1 = -0.1, theta1 = -0.1; v2 = 0.9*(-0.1) - 0.1 = -0.19, theta2 = -0.29
        params, velocity = np.zeros(1), np.zeros(1)
        for _ in range(2):
            sgd_update(params, velocity, np.ones(1), np.array([0.1]), 0.9)  # the gradients are overwritten
        assert params[0] == pytest.approx(-0.29, abs=1e-15)

    def unit_step(self, specs, cfg, head_multiplier, params):
        """One step of unit gradients over the trainable span of params, as train takes it."""
        lr, trainable, _ = _step_layout(specs, cfg, head_multiplier)
        sgd_update(params[trainable], np.zeros_like(params)[trainable], np.ones_like(params)[trainable],
                   lr[trainable], cfg.momentum)

    def test_classifier_multiplier_wiring(self):
        # the head trains at head_multiplier * base_lr, the representation at base_lr
        cfg = TrainConfig(epochs=1, base_lr=0.25, momentum=0.0)
        params = np.zeros(sum(s.output_dim * (s.input_dim + 1) for s in self.ONE_PARAM_SPECS))
        self.unit_step(self.ONE_PARAM_SPECS, cfg, 10.0, params)
        weights, biases = _flat_views(params, self.ONE_PARAM_SPECS)
        assert weights[0][0, 0] == -0.25 and biases[0][0] == -0.25
        assert (weights[1] == -2.5).all() and (biases[1] == -2.5).all()

    def test_frozen_group_is_bit_identical(self):
        # a zero multiplier leaves the head out of the trainable span, the only
        # part of the buffer that train's update writes
        specs = layer_specs(small_state())
        lr, trainable, trains = _step_layout(specs, TrainConfig(epochs=1), 0.0)
        head = specs[-1].output_dim * (specs[-1].input_dim + 1)
        assert trains == [True, False]
        assert (trainable.start, trainable.stop) == (0, lr.size - head)

    def test_every_trainable_element_moves(self):
        state = init_network(THREE_LAYER_SPECS, seed=0)
        params = _flatten([l.weights for l in state.layers], [l.bias for l in state.layers])
        self.unit_step(THREE_LAYER_SPECS, TrainConfig(epochs=1, base_lr=0.1, momentum=0.0), 0.0, params)
        weights, biases = _flat_views(params, THREE_LAYER_SPECS)
        last = len(state.layers) - 1
        for k, layer in enumerate(state.layers):
            for old, updated in [(layer.weights, weights[k]), (layer.bias, biases[k])]:
                if k == last:
                    assert updated.tobytes() == old.tobytes()
                else:
                    assert (updated != old).all()


class TestTrainConfig:
    """The settings of a training call: its TrainConfig, and the head
    multiplier that train is given next to it."""

    @pytest.mark.parametrize("bad", [
        dict(epochs=0), dict(batch_size=0), dict(base_lr=0.0), dict(head_multiplier=-1.0),
        dict(momentum=1.0), dict(momentum=-0.1),
        # a NaN rate compares false against 0 and would freeze every layer
        dict(base_lr=math.nan), dict(base_lr=math.inf),
        dict(head_multiplier=math.nan), dict(head_multiplier=math.inf),
    ], ids=["epochs", "batch_size", "base_lr", "multiplier", "momentum-1", "momentum-negative",
            "base_lr-nan", "base_lr-inf", "multiplier-nan", "multiplier-inf"])
    def test_rejects_bad_value(self, bad):
        settings = {"epochs": 1, "head_multiplier": 1.0, **bad}
        head_multiplier = settings.pop("head_multiplier")
        state = small_state()
        x, y = np.zeros((4, 4)), np.array([0, 1, 2, 0])
        with pytest.raises(ConfigError):
            train_one(state, x, y, TrainConfig(**settings), head_multiplier=head_multiplier)

    def test_zero_multiplier_is_accepted(self):
        state = small_state()
        trained, _ = train_one(state, np.eye(4), np.array([0, 1, 2, 0]), TrainConfig(epochs=1), head_multiplier=0.0)
        assert state_bytes(NetworkState(trained.layers[-1:])) == state_bytes(NetworkState(state.layers[-1:]))
        assert state_bytes(trained) != state_bytes(state)


class TestReplaceHead:
    def test_reinit_contract(self):
        state = small_state(seed=9)
        new = replace_head(state, 3, init_seed=4)
        assert new.layers[0].weights.tobytes() == state.layers[0].weights.tobytes()
        assert new.layers[1].weights.tobytes() != state.layers[1].weights.tobytes()
        assert (new.layers[1].bias == 0).all()

    def test_new_output_width(self):
        state = init_network(
            [
                LayerSpec(4, 6, "relu"),
                LayerSpec(6, 10, "identity"),
            ],
            seed=0,
        )
        new = replace_head(state, 2, init_seed=0)
        probs = forward(new, np.zeros((3, 4)))
        assert probs.shape == (3, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            replace_head(small_state(), 1, init_seed=0)


class TestTrain:
    def separable_data(self, n=40):
        rng = np.random.default_rng(12)
        x0 = rng.normal(loc=[-2, -2, 0, 0], scale=0.4, size=(n, 4))
        x1 = rng.normal(loc=[2, 2, 0, 0], scale=0.4, size=(n, 4))
        x = np.concatenate([x0, x1])
        y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
        return x, y

    def test_loss_decreases_on_separable_data(self):
        specs = [
            LayerSpec(4, 8, "relu"),
            LayerSpec(8, 2, "identity"),
        ]
        x, y = self.separable_data()
        cfg = TrainConfig(epochs=15, batch_size=16, base_lr=0.05, momentum=0.9)
        state, history = train_one(init_network(specs, seed=1), x, y, cfg, seed=1)
        assert history[-1] < history[0]
        assert accuracy(state, x, y) > 0.9

    def test_training_is_deterministic(self):
        x, y = self.separable_data(20)
        cfg = TrainConfig(epochs=3, batch_size=8, base_lr=0.01, momentum=0.9)
        first, _ = train_one(small_state(seed=5), x, y, cfg, seed=5)
        second, _ = train_one(small_state(seed=5), x, y, cfg, seed=5)
        assert state_bytes(first) == state_bytes(second)

    def test_partial_last_batch_used(self):
        x, y = self.separable_data(11)  # 22 samples, batch 16 -> partial batch of 6
        cfg = TrainConfig(epochs=1, batch_size=16, base_lr=0.01)
        state, history = train_one(small_state(seed=0), x, y, cfg)
        assert len(history) == 1
        assert state_bytes(state) != state_bytes(small_state(seed=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        x, y = self.separable_data(10)
        cfg = TrainConfig(epochs=50, batch_size=4, base_lr=1e6, momentum=0.9)
        with pytest.raises(TrainingDiverged):
            train_one(small_state(seed=0), x, y, cfg)


def three_class_data(n, seed=4):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, n)
    x = rng.normal(size=(n, 4)) + y[:, None]
    return x, y


# (layer specs, rows, head multiplier)
ORACLE_CASES = {
    "prt": (THREE_LAYER_SPECS, 32, 0.0),
    "tl": (THREE_LAYER_SPECS, 32, 10.0),
    "two-hidden-layers": (TWO_HIDDEN_SPECS, 32, 10.0),
    "partial-last-batch": (THREE_LAYER_SPECS, 29, 0.0),
}
ORACLE_CONFIG = TrainConfig(epochs=4, batch_size=8, base_lr=0.05, momentum=0.9)


def reference_train(state, x, y, cfg, seed, head_multiplier):
    """One session trained alone with 2-d arithmetic, batch by batch: the
    single-session loop that train() generalises, kept as the reference for
    its results."""
    layers = [(l.weights.copy(), l.bias.copy(), l.activation) for l in state.layers]
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b, _ in layers]
    # the representation layers at base_lr, the head (last layer) at its own rate
    rates = [cfg.base_lr] * (len(layers) - 1) + [cfg.base_lr * head_multiplier]
    rng = np.random.default_rng(seed)
    mean_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        x_epoch, y_epoch = x[order], y[order]
        total = 0.0
        for start in range(0, len(y), cfg.batch_size):
            xb, yb = x_epoch[start:start + cfg.batch_size], y_epoch[start:start + cfg.batch_size]
            outputs = [xb]
            for w, b, activation in layers:
                out = outputs[-1] @ w.T
                out += b
                if activation == "relu":
                    np.maximum(out, 0.0, out=out)
                outputs.append(out)
            z = outputs[-1]
            z_max = z.max(axis=1, keepdims=True)
            delta = np.exp(z - z_max)
            row_total = delta.sum(axis=1)
            rows = np.arange(len(yb))
            loss = float(np.mean(np.log(row_total) + z_max[:, 0] - z[rows, yb]))
            delta /= row_total[:, None]
            delta[rows, yb] -= 1.0
            delta /= len(yb)
            for k in reversed(range(len(layers))):
                w, b, _ = layers[k]
                grad_w, grad_b = delta.T @ outputs[k], np.sum(delta, axis=0)
                if k:
                    delta = delta @ w
                    if layers[k - 1][2] == "relu":
                        delta *= outputs[k] > 0.0
                if rates[k] == 0.0:
                    continue
                for param, vel, grad in zip((w, b), velocity[k], (grad_w, grad_b)):
                    grad *= rates[k]
                    vel *= cfg.momentum
                    vel -= grad
                    param += vel
            total += loss * len(yb)
        mean_losses.append(total / len(y))
    trained = NetworkState([Layer(w, b, a) for w, b, a in layers])
    return trained, mean_losses


class TestTrainMatchesReference:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_single_session_bit_identical_to_reference(self, case):
        specs, n, multiplier = ORACLE_CASES[case]
        x, y = three_class_data(n)
        state = init_network(specs, seed=2)
        trained, history = train_one(state, x, y, ORACLE_CONFIG, 6, multiplier)
        expected, mean_losses = reference_train(state, x, y, ORACLE_CONFIG, 6, multiplier)
        assert state_bytes(trained) == state_bytes(expected)
        assert history == mean_losses


# (rows of each session, batch size)
LOCKSTEP_CASES = {
    "ragged-last-batches": ([29, 22, 27, 19, 24], 8),
    "batch-counts-differ": ([32, 33], 16),
    "one-row-batches": ([17, 1, 16, 33], 16),
    "repeated-sizes-not-adjacent": ([17, 33, 17, 33], 16),
}
# the head multiplier of each stage rule
STAGE_RULES = {"tl": 10.0, "prt": 0.0}


def lockstep_sessions(sizes, batch_size, specs=THREE_LAYER_SPECS):
    """Sessions with their own start, data and seed, and the one config they train under."""
    sessions = []
    for i, n in enumerate(sizes):
        x, y = three_class_data(n, seed=10 + i)
        sessions.append(Session(init_network(specs, seed=i), x, y, seed=20 + i))
    return sessions, TrainConfig(epochs=3, batch_size=batch_size, base_lr=0.05, momentum=0.9)


class TestLockstepTrain:
    @pytest.mark.parametrize("rule", list(STAGE_RULES))
    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_each_session_matches_training_alone(self, case, rule):
        sessions, cfg = lockstep_sessions(*LOCKSTEP_CASES[case])
        multiplier = STAGE_RULES[rule]
        results = train(sessions, cfg, multiplier)
        assert len(results) == len(sessions)
        for session, (trained, history) in zip(sessions, results):
            run = (session.state, session.features, session.labels, cfg, session.seed, multiplier)
            alone, alone_history = train_one(*run)
            expected, mean_losses = reference_train(*run)
            assert state_bytes(trained) == state_bytes(alone) == state_bytes(expected)
            assert history == alone_history == mean_losses

    def test_two_hidden_layers(self):
        sessions, cfg = lockstep_sessions([21, 16, 9], 8, specs=TWO_HIDDEN_SPECS)
        for session, (trained, _) in zip(sessions, train(sessions, cfg, 10.0)):
            expected, _ = reference_train(session.state, session.features, session.labels, cfg, session.seed, 10.0)
            assert state_bytes(trained) == state_bytes(expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sizes, bad", [([24, 24], 1), ([16, 24], 0)], ids=["second", "shorter-first"])
    def test_one_diverging_session_raises(self, sizes, bad):
        # the error names the session by its place in the caller's list
        sessions, cfg = lockstep_sessions(sizes, 8)
        sessions[bad] = replace(sessions[bad], features=sessions[bad].features * 1e300)
        with pytest.raises(TrainingDiverged, match=f"session {bad}"):
            train(sessions, cfg, 10.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sizes, bad", [([24, 24], [1]), ([16, 24], [0]), ([16, 24], [0, 1])],
                             ids=["second", "shorter-first", "both"])
    def test_one_overflowing_session_raises(self, sizes, bad):
        # every loss stays finite and the first step overflows the parameters
        # of the scaled sessions; the error names the first in the caller's list
        sessions, cfg = lockstep_sessions(sizes, 8)
        for i in bad:
            sessions[i] = replace(sessions[i], features=sessions[i].features * 1e10)
        with pytest.raises(TrainingDiverged, match=f"non-finite values at epoch 0 in session {bad[0]}$"):
            train(sessions, replace(cfg, base_lr=1e300), 10.0)

    def test_sessions_share_specs_and_hyperparameters(self):
        # the hyperparameters are the call's one config; the specs are checked
        (first, second), cfg = lockstep_sessions([16, 16], 8)
        train([first, second], cfg, 10.0)  # seeds, data and starting parameters may differ
        with pytest.raises(ConfigError):
            train([first, replace(second, state=init_network(TWO_HIDDEN_SPECS, seed=0))], cfg, 10.0)
        with pytest.raises(ConfigError):
            train([], cfg, 10.0)


class TestTrainLeavesInputAlone:
    def setup_method(self):
        self.x, self.y = three_class_data(30)
        self.cfg = TrainConfig(epochs=2, batch_size=8, base_lr=0.05)
        self.state = init_network(THREE_LAYER_SPECS, seed=3)

    def test_input_arrays_unchanged(self):
        before = state_bytes(self.state)
        train_one(self.state, self.x, self.y, self.cfg, 1, 0.0)
        assert state_bytes(self.state) == before

    def test_frozen_layers_bit_identical_to_input(self):
        trained, _ = train_one(self.state, self.x, self.y, self.cfg, 1, 0.0)
        last = len(self.state.layers) - 1
        for k, (old, new) in enumerate(zip(self.state.layers, trained.layers)):
            same = old.weights.tobytes() + old.bias.tobytes() == new.weights.tobytes() + new.bias.tobytes()
            assert same == (k == last)

    def test_mutating_result_does_not_leak_into_next_call(self):
        first, _ = train_one(self.state, self.x, self.y, self.cfg, 1, 0.0)
        first_bytes = state_bytes(first)
        for layer in first.layers:
            layer.weights[...] = 7.0
            layer.bias[...] = -7.0
        second, _ = train_one(self.state, self.x, self.y, self.cfg, 1, 0.0)
        assert state_bytes(second) == first_bytes


class TestSpecsValidation:
    def test_chained_dims_required(self):
        with pytest.raises(ConfigError):
            validate_layer_specs(
                [
                    LayerSpec(4, 6, "relu"),
                    LayerSpec(5, 3, "identity"),
                ]
            )

    def test_final_layer_contract(self):
        with pytest.raises(ConfigError):
            validate_layer_specs(
                [
                    LayerSpec(4, 6, "relu"),
                    LayerSpec(6, 3, "relu"),
                ]
            )

    def test_both_groups_required(self):
        # the head is the last layer, and at least one representation layer precedes it
        for specs in ([], [LayerSpec(4, 3, "identity")]):
            with pytest.raises(ConfigError, match="at least one representation layer and a head"):
                validate_layer_specs(specs)


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self, tmp_path):
        state = small_state(seed=21)
        x = np.random.default_rng(2).normal(size=(6, 4))
        y = np.random.default_rng(3).integers(0, 3, 6)
        cfg = TrainConfig(epochs=2, batch_size=4, base_lr=0.01)
        state, _ = train_one(state, x, y, cfg, seed=2)
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert state_bytes(loaded) == state_bytes(state)
        assert loaded.label_count == state.label_count
        assert [l.spec for l in loaded.layers] == [l.spec for l in state.layers]

    def test_loads_format_with_copied_fields(self, tmp_path):
        # checkpoints once also stored label_count, seed and params lines
        state = small_state(seed=21)
        fields = [("label_count", 3), ("seed", 21)]
        fields += [("layer", f"{s.input_dim} {s.output_dim} {s.activation}") for s in layer_specs(state)]
        fields.append(("params", sum(l.weights.size + l.bias.size for l in state.layers)))
        path = tmp_path / "model.ckpt"
        write_artifact(path, "checkpoint", fields, [a for l in state.layers for a in (l.weights, l.bias)])
        assert state_bytes(load_checkpoint(path)) == state_bytes(state)

    def test_refuses_layer_lines_with_a_group_tag(self, tmp_path):
        # checkpoints once tagged every layer "representation" or "classification"
        state = small_state(seed=21)
        tags = ["representation"] * (len(state.layers) - 1) + ["classification"]
        fields = [("layer", f"{s.input_dim} {s.output_dim} {s.activation} {tag}")
                  for s, tag in zip(layer_specs(state), tags)]
        path = tmp_path / "model.ckpt"
        write_artifact(path, "checkpoint", fields, [a for l in state.layers for a in (l.weights, l.bias)])
        with pytest.raises(ValidationError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value).startswith(f"{path}: bad value for 'layer'")
