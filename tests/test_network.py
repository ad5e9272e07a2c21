import math
from dataclasses import replace

import numpy as np
import pytest

from pretext_transfer.errors import ConfigError, ShapeError, TrainingDiverged, ValidationError
from pretext_transfer.manifest import write_artifact
from pretext_transfer.network import (
    CLASSIFICATION,
    REPRESENTATION,
    Layer,
    LayerSpec,
    NetworkState,
    Session,
    TrainConfig,
    accuracy,
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
    zero_velocity,
)

TWO_LAYER_SPECS = [
    LayerSpec(4, 6, "relu", REPRESENTATION),
    LayerSpec(6, 3, "identity", CLASSIFICATION),
]

THREE_LAYER_SPECS = [
    LayerSpec(4, 8, "relu", REPRESENTATION),
    LayerSpec(8, 5, "identity", REPRESENTATION),
    LayerSpec(5, 3, "identity", CLASSIFICATION),
]
TWO_HIDDEN_SPECS = [
    LayerSpec(4, 8, "relu", REPRESENTATION),
    LayerSpec(8, 6, "relu", REPRESENTATION),
    LayerSpec(6, 5, "identity", REPRESENTATION),
    LayerSpec(5, 4, "relu", CLASSIFICATION),
    LayerSpec(4, 3, "identity", CLASSIFICATION),
]


def train_one(state, x, y, cfg):
    """train() of a single session."""
    [result] = train([Session(state, x, y, cfg)])
    return result


def small_state(seed=0, specs=None):
    return init_network(specs or TWO_LAYER_SPECS, seed=seed)


def flatten_params(state):
    return np.concatenate(
        [np.concatenate([l.weights.ravel(), l.bias.ravel()]) for l in state.layers]
    )


def state_bytes(state):
    return b"".join(l.weights.tobytes() + l.bias.tobytes() for l in state.layers)


def numeric_gradient(state, x, y, step=1e-5):
    """Central finite differences over every parameter, the gradient oracle."""
    grads = []
    for li, layer in enumerate(state.layers):
        for arr_name in ("weights", "bias"):
            arr = getattr(layer, arr_name)
            grad = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = arr[idx]
                arr[idx] = original + step
                loss_plus, _ = loss_and_grad(state, x, y)
                arr[idx] = original - step
                loss_minus, _ = loss_and_grad(state, x, y)
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
            LayerSpec(3, 4, "relu", REPRESENTATION),
            LayerSpec(4, 4, "identity", CLASSIFICATION),
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
                Layer(np.eye(2), np.zeros(2), "identity", REPRESENTATION),
                Layer(np.eye(2), np.zeros(2), "identity", CLASSIFICATION),
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


class TestLossAndGrad:
    def test_uniform_loss_is_ln2(self):
        specs = [
            LayerSpec(3, 4, "relu", REPRESENTATION),
            LayerSpec(4, 2, "identity", CLASSIFICATION),
        ]
        state = small_state(specs=specs)
        for layer in state.layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        loss, grads = loss_and_grad(state, np.ones((6, 3)), np.array([0, 1, 0, 1, 1, 0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)
        assert len(grads.weights) == 2 and len(grads.biases) == 2

    def test_perfect_prediction_zero_loss(self):
        state = NetworkState(
            layers=[
                Layer(np.eye(2), np.zeros(2), "identity", REPRESENTATION),
                Layer(np.array([[1000.0, 0.0], [0.0, 1000.0]]), np.zeros(2), "identity", CLASSIFICATION),
            ],
        )
        loss, _ = loss_and_grad(state, np.array([[1.0, 0.0]]), np.array([0]))
        assert loss == 0.0

    def test_gradients_match_finite_differences(self):
        state = small_state(seed=11)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        _, analytic = loss_and_grad(state, x, y)
        flattened = [v for pair in zip(analytic.weights, analytic.biases) for v in pair]
        numeric = numeric_gradient(state, x, y)
        assert max_relative_error(flattened, numeric) < 1e-4

    def test_out_of_range_label(self):
        with pytest.raises(ValidationError):
            loss_and_grad(small_state(), np.zeros((2, 4)), np.array([0, 3]))


class TestSgdUpdate:
    def one_param_state(self, theta=1.0):
        return NetworkState(
            layers=[
                Layer(np.array([[theta]]), np.zeros(1), "identity", REPRESENTATION),
                Layer(np.array([[1.0], [0.0]]), np.zeros(2), "identity", CLASSIFICATION),
            ],
        )

    def grad_of_one(self, state, value=1.0):
        from pretext_transfer.network import Gradients

        return Gradients(
            [np.full_like(l.weights, value) for l in state.layers],
            [np.full_like(l.bias, value) for l in state.layers],
        )

    def test_vanilla_step(self):
        state = self.one_param_state(theta=1.0)
        grads = self.grad_of_one(state, 0.5)
        cfg = TrainConfig(epochs=1, base_lr=0.1, momentum=0.0)
        new, _ = sgd_update(state, grads, zero_velocity(state), cfg)
        assert new.layers[0].weights[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_momentum_two_steps(self):
        # v1 = -0.1, theta1 = -0.1; v2 = 0.9*(-0.1) - 0.1 = -0.19, theta2 = -0.29
        state = self.one_param_state(theta=0.0)
        cfg = TrainConfig(epochs=1, base_lr=0.1, momentum=0.9, classifier_lr_multiplier=1.0)
        velocity = zero_velocity(state)
        for _ in range(2):
            state, velocity = sgd_update(state, self.grad_of_one(state, 1.0), velocity, cfg)
        assert state.layers[0].weights[0, 0] == pytest.approx(-0.29, abs=1e-15)

    def test_frozen_group_is_bit_identical(self):
        state = small_state(seed=2)
        cfg = TrainConfig(epochs=1, base_lr=0.5, momentum=0.9, frozen_groups=frozenset({CLASSIFICATION}))
        before = [l.weights.tobytes() + l.bias.tobytes() for l in state.layers]
        velocity = zero_velocity(state)
        rng = np.random.default_rng(0)
        for _ in range(5):
            _, grads = loss_and_grad(state, rng.normal(size=(4, 4)), rng.integers(0, 3, 4))
            state, velocity = sgd_update(state, grads, velocity, cfg)
        after = [l.weights.tobytes() + l.bias.tobytes() for l in state.layers]
        for layer, b, a in zip(state.layers, before, after):
            if layer.group == CLASSIFICATION:
                assert a == b
            else:
                assert a != b

    @pytest.mark.parametrize("frozen", [CLASSIFICATION, REPRESENTATION])
    def test_every_trainable_element_moves(self, frozen):
        state = init_network(THREE_LAYER_SPECS, seed=0)
        cfg = TrainConfig(epochs=1, base_lr=0.1, momentum=0.0, frozen_groups=frozenset({frozen}))
        new, _ = sgd_update(state, self.grad_of_one(state), zero_velocity(state), cfg)
        for old_layer, new_layer in zip(state.layers, new.layers):
            for old, updated in [(old_layer.weights, new_layer.weights), (old_layer.bias, new_layer.bias)]:
                if old_layer.group == frozen:
                    assert (updated == old).all()
                else:
                    assert (updated != old).all()

    def test_classifier_multiplier_wiring(self):
        state = self.one_param_state()
        cfg = TrainConfig(epochs=1, base_lr=0.25, momentum=0.0, classifier_lr_multiplier=10.0)
        new, _ = sgd_update(state, self.grad_of_one(state, 1.0), zero_velocity(state), cfg)
        rep_delta = state.layers[0].weights[0, 0] - new.layers[0].weights[0, 0]
        cls_delta = state.layers[1].weights[0, 0] - new.layers[1].weights[0, 0]
        assert cls_delta == 10.0 * rep_delta


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
                LayerSpec(4, 6, "relu", REPRESENTATION),
                LayerSpec(6, 10, "identity", CLASSIFICATION),
            ],
            seed=0,
        )
        new = replace_head(state, 2, init_seed=0)
        probs = forward(new, np.zeros((3, 4)))
        assert probs.shape == (3, 2)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_intermediate_classification_layers_also_reinit(self):
        specs = [
            LayerSpec(4, 6, "relu", REPRESENTATION),
            LayerSpec(6, 5, "relu", CLASSIFICATION),
            LayerSpec(5, 3, "identity", CLASSIFICATION),
        ]
        state = init_network(specs, seed=1)
        new = replace_head(state, 2, init_seed=2)
        assert new.layers[1].weights.shape == (5, 6)
        assert new.layers[1].weights.tobytes() != state.layers[1].weights.tobytes()
        assert new.layers[2].weights.shape == (2, 5)

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
            LayerSpec(4, 8, "relu", REPRESENTATION),
            LayerSpec(8, 2, "identity", CLASSIFICATION),
        ]
        x, y = self.separable_data()
        cfg = TrainConfig(epochs=15, batch_size=16, base_lr=0.05, momentum=0.9, seed=1)
        state, history = train_one(init_network(specs, seed=1), x, y, cfg)
        assert history[-1] < history[0]
        assert accuracy(state, x, y) > 0.9

    def test_training_is_deterministic(self):
        x, y = self.separable_data(20)
        cfg = TrainConfig(epochs=3, batch_size=8, base_lr=0.01, momentum=0.9, seed=5)
        first, _ = train_one(small_state(seed=5), x, y, cfg)
        second, _ = train_one(small_state(seed=5), x, y, cfg)
        assert state_bytes(first) == state_bytes(second)

    def test_partial_last_batch_used(self):
        x, y = self.separable_data(11)  # 22 samples, batch 16 -> partial batch of 6
        cfg = TrainConfig(epochs=1, batch_size=16, base_lr=0.01, seed=0)
        state, history = train_one(small_state(seed=0), x, y, cfg)
        assert len(history) == 1
        assert state_bytes(state) != state_bytes(small_state(seed=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        x, y = self.separable_data(10)
        cfg = TrainConfig(epochs=50, batch_size=4, base_lr=1e6, momentum=0.9, seed=0)
        with pytest.raises(TrainingDiverged):
            train_one(small_state(seed=0), x, y, cfg)


def step_by_step_train(state, x, y, cfg):
    """Reference loop over the public per-batch functions: the oracle for train()."""
    rng = np.random.default_rng(cfg.seed)
    velocity = zero_velocity(state)
    mean_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        total = 0.0
        for start in range(0, len(y), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            loss, grads = loss_and_grad(state, x[idx], y[idx])
            state, velocity = sgd_update(state, grads, velocity, cfg)
            total += loss * len(idx)
        mean_losses.append(total / len(y))
    return state, mean_losses


def three_class_data(n, seed=4):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 3, n)
    x = rng.normal(size=(n, 4)) + y[:, None]
    return x, y


ORACLE_CASES = {
    "prt": (THREE_LAYER_SPECS, 32, dict(frozen_groups=frozenset({CLASSIFICATION}))),
    "tl": (THREE_LAYER_SPECS, 32, dict(classifier_lr_multiplier=10.0)),
    "representation-frozen": (THREE_LAYER_SPECS, 32, dict(frozen_groups=frozenset({REPRESENTATION}))),
    "both-frozen": (THREE_LAYER_SPECS, 32, dict(frozen_groups=frozenset({REPRESENTATION, CLASSIFICATION}))),
    "two-hidden-layers": (TWO_HIDDEN_SPECS, 32, dict(classifier_lr_multiplier=10.0)),
    "partial-last-batch": (THREE_LAYER_SPECS, 29, dict(frozen_groups=frozenset({CLASSIFICATION}))),
}


class TestTrainMatchesStepByStep:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_bit_identical_to_public_step_functions(self, case):
        specs, n, overrides = ORACLE_CASES[case]
        x, y = three_class_data(n)
        cfg = TrainConfig(epochs=4, batch_size=8, base_lr=0.05, momentum=0.9, seed=6, **overrides)
        state = init_network(specs, seed=2)
        trained, history = train_one(state, x, y, cfg)
        expected, mean_losses = step_by_step_train(state, x, y, cfg)
        assert state_bytes(trained) == state_bytes(expected)
        assert history == mean_losses
        if case == "both-frozen":
            assert state_bytes(trained) == state_bytes(state)
        else:
            assert state_bytes(trained) != state_bytes(state)


def reference_train(state, x, y, cfg):
    """One session trained alone with 2-d arithmetic, batch by batch: the
    single-session loop that train() generalises, kept as the reference for
    its results."""
    layers = [(l.weights.copy(), l.bias.copy(), l.activation, l.group) for l in state.layers]
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b, _, _ in layers]
    rates = {REPRESENTATION: cfg.base_lr, CLASSIFICATION: cfg.base_lr * cfg.classifier_lr_multiplier}
    rng = np.random.default_rng(cfg.seed)
    mean_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(y))
        x_epoch, y_epoch = x[order], y[order]
        total = 0.0
        for start in range(0, len(y), cfg.batch_size):
            xb, yb = x_epoch[start:start + cfg.batch_size], y_epoch[start:start + cfg.batch_size]
            outputs = [xb]
            for w, b, activation, _ in layers:
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
                w, b, _, group = layers[k]
                grad_w, grad_b = delta.T @ outputs[k], np.sum(delta, axis=0)
                if k:
                    delta = delta @ w
                    if layers[k - 1][2] == "relu":
                        delta *= outputs[k] > 0.0
                if group in cfg.frozen_groups:
                    continue
                for param, vel, grad in zip((w, b), velocity[k], (grad_w, grad_b)):
                    grad *= rates[group]
                    vel *= cfg.momentum
                    vel -= grad
                    param += vel
            total += loss * len(yb)
        mean_losses.append(total / len(y))
    trained = NetworkState([Layer(w, b, a, g) for w, b, a, g in layers])
    return trained, mean_losses


class TestTrainMatchesReference:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_single_session_bit_identical_to_reference(self, case):
        specs, n, overrides = ORACLE_CASES[case]
        x, y = three_class_data(n)
        cfg = TrainConfig(epochs=4, batch_size=8, base_lr=0.05, momentum=0.9, seed=6, **overrides)
        state = init_network(specs, seed=2)
        trained, history = train_one(state, x, y, cfg)
        expected, mean_losses = reference_train(state, x, y, cfg)
        assert state_bytes(trained) == state_bytes(expected)
        assert history == mean_losses


# (rows of each session, batch size)
LOCKSTEP_CASES = {
    "ragged-last-batches": ([29, 22, 27, 19, 24], 8),
    "batch-counts-differ": ([32, 33], 16),
    "one-row-batches": ([17, 1, 16, 33], 16),
    "repeated-sizes-not-adjacent": ([17, 33, 17, 33], 16),
}
STAGE_RULES = {
    "tl": dict(classifier_lr_multiplier=10.0),
    "prt": dict(frozen_groups=frozenset({CLASSIFICATION})),
}


def lockstep_sessions(sizes, batch_size, rule, specs=THREE_LAYER_SPECS):
    sessions = []
    for i, n in enumerate(sizes):
        x, y = three_class_data(n, seed=10 + i)
        cfg = TrainConfig(epochs=3, batch_size=batch_size, base_lr=0.05, momentum=0.9, seed=20 + i,
                          **STAGE_RULES[rule])
        sessions.append(Session(init_network(specs, seed=i), x, y, cfg))
    return sessions


class TestLockstepTrain:
    @pytest.mark.parametrize("rule", list(STAGE_RULES))
    @pytest.mark.parametrize("case", list(LOCKSTEP_CASES))
    def test_each_session_matches_training_alone(self, case, rule):
        sessions = lockstep_sessions(*LOCKSTEP_CASES[case], rule)
        results = train(sessions)
        assert len(results) == len(sessions)
        for session, (trained, history) in zip(sessions, results):
            alone, alone_history = train_one(session.state, session.features, session.labels, session.config)
            expected, mean_losses = reference_train(session.state, session.features, session.labels, session.config)
            oracle, oracle_losses = step_by_step_train(session.state, session.features, session.labels, session.config)
            assert state_bytes(trained) == state_bytes(alone) == state_bytes(expected) == state_bytes(oracle)
            assert history == alone_history == mean_losses == oracle_losses

    def test_two_hidden_layers(self):
        sessions = lockstep_sessions([21, 16, 9], 8, "tl", specs=TWO_HIDDEN_SPECS)
        for session, (trained, _) in zip(sessions, train(sessions)):
            expected, _ = reference_train(session.state, session.features, session.labels, session.config)
            assert state_bytes(trained) == state_bytes(expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("sizes, bad", [([24, 24], 1), ([16, 24], 0)], ids=["second", "shorter-first"])
    def test_one_diverging_session_raises(self, sizes, bad):
        # the error names the session by its place in the caller's list
        sessions = lockstep_sessions(sizes, 8, "tl")
        sessions[bad] = replace(sessions[bad], features=sessions[bad].features * 1e300)
        with pytest.raises(TrainingDiverged, match=f"session {bad}"):
            train(sessions)

    def test_sessions_share_specs_and_hyperparameters(self):
        first, second = lockstep_sessions([16, 16], 8, "tl")
        train([first, second])  # seeds, data and starting parameters may differ
        with pytest.raises(ConfigError):
            train([first, replace(second, config=replace(second.config, epochs=2))])
        with pytest.raises(ConfigError):
            train([first, replace(second, state=init_network(TWO_HIDDEN_SPECS, seed=0))])
        with pytest.raises(ConfigError):
            train([])


class TestTrainLeavesInputAlone:
    def setup_method(self):
        self.x, self.y = three_class_data(30)
        self.cfg = TrainConfig(
            epochs=2, batch_size=8, base_lr=0.05, seed=1, frozen_groups=frozenset({CLASSIFICATION})
        )
        self.state = init_network(THREE_LAYER_SPECS, seed=3)

    def test_input_arrays_unchanged(self):
        before = state_bytes(self.state)
        train_one(self.state, self.x, self.y, self.cfg)
        assert state_bytes(self.state) == before

    def test_frozen_layers_bit_identical_to_input(self):
        trained, _ = train_one(self.state, self.x, self.y, self.cfg)
        for old, new in zip(self.state.layers, trained.layers):
            same = old.weights.tobytes() + old.bias.tobytes() == new.weights.tobytes() + new.bias.tobytes()
            assert same == (old.group == CLASSIFICATION)

    def test_mutating_result_does_not_leak_into_next_call(self):
        first, _ = train_one(self.state, self.x, self.y, self.cfg)
        first_bytes = state_bytes(first)
        for layer in first.layers:
            layer.weights[...] = 7.0
            layer.bias[...] = -7.0
        second, _ = train_one(self.state, self.x, self.y, self.cfg)
        assert state_bytes(second) == first_bytes


class TestSpecsValidation:
    def test_chained_dims_required(self):
        with pytest.raises(ConfigError):
            validate_layer_specs(
                [
                    LayerSpec(4, 6, "relu", REPRESENTATION),
                    LayerSpec(5, 3, "identity", CLASSIFICATION),
                ]
            )

    def test_final_layer_contract(self):
        with pytest.raises(ConfigError):
            validate_layer_specs(
                [
                    LayerSpec(4, 6, "relu", REPRESENTATION),
                    LayerSpec(6, 3, "relu", CLASSIFICATION),
                ]
            )
        with pytest.raises(ConfigError):
            validate_layer_specs([LayerSpec(4, 3, "identity", REPRESENTATION)])

    def test_groups_must_not_interleave(self):
        with pytest.raises(ConfigError):
            validate_layer_specs(
                [
                    LayerSpec(4, 6, "relu", CLASSIFICATION),
                    LayerSpec(6, 5, "relu", REPRESENTATION),
                    LayerSpec(5, 3, "identity", CLASSIFICATION),
                ]
            )

    def test_both_groups_required(self):
        with pytest.raises(ConfigError):
            validate_layer_specs([LayerSpec(4, 3, "identity", CLASSIFICATION)])


class TestCheckpoint:
    def test_round_trip_is_bit_identical(self, tmp_path):
        state = small_state(seed=21)
        x = np.random.default_rng(2).normal(size=(6, 4))
        y = np.random.default_rng(3).integers(0, 3, 6)
        cfg = TrainConfig(epochs=2, batch_size=4, base_lr=0.01, seed=2)
        state, _ = train_one(state, x, y, cfg)
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
        fields += [("layer", f"{s.input_dim} {s.output_dim} {s.activation} {s.group}") for s in layer_specs(state)]
        fields.append(("params", sum(l.weights.size + l.bias.size for l in state.layers)))
        path = tmp_path / "model.ckpt"
        write_artifact(path, "checkpoint", fields, [a for l in state.layers for a in (l.weights, l.bias)])
        assert state_bytes(load_checkpoint(path)) == state_bytes(state)
