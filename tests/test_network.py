import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pretext_transfer import data, network
from pretext_transfer.clustering import extract_projection
from pretext_transfer.data import LabeledSet
from pretext_transfer.errors import TrainingDiverged, ValidationError
from pretext_transfer.manifest import read_artifact, write_artifact
from pretext_transfer.network import (
    NetworkState,
    Session,
    TrainConfig,
    _step_layout,
    accuracy,
    apply_layer,
    flat_views,
    forward,
    init_network,
    load_checkpoint,
    loss_and_grad,
    relu,
    replace_head,
    save_checkpoint,
    sgd_update,
    train,
    validate_widths,
)

# (input, *hidden, projection, labels): layer k of L is ReLU exactly when k < L - 2
TWO_LAYER_WIDTHS = (4, 6, 3)  # a projection and a head, both linear
THREE_LAYER_WIDTHS = (4, 8, 5, 3)  # one ReLU hidden layer
TWO_HIDDEN_WIDTHS = (4, 8, 6, 5, 4, 3)  # three ReLU hidden layers


def train_one(state, x, y, cfg, seed=0, head_multiplier=1.0):
    """train() of a single session."""
    [result] = train([Session(state, LabeledSet(x, y, state.label_count), seed)], cfg, head_multiplier)
    return result


def small_state(seed=0, widths=TWO_LAYER_WIDTHS):
    return init_network(widths, seed=seed)


def layers(state):
    """Each layer's (weights, bias) views of the state's parameter vector."""
    return list(zip(*flat_views(state.params, state.widths)))


def head(state):
    """The head's parameters: the last out·(in+1) values of the vector."""
    return state.params[-state.label_count * (state.widths[-2] + 1):]


def stacked_loss_and_grad(state, x, y, needs_grad=None, fill=0.0):
    """loss_and_grad on a stack of one session: its loss and its gradient in
    the parameter layout, a buffer that starts filled with ``fill``."""
    grads = np.full(state.params.size, fill)
    (loss,) = loss_and_grad(
        *flat_views(state.params[None], state.widths), x[None], y[None],
        *flat_views(grads[None], state.widths), needs_grad or [True] * (len(state.widths) - 1),
    )
    return float(loss), grads


def reference_loss(state, x, y):
    """Mean cross-entropy from forward's probabilities, independent of loss_and_grad."""
    return -float(np.mean(np.log(forward(state, x)[np.arange(len(y)), y])))


def numeric_gradient(state, x, y, step=1e-5):
    """Central finite differences of reference_loss over every parameter, the gradient oracle."""
    params = state.params
    grad = np.zeros_like(params)
    for i, original in enumerate(params.copy()):
        params[i] = original + step
        loss_plus = reference_loss(state, x, y)
        params[i] = original - step
        loss_minus = reference_loss(state, x, y)
        params[i] = original
        grad[i] = (loss_plus - loss_minus) / (2 * step)
    return grad


def max_relative_error(analytic, numeric):
    # the 1e-3 floor guards against fp noise on near-zero entries
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-3)
    return float((np.abs(analytic - numeric) / denom).max())


class TestForward:
    def test_zero_network_is_uniform(self):
        state = small_state(widths=(3, 4, 4))
        state.params[:] = 0.0
        probs = forward(state, np.random.default_rng(0).normal(size=(5, 3)))
        assert np.allclose(probs, 0.25)

    def test_identity_layer_matches_hand_softmax(self):
        # each layer's weights (the 2 x 2 identity), then its zero bias
        state = NetworkState((2, 2, 2), np.array([1.0, 0, 0, 1, 0, 0] * 2))
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
        with pytest.raises(ValidationError, match="^features have 5 columns, expected 4$"):
            forward(small_state(), np.zeros((2, 5)))

    def test_non_finite_input(self):
        with pytest.raises(ValidationError):
            forward(small_state(), np.array([[np.nan, 0.0, 0.0, 0.0]]))


# the experiment's default network: 16 features, hidden 32, projection 16, 10
# classes; its one hidden layer, layer 0, is the only ReLU layer
DEFAULT_WIDTHS = (16, 32, 16, 10)


def reference_layer(weights, bias, x, is_relu):
    z = x @ weights.T + bias
    return np.maximum(z, 0.0) if is_relu else z


class TestInPlaceKernels:
    """apply_layer and forward write into the arrays they allocate, with the
    bits of the plain expressions and without touching the caller's input."""

    @pytest.mark.parametrize("rows", [1, 7, 256, 1000])
    def test_apply_layer_bit_identical_to_reference(self, rows):
        state = init_network(DEFAULT_WIDTHS, seed=rows)
        x = np.random.default_rng(rows).normal(scale=3.0, size=(rows, 16))
        for k, (w, b) in enumerate(layers(state)):
            got = apply_layer(x, w, b, k == 0)
            expected = reference_layer(w, b, x, k == 0)
            assert got.tobytes() == expected.tobytes()
            x = expected

    @pytest.mark.parametrize("rows", [1, 16, 29, 140, 1500, 20000])
    def test_stack_of_one_equals_the_2d_call(self, rows):
        # every layer shape of the experiment's networks at hidden = 32 and
        # 64,32, with the source head (10 classes) and the TL head (2)
        shapes = set()
        for widths in [(16, *hidden, 16, classes) for hidden in ((32,), (64, 32)) for classes in (10, 2)]:
            count = len(widths) - 1
            shapes |= {(widths[k], widths[k + 1], relu(k, count)) for k in range(count)}
        assert len(shapes) == 6
        rng = np.random.default_rng(rows)
        for shape in sorted(shapes):
            input_dim, output_dim, is_relu = shape
            weights = rng.normal(size=(output_dim, input_dim))
            bias = rng.normal(size=output_dim)
            x = rng.normal(scale=3.0, size=(rows, input_dim))
            flat = apply_layer(x, weights, bias, is_relu)
            stacked = apply_layer(x[None], weights[None], bias[None], is_relu)
            assert stacked.shape == (1, rows, output_dim)
            assert stacked.tobytes() == flat.tobytes(), shape

    @pytest.mark.parametrize("rows", [1, 7, 256, 1000])
    def test_forward_bit_identical_to_reference(self, rows):
        state = init_network(DEFAULT_WIDTHS, seed=rows)
        x = np.random.default_rng(rows).normal(scale=3.0, size=(rows, 16))
        z = x
        for k, (w, b) in enumerate(layers(state)):
            z = reference_layer(w, b, z, k == 0)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        assert forward(state, x).tobytes() == (e / e.sum(axis=1, keepdims=True)).tobytes()

    def test_c_ordered_float64_input_unchanged(self):
        state = init_network(DEFAULT_WIDTHS, seed=1)
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
        state = init_network(DEFAULT_WIDTHS, seed=0)
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
        state = small_state(widths=(3, 4, 2))
        state.params[:] = 0.0
        loss, _ = stacked_loss_and_grad(state, np.ones((6, 3)), np.array([0, 1, 0, 1, 1, 0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_perfect_prediction_zero_loss(self):
        # an identity layer, then a head of weights 1000 times the identity, zero biases
        state = NetworkState((2, 2, 2), np.array([1.0, 0, 0, 1, 0, 0, 1000, 0, 0, 1000, 0, 0]))
        loss, _ = stacked_loss_and_grad(state, np.array([[1.0, 0.0]]), np.array([0]))
        assert loss == 0.0

    def test_gradients_match_finite_differences(self):
        # ReLU hidden layers, the linear projection and the head, at L = 2, 3
        # and 5 layers: every layer is checked
        for widths in (TWO_LAYER_WIDTHS, THREE_LAYER_WIDTHS, TWO_HIDDEN_WIDTHS):
            state = init_network(widths, seed=11)
            rng = np.random.default_rng(5)
            x = rng.normal(size=(8, 4))
            y = rng.integers(0, 3, size=8)
            loss, grads = stacked_loss_and_grad(state, x, y)
            assert loss == pytest.approx(reference_loss(state, x, y), rel=1e-12)
            assert max_relative_error(grads, numeric_gradient(state, x, y)) < 1e-4, widths

    def test_layers_without_needs_grad_keep_their_buffers(self):
        state = init_network(THREE_LAYER_WIDTHS, seed=4)
        x, y = three_class_data(8)
        _, full = stacked_loss_and_grad(state, x, y)
        needs_grad = [True, False, True]
        _, grads = stacked_loss_and_grad(state, x, y, needs_grad, fill=7.0)
        for k, needed in enumerate(needs_grad):
            for got, whole in zip(flat_views(grads, state.widths), flat_views(full, state.widths)):
                assert got[k].tobytes() == (whole[k].tobytes() if needed else np.full_like(got[k], 7.0).tobytes())

    def test_out_of_range_label(self):
        # the kernel trusts its labels; the session's set refuses them where it is built
        with pytest.raises(ValidationError):
            train_one(small_state(), np.zeros((2, 4)), np.array([0, 3]), TrainConfig(epochs=1))


class TestSgdUpdate:
    """The step's update kernel, alone and with the rates of _step_layout."""

    ONE_PARAM_WIDTHS = (1, 1, 2)

    def test_vanilla_step(self):
        params = np.array([1.0])
        sgd_update(params, np.zeros(1), np.array([0.5]), np.array([0.1]), 0.0)
        assert params[0] == pytest.approx(0.95, abs=1e-15)

    def test_non_finite_gradients_pass_through(self):
        # the update is arithmetic alone: train checks for divergence once per epoch
        params, velocity = np.zeros(3), np.zeros(3)
        sgd_update(params, velocity, np.array([np.nan, np.inf, 1.0]), np.full(3, 0.1), 0.9)
        assert np.isnan(params[0]) and params[1] == -np.inf and params[2] == -0.1
        assert np.array_equal(velocity, params, equal_nan=True)

    def test_momentum_two_steps(self):
        # v1 = -0.1, theta1 = -0.1; v2 = 0.9*(-0.1) - 0.1 = -0.19, theta2 = -0.29
        params, velocity = np.zeros(1), np.zeros(1)
        for _ in range(2):
            sgd_update(params, velocity, np.ones(1), np.array([0.1]), 0.9)  # the gradients are overwritten
        assert params[0] == pytest.approx(-0.29, abs=1e-15)

    def unit_step(self, widths, cfg, head_multiplier, params):
        """One step of unit gradients over the trainable span of params, as train takes it."""
        lr, trainable, _ = _step_layout(widths, cfg, head_multiplier)
        sgd_update(params[trainable], np.zeros_like(params)[trainable], np.ones_like(params)[trainable],
                   lr[trainable], cfg.momentum)

    def test_classifier_multiplier_wiring(self):
        # the head trains at head_multiplier * base_lr, the representation at base_lr
        cfg = TrainConfig(epochs=1, base_lr=0.25, momentum=0.0)
        params = np.zeros(2 + 4)  # weight and bias of the 1 -> 1 layer, then of the 1 -> 2 head
        self.unit_step(self.ONE_PARAM_WIDTHS, cfg, 10.0, params)
        weights, biases = flat_views(params, self.ONE_PARAM_WIDTHS)
        assert weights[0][0, 0] == -0.25 and biases[0][0] == -0.25
        assert (weights[1] == -2.5).all() and (biases[1] == -2.5).all()

    def test_frozen_group_is_bit_identical(self):
        # a zero multiplier leaves the head out of the trainable span, the only
        # part of the buffer that train's update writes
        widths = small_state().widths
        lr, trainable, trains = _step_layout(widths, TrainConfig(epochs=1), 0.0)
        head = widths[-1] * (widths[-2] + 1)
        assert trains == [True, False]
        assert (trainable.start, trainable.stop) == (0, lr.size - head)

    def test_every_trainable_element_moves(self):
        state = init_network(THREE_LAYER_WIDTHS, seed=0)
        params = state.params.copy()
        self.unit_step(THREE_LAYER_WIDTHS, TrainConfig(epochs=1, base_lr=0.1, momentum=0.0), 0.0, params)
        weights, biases = flat_views(params, THREE_LAYER_WIDTHS)
        last = len(weights) - 1
        for k, (old_w, old_b) in enumerate(layers(state)):
            for old, updated in [(old_w, weights[k]), (old_b, biases[k])]:
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
        # refused here, not as a TypeError deep inside train
        dict(epochs=2.0), dict(epochs=np.float64(2.0)), dict(batch_size=4.0), dict(batch_size=np.float64(4.0)),
        dict(base_lr="0.01"),
    ], ids=["epochs", "batch_size", "base_lr", "multiplier", "momentum-1", "momentum-negative",
            "base_lr-nan", "base_lr-inf", "multiplier-nan", "multiplier-inf",
            "epochs-float", "epochs-numpy-float", "batch_size-float", "batch_size-numpy-float", "base_lr-str"])
    def test_rejects_bad_value(self, bad):
        settings = {"epochs": 1, "head_multiplier": 1.0, **bad}
        head_multiplier = settings.pop("head_multiplier")
        state = small_state()
        x, y = np.zeros((4, 4)), np.array([0, 1, 2, 0])
        with pytest.raises(ValidationError, match=f"^{next(iter(bad))} must "):
            train_one(state, x, y, TrainConfig(**settings), head_multiplier=head_multiplier)

    def test_zero_multiplier_is_accepted(self):
        state = small_state()
        trained, _ = train_one(state, np.eye(4), np.array([0, 1, 2, 0]), TrainConfig(epochs=1), head_multiplier=0.0)
        assert head(trained).tobytes() == head(state).tobytes()
        assert trained.params.tobytes() != state.params.tobytes()


class TestReplaceHead:
    def test_reinit_contract(self):
        state = small_state(seed=9)
        new = replace_head(state, 3, init_seed=4)
        (old_w, _), (old_head, _) = layers(state)
        (new_w, _), (new_head, new_bias) = layers(new)
        assert new_w.tobytes() == old_w.tobytes()
        assert new_head.tobytes() != old_head.tobytes()
        assert (new_bias == 0).all()

    @pytest.mark.parametrize("labels", [2, 3])
    def test_result_shares_no_memory_with_its_source(self, labels):
        # the source has 3 labels: a head of the same width is a new head too
        state = init_network(THREE_LAYER_WIDTHS, seed=9)
        kept = state.params.tobytes()
        new = replace_head(state, labels, init_seed=4)
        representation = state.params.size - head(state).size
        assert new.params[:representation].tobytes() == state.params[:representation].tobytes()
        new.params[...] = 7.0
        assert state.params.tobytes() == kept

    def test_new_output_width(self):
        state = init_network((4, 6, 10), seed=0)
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
        x, y = self.separable_data()
        cfg = TrainConfig(epochs=15, batch_size=16, base_lr=0.05, momentum=0.9)
        state, history = train_one(init_network((4, 8, 2), seed=1), x, y, cfg, seed=1)
        assert history[-1] < history[0]
        assert accuracy(state, x, y) > 0.9

    def test_training_is_deterministic(self):
        x, y = self.separable_data(20)
        cfg = TrainConfig(epochs=3, batch_size=8, base_lr=0.01, momentum=0.9)
        first, _ = train_one(small_state(seed=5), x, y, cfg, seed=5)
        second, _ = train_one(small_state(seed=5), x, y, cfg, seed=5)
        assert first.params.tobytes() == second.params.tobytes()

    def test_partial_last_batch_used(self):
        x, y = self.separable_data(11)  # 22 samples, batch 16 -> partial batch of 6
        cfg = TrainConfig(epochs=1, batch_size=16, base_lr=0.01)
        state, history = train_one(small_state(seed=0), x, y, cfg)
        assert len(history) == 1
        assert state.params.tobytes() != small_state(seed=0).params.tobytes()

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


# (widths, rows, head multiplier)
ORACLE_CASES = {
    "prt": (THREE_LAYER_WIDTHS, 32, 0.0),
    "tl": (THREE_LAYER_WIDTHS, 32, 10.0),
    "two-hidden-layers": (TWO_HIDDEN_WIDTHS, 32, 10.0),
    "no-hidden-layer": (TWO_LAYER_WIDTHS, 32, 10.0),
    "partial-last-batch": (THREE_LAYER_WIDTHS, 29, 0.0),
}
ORACLE_CONFIG = TrainConfig(epochs=4, batch_size=8, base_lr=0.05, momentum=0.9)


def reference_train(state, x, y, cfg, seed, head_multiplier):
    """One session trained alone with 2-d arithmetic, batch by batch: the
    single-session loop that train() generalises, kept as the reference for
    its results. Layer k of L applies ReLU exactly when k < L - 2."""
    params = state.params.copy()
    layers = list(zip(*flat_views(params, state.widths)))
    is_relu = [k < len(layers) - 2 for k in range(len(layers))]
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in layers]
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
            for (w, b), relu_k in zip(layers, is_relu):
                out = outputs[-1] @ w.T
                out += b
                if relu_k:
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
                w, b = layers[k]
                grad_w, grad_b = delta.T @ outputs[k], np.sum(delta, axis=0)
                if k:
                    delta = delta @ w
                    if is_relu[k - 1]:
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
    return NetworkState(state.widths, params), mean_losses


class TestTrainMatchesReference:
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_single_session_bit_identical_to_reference(self, case):
        widths, n, multiplier = ORACLE_CASES[case]
        x, y = three_class_data(n)
        state = init_network(widths, seed=2)
        trained, history = train_one(state, x, y, ORACLE_CONFIG, 6, multiplier)
        expected, mean_losses = reference_train(state, x, y, ORACLE_CONFIG, 6, multiplier)
        assert trained.params.tobytes() == expected.params.tobytes()
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


def lockstep_sessions(sizes, batch_size, widths=THREE_LAYER_WIDTHS):
    """Sessions with their own start, data and seed, and the one config they train under."""
    sessions = []
    for i, n in enumerate(sizes):
        x, y = three_class_data(n, seed=10 + i)
        state = init_network(widths, seed=i)
        sessions.append(Session(state, LabeledSet(x, y, state.label_count), seed=20 + i))
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
            run = (session.state, session.data.features, session.data.labels, cfg, session.seed, multiplier)
            alone, alone_history = train_one(*run)
            expected, mean_losses = reference_train(*run)
            assert trained.params.tobytes() == alone.params.tobytes() == expected.params.tobytes()
            assert history == alone_history == mean_losses

    def test_two_hidden_layers(self):
        sessions, cfg = lockstep_sessions([21, 16, 9], 8, widths=TWO_HIDDEN_WIDTHS)
        for session, (trained, _) in zip(sessions, train(sessions, cfg, 10.0)):
            expected, _ = reference_train(session.state, session.data.features, session.data.labels, cfg,
                                          session.seed, 10.0)
            assert trained.params.tobytes() == expected.params.tobytes()

    @pytest.mark.parametrize("sizes, bad", [([24, 24], 1), ([16, 24], 0)], ids=["second", "shorter-first"])
    def test_one_diverging_session_raises(self, sizes, bad):
        # the error names the session by its place in the caller's list
        sessions, cfg = lockstep_sessions(sizes, 8)
        scaled = replace(sessions[bad].data, features=sessions[bad].data.features * 1e300)
        sessions[bad] = replace(sessions[bad], data=scaled)
        with pytest.raises(TrainingDiverged, match=f"session {bad}"):
            train(sessions, cfg, 10.0)

    @pytest.mark.parametrize("sizes, bad", [([8, 8], [1]), ([6, 8], [0]), ([6, 8], [0, 1])],
                             ids=["second", "shorter-first", "both"])
    def test_one_overflowing_session_raises(self, sizes, bad):
        # one step per epoch (rows <= batch): every loss stays finite and the
        # step overflows the parameters of the scaled sessions alone; the
        # epoch's check names each of them, in the caller's order
        sessions, cfg = lockstep_sessions(sizes, 8)
        for i in bad:
            scaled = replace(sessions[i].data, features=sessions[i].data.features * 1e10)
            sessions[i] = replace(sessions[i], data=scaled)
        names = ", ".join(map(str, bad))
        with pytest.raises(TrainingDiverged, match=f"^training diverged at epoch 0 in session {names}$"):
            train(sessions, replace(cfg, base_lr=1e300), 10.0)

    @staticmethod
    def poison_steps(monkeypatch, rows_by_call):
        """Make sgd_update's call n (from 1) write inf into the gradients of
        row rows_by_call[n] of its group, so that session diverges at that step."""
        calls = []

        def poisoned(params, velocity, grads, lr, momentum):
            calls.append(None)
            if len(calls) in rows_by_call:
                grads[rows_by_call[len(calls)]] = np.inf
            sgd_update(params, velocity, grads, lr, momentum)

        monkeypatch.setattr(network, "sgd_update", poisoned)
        return calls

    def test_divergence_in_the_last_step_is_refused(self, monkeypatch):
        # 16 and 24 rows in batches of 8: three steps per epoch, and the third
        # trains only the 24-row session; its last step of the last epoch diverges
        sessions, cfg = lockstep_sessions([16, 24], 8)
        calls = self.poison_steps(monkeypatch, {3 * cfg.epochs: 0})
        with pytest.raises(TrainingDiverged, match=f"^training diverged at epoch {cfg.epochs - 1} in session 1$"):
            train(sessions, cfg, 10.0)
        assert len(calls) == 3 * cfg.epochs

    def test_sessions_diverging_at_different_steps_are_all_named(self, monkeypatch):
        # largest first, the buffer holds the caller's sessions 1, 2, 0; in
        # epoch 1, session 0 diverges at the first step and session 2 at the
        # last, which trains only sessions 1 and 2
        sessions, cfg = lockstep_sessions([16, 24, 24], 8)
        self.poison_steps(monkeypatch, {4: 2, 6: 1})
        with pytest.raises(TrainingDiverged, match="^training diverged at epoch 1 in session 0, 2$"):
            train(sessions, cfg, 10.0)

    def test_infinite_loss_with_finite_parameters_is_refused(self):
        # widths (1, 1, 2): the projection maps x = 1 to 1e300, and the head's
        # weight of -1e10 for the true class makes its logit -inf, so the loss
        # is +inf while every gradient, and so every parameter, stays finite
        state = NetworkState((1, 1, 2), np.array([1e300, 0.0, -1e10, 0.0, 0.0, 0.0]))
        with np.errstate(over="ignore"):
            loss, grads = stacked_loss_and_grad(state, np.ones((1, 1)), np.zeros(1, dtype=np.int64))
        assert loss == np.inf and np.isfinite(grads).all()
        with pytest.raises(TrainingDiverged, match="^training diverged at epoch 0 in session 0$"):
            train_one(state, np.ones((1, 1)), np.zeros(1, dtype=np.int64), TrainConfig(epochs=1, base_lr=1e-3))

    def test_mean_loss_beyond_float64_is_refused(self):
        # as above with a true-class logit of -1e308 and a frozen head: each of
        # the two one-row steps has a finite loss of 1e308, but the epoch's
        # total overflows, and train never returns an infinite history value
        state = NetworkState((1, 1, 2), np.array([1e300, 0.0, -1e8, 0.0, 0.0, 0.0]))
        loss, grads = stacked_loss_and_grad(state, np.ones((1, 1)), np.zeros(1, dtype=np.int64))
        assert loss == 1e308 and np.isfinite(grads).all()
        with pytest.raises(TrainingDiverged, match="^training diverged at epoch 0 in session 0$"):
            train_one(state, np.ones((2, 1)), np.zeros(2, dtype=np.int64),
                      TrainConfig(epochs=1, batch_size=1, base_lr=1e-3), head_multiplier=0.0)

    def test_reads_each_batch_once(self, monkeypatch):
        # one feature_matrix call per session, for the width: the set's own
        # check ran when it was built, before train
        sessions, cfg = lockstep_sessions([16, 9, 12], 8)
        original, calls = data.feature_matrix, []

        def counted(values, width=None):
            calls.append(width)
            return original(values, width)

        monkeypatch.setattr(network, "feature_matrix", counted)
        monkeypatch.setattr(data, "feature_matrix", counted)
        train(sessions, cfg, 10.0)
        assert calls == [4, 4, 4]

    def test_sessions_share_specs_and_hyperparameters(self):
        # the hyperparameters are the call's one config; the widths are checked
        (first, second), cfg = lockstep_sessions([16, 16], 8)
        train([first, second], cfg, 10.0)  # seeds, data and starting parameters may differ
        with pytest.raises(ValidationError, match="^lockstep sessions must share their widths$"):
            train([first, replace(second, state=init_network(TWO_HIDDEN_WIDTHS, seed=0))], cfg, 10.0)
        with pytest.raises(ValidationError, match="^train needs at least one session$"):
            train([], cfg, 10.0)


class TestTrainLeavesInputAlone:
    def setup_method(self):
        self.x, self.y = three_class_data(30)
        self.cfg = TrainConfig(epochs=2, batch_size=8, base_lr=0.05)
        self.state = init_network(THREE_LAYER_WIDTHS, seed=3)

    def test_input_arrays_unchanged(self):
        before = self.state.params.tobytes()
        train_one(self.state, self.x, self.y, self.cfg, 1, 0.0)
        assert self.state.params.tobytes() == before

    def test_frozen_layers_bit_identical_to_input(self):
        trained, _ = train_one(self.state, self.x, self.y, self.cfg, 1, 0.0)
        last = len(self.state.widths) - 2
        for k, (old, new) in enumerate(zip(layers(self.state), layers(trained))):
            same = old[0].tobytes() + old[1].tobytes() == new[0].tobytes() + new[1].tobytes()
            assert same == (k == last)

    def test_mutating_result_does_not_leak_into_next_call(self):
        first, _ = train_one(self.state, self.x, self.y, self.cfg, 1, 0.0)
        first_bytes = first.params.tobytes()
        first.params[...] = 7.0
        second, _ = train_one(self.state, self.x, self.y, self.cfg, 1, 0.0)
        assert second.params.tobytes() == first_bytes


class TestSpecsValidation:
    def test_widths_named_by_position(self):
        for widths, position in [((0, 6, 3), 0), ((4, 6, 0, 3), 2), ((4, 6, 5, -1), 3)]:
            with pytest.raises(ValidationError, match=f"^width {position} must be >= 1"):
                validate_widths(widths)

    def test_final_layer_contract(self):
        # the projection layer and the head are linear, every layer before them ReLU
        for layer_count in (2, 3, 5):
            flags = [relu(k, layer_count) for k in range(layer_count)]
            assert flags == [True] * (layer_count - 2) + [False, False]

    def test_widths_are_a_tuple_of_ints(self):
        # train compares widths by equality, so a list or NumPy integers stay out
        state = init_network([4, np.int64(6), 3])
        assert state.widths == (4, 6, 3)
        assert type(state.widths) is tuple and all(type(width) is int for width in state.widths)

    @pytest.mark.parametrize("widths", [(4, 6.5, 3), (4, np.float64(6.0), 3), (4.0, 6, 3)],
                             ids=["float", "numpy-float", "integral-float"])
    def test_non_integral_widths_refused(self, widths):
        # int() would truncate 6.5 to a 6-wide layer
        with pytest.raises(ValidationError, match="^widths must be integers: "):
            init_network(widths)

    def test_both_groups_required(self):
        # the head is the last layer, and at least one representation layer precedes it
        for widths in ([], [4], [4, 3]):
            with pytest.raises(ValidationError, match="at least 3 widths"):
                validate_widths(widths)


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
        assert loaded.params.tobytes() == state.params.tobytes()
        assert loaded.label_count == state.label_count
        assert loaded.widths == state.widths
        assert all(type(width) is int for width in loaded.widths)

    @pytest.mark.parametrize("widths", [(4, 3, 2), (4, 6, 5, 3), (4, 8, 6, 5, 3)])
    def test_blob_is_the_parameter_vector(self, tmp_path, widths):
        # read as each layer's [out, in] weights, then its [out] bias, the
        # blob gives the state's own outputs
        pairs = list(zip(widths, widths[1:]))
        state = NetworkState(widths, np.random.default_rng(5).normal(size=sum(o * (i + 1) for i, o in pairs)))
        path = tmp_path / "model.ckpt"
        save_checkpoint(state, path)
        blob = bytes(read_artifact(path, "checkpoint")[1])
        assert blob == state.params.tobytes()
        values, offset = np.frombuffer(blob, "<f8"), 0
        x = z = np.random.default_rng(6).normal(size=(5, widths[0]))
        for k, (n_in, n_out) in enumerate(pairs):
            weights = values[offset:offset + n_out * n_in].reshape(n_out, n_in)
            offset += n_out * n_in
            z = reference_layer(weights, values[offset:offset + n_out], z, relu(k, len(pairs)))
            offset += n_out
        e = np.exp(z - z.max(axis=1, keepdims=True))
        assert np.allclose(forward(state, x), e / e.sum(axis=1, keepdims=True), rtol=1e-12, atol=0.0)

    def test_loads_format_with_copied_fields(self, tmp_path):
        # checkpoints once also stored label_count, seed and params lines
        state = small_state(seed=21)
        fields = [("label_count", 3), ("seed", 21)]
        fields.append(("widths", " ".join(map(str, state.widths))))
        fields.append(("params", state.params.size))
        path = tmp_path / "model.ckpt"
        write_artifact(path, "checkpoint", fields, [state.params])
        assert load_checkpoint(path).params.tobytes() == state.params.tobytes()

    def refuses_as_missing_widths(self, tmp_path, tags):
        state = small_state(seed=21)
        fields = [("layer", f"{w} {v} identity{tag}") for w, v, tag in zip(state.widths, state.widths[1:], tags)]
        path = tmp_path / "model.ckpt"
        write_artifact(path, "checkpoint", fields, [state.params])
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: manifest is missing key 'widths'$"):
            load_checkpoint(path)

    def test_refuses_layer_lines(self, tmp_path):
        # checkpoints once named every layer's shape and activation
        self.refuses_as_missing_widths(tmp_path, ["", ""])

    def test_refuses_layer_lines_with_a_group_tag(self, tmp_path):
        # before that, they also tagged every layer "representation" or "classification"
        self.refuses_as_missing_widths(tmp_path, [" representation", " classification"])

    def test_refuses_a_widths_line_that_is_not_integers(self, tmp_path):
        state = small_state(seed=21)
        path = tmp_path / "model.ckpt"
        write_artifact(path, "checkpoint", [("widths", "4 6 three")], [state.params])
        with pytest.raises(ValidationError) as excinfo:
            load_checkpoint(path)
        assert str(excinfo.value).startswith(f"{path}: bad value for 'widths'")

    def test_refuses_widths_that_describe_no_network(self, tmp_path):
        path = tmp_path / "model.ckpt"
        write_artifact(path, "checkpoint", [("widths", "4 0 3")], [])
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: width 1 must be >= 1, got 0$"):
            load_checkpoint(path)
