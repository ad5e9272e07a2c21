import hashlib
import math

import numpy as np
import pytest

from pretext_transfer.clustering import pseudo_label
from pretext_transfer.data import LabeledSet, SynthConfig, generate_domains
from pretext_transfer.errors import ConfigError, ValidationError
from pretext_transfer.harness import ExperimentConfig, _train_config, build_layer_specs
from pretext_transfer.network import (
    LayerSpec,
    Session,
    TrainConfig,
    _flat_views,
    _flatten,
    _step_layout,
    forward,
    init_network,
    layer_specs,
    replace_head,
    sgd_update,
    train,
)
from pretext_transfer.pipeline import TL_HEAD_MULTIPLIER, TlSession, pretrain_source, prt_train, tl_train

SPECS = [
    LayerSpec(5, 16, "relu"),
    LayerSpec(16, 8, "identity"),
    LayerSpec(8, 4, "identity"),
]

SYNTH = SynthConfig(
    source_class_count=4,
    dim=5,
    samples_per_class=30,
    unlabeled_size=150,
    positives=40,
    negatives=40,
    shift=1.0,
    noise=1.0,
)


@pytest.fixture(scope="module")
def domains():
    return generate_domains(SYNTH, seed=7)


@pytest.fixture(scope="module")
def source_model(domains):
    source, _, _ = domains
    return pretrain_source(SPECS, source, TrainConfig(epochs=20, base_lr=1e-2), seed=1)


@pytest.fixture(scope="module")
def pseudo(source_model, domains):
    _, unlabeled, _ = domains
    _, pseudo_set = pseudo_label(source_model, unlabeled.features, k=4, seed=2)
    return pseudo_set


def train_one(state, x, y, cfg, seed, head_multiplier):
    """train() of a single session."""
    [result] = train([Session(state, x, y, seed)], cfg, head_multiplier)
    return result


def tl_one(m1, target_train, cfg, seed, head_seed, log_path=None):
    """tl_train() of a single session."""
    [model] = tl_train([TlSession(m1, target_train, seed, head_seed, log_path)], cfg)
    return model


def layers_bytes(layers):
    return b"".join(l.weights.tobytes() + l.bias.tobytes() for l in layers)


def representation_bytes(state):
    return layers_bytes(state.layers[:-1])


def head_bytes(state):
    return layers_bytes(state.layers[-1:])


def state_bytes(state):
    return layers_bytes(state.layers)


class TestStageRules:
    """Each stage passes train its own head multiplier."""

    def test_prt_must_freeze_classifier(self, source_model, pseudo):
        cfg = TrainConfig(epochs=2)
        m1 = prt_train(source_model, pseudo, cfg, seed=3)
        assert head_bytes(m1) == head_bytes(source_model)
        assert representation_bytes(m1) != representation_bytes(source_model)
        expected, _ = train_one(source_model, pseudo.features, pseudo.labels, cfg, 3, 0.0)
        assert state_bytes(m1) == state_bytes(expected)

    def test_tl_requires_ten_times_head_lr_and_no_freezing(self, source_model, domains):
        _, _, target = domains
        cfg = TrainConfig(epochs=2)
        m2 = tl_one(source_model, target, cfg, seed=4, head_seed=11)
        start = replace_head(source_model, 2, 11)
        expected, _ = train_one(start, target.features, target.labels, cfg, 4, 10.0)
        plain, _ = train_one(start, target.features, target.labels, cfg, 4, 1.0)
        assert TL_HEAD_MULTIPLIER == 10.0
        assert state_bytes(m2) == state_bytes(expected)
        assert head_bytes(m2) != head_bytes(plain)

    def test_source_is_plain(self, domains):
        source, _, _ = domains
        cfg = TrainConfig(epochs=2, base_lr=1e-2)
        model = pretrain_source(SPECS, source, cfg, seed=5)
        expected, _ = train_one(init_network(SPECS, 5), source.features, source.labels, cfg, 5, 1.0)
        assert state_bytes(model) == state_bytes(expected)

    def test_spec_defaults(self, tmp_path):
        cfg = ExperimentConfig(out_dir=tmp_path)
        source = _train_config(cfg, cfg.source_epochs, base_lr=cfg.source_lr)
        prt = _train_config(cfg, cfg.prt_epochs)
        tl = _train_config(cfg, cfg.tl_epochs)
        assert (source.epochs, source.base_lr) == (30, pytest.approx(1e-2))
        assert (prt.epochs, prt.base_lr, prt.batch_size) == (15, pytest.approx(3e-4), 16)
        assert tl.epochs == 7
        assert {source.momentum, prt.momentum, tl.momentum} == {0.9}


class TestPretrainSource:
    def test_label_count_and_determinism(self, domains):
        source, _, _ = domains
        cfg = TrainConfig(epochs=5, base_lr=1e-2)
        first = pretrain_source(SPECS, source, cfg, seed=3)
        second = pretrain_source(SPECS, source, cfg, seed=3)
        assert first.label_count == 4
        assert representation_bytes(first) == representation_bytes(second)
        assert head_bytes(first) == head_bytes(second)

    def test_loss_beats_uniform_baseline(self, domains, source_model):
        source, _, _ = domains
        probs = forward(source_model, source.features)
        mean_nll = -np.log(probs[np.arange(len(source)), source.labels]).mean()
        assert mean_nll < math.log(4)

    def test_sanity_gate_reaches_90_percent(self, domains, source_model):
        from pretext_transfer.network import accuracy

        source, _, _ = domains
        assert accuracy(source_model, source.features, source.labels) >= 0.9

    def test_class_count_mismatch_rejected(self, domains):
        source, _, _ = domains
        bad = LabeledSet(source.features, source.labels, class_count=4)
        specs = [
            LayerSpec(5, 8, "relu"),
            LayerSpec(8, 3, "identity"),
        ]
        with pytest.raises(ValidationError):
            pretrain_source(specs, bad, TrainConfig(epochs=1, base_lr=1e-2), seed=0)


class TestPrtTrain:
    def test_classifier_bit_identical_across_seeds(self, source_model, pseudo):
        for seed in range(5):
            m1 = prt_train(source_model, pseudo, TrainConfig(epochs=3), seed)
            assert head_bytes(m1) == head_bytes(source_model)
            assert representation_bytes(m1) != representation_bytes(source_model)
            assert m1.label_count == source_model.label_count

    def test_only_the_head_stays_at_two_hidden_layers(self, domains):
        source, unlabeled, _ = domains
        base = pretrain_source(build_layer_specs(5, 4, hidden=(8, 6), projection_dim=3), source,
                               TrainConfig(epochs=2, base_lr=1e-2), seed=1)
        _, pseudo_set = pseudo_label(base, unlabeled.features, k=4, seed=0)
        m1 = prt_train(base, pseudo_set, TrainConfig(epochs=2), seed=3)
        assert len(m1.layers) == 4
        for k, (old, new) in enumerate(zip(base.layers, m1.layers)):
            assert (old.weights.tobytes() == new.weights.tobytes()) == (k == 3)
            assert (old.bias.tobytes() == new.bias.tobytes()) == (k == 3)

    def test_loss_decreases_on_pseudo_task(self, source_model, pseudo):
        _, history = train_one(source_model, pseudo.features, pseudo.labels, TrainConfig(epochs=15), 0, 0.0)
        assert history[-1] < history[0]

    def test_cluster_count_mismatch_is_config_error(self, source_model, pseudo):
        bad = LabeledSet(pseudo.features, pseudo.labels, class_count=5)
        with pytest.raises(ConfigError):
            prt_train(source_model, bad, TrainConfig(epochs=1), seed=0)

    def test_run_log_lines(self, source_model, pseudo, tmp_path):
        log = tmp_path / "prt.log"
        prt_train(source_model, pseudo, TrainConfig(epochs=3), seed=0, log_path=log)
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            epoch, loss = line.split()
            assert int(epoch) == i
            assert float(loss) > 0


def sha256(state):
    return hashlib.sha256(state_bytes(state)).hexdigest()


class TestPinnedStages:
    """The stage rules fix every bit of a trained state; these digests were
    recorded when PRT froze its head through a separate config field, so any
    change to a stage's arithmetic shows here."""

    PRT_SHA256 = "1e9b1a41b3ec782e32c4148134494238b7a5d97b983a5a4689e8e0258d8885f0"
    TL_SHA256 = [
        "2f7f644c3d8d0d7967e53d43a24e5402f395528de93910477e06236887466999",
        "7594aa1d56af243c32f56cb99f4cabe83b0766af74e85c061eb04f0280290589",
    ]

    def test_prt_is_pinned(self, source_model, pseudo):
        assert sha256(prt_train(source_model, pseudo, TrainConfig(epochs=3), seed=8)) == self.PRT_SHA256

    def test_tl_is_pinned(self, source_model, pseudo, domains):
        # both routes of a grid cell, with unequal row counts so the sessions
        # take different batches at the end of each epoch
        _, _, target = domains
        m1 = prt_train(source_model, pseudo, TrainConfig(epochs=1), seed=2)
        models = tl_train([
            TlSession(source_model, target, seed=4, head_seed=11),
            TlSession(m1, LabeledSet(target.features[::3], target.labels[::3], 2), seed=5, head_seed=12),
        ], TrainConfig(epochs=2))
        assert [sha256(model) for model in models] == self.TL_SHA256


class TestTlTrain:
    def test_head_replaced_to_two_classes(self, source_model, domains):
        _, _, target = domains
        m2 = tl_one(source_model, target, TrainConfig(epochs=2), seed=4, head_seed=5)
        assert m2.label_count == 2
        assert forward(m2, target.features).shape == (len(target), 2)

    def test_empty_class_warns_but_proceeds(self, source_model, domains, tmp_path, caplog):
        _, _, target = domains
        only_negative = LabeledSet(
            target.features[target.labels == 0], target.labels[target.labels == 0], 2
        )
        log = tmp_path / "tl.log"
        with caplog.at_level("WARNING"):
            tl_one(source_model, only_negative, TrainConfig(epochs=1), seed=0, head_seed=1, log_path=log)
        assert "no training samples" in caplog.text
        assert log.read_text().splitlines()[0].startswith("warning: class 1")

    def test_one_step_lr_wiring(self, source_model):
        # unit gradients, zero momentum: at TL's multiplier the head moves exactly 10x as far
        cfg = TrainConfig(epochs=1, base_lr=0.25, momentum=0.0)
        specs = layer_specs(source_model)
        lr, trainable, _ = _step_layout(specs, cfg, TL_HEAD_MULTIPLIER)
        params = _flatten([l.weights for l in source_model.layers], [l.bias for l in source_model.layers])
        before, velocity = params.copy(), np.zeros_like(params)
        sgd_update(params[trainable], velocity[trainable], np.ones_like(params)[trainable],
                   lr[trainable], cfg.momentum)
        for k, (step_w, step_b) in enumerate(zip(*_flat_views(velocity, specs))):
            expected = -2.5 if k == len(specs) - 1 else -0.25
            assert (step_w == expected).all() and (step_b == expected).all()
        assert np.array_equal(params, before + velocity)
        assert 2.5 == 10.0 * 0.25

    def test_representation_moves_less_than_classifier(self, source_model, domains):
        _, _, target = domains
        m2 = tl_one(source_model, target, TrainConfig(epochs=7), seed=6, head_seed=11)
        start = replace_head(source_model, 2, init_seed=11)
        def mean_move(before, after):
            deltas = [np.abs(a.weights - b.weights).sum() + np.abs(a.bias - b.bias).sum()
                      for a, b in zip(before, after)]
            return sum(deltas) / sum(l.weights.size + l.bias.size for l in before)

        head = len(start.layers) - 1
        assert mean_move(start.layers[:head], m2.layers[:head]) < mean_move(start.layers[head:], m2.layers[head:])

    def test_lockstep_sessions_match_sessions_alone(self, source_model, pseudo, domains, tmp_path, caplog):
        # each session keeps its own start, data, seeds, warnings and log
        _, _, target = domains
        m1 = prt_train(source_model, pseudo, TrainConfig(epochs=1), seed=2)
        negatives = target.labels == 0
        only_negative = LabeledSet(target.features[negatives], target.labels[negatives], 2)
        every_third = LabeledSet(target.features[::3], target.labels[::3], 2)
        cfg = TrainConfig(epochs=2)
        sessions = [
            TlSession(source_model, target, seed=4, head_seed=11, log_path=tmp_path / "a.log"),
            TlSession(m1, only_negative, seed=5, head_seed=6, log_path=tmp_path / "b.log"),
            TlSession(m1, every_third, seed=6, head_seed=3, log_path=tmp_path / "c.log"),
        ]
        with caplog.at_level("WARNING"):
            models = tl_train(sessions, cfg)
        assert caplog.text.count("no training samples") == 1
        assert (tmp_path / "b.log").read_text().startswith("warning: class 1")
        for i, (session, model) in enumerate(zip(sessions, models)):
            alone_log = tmp_path / f"alone{i}.log"
            alone = tl_one(session.m1, session.target_train, cfg, session.seed, session.head_seed, alone_log)
            assert state_bytes(model) == state_bytes(alone)
            lockstep_lines = session.log_path.read_text().splitlines()
            alone_lines = alone_log.read_text().splitlines()
            assert [line.split()[:2] for line in lockstep_lines] == [line.split()[:2] for line in alone_lines]

    def test_empty_training_set_rejected(self, source_model):
        with pytest.raises(Exception):
            LabeledSet(np.zeros((0, 5)), np.zeros(0, dtype=int), 2)

    def test_composes_with_prt(self, source_model, pseudo, domains):
        _, _, target = domains
        for hidden in ((8,), (12, 6)):
            specs = []
            prev = 5
            for width in hidden:
                specs.append(LayerSpec(prev, width, "relu"))
                prev = width
            specs.append(LayerSpec(prev, 4, "identity"))
            base = pretrain_source(
                specs, generate_domains(SYNTH, seed=7)[0], TrainConfig(epochs=2, base_lr=1e-2), seed=0
            )
            _, pseudo_set = pseudo_label(base, generate_domains(SYNTH, seed=7)[1].features, k=4, seed=0)
            m1 = prt_train(base, pseudo_set, TrainConfig(epochs=1), seed=0)
            m2 = tl_one(m1, target, TrainConfig(epochs=1), seed=0, head_seed=1)
            assert m2.label_count == 2
