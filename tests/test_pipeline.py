import math

import numpy as np
import pytest

from pretext_transfer.clustering import pseudo_label
from pretext_transfer.data import LabeledSet, SynthConfig, generate_domains
from pretext_transfer.errors import ConfigError, ValidationError
from pretext_transfer.harness import ExperimentConfig, _train_config
from pretext_transfer.network import (
    CLASSIFICATION,
    REPRESENTATION,
    LayerSpec,
    Session,
    TrainConfig,
    forward,
    init_network,
    replace_head,
    train,
)
from pretext_transfer.pipeline import TL_HEAD_MULTIPLIER, TlSession, pretrain_source, prt_train, tl_train

SPECS = [
    LayerSpec(5, 16, "relu", REPRESENTATION),
    LayerSpec(16, 8, "identity", REPRESENTATION),
    LayerSpec(8, 4, "identity", CLASSIFICATION),
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
    seed=7,
)


@pytest.fixture(scope="module")
def domains():
    return generate_domains(SYNTH)


@pytest.fixture(scope="module")
def source_model(domains):
    source, _, _ = domains
    return pretrain_source(SPECS, source, TrainConfig(epochs=20, base_lr=1e-2, seed=1))


@pytest.fixture(scope="module")
def pseudo(source_model, domains):
    _, unlabeled, _ = domains
    _, pseudo_set = pseudo_label(source_model, unlabeled.features, k=4, seed=2)
    return pseudo_set


def train_one(state, x, y, cfg):
    """train() of a single session."""
    [result] = train([Session(state, x, y, cfg)])
    return result


def tl_one(m1, target_train, cfg, head_seed=None, log_path=None):
    """tl_train() of a single session."""
    [model] = tl_train([TlSession(m1, target_train, cfg, head_seed, log_path)])
    return model


def group_bytes(state, group):
    return b"".join(
        l.weights.tobytes() + l.bias.tobytes() for l in state.layers if l.group == group
    )


def state_bytes(state):
    return group_bytes(state, REPRESENTATION) + group_bytes(state, CLASSIFICATION)


# a config that breaks every stage's rule: each stage must override both fields
MISCONFIGURED = dict(frozen_groups=frozenset({REPRESENTATION}), classifier_lr_multiplier=2.0)


class TestStageRules:
    """Each stage sets its own frozen groups and head rate, whatever it is given."""

    def test_prt_must_freeze_classifier(self, source_model, pseudo):
        given = TrainConfig(epochs=2, seed=3, **MISCONFIGURED)
        m1 = prt_train(source_model, pseudo, given)
        assert group_bytes(m1, CLASSIFICATION) == group_bytes(source_model, CLASSIFICATION)
        assert group_bytes(m1, REPRESENTATION) != group_bytes(source_model, REPRESENTATION)
        expected, _ = train_one(
            source_model, pseudo.features, pseudo.labels,
            TrainConfig(epochs=2, seed=3, frozen_groups=frozenset({CLASSIFICATION})),
        )
        assert state_bytes(m1) == state_bytes(expected)

    def test_tl_requires_ten_times_head_lr_and_no_freezing(self, source_model, domains):
        _, _, target = domains
        m2 = tl_one(source_model, target, TrainConfig(epochs=2, seed=4, **MISCONFIGURED), head_seed=11)
        start = replace_head(source_model, 2, 11)
        expected, _ = train_one(
            start, target.features, target.labels,
            TrainConfig(epochs=2, seed=4, classifier_lr_multiplier=10.0),
        )
        plain, _ = train_one(start, target.features, target.labels, TrainConfig(epochs=2, seed=4))
        assert TL_HEAD_MULTIPLIER == 10.0
        assert state_bytes(m2) == state_bytes(expected)
        assert group_bytes(m2, CLASSIFICATION) != group_bytes(plain, CLASSIFICATION)

    def test_source_is_plain(self, domains):
        source, _, _ = domains
        model = pretrain_source(SPECS, source, TrainConfig(epochs=2, base_lr=1e-2, seed=5, **MISCONFIGURED))
        expected, _ = train_one(
            init_network(SPECS, 5), source.features, source.labels,
            TrainConfig(epochs=2, base_lr=1e-2, seed=5),
        )
        assert state_bytes(model) == state_bytes(expected)

    def test_spec_defaults(self, tmp_path):
        cfg = ExperimentConfig(out_dir=tmp_path)
        source = _train_config(cfg, cfg.source_epochs, seed=0, base_lr=cfg.source_lr)
        prt = _train_config(cfg, cfg.prt_epochs, seed=0)
        tl = _train_config(cfg, cfg.tl_epochs, seed=0)
        assert (source.epochs, source.base_lr) == (30, pytest.approx(1e-2))
        assert (prt.epochs, prt.base_lr, prt.batch_size) == (15, pytest.approx(3e-4), 16)
        assert tl.epochs == 7
        assert {source.momentum, prt.momentum, tl.momentum} == {0.9}


class TestPretrainSource:
    def test_label_count_and_determinism(self, domains):
        source, _, _ = domains
        cfg = TrainConfig(epochs=5, base_lr=1e-2, seed=3)
        first = pretrain_source(SPECS, source, cfg)
        second = pretrain_source(SPECS, source, cfg)
        assert first.label_count == 4
        assert group_bytes(first, REPRESENTATION) == group_bytes(second, REPRESENTATION)
        assert group_bytes(first, CLASSIFICATION) == group_bytes(second, CLASSIFICATION)

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
            LayerSpec(5, 8, "relu", REPRESENTATION),
            LayerSpec(8, 3, "identity", CLASSIFICATION),
        ]
        with pytest.raises(ValidationError):
            pretrain_source(specs, bad, TrainConfig(epochs=1, base_lr=1e-2))


class TestPrtTrain:
    def test_classifier_bit_identical_across_seeds(self, source_model, pseudo):
        for seed in range(5):
            cfg = TrainConfig(epochs=3, seed=seed)
            m1 = prt_train(source_model, pseudo, cfg)
            assert group_bytes(m1, CLASSIFICATION) == group_bytes(source_model, CLASSIFICATION)
            assert group_bytes(m1, REPRESENTATION) != group_bytes(source_model, REPRESENTATION)
            assert m1.label_count == source_model.label_count

    def test_loss_decreases_on_pseudo_task(self, source_model, pseudo):
        cfg = TrainConfig(epochs=15, frozen_groups=frozenset({CLASSIFICATION}))
        _, history = train_one(source_model, pseudo.features, pseudo.labels, cfg)
        assert history[-1] < history[0]

    def test_cluster_count_mismatch_is_config_error(self, source_model, pseudo):
        bad = LabeledSet(pseudo.features, pseudo.labels, class_count=5)
        with pytest.raises(ConfigError):
            prt_train(source_model, bad, TrainConfig(epochs=1))

    def test_run_log_lines(self, source_model, pseudo, tmp_path):
        log = tmp_path / "prt.log"
        prt_train(source_model, pseudo, TrainConfig(epochs=3), log_path=log)
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            epoch, loss = line.split()
            assert int(epoch) == i
            assert float(loss) > 0


class TestTlTrain:
    def test_head_replaced_to_two_classes(self, source_model, domains):
        _, _, target = domains
        cfg = TrainConfig(epochs=2, seed=4)
        m2 = tl_one(source_model, target, cfg)
        assert m2.label_count == 2
        assert forward(m2, target.features).shape == (len(target), 2)

    def test_empty_class_warns_but_proceeds(self, source_model, domains, tmp_path, caplog):
        _, _, target = domains
        only_negative = LabeledSet(
            target.features[target.labels == 0], target.labels[target.labels == 0], 2
        )
        log = tmp_path / "tl.log"
        cfg = TrainConfig(epochs=1)
        with caplog.at_level("WARNING"):
            tl_one(source_model, only_negative, cfg, log_path=log)
        assert "no training samples" in caplog.text
        assert log.read_text().splitlines()[0].startswith("warning: class 1")

    def test_one_step_lr_wiring(self, source_model):
        # unit gradients, zero momentum: classifier moves exactly 10x as far
        from pretext_transfer.network import Gradients, sgd_update, zero_velocity

        cfg = TrainConfig(epochs=1, base_lr=0.25, classifier_lr_multiplier=10.0, momentum=0.0)
        grads = Gradients(
            [np.ones_like(l.weights) for l in source_model.layers],
            [np.ones_like(l.bias) for l in source_model.layers],
        )
        updated, applied = sgd_update(source_model, grads, zero_velocity(source_model), cfg)
        for layer, step_w, step_b, after in zip(
            source_model.layers, applied.weights, applied.biases, updated.layers
        ):
            expected = -2.5 if layer.group == CLASSIFICATION else -0.25
            assert (step_w == expected).all() and (step_b == expected).all()
            assert np.array_equal(after.weights, layer.weights + step_w)
        assert 2.5 == 10.0 * 0.25

    def test_representation_moves_less_than_classifier(self, source_model, domains):
        _, _, target = domains
        cfg = TrainConfig(epochs=7, seed=6)
        m2 = tl_one(source_model, target, cfg, head_seed=11)
        start = replace_head(source_model, 2, init_seed=11)
        per_group = {}
        for group in (REPRESENTATION, CLASSIFICATION):
            deltas = [
                np.abs(a.weights - b.weights).sum() + np.abs(a.bias - b.bias).sum()
                for a, b in zip(start.layers, m2.layers)
                if a.group == group
            ]
            sizes = sum(
                l.weights.size + l.bias.size for l in start.layers if l.group == group
            )
            per_group[group] = sum(deltas) / sizes
        assert per_group[REPRESENTATION] < per_group[CLASSIFICATION]

    def test_lockstep_sessions_match_sessions_alone(self, source_model, pseudo, domains, tmp_path, caplog):
        # each session keeps its own start, data, seeds, warnings and log
        _, _, target = domains
        m1 = prt_train(source_model, pseudo, TrainConfig(epochs=1, seed=2))
        negatives = target.labels == 0
        only_negative = LabeledSet(target.features[negatives], target.labels[negatives], 2)
        every_third = LabeledSet(target.features[::3], target.labels[::3], 2)
        sessions = [
            TlSession(source_model, target, TrainConfig(epochs=2, seed=4), head_seed=11, log_path=tmp_path / "a.log"),
            TlSession(m1, only_negative, TrainConfig(epochs=2, seed=5), log_path=tmp_path / "b.log"),
            TlSession(m1, every_third, TrainConfig(epochs=2, seed=6), head_seed=3, log_path=tmp_path / "c.log"),
        ]
        with caplog.at_level("WARNING"):
            models = tl_train(sessions)
        assert caplog.text.count("no training samples") == 1
        assert (tmp_path / "b.log").read_text().startswith("warning: class 1")
        for i, (session, model) in enumerate(zip(sessions, models)):
            alone_log = tmp_path / f"alone{i}.log"
            alone = tl_one(session.m1, session.target_train, session.cfg, session.head_seed, alone_log)
            assert state_bytes(model) == state_bytes(alone)
            lockstep_lines = session.log_path.read_text().splitlines()
            alone_lines = alone_log.read_text().splitlines()
            assert [line.split()[:2] for line in lockstep_lines] == [line.split()[:2] for line in alone_lines]

    def test_lockstep_sessions_share_hyperparameters(self, source_model, domains):
        _, _, target = domains
        with pytest.raises(ConfigError):
            tl_train([TlSession(source_model, target, TrainConfig(epochs=1)),
                      TlSession(source_model, target, TrainConfig(epochs=2))])

    def test_empty_training_set_rejected(self, source_model):
        with pytest.raises(Exception):
            LabeledSet(np.zeros((0, 5)), np.zeros(0, dtype=int), 2)

    def test_composes_with_prt(self, source_model, pseudo, domains):
        _, _, target = domains
        for hidden in ((8,), (12, 6)):
            specs = []
            prev = 5
            for width in hidden:
                specs.append(LayerSpec(prev, width, "relu", REPRESENTATION))
                prev = width
            specs.append(LayerSpec(prev, 4, "identity", CLASSIFICATION))
            base = pretrain_source(
                specs, generate_domains(SYNTH)[0], TrainConfig(epochs=2, base_lr=1e-2)
            )
            _, pseudo_set = pseudo_label(base, generate_domains(SYNTH)[1].features, k=4, seed=0)
            m1 = prt_train(base, pseudo_set, TrainConfig(epochs=1))
            m2 = tl_one(m1, target, TrainConfig(epochs=1))
            assert m2.label_count == 2
