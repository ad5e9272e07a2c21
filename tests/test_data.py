import dataclasses

import numpy as np
import pytest

from pretext_transfer.data import (
    POSITIVE_CLASS,
    LabeledSet,
    SynthConfig,
    UnlabeledSet,
    apply_imbalance,
    generate_domains,
    load_dataset,
    make_folds,
    save_dataset,
    subset,
)
from pretext_transfer.errors import ConfigError, ValidationError

SMALL = SynthConfig(
    source_class_count=4,
    dim=5,
    samples_per_class=12,
    unlabeled_size=40,
    positives=25,
    negatives=30,
    shift=1.5,
    noise=1.0,
    seed=3,
)


class TestGenerateDomains:
    def test_shapes_and_label_layout(self):
        source, unlabeled, target = generate_domains(SMALL)
        assert source.features.shape == (48, 5)
        assert source.class_count == 4
        assert np.array_equal(source.labels, np.repeat(np.arange(4), 12))
        assert unlabeled.features.shape == (40, 5)
        assert target.features.shape == (55, 5)
        assert np.array_equal(target.labels, np.repeat([0, 1], [30, 25]))

    def test_default_target_is_349_349(self):
        cfg = SynthConfig()
        assert cfg.positives == 349 and cfg.negatives == 349

    def test_zero_shift_keeps_designated_cluster_means(self):
        cfg = SynthConfig(
            source_class_count=3, dim=4, samples_per_class=4000,
            unlabeled_size=10, positives=4000, negatives=4000,
            shift=0.0, noise=0.5, seed=9,
        )
        source, _, target = generate_domains(cfg)
        for cls in (0, 1):
            source_mean = source.features[source.labels == cls].mean(axis=0)
            target_mean = target.features[target.labels == cls].mean(axis=0)
            assert np.linalg.norm(source_mean - target_mean) < 0.1

    def test_nonzero_shift_moves_both_classes_by_the_shift_magnitude(self):
        base = SynthConfig(
            source_class_count=3, dim=4, samples_per_class=10,
            unlabeled_size=10, positives=5000, negatives=5000,
            shift=2.0, noise=0.5, seed=9,
        )
        zero = dataclasses.replace(base, shift=0.0)
        _, _, shifted = generate_domains(base)
        _, _, unshifted = generate_domains(zero)
        for cls in (0, 1):
            moved = np.linalg.norm(
                shifted.features[shifted.labels == cls].mean(axis=0)
                - unshifted.features[unshifted.labels == cls].mean(axis=0)
            )
            assert moved == pytest.approx(base.shift, abs=0.05)

    def test_deterministic_per_seed(self):
        first = generate_domains(SMALL)
        second = generate_domains(SMALL)
        for a, b in zip(first, second):
            assert np.array_equal(a.features, b.features)
        third = generate_domains(dataclasses.replace(SMALL, seed=4))
        assert not np.array_equal(first[0].features, third[0].features)

    def test_finite_everywhere(self):
        for part in generate_domains(SMALL):
            assert np.isfinite(part.features).all()

    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(positives=0)
        with pytest.raises(ConfigError):
            SynthConfig(noise=0.0)
        with pytest.raises(ConfigError):
            SynthConfig(source_class_count=1)


class TestMakeFolds:
    def grouped_set(self, counts):
        labels = np.repeat(np.arange(len(counts)), counts)
        features = np.arange(labels.size, dtype=float)[:, None]
        return LabeledSet(features, labels, len(counts))

    def test_even_division(self):
        plan = make_folds(self.grouped_set([10, 10]), 5)
        for test_idx in plan.test_indices:
            assert test_idx.size == 4  # 2 per class per fold

    def test_349_block_sizes(self):
        dataset = self.grouped_set([349, 349])
        plan = make_folds(dataset, 5)
        per_class_sizes = []
        for test_idx in plan.test_indices:
            labels = dataset.labels[test_idx]
            per_class_sizes.append((int((labels == 0).sum()), int((labels == 1).sum())))
        assert per_class_sizes == [(70, 70), (70, 70), (70, 70), (70, 70), (69, 69)]

    def test_partition_property(self):
        dataset = self.grouped_set([13, 8, 11])
        plan = make_folds(dataset, 4)
        seen = np.concatenate(plan.test_indices)
        assert np.array_equal(np.sort(seen), np.arange(len(dataset)))
        for train_idx, test_idx in zip(plan.train_indices, plan.test_indices):
            assert np.intersect1d(train_idx, test_idx).size == 0
            assert train_idx.size + test_idx.size == len(dataset)

    def test_test_blocks_are_contiguous_per_class(self):
        dataset = self.grouped_set([12, 9])
        plan = make_folds(dataset, 3)
        for test_idx in plan.test_indices:
            for c in range(2):
                class_positions = test_idx[dataset.labels[test_idx] == c]
                assert np.array_equal(
                    class_positions, np.arange(class_positions[0], class_positions[-1] + 1)
                )

    def test_class_smaller_than_fold_count(self):
        with pytest.raises(ValidationError):
            make_folds(self.grouped_set([3, 10]), 4)


class TestApplyImbalance:
    def imbalanced_input(self, negatives=30, positives=280):
        labels = np.concatenate([np.zeros(negatives, dtype=int), np.ones(positives, dtype=int)])
        features = np.arange(labels.size, dtype=float)[:, None]
        return LabeledSet(features, labels, 2)

    def test_ceiling_retention(self):
        train = self.imbalanced_input(positives=280)
        out = apply_imbalance(train, POSITIVE_CLASS, 10)
        assert int((out.labels == 1).sum()) == 28
        assert int((out.labels == 0).sum()) == 30

    def test_keeps_first_positives_in_stored_order(self):
        train = self.imbalanced_input(negatives=4, positives=8)
        out = apply_imbalance(train, POSITIVE_CLASS, 25)  # ceil(2.0) = 2
        kept_positive_rows = out.features[out.labels == 1].ravel()
        assert kept_positive_rows.tolist() == [4.0, 5.0]

    def test_hundred_percent_is_identity(self):
        train = self.imbalanced_input()
        out = apply_imbalance(train, POSITIVE_CLASS, 100)
        assert np.array_equal(out.features, train.features)
        assert np.array_equal(out.labels, train.labels)

    def test_negatives_fixed_for_every_ratio(self):
        train = self.imbalanced_input(negatives=57, positives=91)
        for ratio in (10, 25, 50, 75, 100):
            out = apply_imbalance(train, POSITIVE_CLASS, ratio)
            assert int((out.labels == 0).sum()) == 57
            expected = -(-91 * ratio // 100)
            assert int((out.labels == 1).sum()) == expected

    def test_ratio_outside_allowed_set(self):
        with pytest.raises(ValidationError):
            apply_imbalance(self.imbalanced_input(), POSITIVE_CLASS, 33)

    def test_empty_positive_class(self):
        labels = np.zeros(10, dtype=int)
        train = LabeledSet(np.zeros((10, 2)), labels, 2)
        with pytest.raises(ValidationError):
            apply_imbalance(train, POSITIVE_CLASS, 50)


class TestDatasetFiles:
    def test_labeled_round_trip(self, tmp_path):
        source, _, _ = generate_domains(SMALL)
        path = tmp_path / "source.bin"
        save_dataset(source, path)
        loaded = load_dataset(path)
        assert isinstance(loaded, LabeledSet)
        assert np.array_equal(loaded.features, source.features)
        assert np.array_equal(loaded.labels, source.labels)
        assert loaded.class_count == source.class_count

    def test_unlabeled_round_trip(self, tmp_path):
        _, unlabeled, _ = generate_domains(SMALL)
        path = tmp_path / "pool.bin"
        save_dataset(unlabeled, path)
        loaded = load_dataset(path)
        assert isinstance(loaded, UnlabeledSet)
        assert np.array_equal(loaded.features, unlabeled.features)


class TestLabeledSet:
    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValidationError, match="labels must be integers"):
            LabeledSet(np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]), 2)
        with pytest.raises(ValidationError, match="labels must be integers"):
            LabeledSet(np.zeros((2, 2)), np.array([False, True]), 2)


class TestSubset:
    def test_subset_preserves_rows(self):
        _, _, target = generate_domains(SMALL)
        picked = subset(target, np.array([0, 5, 40]))
        assert np.array_equal(picked.features, target.features[[0, 5, 40]])
        assert np.array_equal(picked.labels, target.labels[[0, 5, 40]])
