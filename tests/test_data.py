import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretext_transfer.clustering import extract_projection, kmeans_fit
from pretext_transfer.data import (
    ALLOWED_RATIOS,
    _MEAN_SCALE,
    _TARGET_PAIR_GAP,
    LabeledSet,
    SynthConfig,
    UnlabeledSet,
    _unit,
    feature_matrix,
    generate_domains,
    load_dataset,
    make_folds,
    save_dataset,
    subset,
    train_rows,
)
from pretext_transfer.dictionary import FeatureDictionary, class_probabilities, unit_columns
from pretext_transfer.errors import ValidationError
from pretext_transfer.network import Session, TrainConfig, forward, init_network, train

SMALL = SynthConfig(
    source_class_count=4,
    dim=5,
    samples_per_class=12,
    unlabeled_size=40,
    positives=25,
    negatives=30,
    shift=1.5,
    noise=1.0,
)


class TestGenerateDomains:
    def test_shapes_and_label_layout(self):
        source, unlabeled, target = generate_domains(SMALL, seed=3)
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
            shift=0.0, noise=0.5,
        )
        source, _, target = generate_domains(cfg, seed=9)
        for cls in (0, 1):
            source_mean = source.features[source.labels == cls].mean(axis=0)
            target_mean = target.features[target.labels == cls].mean(axis=0)
            assert np.linalg.norm(source_mean - target_mean) < 0.1

    def test_nonzero_shift_moves_both_classes_by_the_shift_magnitude(self):
        base = SynthConfig(
            source_class_count=3, dim=4, samples_per_class=10,
            unlabeled_size=10, positives=5000, negatives=5000,
            shift=2.0, noise=0.5,
        )
        zero = dataclasses.replace(base, shift=0.0)
        _, _, shifted = generate_domains(base, seed=9)
        _, _, unshifted = generate_domains(zero, seed=9)
        for cls in (0, 1):
            moved = np.linalg.norm(
                shifted.features[shifted.labels == cls].mean(axis=0)
                - unshifted.features[unshifted.labels == cls].mean(axis=0)
            )
            assert moved == pytest.approx(base.shift, abs=0.05)

    def test_deterministic_per_seed(self):
        first = generate_domains(SMALL, seed=3)
        second = generate_domains(SMALL, seed=3)
        for a, b in zip(first, second):
            assert np.array_equal(a.features, b.features)
        third = generate_domains(SMALL, seed=4)
        assert not np.array_equal(first[0].features, third[0].features)

    @staticmethod
    def reference_pool(cfg, seed):
        """``target_means[components] + noise`` from generate_domains's draws, in its order."""
        rng = np.random.default_rng(seed)
        means = rng.normal(0.0, _MEAN_SCALE * cfg.noise, size=(cfg.source_class_count, cfg.dim))
        means[1] = means[0] + _TARGET_PAIR_GAP * cfg.noise * _unit(rng.normal(size=cfg.dim))
        for _ in range(cfg.source_class_count):
            rng.normal(0.0, cfg.noise, size=(cfg.samples_per_class, cfg.dim))
        target_means = means[:2] + cfg.shift * _unit(rng.normal(size=cfg.dim))
        rng.normal(0.0, cfg.noise, size=(cfg.negatives, cfg.dim))
        rng.normal(0.0, cfg.noise, size=(cfg.positives, cfg.dim))
        positive_fraction = cfg.positives / (cfg.positives + cfg.negatives)
        components = (rng.random(cfg.unlabeled_size) < positive_fraction).astype(np.int64)
        return target_means[components] + rng.normal(0.0, cfg.noise, size=(cfg.unlabeled_size, cfg.dim))

    # the pool adds each component's mean into its noise in place
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("size", [1, 7, 1500, 20000])
    def test_pool_has_the_bits_of_means_plus_noise(self, size, seed):
        cfg = SynthConfig(unlabeled_size=size)
        _, unlabeled, _ = generate_domains(cfg, seed)
        assert unlabeled.features.tobytes() == self.reference_pool(cfg, seed).tobytes()

    def test_finite_everywhere(self):
        for part in generate_domains(SMALL, seed=3):
            assert np.isfinite(part.features).all()

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValidationError, match="^all sample counts must be >= 1$"):
            SynthConfig(positives=0)
        with pytest.raises(ValidationError, match="^noise must be > 0 and finite$"):
            SynthConfig(noise=0.0)
        with pytest.raises(ValidationError, match="^source_class_count must be >= 2$"):
            SynthConfig(source_class_count=1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["shift", "noise"])
    def test_non_finite_setting_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be .* finite"):
            SynthConfig(**{field: value})


class TestMakeFolds:
    def grouped_set(self, counts):
        labels = np.repeat(np.arange(len(counts)), counts)
        features = np.arange(labels.size, dtype=float)[:, None]
        return LabeledSet(features, labels, len(counts))

    def test_even_division(self):
        for test_idx in make_folds(self.grouped_set([10, 10]), 5):
            assert test_idx.size == 4  # 2 per class per fold

    def test_349_block_sizes(self):
        dataset = self.grouped_set([349, 349])
        per_class_sizes = []
        for test_idx in make_folds(dataset, 5):
            labels = dataset.labels[test_idx]
            per_class_sizes.append((int((labels == 0).sum()), int((labels == 1).sum())))
        assert per_class_sizes == [(70, 70), (70, 70), (70, 70), (70, 70), (69, 69)]

    def test_partition_property(self):
        dataset = self.grouped_set([13, 8, 11])
        folds = make_folds(dataset, 4)
        seen = np.concatenate(folds)
        assert np.array_equal(np.sort(seen), np.arange(len(dataset)))
        for test_idx in folds:
            assert np.array_equal(test_idx, np.sort(test_idx))
            train_idx = train_rows(dataset, test_idx, 100)
            assert np.intersect1d(train_idx, test_idx).size == 0
            assert train_idx.size + test_idx.size == len(dataset)

    def test_test_blocks_are_contiguous_per_class(self):
        dataset = self.grouped_set([12, 9])
        for test_idx in make_folds(dataset, 3):
            for c in range(2):
                class_positions = test_idx[dataset.labels[test_idx] == c]
                assert np.array_equal(
                    class_positions, np.arange(class_positions[0], class_positions[-1] + 1)
                )

    def test_class_smaller_than_fold_count(self):
        with pytest.raises(ValidationError):
            make_folds(self.grouped_set([3, 10]), 4)

    @pytest.mark.parametrize("fold_count", [1, 0])
    def test_fewer_than_two_folds_refused(self, fold_count):
        with pytest.raises(ValidationError, match="^fold_count must be >= 2: with one fold every training split"):
            make_folds(self.grouped_set([10, 10]), fold_count)


# a cell's training rows when no row is held out for testing
NO_TEST_ROWS = np.array([], dtype=np.intp)


class TestApplyImbalance:
    def imbalanced_input(self, negatives=30, positives=280):
        labels = np.concatenate([np.zeros(negatives, dtype=int), np.ones(positives, dtype=int)])
        features = np.arange(labels.size, dtype=float)[:, None]
        return LabeledSet(features, labels, 2)

    def cut(self, dataset, ratio, test_rows=NO_TEST_ROWS):
        return subset(dataset, train_rows(dataset, test_rows, ratio))

    def test_ceiling_retention(self):
        out = self.cut(self.imbalanced_input(positives=280), 10)
        assert int((out.labels == 1).sum()) == 28
        assert int((out.labels == 0).sum()) == 30

    def test_keeps_first_positives_in_stored_order(self):
        out = self.cut(self.imbalanced_input(negatives=4, positives=8), 25)  # ceil(2.0) = 2
        kept_positive_rows = out.features[out.labels == 1].ravel()
        assert kept_positive_rows.tolist() == [4.0, 5.0]

    def test_hundred_percent_is_identity(self):
        train = self.imbalanced_input()
        out = self.cut(train, 100)
        assert np.array_equal(out.features, train.features)
        assert np.array_equal(out.labels, train.labels)

    def test_negatives_fixed_for_every_ratio(self):
        train = self.imbalanced_input(negatives=57, positives=91)
        for ratio in (10, 25, 50, 75, 100):
            out = self.cut(train, ratio)
            assert int((out.labels == 0).sum()) == 57
            expected = -(-91 * ratio // 100)
            assert int((out.labels == 1).sum()) == expected

    def test_ratio_outside_allowed_set(self):
        with pytest.raises(ValidationError):
            self.cut(self.imbalanced_input(), 33)

    def test_empty_positive_class(self):
        labels = np.zeros(10, dtype=int)
        train = LabeledSet(np.zeros((10, 2)), labels, 2)
        with pytest.raises(ValidationError):
            self.cut(train, 50)

    def test_positives_only_in_the_test_rows_refused(self):
        dataset = self.imbalanced_input(negatives=6, positives=3)
        with pytest.raises(ValidationError, match="^positive class 1 has no samples outside the test rows$"):
            self.cut(dataset, 100, np.array([6, 7, 8]))

    def test_keeps_negatives_and_first_positives_outside_the_test_rows(self):
        # rows 0-3 are negatives, 4-11 positives; the test rows take one of
        # each, so 6 positives remain and 50% keeps the first 3 of them
        dataset = self.imbalanced_input(negatives=4, positives=8)
        rows = train_rows(dataset, np.array([1, 6, 7]), 50)
        assert rows.tolist() == [0, 2, 3, 4, 5, 8]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_every_cell_keeps_both_classes(self, data):
        # the TL stage trains every cell as it comes, so no fold and ratio may
        # leave a class out of the training rows, whatever the row order
        fold_count = data.draw(st.integers(2, 8), label="fold_count")
        negatives = data.draw(st.integers(fold_count, 30), label="negatives")
        positives = data.draw(st.integers(fold_count, 30), label="positives")
        labels = np.repeat([0, 1], [negatives, positives])
        labels = labels[data.draw(st.permutations(range(labels.size)), label="order")]
        dataset = LabeledSet(np.zeros((labels.size, 1)), labels, 2)
        for test_idx in make_folds(dataset, fold_count):
            for ratio in ALLOWED_RATIOS:
                kept = dataset.labels[train_rows(dataset, test_idx, ratio)]
                assert np.array_equal(np.unique(kept), [0, 1])

    @pytest.mark.parametrize("ratio", [10, 25, 50, 75, 100])
    def test_never_returns_a_test_row(self, ratio):
        dataset = self.imbalanced_input(negatives=23, positives=17)
        for test_idx in make_folds(dataset, 4):
            rows = train_rows(dataset, test_idx, ratio)
            assert np.intersect1d(rows, test_idx).size == 0
            assert np.array_equal(rows, np.sort(rows))
            outside = np.setdiff1d(np.arange(len(dataset)), test_idx)
            negatives = outside[dataset.labels[outside] == 0]
            positives = outside[dataset.labels[outside] == 1]
            kept = positives[:-(-positives.size * ratio // 100)]
            assert np.array_equal(rows, np.sort(np.concatenate([negatives, kept])))


class TestDatasetFiles:
    def test_labeled_round_trip(self, tmp_path):
        source, _, _ = generate_domains(SMALL, seed=3)
        path = tmp_path / "source.bin"
        save_dataset(source, path)
        loaded = load_dataset(path)
        assert isinstance(loaded, LabeledSet)
        assert np.array_equal(loaded.features, source.features)
        assert np.array_equal(loaded.labels, source.labels)
        assert loaded.class_count == source.class_count

    def test_unlabeled_round_trip(self, tmp_path):
        _, unlabeled, _ = generate_domains(SMALL, seed=3)
        path = tmp_path / "pool.bin"
        save_dataset(unlabeled, path)
        loaded = load_dataset(path)
        assert isinstance(loaded, UnlabeledSet)
        assert np.array_equal(loaded.features, unlabeled.features)

    def test_non_finite_labeled_feature_names_the_file(self, tmp_path):
        _, _, target = generate_domains(SMALL, seed=3)
        path = tmp_path / "target.bin"
        save_dataset(target, path)
        raw = path.read_bytes()
        # the blob holds the <f8 features, then the <i4 labels; patch the first feature
        start = len(raw) - target.features.size * 8 - target.labels.size * 4
        assert raw[start:start + 8] == target.features[0, 0].astype("<f8").tobytes()
        path.write_bytes(raw[:start] + np.array(np.nan, "<f8").tobytes() + raw[start + 8:])
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: blob holds non-finite values$"):
            load_dataset(path)


class TestLabeledSet:
    def test_non_integer_labels_rejected(self):
        with pytest.raises(ValidationError, match="labels must be integers"):
            LabeledSet(np.zeros((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]), 2)
        with pytest.raises(ValidationError, match="labels must be integers"):
            LabeledSet(np.zeros((2, 2)), np.array([False, True]), 2)


class TestSubset:
    def test_subset_preserves_rows(self):
        _, _, target = generate_domains(SMALL, seed=3)
        picked = subset(target, np.array([0, 5, 40]))
        assert np.array_equal(picked.features, target.features[[0, 5, 40]])
        assert np.array_equal(picked.labels, target.labels[[0, 5, 40]])


_NET = init_network((4, 3, 2))
_DICT = FeatureDictionary(unit_columns(np.eye(4)), (2, 2))

# entry point -> (call on a feature batch, whether it expects a width of 4)
FEATURE_ENTRY_POINTS = {
    "LabeledSet": (lambda x: LabeledSet(x, np.zeros(len(x), dtype=np.int64), 2), False),
    "UnlabeledSet": (UnlabeledSet, False),
    "forward": (lambda x: forward(_NET, x), True),
    "extract_projection": (lambda x: extract_projection(_NET, x), True),
    "kmeans_fit": (lambda x: kmeans_fit(x, k=2), False),
    "unit_columns": (unit_columns, False),
    "class_probabilities": (lambda x: class_probabilities(_DICT, unit_columns(x), 1.0), True),
    "train": (lambda x: train([Session(_NET, LabeledSet(x, np.zeros(len(x), dtype=np.int64), 2), 0)],
                              TrainConfig(epochs=1), 1.0), True),
}

# bad batch -> (batch, message)
BAD_BATCHES = {
    "vector": (np.ones(4), "features must be a non-empty 2-d matrix, got shape (4,)"),
    "empty": (np.ones((0, 4)), "features must be a non-empty 2-d matrix, got shape (0, 4)"),
    "nan": (np.full((4, 4), np.nan), "features contain non-finite values"),
    "wrong-width": (np.ones((4, 3)), "features have 3 columns, expected 4"),
}


class TestFeatureMatrix:
    @pytest.mark.parametrize("entry, batch", [
        (entry, batch) for entry, (_, has_width) in FEATURE_ENTRY_POINTS.items()
        for batch in BAD_BATCHES if has_width or batch != "wrong-width"
    ])
    def test_every_entry_point_refuses_alike(self, entry, batch):
        """Each entry point refuses a bad batch with feature_matrix's own type and message."""
        call, _ = FEATURE_ENTRY_POINTS[entry]
        x, message = BAD_BATCHES[batch]
        with pytest.raises(ValidationError) as excinfo:
            call(x)
        assert type(excinfo.value) is ValidationError
        assert str(excinfo.value) == message

    def test_returns_a_c_ordered_copy_of_a_strided_batch(self):
        x = np.arange(12.0).reshape(3, 4).T
        y = feature_matrix(x, 3)
        assert y.flags.c_contiguous and np.array_equal(y, x)
        assert feature_matrix(y) is y
