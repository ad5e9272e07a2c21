import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pretext_transfer.data import LabeledSet
from pretext_transfer.dictionary import (
    FeatureDictionary,
    build_dictionary,
    class_probabilities,
    load_dictionary,
    save_dictionary,
    unit_columns,
)
from pretext_transfer.errors import ValidationError
from pretext_transfer.harness import ExperimentConfig
from pretext_transfer.manifest import write_artifact

RIDGE = ExperimentConfig.ridge  # the default setting
EPSILON = 1e-12


def random_dictionary(rng, p, counts):
    columns = rng.normal(size=(p, sum(counts)))
    columns /= np.linalg.norm(columns, axis=0)
    return FeatureDictionary(columns, tuple(counts))


def oracle_code(fdict, y, ridge):
    """Normal equations solved by explicit matrix inversion."""
    y_unit = y / np.linalg.norm(y)
    d = fdict.columns
    n = d.shape[1]
    return np.linalg.inv(d.T @ d + ridge * np.eye(n)) @ (d.T @ y_unit)


def oracle_probability(fdict, alpha, y):
    """Residuals recomputed via explicit per-class masking of the code vector."""
    y_unit = y / np.linalg.norm(y)
    weights = []
    start = 0
    for count in fdict.class_counts:
        masked = np.zeros_like(alpha)
        masked[start:start + count] = alpha[start:start + count]
        residual = np.linalg.norm(y_unit - fdict.columns @ masked)
        weights.append(1.0 / (residual + EPSILON) ** 2)
        start += count
    weights = np.array(weights)
    return weights / weights.sum()


class TestBuildDictionary:
    def test_unequal_class_counts_349_35(self):
        rng = np.random.default_rng(0)
        labels = np.concatenate([np.zeros(349, dtype=int), np.ones(35, dtype=int)])
        train = LabeledSet(rng.normal(size=(384, 6)), labels, 2)
        fdict = build_dictionary(train)
        assert fdict.class_counts == (349, 35)
        assert fdict.columns.shape == (6, 384)

    def test_single_sample_per_class_is_normalized_input(self):
        features = np.array([[3.0, 4.0], [0.0, 2.0]])
        train = LabeledSet(features, np.array([0, 1]), 2)
        fdict = build_dictionary(train)
        expected = features / np.linalg.norm(features, axis=1)[:, None]
        assert np.allclose(fdict.columns, expected.T)

    def test_columns_unit_norm(self):
        rng = np.random.default_rng(1)
        train = LabeledSet(rng.normal(size=(50, 7)), rng.integers(0, 3, 50), 3)
        fdict = build_dictionary(train)
        assert np.allclose(np.linalg.norm(fdict.columns, axis=0), 1.0, atol=1e-9)

    def test_columns_grouped_by_class_in_sample_order(self):
        features = np.arange(1.0, 13.0).reshape(6, 2)
        train = LabeledSet(features, np.array([1, 0, 1, 2, 0, 1]), 3)
        fdict = build_dictionary(train)
        unit = features / np.linalg.norm(features, axis=1)[:, None]
        assert fdict.class_counts == (2, 3, 1)
        assert np.array_equal(fdict.columns, unit[[1, 4, 0, 2, 5, 3]].T)

    def test_empty_class_named_in_error(self):
        train = LabeledSet(np.random.default_rng(0).normal(size=(5, 3)), np.zeros(5, dtype=int), 2)
        with pytest.raises(ValidationError, match="class 1"):
            build_dictionary(train)

    def test_zero_norm_feature_rejected(self):
        features = np.array([[1.0, 0.0], [0.0, 0.0]])
        train = LabeledSet(features, np.array([0, 1]), 2)
        with pytest.raises(ValidationError, match="zero-norm"):
            build_dictionary(train)


def batch_q(fdict, batch, ridge=RIDGE):
    """class_probabilities of the rows of a feature batch [n, p], normalized by
    unit_columns as run_evaluate normalizes a test fold."""
    return class_probabilities(fdict, unit_columns(batch), ridge)


def q_one(fdict, y, ridge=RIDGE):
    """batch_q of a one-row batch."""
    return batch_q(fdict, np.asarray(y, dtype=np.float64)[None, :], ridge)[0]


def oracle_q(fdict, y, ridge=RIDGE):
    return oracle_probability(fdict, oracle_code(fdict, y, ridge), y)


class TestCrcCode:
    def test_self_representation(self):
        # y is class 0's only column, at any scale: class 0 reconstructs it exactly
        u = np.array([0.6, 0.8, 0.0])
        fdict = FeatureDictionary(np.array([u, [0.0, 0.0, 1.0]]).T, (1, 1))
        q = q_one(fdict, u, 1e-10)
        assert q[0] > 1 - 1e-9
        assert np.array_equal(q_one(fdict, 5 * u, 1e-10), q)

    def test_matches_inversion_oracle(self):
        rng = np.random.default_rng(2)
        fdict = random_dictionary(rng, p=8, counts=[3, 2])
        y = rng.normal(size=8)
        assert np.allclose(q_one(fdict, y, 0.001), oracle_q(fdict, y, 0.001), atol=1e-8)

    def test_large_ridge_shrinks_codes(self):
        # codes near zero leave every class the whole unit vector as residual
        rng = np.random.default_rng(3)
        fdict = random_dictionary(rng, p=10, counts=[4, 4])
        q = q_one(fdict, rng.normal(size=10), 1e6)
        assert np.allclose(q, [0.5, 0.5], atol=1e-4)

    def test_dimension_mismatch(self):
        fdict = random_dictionary(np.random.default_rng(0), p=5, counts=[2, 2])
        with pytest.raises(ValidationError, match="^features have 4 columns, expected 5$"):
            batch_q(fdict, np.ones((1, 4)))
        with pytest.raises(ValidationError, match=r"^features must be a non-empty 2-d matrix, got shape \(5,\)$"):
            batch_q(fdict, np.ones(5))

    def test_zero_vector_rejected(self):
        fdict = random_dictionary(np.random.default_rng(0), p=5, counts=[2, 2])
        with pytest.raises(ValidationError):
            q_one(fdict, np.zeros(5))
        with pytest.raises(ValidationError):
            batch_q(fdict, np.array([np.ones(5), np.zeros(5)]))


class TestCrcProbability:
    def test_zero_residual_dominates(self):
        # class 0 spans the plane containing y; class 1 points elsewhere
        columns = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        fdict = FeatureDictionary(columns, (2, 1))
        y = np.array([0.6, 0.8, 0.0])
        q = q_one(fdict, y, 1e-9)
        assert q[0] > 0.999999
        assert q.sum() == pytest.approx(1.0, abs=1e-9)

    def test_equal_residuals_split_evenly(self):
        columns = np.array(
            [
                [1.0, 0.0],
                [0.0, 1.0],
                [0.0, 0.0],
            ]
        )
        fdict = FeatureDictionary(columns, (1, 1))
        q = q_one(fdict, np.array([1.0, 1.0, 0.0]))
        assert np.allclose(q, [0.5, 0.5], atol=1e-12)

    def test_matches_residual_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            counts = rng.integers(1, 6, size=int(rng.integers(2, 5))).tolist()
            fdict = random_dictionary(rng, p=int(rng.integers(4, 12)), counts=counts)
            y = rng.normal(size=fdict.feature_dim)
            q = q_one(fdict, y)
            assert np.allclose(q, oracle_q(fdict, y), atol=1e-9)
            assert q.sum() == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_probability_vector_invariants(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 5, size=3).tolist()
        fdict = random_dictionary(rng, p=6, counts=counts)
        q = q_one(fdict, rng.normal(size=6))
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
        assert (q > 0).all() and (q < 1).all()

    def test_permuting_columns_within_class_preserves_q(self):
        rng = np.random.default_rng(5)
        fdict = random_dictionary(rng, p=7, counts=[4, 3])
        y = rng.normal(size=7)
        q = q_one(fdict, y)
        permuted_columns = fdict.columns.copy()
        permuted_columns[:, 0:4] = permuted_columns[:, [2, 0, 3, 1]]
        permuted = FeatureDictionary(permuted_columns, fdict.class_counts)
        assert np.allclose(q, q_one(permuted, y), atol=1e-9)

    def test_duplicating_one_class_keeps_q_valid_and_other_blocks_unchanged(self):
        rng = np.random.default_rng(6)
        fdict = random_dictionary(rng, p=6, counts=[3, 2])
        duplicated_columns = np.concatenate(
            [fdict.columns[:, :3], fdict.columns[:, 3:], fdict.columns[:, 3:]], axis=1
        )
        duplicated = FeatureDictionary(duplicated_columns, (3, 4))
        assert np.array_equal(duplicated.columns[:, :3], fdict.columns[:, :3])
        q = q_one(duplicated, rng.normal(size=6))
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
        assert (q > 0).all() and (q < 1).all()


class TestBatchProbabilities:
    def test_matches_single_vector_path(self):
        # each row of a batch scores as it would alone, and as the oracle scores it
        rng = np.random.default_rng(7)
        fdict = random_dictionary(rng, p=9, counts=[5, 4, 2])
        batch = rng.normal(size=(12, 9))
        q_batch = batch_q(fdict, batch)
        for i in range(12):
            assert np.allclose(q_batch[i], q_one(fdict, batch[i]), atol=1e-10)
            assert np.allclose(q_batch[i], oracle_q(fdict, batch[i]), atol=1e-9)


def codes_form_q(fdict, batch, ridge=RIDGE):
    """The former scoring: the same push-through solve, then the [N, n] codes
    D^T s and each class's reconstruction D_c codes_c."""
    y_unit = (batch / np.linalg.norm(batch, axis=1)[:, None]).T
    d = fdict.columns
    solved = np.linalg.solve(d @ d.T + ridge * np.eye(d.shape[0]), y_unit)
    codes = d.T @ solved
    bounds = np.cumsum((0, *fdict.class_counts))
    weights = np.empty((batch.shape[0], fdict.class_count))
    for c, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        recon = d[:, start:stop] @ codes[start:stop]
        weights[:, c] = (np.linalg.norm(y_unit - recon, axis=0) + EPSILON) ** -2
    return weights / weights.sum(axis=1, keepdims=True)


class TestClassGramReconstruction:
    """Each class reconstructs through its p x p Gram matrix; the codes form
    it replaced agrees to rounding."""

    @pytest.mark.parametrize("seed", range(4))
    def test_unequal_class_counts_349_35(self, seed):
        rng = np.random.default_rng(seed)
        fdict = random_dictionary(rng, p=16, counts=[349, 35])
        batch = rng.normal(size=(140, 16))
        q = batch_q(fdict, batch)
        assert np.abs(q - codes_form_q(fdict, batch)).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_one_class_duplicated(self, seed):
        rng = np.random.default_rng(10 + seed)
        base = random_dictionary(rng, p=16, counts=[60, 25])
        twice = np.concatenate([base.columns, base.columns[:, 60:]], axis=1)
        fdict = FeatureDictionary(twice, (60, 50))
        batch = rng.normal(size=(140, 16))
        q = batch_q(fdict, batch)
        assert np.abs(q - codes_form_q(fdict, batch)).max() <= 1e-12

    def test_several_classes_and_a_single_column_class(self):
        rng = np.random.default_rng(20)
        fdict = random_dictionary(rng, p=9, counts=[1, 40, 7, 3])
        batch = rng.normal(size=(33, 9))
        q = batch_q(fdict, batch)
        assert np.abs(q - codes_form_q(fdict, batch)).max() <= 1e-12


class TestUnitColumns:
    def test_split_steps_give_class_probabilities(self):
        rng = np.random.default_rng(21)
        fdict = random_dictionary(rng, p=8, counts=[5, 3])
        batch = rng.normal(size=(10, 8)) * rng.uniform(0.1, 10, size=(10, 1))
        y_unit = unit_columns(batch)
        assert y_unit.shape == (8, 10)
        assert np.allclose(np.linalg.norm(y_unit, axis=0), 1.0, atol=1e-12)
        by_hand = (batch / np.linalg.norm(batch, axis=1)[:, None]).T
        assert np.array_equal(class_probabilities(fdict, y_unit, RIDGE), class_probabilities(fdict, by_hand, RIDGE))

    def test_dictionary_of_another_width_rejected(self):
        fdict = random_dictionary(np.random.default_rng(0), p=5, counts=[2, 2])
        with pytest.raises(ValidationError, match="^features have 4 columns, expected 5$"):
            class_probabilities(fdict, unit_columns(np.ones((3, 4))), RIDGE)

    def test_shape_checked_before_values(self):
        # a batch that is not a matrix is named as such even when it holds NaN
        with pytest.raises(ValidationError, match="2-d matrix"):
            unit_columns(np.full(6, np.nan))
        with pytest.raises(ValidationError, match="non-finite"):
            unit_columns(np.full((2, 6), np.nan))

    def test_zero_norm_row_named(self):
        with pytest.raises(ValidationError, match="zero-norm feature row 1"):
            unit_columns(np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]))


class TestSolveResidualCheck:
    def test_bad_solve_trips_residual_check(self, monkeypatch):
        rng = np.random.default_rng(9)
        fdict = random_dictionary(rng, p=6, counts=[4, 3])
        batch = rng.normal(size=(5, 6))
        real_solve = np.linalg.solve
        systems = []

        def recording(a, b):
            systems.append(a.shape)
            return real_solve(a, b)

        def off_by_a_little(a, b):
            return real_solve(a, b) + 1e-6

        monkeypatch.setattr(np.linalg, "solve", recording)
        batch_q(fdict, batch)
        assert systems == [(6, 6)]  # one p x p system, not N x N (N = 7)
        monkeypatch.setattr(np.linalg, "solve", off_by_a_little)
        with pytest.raises(ValidationError, match="residual"):
            batch_q(fdict, batch)

    def test_tiny_ridge_on_rank_deficient_dictionary_names_ridge(self):
        # 3 columns span 3 of 16 dimensions, so D D^T + ridge I has 13
        # eigenvalues of 1e-12: a valid config the solve cannot meet
        rng = np.random.default_rng(4)
        fdict = random_dictionary(rng, p=16, counts=[2, 1])
        with pytest.raises(ValidationError, match=r"ridge = 1e-12; raise the ridge setting"):
            batch_q(fdict, rng.normal(size=(4, 16)), 1e-12)

    def test_nan_ridge_fails_residual_check(self):
        # a NaN residual compares False against any bound; the check still refuses it
        fdict = random_dictionary(np.random.default_rng(4), p=6, counts=[2, 1])
        with pytest.raises(ValidationError, match="^push-through solve exceeded the residual tolerance.*ridge = nan;"):
            class_probabilities(fdict, unit_columns(np.ones((2, 6))), float("nan"))


class TestDictionarySerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        fdict = random_dictionary(rng, p=5, counts=[3, 1, 4])
        path = tmp_path / "dict.ckpt"
        save_dictionary(fdict, path)
        loaded = load_dictionary(path)
        assert np.array_equal(loaded.columns, fdict.columns)
        assert loaded.class_counts == fdict.class_counts

    @pytest.mark.parametrize("counts, error", [
        ("3,0", "bad value for 'class_counts': every class needs at least one column"),
        ("2,2", "blob size"),  # 4 columns named, 3 stored
        ("0:0:3,0:3:3", "bad value for 'class_counts'"),  # the old offsets form
    ])
    def test_bad_class_counts_rejected(self, tmp_path, counts, error):
        path = tmp_path / "dict.ckpt"
        save_dictionary(random_dictionary(np.random.default_rng(8), p=5, counts=[2, 1]), path)
        raw = path.read_bytes()
        assert b"class_counts = 2,1\n" in raw
        path.write_bytes(raw.replace(b"class_counts = 2,1\n", f"class_counts = {counts}\n".encode()))
        with pytest.raises(ValidationError, match=error):
            load_dictionary(path)

    def test_offsets_format_names_missing_key(self, tmp_path):
        path = tmp_path / "dict.ckpt"
        columns = random_dictionary(np.random.default_rng(8), p=5, counts=[2, 1]).columns
        write_artifact(path, "dictionary", [("p", 5), ("columns", 3), ("class_offsets", "0:0:2,1:2:1")], [columns])
        with pytest.raises(ValidationError, match="missing key 'class_counts'"):
            load_dictionary(path)


class TestConfig:
    """The ridge is CRC's one setting, an ``ExperimentConfig`` field."""

    def test_invalid_hyperparameters(self):
        for ridge in (0.0, -1e-3):
            with pytest.raises(ValidationError, match="ridge must be > 0"):
                ExperimentConfig(out_dir="out", ridge=ridge)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["ridge"])
    def test_non_finite_setting_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be .* finite"):
            ExperimentConfig(out_dir="out", **{field: value})
