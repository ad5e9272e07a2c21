import numpy as np
import pytest

from pretext_transfer.clustering import (
    extract_projection,
    kmeans_assign,
    kmeans_fit,
    load_cluster_model,
    pseudo_label,
    save_cluster_model,
)
from pretext_transfer.errors import ShapeError, ValidationError
from pretext_transfer.network import (
    CLASSIFICATION,
    REPRESENTATION,
    Layer,
    LayerSpec,
    NetworkState,
    init_network,
)


def identity_rep_state(dim=3, label_count=2):
    return NetworkState(
        layers=[
            Layer(np.eye(dim), np.zeros(dim), "identity", REPRESENTATION),
            Layer(np.zeros((label_count, dim)), np.zeros(label_count), "identity", CLASSIFICATION),
        ],
        label_count=label_count,
    )


def two_blobs(n=60, seed=0):
    """Points within radius < 1 of (0,0) and (10,10)."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0, 2 * np.pi, size=2 * n)
    radii = 0.9 * np.sqrt(rng.uniform(size=2 * n))
    offsets = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
    centers = np.repeat(np.array([[0.0, 0.0], [10.0, 10.0]]), n, axis=0)
    return centers + offsets, np.repeat([0, 1], n)


class TestExtractProjection:
    def test_identity_representation(self):
        state = identity_rep_state()
        x = np.random.default_rng(1).normal(size=(5, 3))
        assert np.array_equal(extract_projection(state, x), x)

    def test_projection_width_matches_last_representation_layer(self):
        state = init_network(
            [
                LayerSpec(4, 7, "relu", REPRESENTATION),
                LayerSpec(7, 5, "identity", REPRESENTATION),
                LayerSpec(5, 3, "identity", CLASSIFICATION),
            ],
            seed=0,
        )
        out = extract_projection(state, np.zeros((6, 4)))
        assert out.shape == (6, 5)

    def test_zero_weights_relu_projects_to_zero(self):
        state = init_network(
            [
                LayerSpec(3, 4, "relu", REPRESENTATION),
                LayerSpec(4, 2, "identity", CLASSIFICATION),
            ],
            seed=0,
        )
        state.layers[0].weights[:] = 0.0
        out = extract_projection(state, np.random.default_rng(0).normal(size=(4, 3)))
        assert np.array_equal(out, np.zeros((4, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            extract_projection(identity_rep_state(dim=3), np.zeros((2, 4)))


class TestKmeansFit:
    def test_each_point_its_own_centroid_when_m_equals_k(self):
        points = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [9.0, 9.0]])
        model = kmeans_fit(points, k=4, seed=3)
        assert model.inertia == pytest.approx(0.0, abs=1e-12)
        assert sorted(map(tuple, model.centroids.tolist())) == sorted(map(tuple, points.tolist()))

    def test_recovers_two_separated_blobs(self):
        points, truth = two_blobs()
        model = kmeans_fit(points, k=2, seed=1)
        centers = np.array([[0.0, 0.0], [10.0, 10.0]])
        order = model.centroids[:, 0].argsort()
        assert np.linalg.norm(model.centroids[order] - centers, axis=1).max() < 1.0
        relabeled = model.labels if (model.labels[:60] == model.labels[0]).all() else None
        assert relabeled is not None
        purity = max(
            np.mean((model.labels == truth)),
            np.mean((model.labels == 1 - truth)),
        )
        assert purity == 1.0

    def test_beats_random_assignment_inertia(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(80, 5))
        model = kmeans_fit(points, k=6, seed=4)
        random_labels = rng.integers(0, 6, size=80)
        random_inertia = 0.0
        for j in range(6):
            members = points[random_labels == j]
            if len(members):
                random_inertia += ((members - members.mean(axis=0)) ** 2).sum()
        assert model.inertia <= random_inertia

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(9)
        points = np.concatenate([rng.normal(c, 0.8, size=(50, 3)) for c in (-4, 0, 4)])
        model = kmeans_fit(points, k=5, seed=2)
        history = np.array(model.inertia_history)
        assert (np.diff(history) <= 1e-9).all()
        assert model.inertia == history[-1]

    def test_deterministic(self):
        points = np.random.default_rng(5).normal(size=(70, 4))
        a = kmeans_fit(points, k=7, seed=11)
        b = kmeans_fit(points, k=7, seed=11)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.labels, b.labels)

    def test_every_cluster_nonempty_on_distinct_points(self):
        points = np.random.default_rng(6).normal(size=(40, 2))
        model = kmeans_fit(points, k=8, seed=0)
        assert set(model.labels.tolist()) == set(range(8))

    def test_m_smaller_than_k_rejected(self):
        with pytest.raises(ValidationError):
            kmeans_fit(np.zeros((3, 2)), k=4, seed=0)


class TestKmeansAssign:
    def test_point_at_centroid(self):
        points, _ = two_blobs(20)
        model = kmeans_fit(points, k=2, seed=0)
        labels = kmeans_assign(model, model.centroids.copy())
        assert labels.tolist() == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]])
        model = kmeans_fit(points, k=4, seed=1)
        # rearrange so centroids 1 and 3 are equidistant from the probe point
        model.centroids[:] = np.array([[9.0, 9.0], [0.0, 0.0], [9.0, -9.0], [2.0, 0.0]])
        label = kmeans_assign(model, np.array([[1.0, 0.0]]))[0]
        assert label == 1

    def test_assign_matches_fit_labels(self):
        rng = np.random.default_rng(8)
        points = np.concatenate([rng.normal(c, 1.0, size=(40, 4)) for c in (-3, 2, 6)])
        model = kmeans_fit(points, k=4, seed=3)
        # independent re-derivation of the assignment by brute-force distances
        expected = np.array(
            [int(np.argmin(((p - model.centroids) ** 2).sum(axis=1))) for p in points]
        )
        assert np.array_equal(kmeans_assign(model, points), expected)
        assert np.array_equal(model.labels, expected)

    def test_dimension_mismatch(self):
        points, _ = two_blobs(10)
        model = kmeans_fit(points, k=2, seed=0)
        with pytest.raises(ValidationError):
            kmeans_assign(model, np.zeros((2, 5)))


class TestPseudoLabel:
    def test_labels_cover_expected_range(self):
        state = identity_rep_state(dim=2)
        points, _ = two_blobs(30)
        model, pseudo = pseudo_label(state, points, k=2, seed=0)
        assert pseudo.class_count == 2
        assert pseudo.features.shape == points.shape
        assert np.array_equal(pseudo.labels, model.labels)
        assert set(pseudo.labels.tolist()) == {0, 1}


class TestClusterSerialization:
    def test_round_trip(self, tmp_path):
        points = np.random.default_rng(3).normal(size=(50, 6))
        model = kmeans_fit(points, k=5, seed=7)
        path = tmp_path / "clusters.ckpt"
        save_cluster_model(model, path)
        loaded = load_cluster_model(path)
        assert np.array_equal(loaded.centroids, model.centroids)
        assert np.array_equal(loaded.labels, model.labels)
        assert loaded.k == model.k
        assert loaded.seed == model.seed
        assert loaded.inertia == model.inertia
        assert loaded.inertia_history == model.inertia_history
