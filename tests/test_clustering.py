import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pretext_transfer.clustering as clustering
import pretext_transfer.harness as harness
from pretext_transfer.clustering import (
    _CHUNK,
    _assign,
    _bounded_assign,
    _direct_assign,
    _lower_bounds,
    _plus_plus_seed,
    _row_norms,
    _update_means,
    extract_projection,
    kmeans_fit,
    load_cluster_model,
    save_cluster_model,
)
from pretext_transfer.data import LabeledSet
from pretext_transfer.errors import ShapeError, ValidationError
from pretext_transfer.harness import (
    ExperimentConfig,
    build_layer_specs,
    cell_path,
    clusters_ckpt_path,
    run_cluster,
    run_dict,
    run_generate,
    run_pretrain,
    run_prt,
)
from pretext_transfer.network import (
    Layer,
    LayerSpec,
    NetworkState,
    apply_layer,
    init_network,
)


def identity_rep_state(dim=3, label_count=2):
    return NetworkState(
        layers=[
            Layer(np.eye(dim), np.zeros(dim), "identity"),
            Layer(np.zeros((label_count, dim)), np.zeros(label_count), "identity"),
        ],
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
                LayerSpec(4, 7, "relu"),
                LayerSpec(7, 5, "identity"),
                LayerSpec(5, 3, "identity"),
            ],
            seed=0,
        )
        out = extract_projection(state, np.zeros((6, 4)))
        assert out.shape == (6, 5)

    # row counts on both sides of one and two blocks: fixed 1024-row blocks
    # give other bits than the whole-batch layers at 1025, 1040 and 2049 rows
    @pytest.mark.parametrize("hidden", [(8,), (8, 6), (32,), (64, 32), (128, 64)])
    def test_applies_every_layer_but_the_head(self, hidden):
        state = init_network(build_layer_specs(16, 10, hidden, projection_dim=16), seed=1)
        for rows in [1, 7, 1023, 1024, 1025, 1040, 2049, 20000]:
            x = np.random.default_rng(2).normal(size=(rows, 16))
            expected = x
            for layer in state.layers[:-1]:
                expected = apply_layer(expected, layer.weights, layer.bias, layer.activation)
            assert extract_projection(state, x).tobytes() == expected.tobytes(), rows

    def test_peak_memory_is_the_output_plus_one_block(self):
        # the whole-pool layers of 128 and 64 units held 12 times the output
        state = init_network(build_layer_specs(16, 10, (128, 64), projection_dim=16), seed=1)
        x = np.random.default_rng(2).normal(size=(20000, 16))
        tracemalloc.start()
        try:
            at_call = tracemalloc.get_traced_memory()[0]
            out = extract_projection(state, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - at_call < 3 * out.nbytes

    def test_zero_weights_relu_projects_to_zero(self):
        state = init_network(
            [
                LayerSpec(3, 4, "relu"),
                LayerSpec(4, 2, "identity"),
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

    def test_overflowing_seeding_weights_rejected(self):
        # finite features whose squared distances overflow: the k-means++
        # weights would be inf / inf
        with pytest.raises(ValidationError, match="overflow"):
            kmeans_fit(np.array([[1e200], [0.0], [1.0], [2.0]]), k=2, seed=0)

    def test_nan_tol_rejected(self):
        # NaN would pass a `tol < 0` test and never meet `shift < tol`
        points, _ = two_blobs(20)
        with pytest.raises(ValidationError, match="tol must be >= 0"):
            kmeans_fit(points, k=2, seed=0, tol=float("nan"))


class TestKmeansAssign:
    def test_point_at_centroid(self):
        points, _ = two_blobs(20)
        model = kmeans_fit(points, k=2, seed=0)
        centroids = model.centroids.copy()
        labels, _ = _assign(centroids, model.centroids, _row_norms(centroids))
        assert labels.tolist() == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        points = np.array([[0.0, 0.0], [2.0, 0.0], [4.0, 0.0], [6.0, 0.0]])
        model = kmeans_fit(points, k=4, seed=1)
        # rearrange so centroids 1 and 3 are equidistant from the probe point
        model.centroids[:] = np.array([[9.0, 9.0], [0.0, 0.0], [9.0, -9.0], [2.0, 0.0]])
        probe = np.array([[1.0, 0.0]])
        labels, _ = _assign(probe, model.centroids, _row_norms(probe))
        assert labels[0] == 1

    def test_assign_matches_fit_labels(self):
        rng = np.random.default_rng(8)
        points = np.concatenate([rng.normal(c, 1.0, size=(40, 4)) for c in (-3, 2, 6)])
        model = kmeans_fit(points, k=4, seed=3)
        # independent re-derivation of the assignment by brute-force distances
        expected = np.array(
            [int(np.argmin(((p - model.centroids) ** 2).sum(axis=1))) for p in points]
        )
        labels, _ = _assign(points, model.centroids, _row_norms(points))
        assert np.array_equal(labels, expected)
        assert np.array_equal(model.labels, expected)


class TestCertifiedAssign:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 40),
        k=st.integers(1, 12),
        m=st.integers(1, 40) | st.integers(_CHUNK - 2, _CHUNK + 2),
        exponent=st.integers(-160, 150),
        spread=st.integers(0, 8),
        shifted=st.booleans(),
        centroids_from_points=st.booleans(),
        duplicate_points=st.booleans(),
        duplicate_centroids=st.booleans(),
    )
    def test_bit_identical_to_direct_formula(
        self, seed, p, k, m, exponent, spread, shifted, centroids_from_points, duplicate_points,
        duplicate_centroids,
    ):
        # magnitudes 1e-160 (squares underflow) to 1e158 (squares overflow);
        # each row and centroid scaled on its own by up to 10**spread; a shift
        # 1e8 times the scale makes |x|² cancel in the expansion (near ties)
        rng = np.random.default_rng(seed)
        shift = 10.0 ** (exponent + 8) if shifted else 0.0

        def draw(rows):
            scale = 10.0 ** (exponent + rng.uniform(0, spread, (rows, 1)))
            return shift + rng.normal(size=(rows, p)) * scale

        x = draw(m)
        if duplicate_points:
            x[m // 2:] = x[0]
        centroids = x[rng.integers(0, m, size=k)] if centroids_from_points else draw(k)
        if duplicate_centroids:
            centroids[-1] = centroids[0]  # every row ties; k == 1 ties with itself
        with np.errstate(over="ignore"):  # the direct formula's own overflow
            labels, sq_dists = _assign(x, centroids, _row_norms(x))
            direct_labels, direct_sq = _direct_assign(x, centroids)
        assert np.array_equal(labels, direct_labels)
        assert sq_dists.tobytes() == direct_sq.tobytes()

    def test_tie_row_takes_the_direct_fallback(self, monkeypatch):
        sent = []
        real_direct = clustering._direct_assign

        def spy(x, centroids):
            sent.append(x.copy())
            return real_direct(x, centroids)

        monkeypatch.setattr(clustering, "_direct_assign", spy)
        centroids = np.array([[0.0, 0.0], [2.0, 0.0], [9.0, 9.0]])
        x = np.array([[0.1, 0.3], [1.0, 0.0], [8.0, 9.5]])  # row 1 ties centroids 0 and 1
        labels, sq_dists = _assign(x, centroids, _row_norms(x))
        assert len(sent) == 1 and np.array_equal(sent[0], x[1:2])
        assert labels.tolist() == [0, 0, 2]
        assert sq_dists[1] == 1.0

    def test_near_tie_the_expansion_misranks(self):
        # |x|² = 2e16 cancels in the expansion and leaves its scores good to a
        # few units, so it ranks centroid 0 (squared distance 6.25) ahead of
        # centroid 1 (4.5); only the fallback gets this row right
        x = np.array([[1e8 + 0.5, 1e8]])
        centroids = np.array([[1e8 - 1.5, 1e8 - 1.5], [1e8 + 2.0, 1e8 - 1.5]])
        expansion = (x**2).sum(axis=1) - 2.0 * x @ centroids.T + (centroids**2).sum(axis=1)
        assert expansion.argmin() == 0
        labels, sq_dists = _assign(x, centroids, _row_norms(x))
        assert labels.tolist() == [1]
        assert sq_dists.tolist() == [4.5]


    @pytest.mark.parametrize("shifted", [False, True])
    def test_many_blocks_bit_identical_to_direct_formula(self, shifted):
        # 20000 rows span 20 assignment blocks; two coincident centroids tie
        # for every row nearest them, and the shift makes near ties
        rng = np.random.default_rng(20000)
        centers = rng.normal(scale=3.0, size=(10, 16))
        x = centers[rng.integers(0, 10, size=20000)] + rng.normal(size=(20000, 16))
        x[::7] = np.round(x[::7])
        if shifted:
            x += 1e8
        centroids = x[rng.choice(20000, size=10, replace=False)]
        centroids[9] = centroids[4]
        labels, sq_dists = _assign(x, centroids, _row_norms(x))
        direct_labels, direct_sq = _direct_assign(x, centroids)
        assert np.array_equal(labels, direct_labels)
        assert sq_dists.tobytes() == direct_sq.tobytes()

    @pytest.mark.parametrize("case", ["ties", "overflow"])
    def test_sure_nearest_indices_lie_in_range(self, monkeypatch, case):
        # rows that are not sure still index the centroids before the direct
        # formula replaces them: seven coincident centroids make every row's
        # index sum 21, and a centroid whose |c|² overflows makes NaN scores
        k = 7
        returned = []
        real_sure_nearest = clustering._sure_nearest

        def spy(*args):
            best, sure, runner_up = real_sure_nearest(*args)
            returned.append((best.copy(), sure.copy()))
            return best, sure, runner_up

        monkeypatch.setattr(clustering, "_sure_nearest", spy)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(_CHUNK + 300, 3))
        if case == "ties":
            centroids = np.repeat(rng.normal(size=(1, 3)), k, axis=0)
        else:
            centroids = rng.normal(size=(k, 3))
            centroids[k - 1] = 1e160
            x[::3] = 1e160
        with np.errstate(over="ignore", invalid="ignore"):  # the direct formula's own overflow
            labels, _ = _assign(x, centroids, _row_norms(x))
            direct_labels, _ = _direct_assign(x, centroids)
        assert np.array_equal(labels, direct_labels)
        best = np.concatenate([b for b, _ in returned])
        sure = np.concatenate([s for _, s in returned])
        assert (~sure).any()
        assert best.min() >= 0 and best.max() < k


class TestUpdateMeans:
    @staticmethod
    def reference(x, labels, k, centroids, sq_dists):
        """np.add.at sums; empty clusters take the worst-served samples in turn."""
        sums = np.zeros((k, x.shape[1]))
        np.add.at(sums, labels, x)
        counts = np.bincount(labels, minlength=k)
        expected = centroids.copy()
        for j in np.flatnonzero(counts):
            expected[j] = sums[j] / counts[j]
        worst_first = np.argsort(-sq_dists, kind="stable")
        for j, idx in zip(np.flatnonzero(counts == 0), worst_first):
            expected[j] = x[idx]
        return expected

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 40),
        k=st.integers(2, 12),
        extra_rows=st.integers(0, 200),
        used=st.integers(1, 12),
        exponent=st.integers(-150, 150),
        spread=st.integers(0, 8),
    )
    def test_bit_identical_to_add_at(self, seed, p, k, extra_rows, used, exponent, spread):
        # only `used` clusters receive samples, so up to k - 1 are empty;
        # each row scaled on its own by up to 10**spread
        rng = np.random.default_rng(seed)
        m = k + extra_rows
        x = rng.normal(size=(m, p)) * 10.0 ** (exponent + rng.uniform(0, spread, (m, 1)))
        labels = rng.choice(k, size=min(used, k), replace=False)[rng.integers(0, min(used, k), m)]
        centroids = rng.normal(size=(k, p))
        sq_dists = rng.uniform(size=m)
        sq_dists[rng.integers(0, m, size=m // 4)] = sq_dists[0]  # ties among the worst served
        got = _update_means(np.ascontiguousarray(x.T), labels, k, centroids, sq_dists)
        assert got.tobytes() == self.reference(x, labels, k, centroids, sq_dists).tobytes()


def reference_fit(x, k, seed, max_iters, tol):
    """Lloyd's loop with the direct formula in every assignment, and a final
    assignment after the last step: what kmeans_fit must equal bit for bit."""
    centroids = _plus_plus_seed(x, k, np.random.default_rng(seed))
    x_cols = np.ascontiguousarray(x.T)
    history = []
    for _ in range(max_iters):
        labels, sq_dists = _direct_assign(x, centroids)
        history.append(float(sq_dists.sum()))
        new_centroids = _update_means(x_cols, labels, k, centroids, sq_dists)
        shift = np.sqrt(((new_centroids - centroids) ** 2).sum(axis=1)).max()
        centroids = new_centroids
        if shift < tol:
            break
    labels, sq_dists = _direct_assign(x, centroids)
    history.append(float(sq_dists.sum()))
    return centroids, labels, history


def assert_fit_is(model, expected):
    centroids, labels, history = expected
    assert model.centroids.tobytes() == centroids.tobytes()
    assert np.array_equal(model.labels, labels)
    assert np.array(model.inertia_history).tobytes() == np.array(history).tobytes()


class TestBoundedFit:
    """kmeans_fit skips the certificate for rows whose bound shows their label
    is still nearest; the fit must not change by a bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 40),
        k=st.integers(2, 12),
        m=st.integers(1, 40) | st.integers(_CHUNK - 2, _CHUNK + 2),
        exponent=st.integers(-160, 150),
        spread=st.integers(0, 8),
        shifted=st.booleans(),
        duplicate_points=st.booleans(),
        duplicate_centroids=st.booleans(),
        max_iters=st.integers(1, 12),
        tol=st.sampled_from([0.0, 1e-7]),
    )
    def test_bit_identical_to_reference_lloyd(
        self, seed, p, k, m, exponent, spread, shifted, duplicate_points, duplicate_centroids,
        max_iters, tol,
    ):
        # TestCertifiedAssign's rows: magnitudes 1e-160 to 1e158, near ties
        # from the shift, duplicate points; fewer distinct rows than k make
        # k-means++ pick duplicate centroids, whose ties leave clusters empty
        rng = np.random.default_rng(seed)
        m = max(m, k)
        shift = 10.0 ** (exponent + 8) if shifted else 0.0
        scale = 10.0 ** (exponent + rng.uniform(0, spread, (m, 1)))
        x = shift + rng.normal(size=(m, p)) * scale
        if duplicate_points:
            x[m // 2:] = x[0]
        if duplicate_centroids:
            x = x[rng.integers(0, k - 1, size=m)]
        fit_seed = int(rng.integers(2**31))
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is part of the data
            try:
                expected = reference_fit(x, k, fit_seed, max_iters, tol)
            except ValidationError:  # k-means++ weights overflow
                with pytest.raises(ValidationError, match="overflow"):
                    kmeans_fit(x, k, seed=fit_seed, max_iters=max_iters, tol=tol)
                return
            model = kmeans_fit(x, k, seed=fit_seed, max_iters=max_iters, tol=tol)
        assert_fit_is(model, expected)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(1, 4),
        k=st.integers(2, 6),
        m=st.integers(1, 40) | st.integers(_CHUNK - 2, _CHUNK + 2),
        exponent=st.integers(-160, 150),
        shifted=st.booleans(),
        ulps=st.integers(-4, 4),
        reach=st.floats(1.5, 4.0),
    )
    def test_tight_bound_at_a_near_tie(self, seed, p, k, m, exponent, shifted, ulps, reach):
        # the only move carries centroid j straight toward row i, so the
        # triangle inequality lowers i's bound to i's new distance to j, which
        # a few ulps separate from i's distance to its own centroid: only the
        # bound's margins keep row i from keeping a label that is no longer
        # nearest
        rng = np.random.default_rng(seed)
        scale = 10.0**exponent
        x = (10.0 ** (exponent + 4) if shifted else 0.0) + rng.normal(size=(m, p)) * scale
        i = int(rng.integers(m))
        own, j = rng.choice(k, size=2, replace=False)
        new = x[rng.integers(0, m, size=k)] + rng.normal(size=(k, p)) * scale
        new[own] = x[i] + rng.normal(size=p) * (scale * 1e-3)
        new[j] = x[i] + (x[i] - new[own]) * (1.0 + ulps * np.finfo(np.float64).eps)
        old = new.copy()
        old[j] = x[i] + (new[j] - x[i]) * reach
        x_norms = _row_norms(x)
        lower = np.empty(m)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is part of the data
            labels, _ = _assign(x, old, x_norms, lower)
            _lower_bounds(lower, np.sqrt(((new - old) ** 2).sum(axis=1)).max(), p)
            labels, sq_dists = _bounded_assign(x, new, x_norms, labels, np.empty(m), lower)
            direct_labels, direct_sq = _direct_assign(x, new)
        assert np.array_equal(labels, direct_labels)
        assert sq_dists.tobytes() == direct_sq.tobytes()

    def test_most_rows_skip_the_certificate(self, monkeypatch):
        # 20000 rows of ten clusters: once the labels settle, the bound keeps
        # most rows out of the [k, rows] product, which is the whole saving
        rng = np.random.default_rng(19)
        centers = rng.normal(scale=3.0, size=(10, 16))
        x = centers[rng.integers(0, 10, size=20000)] + rng.normal(size=(20000, 16))
        certified = []
        real_sure_nearest = clustering._sure_nearest

        def spy(block, *args):
            certified.append(block.shape[0])
            return real_sure_nearest(block, *args)

        monkeypatch.setattr(clustering, "_sure_nearest", spy)
        calls = count_assign_calls(monkeypatch)
        model = kmeans_fit(x, k=10, seed=3, max_iters=30, tol=0.0)
        assert len(calls) == 31
        assert sum(certified) < len(x) * len(calls) / 4
        assert_fit_is(model, reference_fit(x, 10, 3, 30, 0.0))


class TestPinnedFit:
    """The assignment arithmetic fixes every bit of a fit; these figures were
    recorded with the direct formula alone, so any change to it shows here."""

    HISTORY = [
        "67726.01462082255", "36860.81568123773", "36770.31820980918", "36710.79362828416",
        "36667.62620759546", "36646.32278037099", "36637.41762496534", "36629.55398069269",
        "36624.670363762896", "36620.61780663302", "36617.21420534511",
    ]
    LABELS_SHA256 = "4d1c521d48f8eedbf7509b6d68cc029c14156512ecd433ee97c44d79b410cef7"

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_fit_is_pinned(self, order):
        # 2348 rows end in a partial assignment block; a Fortran-ordered copy
        # must fit the same
        rng = np.random.default_rng(2301)
        centers = rng.normal(scale=3.0, size=(6, 16))
        points = centers[rng.integers(0, 6, size=2348)] + rng.normal(size=(2348, 16))
        model = kmeans_fit(np.asarray(points, order=order), k=10, seed=4, max_iters=10, tol=0.0)
        assert [repr(v) for v in model.inertia_history] == self.HISTORY
        assert hashlib.sha256(model.labels.astype("<i8").tobytes()).hexdigest() == self.LABELS_SHA256


def count_assign_calls(monkeypatch) -> list[int]:
    """Wrap clustering._bounded_assign, one call per Lloyd assignment, so that
    each call appends its row count."""
    calls = []
    real = clustering._bounded_assign

    def counting(x, *args):
        calls.append(x.shape[0])
        return real(x, *args)

    monkeypatch.setattr(clustering, "_bounded_assign", counting)
    return calls


class TestFinalAssignment:
    """When the last Lloyd step moves no centroid, its assignment is the final
    one; the fit keeps it instead of assigning again, and still records its
    inertia twice."""

    def test_converged_fit_assigns_once_per_iteration(self, monkeypatch):
        points, _ = two_blobs()
        calls = count_assign_calls(monkeypatch)
        model = kmeans_fit(points, k=2, seed=1)
        assert model.inertia_history[-1] == model.inertia_history[-2]
        assert len(calls) == len(model.inertia_history) - 1
        assert np.array_equal(model.labels, _direct_assign(points, model.centroids)[0])

    def test_fit_stopped_while_moving_assigns_again(self, monkeypatch):
        points = np.random.default_rng(5).normal(size=(70, 4))
        calls = count_assign_calls(monkeypatch)
        model = kmeans_fit(points, k=7, seed=11, max_iters=1)
        assert len(calls) == len(model.inertia_history) == 2
        assert model.inertia_history[1] < model.inertia_history[0]
        assert np.array_equal(model.labels, _direct_assign(points, model.centroids)[0])

    # recorded before the final assignment was reused; the default run's fits
    # end on a step that moves no centroid at both seeds
    CLUSTERS_SHA256 = {
        0: "ad35bdad23feedd9d87a60ad9d018fea985b8add5b8a77bd58a3ca95052cbbfa",
        11: "dce143135e02c4601021253bedb210c7003ae575607e5f49f642dde159383ad7",
    }

    @pytest.mark.parametrize("seed, iterations", [(0, 37), (11, 32)])
    def test_default_run_clusters_keep_their_bytes(self, tmp_path, monkeypatch, seed, iterations):
        cfg = ExperimentConfig(out_dir=tmp_path, master_seed=seed)
        run_generate(cfg)
        run_pretrain(cfg)
        calls = count_assign_calls(monkeypatch)
        model = run_cluster(cfg)
        assert len(calls) == iterations
        assert len(model.inertia_history) == iterations + 1
        raw = clusters_ckpt_path(cfg).read_bytes()
        assert hashlib.sha256(raw).hexdigest() == self.CLUSTERS_SHA256[seed]

    # the 25 dict.ckpt files of the default seed-0 run, concatenated in
    # ratios x folds order; their columns follow from these clusters
    DICTS_SHA256 = "b503381c19f755774f4064372099dbb43c13e20409b6f05510b8500a14297f14"

    def test_default_run_dictionaries_keep_their_bytes(self, tmp_path):
        cfg = ExperimentConfig(out_dir=tmp_path)
        for run in (run_generate, run_pretrain, run_cluster, run_prt, run_dict):
            run(cfg)
        digest = hashlib.sha256()
        for ratio in cfg.ratios:
            for fold in range(cfg.fold_count):
                digest.update(cell_path(cfg, ratio, fold, "dict").read_bytes())
        assert digest.hexdigest() == self.DICTS_SHA256


class TestClusterStage:
    def test_the_pool_is_released_before_the_fit(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(out_dir=tmp_path)
        run_generate(cfg)
        run_pretrain(cfg)
        pools = []
        real_load, real_fit = harness.load_dataset, harness.kmeans_fit

        def load(path):
            dataset = real_load(path)
            pools.append(weakref.ref(dataset.features))
            return dataset

        def fit(*args, **kwargs):
            assert [pool() is None for pool in pools] == [True]
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(harness, "load_dataset", load)
        monkeypatch.setattr(harness, "kmeans_fit", fit)
        run_cluster(cfg)


class TestPseudoLabel:
    def test_labels_cover_expected_range(self):
        # the cluster stage's set: k-means on the projections labels the samples
        state = identity_rep_state(dim=2)
        points, blobs = two_blobs(30)
        model = kmeans_fit(extract_projection(state, points), k=2, seed=0)
        pseudo = LabeledSet(points, model.labels, model.k)
        assert pseudo.class_count == 2
        assert set(pseudo.labels.tolist()) == {0, 1}
        assert len(set(zip(blobs.tolist(), pseudo.labels.tolist()))) == 2


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
