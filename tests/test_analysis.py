from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from skewbench import analysis, schema
from skewbench.analysis import (
    FeatureMatrix,
    build_matrix,
    classification_report,
    cluster_purity,
    clustering_matrix,
    correlation_report,
    density_summary,
    evaluate,
    identification_matrix,
    kmeans,
    minmax_apply,
    minmax_fit_transform,
    pca,
    pearson,
    split,
    train_classifier,
)
from skewbench.classifiers import DecisionTree, KNearestNeighbors, RandomForest
from skewbench.simulator import (
    FarmConfig,
    TempProfile,
    default_farm_config,
    default_models,
    make_farm,
    simulate_dataset,
)
import dataclasses


def tiny_dataset(n_devices=2, n_samples=4, seed=3) -> schema.Dataset:
    spec = default_models()["RPi4like"]
    config = FarmConfig(models=((spec, n_devices),), master_seed=seed, samples_per_device=n_samples)
    return simulate_dataset(make_farm(config), n_samples, config.start_time)


def labeled(values, labels, columns=None) -> FeatureMatrix:
    values = np.asarray(values, dtype=float)
    columns = tuple(columns or [f"f{i}" for i in range(values.shape[1])])
    return FeatureMatrix(values, columns, np.asarray(labels))


def reference_fit_codes(self, X: np.ndarray, codes: np.ndarray, n_classes: int) -> None:
    """Per-feature CART splitter with one-hot class counts: the reference
    that DecisionTree._fit_codes must reproduce array for array."""
    self._n_classes = n_classes
    rng = np.random.default_rng(self.seed)
    n, d = X.shape
    m = self.max_features or d
    eye = np.eye(n_classes)

    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    leaf_value: list[int] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        leaf_value.append(-1)
        return len(feature) - 1

    def make_leaf(node: int, y_node: np.ndarray) -> None:
        leaf_value[node] = int(np.bincount(y_node, minlength=n_classes).argmax())

    root = new_node()
    stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
    while stack:
        node, idx, depth = stack.pop()
        y_node = codes[idx]
        n_node = len(idx)
        first = y_node[0]
        if (
            n_node < 2 * self.min_samples_leaf
            or (self.max_depth is not None and depth >= self.max_depth)
            or np.all(y_node == first)
        ):
            make_leaf(node, y_node)
            continue

        candidates = rng.choice(d, size=min(m, d), replace=False) if m < d else np.arange(d)
        best_score = np.inf
        best_feature = -1
        best_threshold = 0.0
        for f in candidates:
            xs = X[idx, f]
            order = np.argsort(xs, kind="stable")
            xs_sorted = xs[order]
            valid = xs_sorted[:-1] < xs_sorted[1:]
            if not valid.any():
                continue
            cum = eye[y_node[order]].cumsum(axis=0)
            left_counts = cum[:-1]
            right_counts = cum[-1] - left_counts
            nl = np.arange(1, n_node, dtype=np.float64)
            nr = n_node - nl
            score = (
                nl
                - np.einsum("ij,ij->i", left_counts, left_counts) / nl
                + nr
                - np.einsum("ij,ij->i", right_counts, right_counts) / nr
            )
            score[~valid] = np.inf
            if self.min_samples_leaf > 1:
                bad = (nl < self.min_samples_leaf) | (nr < self.min_samples_leaf)
                score[bad] = np.inf
            pos = int(score.argmin())
            if score[pos] < best_score:
                thr = (xs_sorted[pos] + xs_sorted[pos + 1]) / 2.0
                if thr >= xs_sorted[pos + 1]:
                    thr = xs_sorted[pos]
                best_score = float(score[pos])
                best_feature = int(f)
                best_threshold = float(thr)

        parent_score = n_node - float(
            np.square(np.bincount(y_node, minlength=n_classes)).sum()
        ) / n_node
        if best_feature < 0 or best_score >= parent_score - 1e-12:
            make_leaf(node, y_node)
            continue

        best_mask = X[idx, best_feature] <= best_threshold
        feature[node] = best_feature
        threshold[node] = best_threshold
        left_child = new_node()
        right_child = new_node()
        left[node] = left_child
        right[node] = right_child
        stack.append((left_child, idx[best_mask], depth + 1))
        stack.append((right_child, idx[~best_mask], depth + 1))

    self._feature = np.array(feature)
    self._threshold = np.array(threshold)
    self._left = np.array(left)
    self._right = np.array(right)
    self._leaf_value = np.array(leaf_value)


def reference_forest_fit(forest: RandomForest, X, y) -> RandomForest:
    """RandomForest.fit on repeated rows: each tree grows with
    reference_fit_codes on its whole bootstrap ``X[sample]``, the reference
    for the forest's fit on distinct weighted rows."""
    X = np.asarray(X, dtype=np.float64)
    forest.classes_, codes = np.unique(np.asarray(y), return_inverse=True)
    n, d = X.shape
    seeds = np.random.SeedSequence(forest.seed).generate_state(2 * forest.n_estimators, np.uint64)
    forest._trees = []
    for t in range(forest.n_estimators):
        sample = np.random.default_rng(int(seeds[2 * t])).integers(0, n, size=n)
        tree = DecisionTree(
            max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=max(1, int(np.sqrt(d))),
            seed=int(seeds[2 * t + 1]),
        )
        tree.classes_ = forest.classes_
        reference_fit_codes(tree, X[sample], codes[sample], len(forest.classes_))
        forest._trees.append(tree)
    return forest


def reference_knn_predict(model: KNearestNeighbors, X) -> np.ndarray:
    """KNearestNeighbors.predict with the distances written out as one
    expression per block of 2**22: the reference for the in-place blocks."""
    X = np.asarray(X, dtype=np.float64)
    k = min(model.k, len(model._X))
    n_classes = len(model.classes_)
    train_sq = np.einsum("ij,ij->i", model._X, model._X)
    out = np.empty(len(X), dtype=int)
    chunk = max(1, 2**22 // max(len(model._X), 1))
    for start in range(0, len(X), chunk):
        block = X[start : start + chunk]
        d2 = (
            np.einsum("ij,ij->i", block, block)[:, None]
            - 2.0 * block @ model._X.T
            + train_sq[None, :]
        )
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
        votes = np.zeros((len(block), n_classes), dtype=int)
        rows = np.repeat(np.arange(len(block)), k)
        np.add.at(votes, (rows, model._codes[nearest].ravel()), 1)
        out[start : start + chunk] = votes.argmax(axis=1)
    return model.classes_[out]


TREE_ARRAYS = ("_feature", "_threshold", "_left", "_right", "_leaf_value")


def assert_same_tree(tree: DecisionTree, reference: DecisionTree) -> None:
    for name in TREE_ARRAYS:
        got, want = getattr(tree, name), getattr(reference, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


@st.composite
def tie_heavy_tree_case(draw):
    """Few distinct integer values per feature, so thresholds tie often; the
    scale puts them at 1e-300 or among the subnormals, where a midpoint can
    round onto the upper value."""
    d = draw(st.integers(1, 4))
    n_classes = draw(st.integers(2, 4))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), min_size=2, max_size=30))
    labels = draw(st.lists(st.integers(0, n_classes - 1), min_size=len(rows), max_size=len(rows)))
    assume(len(set(labels)) >= 2)
    params = dict(
        max_depth=draw(st.none() | st.integers(0, 4)),
        min_samples_leaf=draw(st.integers(1, 4)),
        max_features=draw(st.none() | st.integers(1, d)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return rows, labels, draw(st.sampled_from([1e-300, 5e-324])), params


class TestBuildMatrix:
    def test_clustering_preset_215_features(self):
        m = clustering_matrix(tiny_dataset())
        assert len(m.columns) == 215
        assert "temperature" not in m.columns
        assert "timestamp" not in m.columns
        assert set(m.labels) == {"RPi4like"}

    def test_identification_preset_24_features(self):
        m = identification_matrix(tiny_dataset())
        assert len(m.columns) == 24
        assert m.columns[0] == "temperature"
        assert "storage_read_avg" in m.columns
        assert "storage_read_1" not in m.columns
        assert all(label.count(":") == 5 for label in m.labels)

    def test_one_row_dataset(self):
        ds = tiny_dataset(n_devices=1, n_samples=1)
        m = build_matrix(ds, "mac")
        assert m.values.shape == (1, 215)

    def test_empty_dataset_rejected(self):
        ds = schema.Dataset([schema.DeviceRecord("02:00:00:00:00:01", "m")],
                            {"02:00:00:00:00:01": np.empty((0, 217))})
        with pytest.raises(ValueError, match="no samples"):
            build_matrix(ds)

    def test_row_count_and_label_alignment(self):
        ds = tiny_dataset(n_devices=3, n_samples=5)
        m = build_matrix(ds, "mac")
        assert m.n_rows == 15
        assert len(np.unique(m.labels)) == 3


class TestMinMax:
    def test_basic_column(self):
        m = labeled([[2.0], [4.0], [6.0]], ["a", "a", "b"])
        out, params = minmax_fit_transform(m)
        assert np.allclose(out.values[:, 0], [0.0, 0.5, 1.0])
        assert params.x_min[0] == 2.0 and params.x_max[0] == 6.0

    def test_constant_column_maps_to_zero(self):
        m = labeled([[7.0], [7.0]], ["a", "b"])
        out, _ = minmax_fit_transform(m)
        assert np.array_equal(out.values[:, 0], [0.0, 0.0])

    def test_max_maps_to_one(self):
        rng = np.random.default_rng(0)
        m = labeled(rng.uniform(5, 9, size=(20, 3)), ["x"] * 20)
        out, _ = minmax_fit_transform(m)
        assert np.allclose(out.values.max(axis=0), 1.0)
        assert np.allclose(out.values.min(axis=0), 0.0)

    def test_stored_params_reproduce_fit(self):
        rng = np.random.default_rng(1)
        m = labeled(rng.normal(size=(15, 4)), ["x"] * 15)
        out, params = minmax_fit_transform(m)
        again = minmax_apply(m, params)
        assert np.array_equal(out.values, again.values)

    def test_range_in_unit_interval(self):
        rng = np.random.default_rng(2)
        m = labeled(rng.lognormal(size=(30, 5)), ["x"] * 30)
        out, _ = minmax_fit_transform(m)
        assert out.values.min() >= 0.0 and out.values.max() <= 1.0

    def test_idempotent_on_normalized(self):
        rng = np.random.default_rng(3)
        m = labeled(rng.uniform(size=(10, 2)), ["x"] * 10)
        once, _ = minmax_fit_transform(m)
        twice, _ = minmax_fit_transform(once)
        assert np.allclose(once.values, twice.values, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=3, max_size=3),
        min_size=1, max_size=12,
    ))
    @example([[-1e308, -1.7976931348623157e308, 5e-324], [0.0, 1.7976931348623157e308, -5e-324],
              [1e308, 1e16, 1e-5]])
    def test_full_float64_range_in_unit_interval(self, rows):
        values = np.asarray(rows, dtype=np.float64)
        out, _ = minmax_fit_transform(labeled(values, ["x"] * len(rows), ["a", "b", "c"]))
        assert np.all((out.values >= 0.0) & (out.values <= 1.0))
        with np.errstate(over="ignore"):
            span = values.max(axis=0) - values.min(axis=0)
        assert np.all(out.values[:, span == 0] == 0.0)
        # a column whose span fits in float64 keeps the plain formula, bit for bit
        plain = np.isfinite(span) & (span > 0)
        expected = (values[:, plain] - values.min(axis=0)[plain]) / span[plain]
        assert np.array_equal(out.values[:, plain], expected)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
                 min_size=1, max_size=6),
        st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=2),
                 min_size=1, max_size=6),
    )
    @example(fit=[[-1e308, 0.0], [7e307, 1.0]], rows=[[1.7e308, 0.5]])
    def test_apply_within_ulps_of_exact(self, fit, rows):
        # Rows from outside the fitted span: wherever the exact result is
        # finite in float64, the output is finite and within 4 ulp of it.
        _, params = minmax_fit_transform(labeled(fit, ["x"] * len(fit), ["a", "b"]))
        exact = []
        for row in rows:
            for j, x in enumerate(row):
                lo, hi = Fraction(params.x_min[j]), Fraction(params.x_max[j])
                exact.append(Fraction(0) if lo == hi else (Fraction(x) - lo) / (hi - lo))
        try:
            rounded = [float(q) for q in exact]
        except OverflowError:
            assume(False)
        out = minmax_apply(labeled(rows, ["x"] * len(rows), ["a", "b"]), params).values.ravel()
        for got, q, f in zip(out.tolist(), exact, rounded):
            assert abs(Fraction(got) - q) <= 4 * Fraction(math.ulp(f)), (got, f)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        values = rng.normal(size=(9, 3))
        out, _ = minmax_fit_transform(labeled(values, ["x"] * 9))
        for j in range(3):
            lo, hi = values[:, j].min(), values[:, j].max()
            for i in range(9):
                expected = (values[i, j] - lo) / (hi - lo)
                assert abs(out.values[i, j] - expected) < 1e-9


class TestPca:
    def test_collinear_points(self):
        pts = np.array([[t, t] for t in np.linspace(-1, 1, 9)])
        result = pca(pts, out_dims=2)
        assert result.explained_variance_ratio[0] == pytest.approx(1.0)
        assert result.explained_variance_ratio[1] == pytest.approx(0.0, abs=1e-12)

    def test_unit_square_corners(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        result = pca(pts, out_dims=2)
        assert np.allclose(result.explained_variance_ratio, [0.5, 0.5])

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=(50, 5)) * np.array([3.0, 2.0, 1.5, 0.7, 0.2])
        result = pca(values, out_dims=2)
        centered = values - values.mean(axis=0)
        _u, s, vt = np.linalg.svd(centered, full_matrices=False)
        oracle = centered @ vt.T[:, :2]
        for j in range(2):
            same = np.allclose(result.projection[:, j], oracle[:, j], rtol=1e-9, atol=1e-9)
            flipped = np.allclose(result.projection[:, j], -oracle[:, j], rtol=1e-9, atol=1e-9)
            assert same or flipped
        oracle_ratios = s**2 / (s**2).sum()
        assert np.allclose(result.explained_variance_ratio, oracle_ratios, rtol=1e-9)

    def test_ratios_non_increasing_and_sum_to_one(self):
        rng = np.random.default_rng(12)
        result = pca(rng.normal(size=(40, 6)), out_dims=3)
        ratios = result.explained_variance_ratio
        assert np.all(np.diff(ratios) <= 1e-12)
        assert ratios.sum() == pytest.approx(1.0)

    def test_projected_columns_uncorrelated(self):
        rng = np.random.default_rng(13)
        result = pca(rng.normal(size=(60, 4)) @ rng.normal(size=(4, 4)), out_dims=4)
        cov = np.cov(result.projection, rowvar=False)
        scale = np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        off = np.abs(cov - np.diag(np.diag(cov))) / scale
        assert off.max() <= 1e-8

    def test_full_reconstruction(self):
        rng = np.random.default_rng(14)
        values = rng.normal(size=(25, 5))
        result = pca(values, out_dims=5)
        reconstructed = result.projection @ result.components.T + result.mean
        error = np.abs(reconstructed - values).max() / np.abs(values).max()
        assert error <= 1e-8

    def test_sign_convention(self):
        rng = np.random.default_rng(15)
        result = pca(rng.normal(size=(30, 3)), out_dims=3)
        for j in range(3):
            loading = result.components[:, j]
            assert loading[np.argmax(np.abs(loading))] > 0

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            pca(np.ones((1, 3)), out_dims=2)


class TestKmeans:
    def blobs(self, seed=0, n_per=25, centers=((0, 0), (10, 0), (0, 10), (10, 10))):
        rng = np.random.default_rng(seed)
        pts = np.vstack([rng.normal(c, 0.1, size=(n_per, 2)) for c in centers])
        labels = np.repeat(np.arange(len(centers)), n_per)
        return pts, labels

    def test_four_separated_blobs(self):
        pts, labels = self.blobs()
        result = kmeans(pts, k=4, seed=1)
        purity, _ = cluster_purity(result.assignments, labels)
        assert purity == 1.0
        assert sorted(result.sizes.tolist()) == [25, 25, 25, 25]

    def test_k1_centroid_is_mean(self):
        pts, _ = self.blobs()
        result = kmeans(pts, k=1, seed=0)
        assert np.allclose(result.centroids[0], pts.mean(axis=0))

    def test_k_equals_n(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(12, 2))
        result = kmeans(pts, k=12, seed=0)
        assert result.wcss == pytest.approx(0.0, abs=1e-18)
        assert sorted(result.sizes.tolist()) == [1] * 12

    def test_wcss_monotone_non_increasing(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(200, 2))
        result = kmeans(pts, k=5, seed=2, n_init=1)
        trajectory = np.array(result.wcss_trajectory)
        assert np.all(np.diff(trajectory) <= 1e-9)

    def test_permutation_invariance(self):
        pts, _ = self.blobs(seed=9)
        rng = np.random.default_rng(7)
        perm = rng.permutation(len(pts))
        base = kmeans(pts, k=4, seed=3)
        permuted = kmeans(pts[perm], k=4, seed=3)
        assert np.array_equal(permuted.assignments, base.assignments[perm])

    def test_empty_cluster_reseeded(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        centroids = np.array([[0.0, 0.0], [0.05, 0.0], [500.0, 500.0]])
        assignments, final_centroids, trajectory = analysis._lloyd(pts, centroids.copy(), 50)
        assert len(set(assignments.tolist())) == 3
        assert np.all(np.diff(trajectory) <= 1e-9)

    def test_sizes_sum_to_n(self):
        pts, _ = self.blobs(seed=10, n_per=13)
        result = kmeans(pts, k=4, seed=0)
        assert result.sizes.sum() == len(pts)

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            kmeans(np.ones((3, 2)), k=4)


class TestPurity:
    def test_perfect(self):
        assert cluster_purity([0, 0, 1, 1], ["a", "a", "b", "b"])[0] == 1.0

    def test_single_cluster_two_equal_classes(self):
        purity, per_cluster = cluster_purity([0, 0, 0, 0], ["a", "a", "b", "b"])
        assert purity == 0.5
        assert per_cluster[0]["size"] == 4
        assert per_cluster[0]["majority_count"] == 2


class TestSplit:
    def test_80_20_balanced(self):
        m = labeled(np.arange(200).reshape(100, 2), ["a"] * 50 + ["b"] * 50)
        train, test = split(m, 0.8, seed=0)
        assert train.n_rows == 80 and test.n_rows == 20
        assert (train.labels == "a").sum() == 40
        assert (test.labels == "a").sum() == 10

    def test_deterministic(self):
        m = labeled(np.random.default_rng(0).normal(size=(40, 3)), ["a", "b"] * 20)
        t1, _ = split(m, 0.8, seed=9)
        t2, _ = split(m, 0.8, seed=9)
        assert np.array_equal(t1.values, t2.values)

    def test_partition(self):
        values = np.arange(60, dtype=float).reshape(30, 2)
        m = labeled(values, ["a", "b", "c"] * 10)
        train, test = split(m, 0.8, seed=1)
        combined = np.vstack([train.values, test.values])
        assert sorted(map(tuple, combined)) == sorted(map(tuple, values))
        train_set = set(map(tuple, train.values))
        assert not train_set & set(map(tuple, test.values))

    def test_single_sample_label_rejected(self):
        m = labeled([[1.0], [2.0], [3.0]], ["a", "a", "b"])
        with pytest.raises(ValueError, match="fewer than 2"):
            split(m, 0.8)


class TestClassifiers:
    def test_single_class_rejected(self):
        m = labeled([[1.0], [2.0]], ["a", "a"])
        with pytest.raises(ValueError, match="two classes"):
            train_classifier("knn", m)

    def test_unknown_kind(self):
        m = labeled([[1.0], [2.0]], ["a", "b"])
        with pytest.raises(ValueError, match="unknown classifier"):
            train_classifier("xgboost", m)

    def test_knn_k1_self_label(self):
        m = labeled([[0.0], [1.0], [5.0]], ["a", "a", "b"])
        model = train_classifier("knn", m, {"k": 1})
        assert list(model.predict(m.values)) == ["a", "a", "b"]

    def test_tree_separable_1d(self):
        m = labeled([[1.0], [2.0], [8.0], [9.0]], ["lo", "lo", "hi", "hi"])
        model = train_classifier("decision_tree", m)
        assert list(model.predict(m.values)) == ["lo", "lo", "hi", "hi"]

    def test_forest_on_blobs(self):
        rng = np.random.default_rng(8)
        pts = np.vstack([rng.normal(0, 0.3, (30, 3)), rng.normal(3, 0.3, (30, 3))])
        m = labeled(pts, ["a"] * 30 + ["b"] * 30)
        model = train_classifier("random_forest", m, {"n_estimators": 15}, seed=4)
        assert (model.predict(pts) == m.labels).mean() == 1.0

    def test_forest_deterministic_under_seed(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(size=(40, 4))
        m = labeled(pts, ["a", "b"] * 20)
        p1 = train_classifier("random_forest", m, {"n_estimators": 7}, seed=5).predict(pts)
        p2 = train_classifier("random_forest", m, {"n_estimators": 7}, seed=5).predict(pts)
        assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("kind, hyperparams, message", [
        ("decision_tree", {"max_depth": -1}, "max_depth"),
        ("decision_tree", {"min_samples_leaf": 0}, "min_samples_leaf"),
        ("random_forest", {"max_depth": -1}, "max_depth"),
        ("random_forest", {"min_samples_leaf": -2}, "min_samples_leaf"),
        ("random_forest", {"n_estimators": 0}, "n_estimators"),
    ])
    def test_out_of_range_hyperparameter_rejected(self, kind, hyperparams, message):
        m = labeled([[1.0], [2.0], [8.0], [9.0]], ["lo", "lo", "hi", "hi"])
        with pytest.raises(ValueError, match=message):
            train_classifier(kind, m, hyperparams)

    def test_out_of_range_max_features_rejected(self):
        with pytest.raises(ValueError, match="max_features"):
            DecisionTree(max_features=0)

    def test_unknown_hyperparameter_rejected(self):
        m = labeled([[1.0], [2.0]], ["a", "b"])
        with pytest.raises(ValueError, match="unknown hyperparameters"):
            train_classifier("knn", m, {"gamma": 1})


class TestTreeMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_tree_case())
    # a constant column: no split is valid
    @example(([[0], [0], [0]], [0, 1, 0], 1e-300, dict(seed=0)))
    # identical columns: the first candidate feature wins the tie
    @example(([[0, 0], [1, 1], [0, 0], [1, 1]], [0, 1, 0, 1], 1e-300, dict(seed=0)))
    # min_samples_leaf rules out every split but the middle one
    @example(([[0], [1], [2], [3]], [0, 1, 0, 1], 1e-300, dict(min_samples_leaf=2, seed=0)))
    # the midpoint of adjacent subnormals rounds onto the upper value
    @example(([[1], [2], [2], [3]], [0, 1, 1, 0], 5e-324, dict(seed=0)))
    # sampled candidates, a depth limit and a leaf-size floor at once
    @example((
        [[3, 0, 1], [2, 2, 0], [0, 1, 3], [1, 3, 2], [3, 3, 0], [0, 0, 1], [2, 1, 1], [1, 2, 3]],
        [0, 1, 2, 1, 0, 2, 1, 0],
        1e-300,
        dict(max_depth=2, min_samples_leaf=2, max_features=1, seed=7),
    ))
    def test_tree_arrays_equal(self, case):
        rows, labels, scale, params = case
        X = np.asarray(rows, dtype=np.float64) * scale
        codes = np.unique(labels, return_inverse=True)[1]
        tree = DecisionTree(**params).fit(X, labels)
        reference = DecisionTree(**params)
        reference_fit_codes(reference, X, codes, int(codes.max()) + 1)
        assert_same_tree(tree, reference)

    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_tree_case(), st.data())
    def test_weighted_rows_equal_repeated_rows(self, case, data):
        rows, labels, scale, params = case
        weight = np.asarray(data.draw(
            st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)), label="weight"))
        repeated = np.repeat(np.arange(len(rows)), weight)
        repeated = repeated[data.draw(st.permutations(range(len(repeated))), label="order")]
        X = np.asarray(rows, dtype=np.float64) * scale
        codes = np.unique(labels, return_inverse=True)[1]
        n_classes = int(codes.max()) + 1
        tree = DecisionTree(**params)
        tree._fit_codes(X, codes, weight, n_classes)
        reference = DecisionTree(**params)
        reference_fit_codes(reference, X[repeated], codes[repeated], n_classes)
        assert_same_tree(tree, reference)

    def test_forest_trees_equal_on_fleet(self):
        m = identification_matrix(tiny_dataset(n_devices=6, n_samples=40))
        for min_samples_leaf in (1, 2, 3):
            for max_depth in (None, 4):
                params = dict(n_estimators=3, max_depth=max_depth,
                              min_samples_leaf=min_samples_leaf, seed=11)
                forest = RandomForest(**params).fit(m.values, m.labels)
                reference = reference_forest_fit(RandomForest(**params), m.values, m.labels)
                for tree, reference_tree in zip(forest._trees, reference._trees, strict=True):
                    assert_same_tree(tree, reference_tree)
                assert np.array_equal(forest.predict(m.values), reference.predict(m.values))


class TestKnnMatchesReference:
    @pytest.mark.parametrize("values", ["uniform", "ties"])
    def test_predictions_equal_across_blocks(self, values):
        # 600 queries against 1,000 training rows cross three distance blocks
        rng = np.random.default_rng(23)
        X = rng.random((1600, 24))
        if values == "ties":
            X = rng.integers(0, 4, X.shape) / 4.0
        labels = rng.integers(0, 12, 1600)
        model = KNearestNeighbors(k=7).fit(X[:1000], labels[:1000])
        assert np.array_equal(model.predict(X[1000:]), reference_knn_predict(model, X[1000:]))

    @pytest.mark.parametrize("seed", [1, 1009])
    def test_predictions_equal_on_fleet(self, seed):
        config = default_farm_config(master_seed=seed, samples_per_device=200)
        dataset = simulate_dataset(make_farm(config), config.samples_per_device, config.start_time)
        train, test = split(identification_matrix(dataset), 0.8, seed=seed)
        normalized_train, params = minmax_fit_transform(train)
        queries = minmax_apply(test, params).values
        model = KNearestNeighbors(k=7).fit(normalized_train.values, normalized_train.labels)
        assert np.array_equal(model.predict(queries), reference_knn_predict(model, queries))

    def test_predict_memory_bounded(self):
        rng = np.random.default_rng(5)
        model = KNearestNeighbors(k=7).fit(rng.random((7200, 24)), rng.integers(0, 45, 7200))
        queries = rng.random((1800, 24))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model.predict(queries)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a 36 x 7,200 distance block is ~2 MiB: the trace sees numpy buffers
        assert 2**20 < peak < 8 * 2**20


def kfold_macro_f1(m: FeatureMatrix, kind: str, folds: int, seed: int) -> list[float]:
    """Stratified k-fold macro-F1: each class is dealt round-robin over the
    folds in a seeded order, and each fold is scored by a model trained on
    the others."""
    rng = np.random.default_rng(seed)
    fold_of = np.empty(m.n_rows, dtype=int)
    for label in np.unique(m.labels):
        idx = rng.permutation(np.flatnonzero(m.labels == label))
        fold_of[idx] = np.arange(len(idx)) % folds
    scores = []
    for fold in range(folds):
        test_mask = fold_of == fold
        model = train_classifier(kind, m.select_rows(~test_mask), seed=seed)
        scores.append(evaluate(model, m.select_rows(test_mask)).macro_f1)
    return scores


class TestEvaluate:
    def test_perfect_predictions(self):
        report = classification_report(["a", "b", "a"], ["a", "b", "a"], ["a", "b"])
        assert report.macro_precision == 1.0
        assert report.macro_recall == 1.0
        assert report.macro_f1 == 1.0
        assert np.array_equal(report.confusion, [[2, 0], [0, 1]])

    def test_binary_tp1_fp1_fn0(self):
        # true: [A, B], predicted: [A, A] -> class A: TP=1 FP=1 FN=0
        report = classification_report(["A", "B"], ["A", "A"], ["A", "B"])
        i = report.classes.index("A")
        assert report.precision[i] == pytest.approx(0.5)
        assert report.recall[i] == pytest.approx(1.0)
        assert report.f1[i] == pytest.approx(2 / 3)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        classes = ["a", "b", "c", "d"]
        y_true = rng.choice(classes, size=50)
        y_pred = rng.choice(classes, size=50)
        report = classification_report(y_true, y_pred, classes)
        for i, cls in enumerate(classes):
            tp = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p == cls)
            fp = sum(1 for t, p in zip(y_true, y_pred) if t != cls and p == cls)
            fn = sum(1 for t, p in zip(y_true, y_pred) if t == cls and p != cls)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert abs(report.precision[i] - precision) < 1e-9
            assert abs(report.recall[i] - recall) < 1e-9
            assert abs(report.f1[i] - f1) < 1e-9

    def test_micro_recall_equals_accuracy(self):
        rng = np.random.default_rng(22)
        classes = ["a", "b", "c"]
        y_true = rng.choice(classes, size=60)
        y_pred = rng.choice(classes, size=60)
        report = classification_report(y_true, y_pred, classes)
        micro_recall = np.diag(report.confusion).sum() / report.confusion.sum()
        assert micro_recall == pytest.approx(report.accuracy)

    def test_confusion_rows_are_true_counts(self):
        report = classification_report(["a", "a", "b"], ["b", "a", "b"], ["a", "b"])
        assert report.confusion[0].sum() == 2
        assert report.confusion[1].sum() == 1

    def test_missing_class_flagged(self):
        report = classification_report(["a", "a"], ["a", "b"], ["a", "b"])
        assert report.missing_classes == ("b",)
        i = report.classes.index("b")
        assert report.recall[i] == 0.0

    def test_unknown_test_label_rejected(self):
        with pytest.raises(ValueError, match="outside the training label set"):
            classification_report(["z"], ["a"], ["a", "b"])

    def test_evaluate_end_to_end(self):
        m = labeled([[0.0], [0.1], [5.0], [5.1]], ["lo", "lo", "hi", "hi"])
        model = train_classifier("decision_tree", m)
        report = evaluate(model, m)
        assert report.accuracy == 1.0

    def test_kfold_scores(self):
        rng = np.random.default_rng(23)
        pts = np.vstack([rng.normal(0, 0.2, (20, 2)), rng.normal(4, 0.2, (20, 2))])
        m = labeled(pts, ["a"] * 20 + ["b"] * 20)
        scores = kfold_macro_f1(m, "decision_tree", folds=5, seed=0)
        assert len(scores) == 5
        assert min(scores) > 0.9


class TestPearson:
    def test_positive_affine(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_negative(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_derived_example(self):
        assert pearson([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=40)
        y = rng.normal(size=40)
        mx = sum(x) / len(x)
        my = sum(y) / len(y)
        num = sum((a - mx) * (b - my) for a, b in zip(x, y))
        den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(sum((b - my) ** 2 for b in y))
        assert pearson(x, y) == pytest.approx(num / den, rel=1e-9)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            pearson([1.0, 1.0], [2.0, 2.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=3, max_size=20),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=-50.0, max_value=50.0),
        st.booleans(),
    )
    # deviations of ~1e-160 square into float64 subnormals
    @example(xs=[0.0, 0.0, 1.66e-160], a=0.25, b=0.0, negate=False)
    def test_scale_invariance(self, xs, a, b, negate):
        x = np.array(xs)
        rng = np.random.default_rng(1)
        y = rng.normal(size=len(x))
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            return
        scale = -a if negate else a
        # scale*x + b can round to a constant vector, where pearson must raise
        assume(np.ptp(scale * x + b) > 0)
        base = pearson(x, y)
        scaled = pearson(scale * x + b, y)
        assert scaled == pytest.approx(math.copysign(1, scale) * base, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1e3, max_value=1e3).filter(lambda v: v == 0 or abs(v) >= 1e-3),
                 min_size=2, max_size=20),
        st.integers(min_value=-900, max_value=1013),
    )
    # the mean of x overflows float64
    @example(xs=[1e308, 1e308, -1e308, 0.0], k=0)
    @example(xs=[1.0, 1.0, -1.0, 0.0], k=1023)
    def test_power_of_two_scale_exact(self, xs, k):
        # Scaling by 2**k is exact while every value stays normal, so the
        # result must not move by a single bit, up to float64 max.
        x = np.array(xs)
        y = np.arange(1.0, len(x) + 1)
        scaled = np.ldexp(x, k)
        assume(np.isfinite(scaled).all() and len(set(scaled.tolist())) > 1)
        result = pearson(scaled, y)
        assert math.isfinite(result)
        assert result == pearson(x, y)

    def test_symmetry(self):
        rng = np.random.default_rng(32)
        x, y = rng.normal(size=(2, 25))
        assert pearson(x, y) == pytest.approx(pearson(y, x), rel=1e-12)


class TestCorrelationReport:
    def device_matrix(self, n=200, coeff=0.0, jitter=1e-4, seed=0) -> FeatureMatrix:
        rng = np.random.default_rng(seed)
        temp = 50 + 3 * np.sin(np.linspace(0, 6 * np.pi, n)) + rng.normal(0, 0.3, n)
        base = 1e6 * (1 + coeff * (temp - 50)) * (1 + rng.normal(0, jitter, n))
        flat = np.full(n, 5.0)
        return FeatureMatrix(
            np.column_stack([temp, base, flat]),
            ("temperature", "gpu_matrixmul", "flatline"),
            np.array(["02:00:00:00:00:01"] * n),
        )

    def test_temperature_with_itself(self):
        report = correlation_report(self.device_matrix())
        assert report.coefficients["temperature"] == pytest.approx(1.0)

    def test_sensitive_feature_high_r(self):
        report = correlation_report(self.device_matrix(coeff=5e-4))
        assert abs(report.coefficients["gpu_matrixmul"]) >= 0.5

    def test_insensitive_feature_low_r(self):
        report = correlation_report(self.device_matrix(coeff=0.0))
        assert abs(report.coefficients["gpu_matrixmul"]) <= 0.1

    def test_constant_feature_not_applicable(self):
        report = correlation_report(self.device_matrix())
        assert report.coefficients["flatline"] is None

    def test_minimum_rows(self):
        with pytest.raises(ValueError, match="at least 30"):
            correlation_report(self.device_matrix(n=10))

    def test_requires_temperature(self):
        m = labeled([[1.0], [2.0]] * 20, ["a"] * 40)
        with pytest.raises(ValueError, match="temperature"):
            correlation_report(m)


class TestDensity:
    def test_mass_conservation(self):
        ds = tiny_dataset(n_devices=3, n_samples=20)
        summary = density_summary(ds, "cpu_sleep_120s", model="RPi4like")
        for device in summary.devices:
            assert device.counts.sum() == device.n == 20

    def test_constant_feature_single_bin(self):
        mac = "02:00:00:00:00:01"
        rows = np.ones((5, 217))
        rows[:, 0] = np.arange(5)
        rows[:, 1] = 40.0
        ds = schema.Dataset([schema.DeviceRecord(mac, "m")], {mac: rows})
        summary = density_summary(ds, "cpu_fib")
        assert (summary.devices[0].counts > 0).sum() == 1

    def test_separated_devices_zero_overlap(self):
        # Two same-model devices at +/-100 ppm with tiny jitter: closed-form
        # means are ~20 sigma apart, so the histograms cannot share a bin.
        spec = dataclasses.replace(
            default_models()["RPi4like"],
            skew_sigma_ppm=0.0,
            offset_sigma_ppm=0.0,
            jitter_sigma=1e-5,
            write_center_split=0.0,
            temp_profile=TempProfile(50.0, 0.0, 0.0),
        )
        from skewbench.simulator import VirtualDevice

        devices = [
            VirtualDevice("02:00:00:00:00:0a", spec, 0.0, -100.0, np.zeros(215), 0.0, 11),
            VirtualDevice("02:00:00:00:00:0b", spec, 0.0, 100.0, np.zeros(215), 0.0, 12),
        ]
        ds = simulate_dataset(devices, 300, 0.0)
        summary = density_summary(ds, "cpu_sleep_120s")
        occupied = [np.flatnonzero(d.counts) for d in summary.devices]
        assert len(occupied) == 2
        assert not set(occupied[0].tolist()) & set(occupied[1].tolist())

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="no samples"):
            density_summary(tiny_dataset(), "cpu_fib", model="NoSuchModel")

    def test_label_column_rejected(self):
        with pytest.raises(ValueError):
            density_summary(tiny_dataset(), "mac")
