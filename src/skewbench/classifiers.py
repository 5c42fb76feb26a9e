"""Distance-based and tree-based classifiers for device identification.

Self-contained numpy implementations so the numeric core carries no model
dependencies: k-nearest-neighbors, an exact CART decision tree (Gini
impurity), and a bootstrap-aggregated random forest. All are deterministic
under their seed; vote and leaf-majority ties resolve to the lowest class
code, split ties to the first candidate feature drawn and the lowest
threshold.
"""

from __future__ import annotations

import numpy as np


def _encode_labels(y) -> tuple[np.ndarray, np.ndarray]:
    classes, codes = np.unique(np.asarray(y), return_inverse=True)
    if len(classes) < 2:
        raise ValueError("training data must contain at least two classes")
    return classes, codes


def _check_tree_params(max_depth: int | None, min_samples_leaf: int) -> None:
    if max_depth is not None and max_depth < 0:
        raise ValueError(f"max_depth must be >= 0 or None, got {max_depth}")
    if min_samples_leaf < 1:
        raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")


class KNearestNeighbors:
    """Plain Euclidean kNN with majority vote."""

    def __init__(self, k: int = 7):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "KNearestNeighbors":
        self._X = np.asarray(X, dtype=np.float64)
        self.classes_, self._codes = _encode_labels(y)
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        k = min(self.k, len(self._X))
        n_classes = len(self.classes_)
        train_sq = np.einsum("ij,ij->i", self._X, self._X)
        out = np.empty(len(X), dtype=int)
        chunk = max(1, 2**22 // max(len(self._X), 1))
        for start in range(0, len(X), chunk):
            block = X[start : start + chunk]
            d2 = (
                np.einsum("ij,ij->i", block, block)[:, None]
                - 2.0 * block @ self._X.T
                + train_sq[None, :]
            )
            nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
            votes = np.zeros((len(block), n_classes), dtype=int)
            rows = np.repeat(np.arange(len(block)), k)
            np.add.at(votes, (rows, self._codes[nearest].ravel()), 1)
            out[start : start + chunk] = votes.argmax(axis=1)
        return self.classes_[out]


class DecisionTree:
    """Exact CART with Gini impurity; grows until pure unless depth-limited.

    Every threshold between two distinct values of every candidate feature
    is scored. Each node sorts its block of candidate columns once, and the
    Gini sums of squared class counts come from integer running sums over
    each sample's rank within its class, so a node costs one sort of an
    n_node x candidates block plus O(n_node * candidates) integer work,
    with no one-hot class counts.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        seed: int = 0,
    ):
        _check_tree_params(max_depth, min_samples_leaf)
        if max_features is not None and max_features < 1:
            raise ValueError(f"max_features must be >= 1 or None, got {max_features}")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float64)
        self.classes_, codes = _encode_labels(y)
        self._fit_codes(X, codes, len(self.classes_))
        return self

    def _fit_codes(self, X: np.ndarray, codes: np.ndarray, n_classes: int) -> None:
        self._n_classes = n_classes
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        m = self.max_features or d
        positions = np.arange(n)[:, None]
        columns = np.arange(min(m, d))
        # narrow class codes let the stable class sort below run as a radix sort
        codes = codes.astype(np.min_scalar_type(n_classes - 1))

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
            block = X[idx[:, None], candidates]
            # Scores are read only between distinct values, where the class
            # counts on each side do not depend on how equal values were
            # ordered, so this sort need not be stable.
            order = np.argsort(block, axis=0)
            xs_sorted = block[order, columns]
            valid = xs_sorted[:-1] < xs_sorted[1:]
            # rank: each sorted sample's rank among the earlier samples of its
            # class. Moving a sample of rank r to the left side raises the
            # left sum of squared class counts by 2r + 1; the right sum is
            # sum(counts^2) - 2 sum(counts * left_counts) + left sum. Both are
            # exact integers, so every score is exact.
            ys = y_node[order]
            counts = np.bincount(y_node, minlength=n_classes)
            by_class = np.argsort(ys, axis=0, kind="stable")
            class_start = np.cumsum(counts) - counts
            rank = np.empty(ys.shape, dtype=np.int64)
            rank[by_class, columns] = positions[:n_node] - class_start[ys[by_class, columns]]
            sum_sq = int(np.square(counts).sum())
            left_sq = np.cumsum(2 * rank[:-1] + 1, axis=0)
            right_sq = sum_sq - 2 * np.cumsum(counts[ys[:-1]], axis=0) + left_sq
            nl = np.arange(1, n_node, dtype=np.float64)[:, None]
            nr = n_node - nl
            # weighted Gini in count units: n_side - sum(counts^2)/n_side
            score = nl - left_sq / nl + nr - right_sq / nr
            score[~valid] = np.inf
            if self.min_samples_leaf > 1:
                # each side keeps at least min_samples_leaf samples
                score[: self.min_samples_leaf - 1] = np.inf
                score[n_node - self.min_samples_leaf :] = np.inf
            # the first minimum wins, within a feature and across candidates
            pos = score.argmin(axis=0)
            col = int(score[pos, columns].argmin())
            pos = int(pos[col])
            best_score = float(score[pos, col])

            parent_score = n_node - float(sum_sq) / n_node
            if best_score >= parent_score - 1e-12:
                make_leaf(node, y_node)
                continue

            best_feature = int(candidates[col])
            best_threshold = (xs_sorted[pos, col] + xs_sorted[pos + 1, col]) / 2.0
            if best_threshold >= xs_sorted[pos + 1, col]:
                best_threshold = xs_sorted[pos, col]
            best_threshold = float(best_threshold)
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

    def predict_codes(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(len(X), dtype=int)
        stack: list[tuple[int, np.ndarray]] = [(0, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if self._leaf_value[node] >= 0:
                out[idx] = self._leaf_value[node]
                continue
            mask = X[idx, self._feature[node]] <= self._threshold[node]
            stack.append((self._left[node], idx[mask]))
            stack.append((self._right[node], idx[~mask]))
        return out

    def predict(self, X) -> np.ndarray:
        return self.classes_[self.predict_codes(X)]


class RandomForest:
    """Bootstrap-aggregated CART trees with sqrt-feature split sampling."""

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        seed: int = 0,
    ):
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        _check_tree_params(max_depth, min_samples_leaf)
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.classes_: np.ndarray | None = None

    def fit(self, X, y) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        self.classes_, codes = _encode_labels(y)
        n, d = X.shape
        n_classes = len(self.classes_)
        max_features = max(1, int(np.sqrt(d)))
        seeds = np.random.SeedSequence(self.seed).generate_state(2 * self.n_estimators, np.uint64)
        self._trees: list[DecisionTree] = []
        for t in range(self.n_estimators):
            rng = np.random.default_rng(int(seeds[2 * t]))
            sample = rng.integers(0, n, size=n)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                seed=int(seeds[2 * t + 1]),
            )
            tree.classes_ = self.classes_
            tree._fit_codes(X[sample], codes[sample], n_classes)
            self._trees.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((len(X), len(self.classes_)), dtype=int)
        rows = np.arange(len(X))
        for tree in self._trees:
            votes[rows, tree.predict_codes(X)] += 1
        return self.classes_[votes.argmax(axis=1)]
