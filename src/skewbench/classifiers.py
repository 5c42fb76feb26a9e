"""Distance-based and tree-based classifiers for device identification.

Self-contained numpy implementations so the numeric core carries no model
dependencies: k-nearest-neighbors, an exact CART decision tree (Gini
impurity), and a bootstrap-aggregated random forest. All are deterministic
under their seed; vote and leaf-majority ties resolve to the lowest class
code, split ties to the first candidate feature drawn and the lowest
threshold.

Each forest tree fits on the distinct rows of its bootstrap, weighted by
how often each was drawn, and grows exactly the tree the bootstrap's
repeated rows would. kNN computes its distances in blocks of 2 MiB.
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
    """Plain Euclidean kNN with majority vote.

    Squared distances are ``|a|^2 - 2 a.b + |b|^2``, built in place one
    block of 2**18 distances (2 MiB) at a time, so a block stays in cache
    and memory does not grow with the query count.
    """

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
        chunk = max(1, 2**18 // max(len(self._X), 1))
        for start in range(0, len(X), chunk):
            block = X[start : start + chunk]
            # Scaling by -2.0 is exact and a + (-y) is a - y in IEEE
            # arithmetic, so these bits equal |a|^2 - 2 a.b + |b|^2.
            d2 = block @ self._X.T
            d2 *= -2.0
            np.add(np.einsum("ij,ij->i", block, block)[:, None], d2, out=d2)
            d2 += train_sq
            nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
            votes = np.zeros((len(block), n_classes), dtype=int)
            rows = np.repeat(np.arange(len(block)), k)
            np.add.at(votes, (rows, self._codes[nearest].ravel()), 1)
            out[start : start + chunk] = votes.argmax(axis=1)
        return self.classes_[out]


class DecisionTree:
    """Exact CART with Gini impurity; grows until pure unless depth-limited.

    Every threshold between two distinct values of every candidate feature
    is scored. Rows carry integer weights: a row of weight w counts as w
    equal rows, so a forest tree fits on its bootstrap's distinct rows and
    grows the same tree as on the repeated ones. Each node sorts its block
    of candidate columns once, and the Gini sums of squared class counts
    come from exact integer running sums over the sorted weights, so a node
    costs one sort of an n_node x candidates block plus
    O(n_node * candidates) integer work, with no one-hot class counts.
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
        self._fit_codes(X, codes, np.ones(len(X), dtype=np.int64), len(self.classes_))
        return self

    def _fit_codes(
        self, X: np.ndarray, codes: np.ndarray, weight: np.ndarray, n_classes: int
    ) -> None:
        """Grow the tree on rows ``X`` with class ``codes``; a row of integer
        ``weight`` w splits, stops and votes as w copies of it would."""
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        m = self.max_features or d
        min_leaf = self.min_samples_leaf
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

        root = new_node()
        stack: list[tuple[int, np.ndarray, int]] = [(root, np.arange(n), 0)]
        while stack:
            node, idx, depth = stack.pop()
            y_node = codes[idx]
            w_node = weight[idx]
            counts = np.bincount(y_node, w_node, n_classes).astype(np.int64)
            n_node = int(counts.sum())
            if (
                n_node < 2 * min_leaf
                or (self.max_depth is not None and depth >= self.max_depth)
                or counts.max() == n_node
            ):
                leaf_value[node] = int(counts.argmax())
                continue

            candidates = rng.choice(d, size=min(m, d), replace=False) if m < d else np.arange(d)
            block = X[idx[:, None], candidates]
            # Scores are read only between distinct values, where the class
            # counts on each side do not depend on how equal values were
            # ordered, so this sort need not be stable, and the tree does
            # not depend on the order of the rows.
            order = block.argsort(axis=0)
            xs_sorted = block[order, columns]
            valid = xs_sorted[:-1] < xs_sorted[1:]
            # before: the weight of the earlier sorted samples of the same
            # class. Moving a sample of weight w with `before` l to the left
            # side raises the left sum of squared class counts by w(2l + w);
            # the right sum is sum(counts^2) - 2 sum(counts * left_counts) +
            # left sum. Both are exact integers, so every score is exact.
            ys = y_node[order]
            ws = w_node[order]
            by_class = ys.argsort(axis=0, kind="stable")
            class_start = counts.cumsum() - counts
            ws_by_class = ws[by_class, columns]
            by_class_before = ws_by_class.cumsum(axis=0)
            by_class_before -= ws_by_class
            # every column holds y_node's classes, so in class order all
            # columns share column 0's class sequence
            by_class_before -= class_start[ys[by_class[:, 0], 0]][:, None]
            before = np.empty_like(ws)
            before[by_class, columns] = by_class_before
            ws = ws[:-1]
            sum_sq = int(np.square(counts).sum())
            left_sq = (ws * (2 * before[:-1] + ws)).cumsum(axis=0)
            right_sq = sum_sq - 2 * (counts[ys[:-1]] * ws).cumsum(axis=0) + left_sq
            nl = ws.cumsum(axis=0).astype(np.float64)
            nr = n_node - nl
            # weighted Gini in count units: n_side - sum(counts^2)/n_side
            score = nl - left_sq / nl + nr - right_sq / nr
            score[~valid] = np.inf
            if min_leaf > 1:
                # each side keeps at least min_samples_leaf samples
                score[(nl < min_leaf) | (nr < min_leaf)] = np.inf
            # the first minimum wins, within a feature and across candidates
            pos = score.argmin(axis=0)
            col = int(score[pos, columns].argmin())
            pos = int(pos[col])
            best_score = float(score[pos, col])

            parent_score = n_node - float(sum_sq) / n_node
            if best_score >= parent_score - 1e-12:
                leaf_value[node] = int(counts.argmax())
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
            # Fit on the bootstrap's distinct rows, each weighted by how
            # often it was drawn: the same tree, with ~37% fewer rows to sort.
            weight = np.bincount(rng.integers(0, n, size=n), minlength=n)
            rows = np.flatnonzero(weight)
            tree = DecisionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                seed=int(seeds[2 * t + 1]),
            )
            tree.classes_ = self.classes_
            tree._fit_codes(X[rows], codes[rows], weight[rows], n_classes)
            self._trees.append(tree)
        return self

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        votes = np.zeros((len(X), len(self.classes_)), dtype=int)
        rows = np.arange(len(X))
        for tree in self._trees:
            votes[rows, tree.predict_codes(X)] += 1
        return self.classes_[votes.argmax(axis=1)]
