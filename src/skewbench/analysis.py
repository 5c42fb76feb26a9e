"""Dataset analysis: normalization, PCA + k-means model clustering,
classifier-based device identification, temperature correlation, and
per-device density summaries.

Two feature-matrix presets cover the standard pipelines: model clustering
uses model labels, no temperature, and the raw storage columns; device
identification uses MAC labels, includes temperature, and aggregates the
storage columns to avg/median/min/max per direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import schema
from .classifiers import DecisionTree, KNearestNeighbors, RandomForest

# Each classifier kind: its class, the hyperparameters it accepts, and
# whether it takes the seed (the tree models do).
CLASSIFIERS = {
    "knn": (KNearestNeighbors, ("k",), False),
    "decision_tree": (DecisionTree, ("max_depth", "min_samples_leaf"), True),
    "random_forest": (RandomForest, ("n_estimators", "max_depth", "min_samples_leaf"), True),
}
CLASSIFIER_KINDS = tuple(CLASSIFIERS)

# Upper bound on Lloyd iterations per k-means restart.
LLOYD_MAX_ITER = 100

# Minimum rows for a meaningful correlation estimate.
MIN_CORRELATION_ROWS = 30

DENSITY_BINS = 100


@dataclass
class FeatureMatrix:
    values: np.ndarray
    columns: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise ValueError("values shape does not match columns")
        if len(self.labels) != len(self.values):
            raise ValueError("one label per row required")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("feature matrix contains non-finite values")

    @property
    def n_rows(self) -> int:
        return len(self.values)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.columns.index(name)]

    def select_rows(self, mask: np.ndarray) -> "FeatureMatrix":
        return FeatureMatrix(self.values[mask], self.columns, self.labels[mask])


def build_matrix(
    dataset: schema.Dataset,
    label_kind: str = "mac",
    include_temperature: bool = False,
    aggregate_storage: bool = False,
) -> FeatureMatrix:
    """Stack all samples into one labeled numeric matrix.

    Timestamps are always dropped.
    """
    if label_kind not in ("mac", "model"):
        raise ValueError(f"label_kind must be mac or model, got {label_kind!r}")
    if dataset.n_samples == 0:
        raise ValueError("dataset has no samples")

    blocks = []
    labels = []
    for dev in dataset.devices:
        rows = dataset.rows(dev.mac)
        if len(rows) == 0:
            continue
        blocks.append(rows)
        labels.extend([dev.mac if label_kind == "mac" else dev.model] * len(rows))
    stacked = np.vstack(blocks)

    if aggregate_storage:
        stacked = schema.aggregate_storage_matrix(stacked)
        feature_names = schema.AGGREGATED_SCHEMA.feature_columns
    else:
        feature_names = schema.DEFAULT_SCHEMA.feature_columns

    start = schema.TEMPERATURE_INDEX if include_temperature else schema.FEATURE_OFFSET
    columns = (("temperature",) if include_temperature else ()) + feature_names
    return FeatureMatrix(stacked[:, start:], columns, np.array(labels))


def clustering_matrix(dataset: schema.Dataset) -> FeatureMatrix:
    """Model-clustering preset: model labels, no temperature, raw storage."""
    return build_matrix(dataset, "model")


def identification_matrix(dataset: schema.Dataset) -> FeatureMatrix:
    """Identification preset: MAC labels, temperature, aggregated storage."""
    return build_matrix(dataset, "mac", include_temperature=True, aggregate_storage=True)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizationParams:
    x_min: np.ndarray
    x_max: np.ndarray


def minmax_fit_transform(m: FeatureMatrix) -> tuple[FeatureMatrix, NormalizationParams]:
    """Map every column to [0, 1]; constant columns map to 0."""
    params = NormalizationParams(m.values.min(axis=0), m.values.max(axis=0))
    return minmax_apply(m, params), params


def minmax_apply(m: FeatureMatrix, params: NormalizationParams) -> FeatureMatrix:
    # A column whose span overflows float64 is mapped at half scale, where
    # neither the span nor any difference overflows. Every other column is
    # scaled by 1.0, which leaves its values bit-identical. A cell far
    # outside the fitted span can still overflow in ``x - x_min``; only
    # those cells are redone at half scale. A cell whose result is not finite
    # even then is left to FeatureMatrix to reject.
    with np.errstate(all="ignore"):
        scale = np.where(np.isfinite(params.x_max - params.x_min), 1.0, 0.5)
        x_min = params.x_min * scale
        span = params.x_max * scale - x_min
        safe = np.where(span == 0, 1.0, span)
        values = m.values * scale  # the only float matrix-sized allocation: the rest is in place
        values -= x_min
        values /= safe
        values[:, span == 0] = 0.0
        rows, cols = np.nonzero(np.isinf(values))
        half_min = params.x_min[cols] * 0.5
        values[rows, cols] = (m.values[rows, cols] * 0.5 - half_min) / (
            params.x_max[cols] * 0.5 - half_min
        )
    return FeatureMatrix(values, m.columns, m.labels)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PcaResult:
    projection: np.ndarray
    components: np.ndarray            # (d, out_dims), unit columns
    mean: np.ndarray
    explained_variance_ratio: np.ndarray  # all d components, non-increasing


def pca(m: FeatureMatrix | np.ndarray, out_dims: int = 2) -> PcaResult:
    """Eigendecomposition of the covariance matrix.

    Sign convention: the largest-magnitude loading of each component is
    positive. Ratios cover all components and sum to 1 (all zero for
    zero-variance data).
    """
    values = m.values if isinstance(m, FeatureMatrix) else np.asarray(m, dtype=np.float64)
    n, d = values.shape
    if n < out_dims:
        raise ValueError(f"need at least {out_dims} rows, got {n}")
    mean = values.mean(axis=0)
    centered = values - mean
    denominator = max(n - 1, 1)
    cov = centered.T @ centered / denominator
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.clip(eigenvalues[order], 0.0, None)
    eigenvectors = eigenvectors[:, order]
    for j in range(d):
        pivot = np.argmax(np.abs(eigenvectors[:, j]))
        if eigenvectors[pivot, j] < 0:
            eigenvectors[:, j] = -eigenvectors[:, j]
    total = eigenvalues.sum()
    ratios = eigenvalues / total if total > 0 else np.zeros(d)
    components = eigenvectors[:, :out_dims]
    return PcaResult(centered @ components, components, mean, ratios)


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterResult:
    assignments: np.ndarray
    centroids: np.ndarray
    sizes: np.ndarray
    wcss_trajectory: tuple[float, ...]

    @property
    def wcss(self) -> float:
        return self.wcss_trajectory[-1]


def _kmeans_plusplus(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(points)
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = points[rng.integers(n)]
        else:
            centroids[j] = points[np.searchsorted(np.cumsum(d2 / total), rng.random())]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def _lloyd(points: np.ndarray, centroids: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray, list[float]]:
    k = len(centroids)
    assignments = np.full(len(points), -1)
    trajectory: list[float] = []
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignments = d2.argmin(axis=1)
        trajectory.append(float(d2[np.arange(len(points)), new_assignments].sum()))
        for j in range(k):
            members = new_assignments == j
            if members.any():
                centroids[j] = points[members].mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its
                # assigned centroid; that point's contribution drops, so the
                # objective cannot increase.
                distances = d2[np.arange(len(points)), new_assignments]
                farthest = int(distances.argmax())
                centroids[j] = points[farthest]
                new_assignments[farthest] = j
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    return assignments, centroids, trajectory


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 0,
    n_init: int = 10,
) -> ClusterResult:
    """Lloyd iterations from k-means++ seeding, best of ``n_init`` restarts.

    Seeding and the iteration itself run on a value-sorted copy of the
    points, so the result is invariant under row permutation of the input.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    sort_order = np.lexsort(points.T[::-1])
    canonical = points[sort_order]

    rng = np.random.default_rng(seed)
    best: tuple[np.ndarray, np.ndarray, list[float]] | None = None
    for _ in range(max(1, n_init)):
        seeds = _kmeans_plusplus(canonical, k, rng)
        assignments, centroids, trajectory = _lloyd(canonical, seeds.copy(), LLOYD_MAX_ITER)
        if best is None or trajectory[-1] < best[2][-1]:
            best = (assignments, centroids, trajectory)

    assignments_canonical, centroids, trajectory = best
    assignments = np.empty(n, dtype=int)
    assignments[sort_order] = assignments_canonical
    sizes = np.bincount(assignments_canonical, minlength=k)
    return ClusterResult(assignments, centroids, sizes, tuple(trajectory))


def cluster_purity(assignments: np.ndarray, labels) -> tuple[float, list[dict]]:
    """Fraction of rows whose cluster's majority label matches their own."""
    assignments = np.asarray(assignments)
    labels = np.asarray(labels)
    if len(assignments) != len(labels):
        raise ValueError("assignments and labels must align")
    per_cluster: list[dict] = []
    matched = 0
    for cluster_id in sorted(set(assignments.tolist())):
        mask = assignments == cluster_id
        values, counts = np.unique(labels[mask], return_counts=True)
        top = int(counts.argmax())
        matched += int(counts[top])
        per_cluster.append(
            {
                "cluster": int(cluster_id),
                "size": int(mask.sum()),
                "majority_label": str(values[top]),
                "majority_count": int(counts[top]),
            }
        )
    return matched / len(labels), per_cluster


# ---------------------------------------------------------------------------
# Train/test split and classification
# ---------------------------------------------------------------------------

def split(
    m: FeatureMatrix,
    train_fraction: float = 0.8,
    seed: int = 0,
) -> tuple[FeatureMatrix, FeatureMatrix]:
    """Disjoint, exhaustive split preserving per-label proportions."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must be in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for label in np.unique(m.labels):
        idx = np.flatnonzero(m.labels == label)
        if len(idx) < 2:
            raise ValueError(f"label {label!r} has fewer than 2 samples")
        shuffled = rng.permutation(idx)
        n_train = int(round(train_fraction * len(idx)))
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.append(shuffled[:n_train])
        test_idx.append(shuffled[n_train:])
    train = np.sort(np.concatenate(train_idx))
    test = np.sort(np.concatenate(test_idx))
    return (
        FeatureMatrix(m.values[train], m.columns, m.labels[train]),
        FeatureMatrix(m.values[test], m.columns, m.labels[test]),
    )


def train_classifier(kind: str, train: FeatureMatrix, hyperparams: dict | None = None, seed: int = 0):
    """Fit one of knn / decision_tree / random_forest on the matrix.

    kNN expects min-max normalized input (the identification pipeline
    normalizes for it); the tree models take raw features.
    """
    hyperparams = dict(hyperparams or {})
    if len(np.unique(train.labels)) < 2:
        raise ValueError("training data must contain at least two classes")
    if kind not in CLASSIFIERS:
        raise ValueError(f"unknown classifier kind {kind!r}; expected one of {CLASSIFIER_KINDS}")
    cls, accepted, seeded = CLASSIFIERS[kind]
    unknown = sorted(set(hyperparams) - set(accepted))
    if unknown:
        raise ValueError(f"unknown hyperparameters for {kind}: {unknown}")
    if seeded:
        hyperparams["seed"] = seed
    return cls(**hyperparams).fit(train.values, train.labels)


@dataclass
class ClassificationReport:
    classes: tuple[str, ...]
    confusion: np.ndarray              # rows = true class, columns = predicted
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float
    missing_classes: tuple[str, ...]   # classes with no test samples

    def to_json(self) -> dict:
        return {
            "classes": list(self.classes),
            "per_class": {
                cls: {
                    "precision": float(self.precision[i]),
                    "recall": float(self.recall[i]),
                    "f1": float(self.f1[i]),
                    "support": int(self.confusion[i].sum()),
                }
                for i, cls in enumerate(self.classes)
            },
            "macro": {
                "precision": self.macro_precision,
                "recall": self.macro_recall,
                "f1": self.macro_f1,
            },
            "accuracy": self.accuracy,
            "missing_classes": list(self.missing_classes),
        }


def classification_report(y_true, y_pred, classes) -> ClassificationReport:
    classes = tuple(str(c) for c in classes)
    index = {c: i for i, c in enumerate(classes)}
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    unknown = set(np.unique(y_true)) - set(classes)
    if unknown:
        raise ValueError(f"test labels outside the training label set: {sorted(unknown)}")
    k = len(classes)
    confusion = np.zeros((k, k), dtype=int)
    for t, p in zip(y_true, y_pred):
        confusion[index[t], index[p]] += 1
    tp = np.diag(confusion).astype(float)
    predicted = confusion.sum(axis=0).astype(float)
    actual = confusion.sum(axis=1).astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(actual > 0, tp / actual, 0.0)
        denom = precision + recall
        f1 = np.where(denom > 0, 2 * precision * recall / denom, 0.0)
    missing = tuple(c for i, c in enumerate(classes) if actual[i] == 0)
    return ClassificationReport(
        classes=classes,
        confusion=confusion,
        precision=precision,
        recall=recall,
        f1=f1,
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        accuracy=float(tp.sum() / len(y_true)) if len(y_true) else 0.0,
        missing_classes=missing,
    )


def evaluate(model, test: FeatureMatrix) -> ClassificationReport:
    """Per-class precision/recall/F1 with a true-class-by-row confusion matrix."""
    if test.n_rows == 0:
        raise ValueError("test set is empty")
    predictions = model.predict(test.values)
    return classification_report(test.labels, predictions, model.classes_)


# ---------------------------------------------------------------------------
# Correlation and densities
# ---------------------------------------------------------------------------

def _deviations(v: np.ndarray) -> np.ndarray:
    """``v - mean(v)``; near float64 max, of ``v`` pre-scaled by a power of two.

    The sum or a deviation overflows there; a power-of-two scale is exact
    and leaves the correlation as it is. Input that does not overflow takes
    the plain path, so its result is unchanged.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        d = v - v.mean()
    if np.isfinite(d).all():
        return d
    v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])
    return v - v.mean()


def pearson(x, y) -> float:
    """Product-moment correlation; undefined (raises) for constant input."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D vectors of equal length")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    dx = _deviations(x)
    dy = _deviations(y)
    span_x = np.abs(dx).max()
    span_y = np.abs(dy).max()
    if span_x == 0 or span_y == 0:
        raise ValueError("correlation undefined for a constant vector")
    # unit-scaled deviations keep the dot products clear of float64
    # underflow and overflow at any input magnitude
    dx /= span_x
    dy /= span_y
    sx = math.sqrt(float(dx @ dx))
    sy = math.sqrt(float(dy @ dy))
    return float(np.clip(dx @ dy / (sx * sy), -1.0, 1.0))


@dataclass(frozen=True)
class CorrelationReport:
    """Per-feature Pearson coefficient against temperature; None where the
    feature is constant."""

    coefficients: dict[str, float | None]

    def to_json(self) -> dict:
        return {k: v for k, v in self.coefficients.items()}


def correlation_report(m: FeatureMatrix) -> CorrelationReport:
    if "temperature" not in m.columns:
        raise ValueError("matrix must include the temperature column")
    if m.n_rows < MIN_CORRELATION_ROWS:
        raise ValueError(f"need at least {MIN_CORRELATION_ROWS} rows, got {m.n_rows}")
    temperature = m.column("temperature")
    if np.ptp(temperature) == 0:
        raise ValueError("temperature is constant; correlations undefined")
    coefficients: dict[str, float | None] = {}
    for i, name in enumerate(m.columns):
        column = m.values[:, i]
        if np.ptp(column) == 0:
            coefficients[name] = None
        else:
            coefficients[name] = pearson(column, temperature)
    return CorrelationReport(coefficients)


@dataclass(frozen=True)
class DeviceDensity:
    mac: str
    counts: np.ndarray
    mean: float
    std: float
    n: int


@dataclass(frozen=True)
class DensitySummary:
    feature: str
    bin_edges: np.ndarray
    devices: tuple[DeviceDensity, ...]


def density_summary(
    dataset: schema.Dataset, feature: str, model: str | None = None
) -> DensitySummary:
    """Per-device histograms of one feature with shared bin edges.

    Edges span the pooled min/max over the selected devices (all devices of
    ``model``, or the whole dataset) in 100 bins, so device histograms are
    directly comparable.
    """
    if feature == schema.LABEL_COLUMN:
        raise ValueError("label column has no density")
    if feature not in schema.DEFAULT_SCHEMA.columns:
        raise ValueError(f"unknown feature: {feature!r}")
    column = schema.DEFAULT_SCHEMA.index(feature)
    selected = [
        dev for dev in dataset.devices if model is None or dev.model == model
    ]
    per_device = {dev.mac: dataset.rows(dev.mac)[:, column] for dev in selected}
    per_device = {mac: vals for mac, vals in per_device.items() if len(vals)}
    if not per_device:
        raise ValueError("no samples selected")
    pooled_min = min(vals.min() for vals in per_device.values())
    pooled_max = max(vals.max() for vals in per_device.values())
    if pooled_min == pooled_max:
        edges = np.linspace(pooled_min - 0.5, pooled_max + 0.5, DENSITY_BINS + 1)
    else:
        edges = np.linspace(pooled_min, pooled_max, DENSITY_BINS + 1)
    devices = tuple(
        DeviceDensity(
            mac=mac,
            counts=np.histogram(vals, bins=edges)[0],
            mean=float(vals.mean()),
            std=float(vals.std()),
            n=len(vals),
        )
        for mac, vals in per_device.items()
    )
    return DensitySummary(feature, edges, devices)
