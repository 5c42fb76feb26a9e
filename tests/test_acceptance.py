"""Acceptance suite: one test per criterion, run at the stated tolerances.

Each test prints a single pass line (visible with ``pytest -s``); under
``pytest -v`` the per-test PASSED/FAILED line is the per-criterion verdict.
The real-hardware smoke criterion sleeps for real and dominates the suite's
wall-clock time (about seven minutes).
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from skewbench import analysis, schema
from skewbench.analysis import (
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
from skewbench.collector import SessionConfig, VirtualAdapter, run_session
from skewbench.simulator import (
    FarmConfig,
    TempProfile,
    VirtualDevice,
    default_farm_config,
    default_models,
    make_device,
    make_farm,
    simulate_dataset,
)
from test_simulator import SLEEP_COLUMNS, with_heterogeneous_scales

RELATIVE_TOLERANCE = 1e-9          # criterion 3
ROUND_TRIP_DATASETS = 1000         # criterion 2
FARM_SAMPLES_PER_DEVICE = 500      # criteria 4 and 5
RF_MACRO_F1_FLOOR = 0.90           # criterion 5
CORRELATION_SENSITIVE_FLOOR = 0.5  # criterion 6
CORRELATION_STABLE_CEILING = 0.1   # criterion 6
SLEEP_CV_CEILING = 0.05            # criterion 9

MAC_A = "02:53:42:00:00:0a"
MAC_B = "02:53:42:00:00:0b"


def announce(number: int, name: str) -> None:
    print(f"[acceptance] criterion {number} ({name}): PASS")


@pytest.fixture(scope="module")
def default_farm_dataset():
    config = default_farm_config(master_seed=2024, samples_per_device=FARM_SAMPLES_PER_DEVICE)
    return simulate_dataset(make_farm(config), config.samples_per_device, config.start_time)


def test_criterion_1_schema_fidelity(tmp_path):
    started = time.time()
    rng = np.random.default_rng(0)
    devices = []
    samples = {}
    for d in range(45):
        mac = f"02:00:00:00:{d >> 8:02x}:{d & 0xff:02x}"
        devices.append(schema.DeviceRecord(mac, f"model{d % 4}"))
        row = np.empty((1, 217))
        row[0, 0] = 1.7e9
        row[0, 1] = 42.0
        row[0, 2:] = rng.uniform(1e3, 1e9, 215)
        samples[mac] = row
    dataset = schema.Dataset(devices, samples)
    schema.write_dataset(dataset, tmp_path)

    csv_files = sorted(tmp_path.glob("*.csv"))
    assert len(csv_files) == 45
    assert len((tmp_path / "MAC-Model.txt").read_text().splitlines()) == 45
    expected_header = ",".join(schema.DEFAULT_SCHEMA.columns)
    for path in csv_files:
        lines = path.read_text().splitlines()
        assert lines[0] == expected_header
        for line in lines:
            assert len(line.split(",")) == 218
    assert schema.DEFAULT_SCHEMA.columns[:2] == ("timestamp", "temperature")
    assert schema.DEFAULT_SCHEMA.columns[-1] == "mac"
    assert time.time() - started < 1.0
    announce(1, "schema fidelity")


def test_criterion_2_round_trip(tmp_path):
    started = time.time()
    rng = np.random.default_rng(7)
    for case in range(ROUND_TRIP_DATASETS):
        n_devices = int(rng.integers(1, 3))
        devices = []
        samples = {}
        for d in range(n_devices):
            mac = f"02:aa:{case >> 8 & 0xff:02x}:{case & 0xff:02x}:00:{d:02x}"
            devices.append(schema.DeviceRecord(mac, f"m{int(rng.integers(0, 3))}"))
            n_rows = int(rng.integers(1, 4))
            rows = np.empty((n_rows, 217))
            rows[:, 0] = np.sort(rng.uniform(0, 2e9, n_rows))
            rows[:, 1] = rng.uniform(-40, 110, n_rows)
            rows[:, 2:] = np.exp(rng.uniform(0, 27, (n_rows, 215)))
            samples[mac] = rows
        dataset = schema.Dataset(devices, samples)
        directory = tmp_path / f"case{case}"
        schema.write_dataset(dataset, directory)
        recovered = schema.read_dataset(directory)
        assert recovered.equals(dataset)
        rewrite = tmp_path / f"case{case}b"
        schema.write_dataset(recovered, rewrite)
        for path in directory.iterdir():
            assert (rewrite / path.name).read_bytes() == path.read_bytes()
    elapsed = time.time() - started
    assert elapsed < 30.0
    announce(2, f"round trip x{ROUND_TRIP_DATASETS} in {elapsed:.1f}s")


def test_criterion_3_numeric_oracles():
    started = time.time()
    rng = np.random.default_rng(11)

    # pearson against the direct product-moment formula
    for _ in range(20):
        n = int(rng.integers(3, 51))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        mx, my = sum(x) / n, sum(y) / n
        num = sum((a - mx) * (b - my) for a, b in zip(x, y))
        den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(sum((b - my) ** 2 for b in y))
        assert pearson(x, y) == pytest.approx(num / den, rel=RELATIVE_TOLERANCE)

    # min-max against the scalar formula
    for _ in range(10):
        values = rng.normal(size=(int(rng.integers(2, 51)), 4)) * 10
        m = analysis.FeatureMatrix(values, ("a", "b", "c", "d"), np.array(["x"] * len(values)))
        out, _ = minmax_fit_transform(m)
        for j in range(4):
            lo, hi = values[:, j].min(), values[:, j].max()
            for i in range(len(values)):
                expected = (values[i, j] - lo) / (hi - lo) if hi > lo else 0.0
                assert out.values[i, j] == pytest.approx(expected, rel=RELATIVE_TOLERANCE, abs=1e-15)

    # PCA against an independent eigensolver (SVD of the centered matrix)
    for _ in range(5):
        values = rng.normal(size=(50, 5)) * np.array([4.0, 2.5, 1.5, 0.8, 0.3])
        result = pca(values, out_dims=5)
        centered = values - values.mean(axis=0)
        _u, s, vt = np.linalg.svd(centered, full_matrices=False)
        oracle = centered @ vt.T
        for j in range(5):
            direct = np.allclose(result.projection[:, j], oracle[:, j],
                                 rtol=RELATIVE_TOLERANCE, atol=1e-9)
            flipped = np.allclose(result.projection[:, j], -oracle[:, j],
                                  rtol=RELATIVE_TOLERANCE, atol=1e-9)
            assert direct or flipped
        assert np.allclose(result.explained_variance_ratio, s**2 / (s**2).sum(),
                           rtol=RELATIVE_TOLERANCE)

    # k-means objective is monotone non-increasing
    for seed in range(5):
        points = np.random.default_rng(seed).normal(size=(50, 2))
        result = kmeans(points, k=4, seed=seed, n_init=1)
        assert np.all(np.diff(result.wcss_trajectory) <= 1e-9)

    # precision/recall/F1 against brute-force counting
    classes = ["a", "b", "c"]
    for _ in range(10):
        y_true = rng.choice(classes, size=50)
        y_pred = rng.choice(classes, size=50)
        report = classification_report(y_true, y_pred, classes)
        for i, cls in enumerate(classes):
            tp = int(np.sum((y_true == cls) & (y_pred == cls)))
            fp = int(np.sum((y_true != cls) & (y_pred == cls)))
            fn = int(np.sum((y_true == cls) & (y_pred != cls)))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert report.precision[i] == pytest.approx(precision, rel=RELATIVE_TOLERANCE, abs=1e-15)
            assert report.recall[i] == pytest.approx(recall, rel=RELATIVE_TOLERANCE, abs=1e-15)
            assert report.f1[i] == pytest.approx(f1, rel=RELATIVE_TOLERANCE, abs=1e-15)

    elapsed = time.time() - started
    assert elapsed < 10.0
    announce(3, f"numeric oracles in {elapsed:.1f}s")


def test_criterion_4_model_clustering(default_farm_dataset):
    started = time.time()
    matrix = clustering_matrix(default_farm_dataset)
    normalized, _ = minmax_fit_transform(matrix)
    projected = pca(normalized, out_dims=2)
    result = kmeans(projected.projection, k=4, seed=7)
    purity, per_cluster = cluster_purity(result.assignments, matrix.labels)

    assert purity == 1.0
    model_counts = {m: int(np.sum(matrix.labels == m)) for m in np.unique(matrix.labels)}
    assert sorted(result.sizes.tolist()) == sorted(model_counts.values())
    for cluster in per_cluster:
        assert cluster["size"] == model_counts[cluster["majority_label"]]
    elapsed = time.time() - started
    assert elapsed < 120.0
    announce(4, f"model clustering purity 1.0 in {elapsed:.1f}s")


def test_criterion_5_individual_identification(default_farm_dataset):
    started = time.time()
    matrix = identification_matrix(default_farm_dataset)
    train, test = split(matrix, train_fraction=0.8, seed=17)
    forest = train_classifier("random_forest", train, {"n_estimators": 100}, seed=5)
    forest_report = evaluate(forest, test)
    assert forest_report.macro_f1 >= RF_MACRO_F1_FLOOR

    # Heterogeneous per-feature scales: unweighted distances drown, trees do not.
    config = with_heterogeneous_scales(
        default_farm_config(master_seed=404, samples_per_device=200)
    )
    noisy = simulate_dataset(make_farm(config), config.samples_per_device, config.start_time)
    noisy_matrix = identification_matrix(noisy)
    noisy_train, noisy_test = split(noisy_matrix, train_fraction=0.8, seed=17)

    normalized_train, params = minmax_fit_transform(noisy_train)
    normalized_test = minmax_apply(noisy_test, params)
    knn = train_classifier("knn", normalized_train, {"k": 7})
    knn_report = evaluate(knn, normalized_test)

    noisy_forest = train_classifier("random_forest", noisy_train, {"n_estimators": 100}, seed=5)
    noisy_forest_report = evaluate(noisy_forest, noisy_test)
    assert knn_report.macro_f1 < noisy_forest_report.macro_f1

    elapsed = time.time() - started
    assert elapsed < 300.0
    announce(
        5,
        f"identification RF {forest_report.macro_f1:.3f} >= {RF_MACRO_F1_FLOOR}, "
        f"kNN {knn_report.macro_f1:.3f} < RF {noisy_forest_report.macro_f1:.3f} "
        f"in {elapsed:.0f}s",
    )


def test_criterion_6_temperature_correlation():
    started = time.time()
    sleep_columns = set(SLEEP_COLUMNS)

    def device_correlations(model_name: str, n_samples: int = 8000):
        spec = default_models()[model_name]
        config = FarmConfig(models=((spec, 1),), master_seed=909, samples_per_device=n_samples)
        dataset = simulate_dataset(make_farm(config), n_samples, config.start_time)
        matrix = analysis.build_matrix(dataset, "mac", include_temperature=True)
        report = correlation_report(matrix)
        return {k: v for k, v in report.coefficients.items() if k != "temperature"}

    sensitive = device_correlations("RPi3like")
    for feature, r in sensitive.items():
        if feature in sleep_columns:
            assert abs(r) <= CORRELATION_STABLE_CEILING, f"{feature}: |r|={abs(r):.3f}"
        else:
            assert abs(r) >= CORRELATION_SENSITIVE_FLOOR, f"{feature}: |r|={abs(r):.3f}"

    stable = device_correlations("RPi4like")
    for feature, r in stable.items():
        assert abs(r) <= CORRELATION_STABLE_CEILING, f"{feature}: |r|={abs(r):.3f}"

    elapsed = time.time() - started
    assert elapsed < 60.0
    announce(6, f"temperature correlation contrast in {elapsed:.1f}s")


def test_criterion_7_inter_device_densities():
    started = time.time()

    # Two same-model devices with skew difference exactly 8x the jitter sigma.
    spec = dataclasses.replace(
        default_models()["RPi4like"],
        skew_sigma_ppm=0.0,
        offset_sigma_ppm=0.0,
        write_center_split=0.0,
        temp_profile=TempProfile(50.0, 0.0, 0.0),
    )
    half_separation_ppm = 8 * spec.jitter_sigma / 2 / 1e-6
    pair = [
        VirtualDevice(MAC_A, spec, 0.0, -half_separation_ppm, np.zeros(215), 0.0, 1),
        VirtualDevice(MAC_B, spec, 0.0, +half_separation_ppm, np.zeros(215), 0.0, 2),
    ]
    dataset = simulate_dataset(pair, 500, 0.0)
    summary = density_summary(dataset, "cpu_sleep_120s")
    occupied = [set(np.flatnonzero(d.counts).tolist()) for d in summary.devices]
    assert not occupied[0] & occupied[1], "histograms share a bin"

    # Bimodal storage-write farm: per-device write centers form exactly two
    # subpopulations.
    config = FarmConfig(models=((default_models()["RPi4like"], 15),),
                        master_seed=77, samples_per_device=200)
    fleet = simulate_dataset(make_farm(config), config.samples_per_device, config.start_time)
    write_means = np.sort([
        fleet.rows(dev.mac)[:, schema.STORAGE_WRITE_SLICE].mean() for dev in fleet.devices
    ])
    gaps = np.diff(write_means)
    boundary = int(gaps.argmax()) + 1
    low, high = write_means[:boundary], write_means[boundary:]
    assert len(low) >= 1 and len(high) >= 1
    within = max(np.ptp(low), np.ptp(high))
    assert gaps.max() >= 3 * within, "write centers do not separate into two groups"
    second_gap = np.sort(gaps)[-2]
    assert gaps.max() >= 3 * second_gap, "more than two subpopulations"

    elapsed = time.time() - started
    assert elapsed < 60.0
    announce(7, f"density separation and bimodal write centers in {elapsed:.1f}s")


def test_criterion_8_collector_contracts(tmp_path):
    started = time.time()
    model = default_models()["RPi4like"]

    # 800-sample session termination.
    device = make_device(model, MAC_A, 3)
    config = SessionConfig(MAC_A, "RPi4like", tmp_path / "full", samples_per_session=800, seed=1)
    result = run_session(config, VirtualAdapter.for_device(device, 0.0))
    assert result.rows_written == 800
    assert schema.read_dataset(tmp_path / "full").n_samples == 800

    # Atomic rows under kill injection at random sample indices.
    rng = np.random.default_rng(5)
    for kill_index in rng.choice(12, size=4, replace=False):
        out = tmp_path / f"kill{kill_index}"
        injected = make_device(model, MAC_B, int(kill_index) + 10)

        def kill(index, row, target=int(kill_index)):
            if index == target:
                raise RuntimeError("injected kill")

        kill_config = SessionConfig(MAC_B, "RPi4like", out, samples_per_session=12, seed=2)
        outcome = run_session(kill_config, VirtualAdapter.for_device(injected, 0.0), progress=kill)
        assert outcome.aborted
        recovered = schema.read_dataset(out)
        assert recovered.n_samples == int(kill_index) + 1

    # Byte-identical simulator sessions under a fixed seed.
    digests = []
    for name in ("one", "two"):
        out = tmp_path / name
        twin = make_device(model, MAC_A, 21)
        twin_config = SessionConfig(MAC_A, "RPi4like", out, samples_per_session=10, seed=9)
        run_session(twin_config, VirtualAdapter.for_device(twin, 0.0))
        digests.append((out / f"{MAC_A}.csv").read_bytes())
    assert digests[0] == digests[1]

    elapsed = time.time() - started
    assert elapsed < 60.0
    announce(8, f"collector contracts in {elapsed:.1f}s")


def test_criterion_9_real_hardware_smoke(tmp_path):
    started = time.time()
    mac = "02:68:6f:73:74:00"
    config = SessionConfig(
        device_mac=mac,
        device_model="SmokeHost",
        working_dir=tmp_path,
        samples_per_session=3,
        seed=0,
        allow_degraded=True,
    )
    result = run_session(config)
    assert result.rows_written == 3
    assert not result.aborted

    dataset = schema.read_dataset(tmp_path)
    rows = dataset.rows(mac)
    assert np.all(rows[:, schema.FEATURE_OFFSET:] > 0)

    journal = schema.journal_path(tmp_path, mac).read_text().splitlines()
    observers = {
        event["observer"] for event in map(json.loads, journal)
        if event["event"] == "bracket_overhead"
    }
    assert observers == {"timer"}

    sleep_column = 2 + schema.FEATURE_COLUMNS.index("cpu_sleep_1s")
    values = rows[:, sleep_column]
    cv = values.std() / values.mean()
    assert cv <= SLEEP_CV_CEILING, f"cpu_sleep_1s CV {cv:.4f} exceeds {SLEEP_CV_CEILING}"
    announce(9, f"host smoke session in {time.time() - started:.0f}s, cpu_sleep_1s CV {cv:.4f}")
