"""The benchmark's three workloads, each a closed loop with one caller.

Every workload builds its inputs from the seed in ``setup``, runs one
pipeline per timed iteration through skewbench's public functions, and is
checked between iterations, outside the timing. All fleets come from the
default four-model farm. See README.md in this directory for why each
workload exists and which end-to-end metric each layer moves.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

from skewbench import analysis, collector, schema, simulator
from tracing import Tracer

START_TIME = 1_700_000_000.0
FLEET_SAMPLES = 200          # per device: 45 devices, 9,000 rows
FOREST_TREES = 6             # reduced from the CLI's 100 to fit a timed run
KNN_K = 7
TRAIN_FRACTION = 0.8
SESSION_SAMPLES = 500        # per device: 4 devices, 2,000 rows


_UNTRACED = Tracer(False)


class Checks:
    """Counts correctness checks; every failure is kept by description."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def fleet(seed: int):
    return simulator.make_farm(simulator.default_farm_config(master_seed=seed))


def one_per_model(seed: int):
    models = tuple((spec, 1) for spec, _ in simulator.default_farm_config().models)
    return simulator.make_farm(simulator.FarmConfig(models=models, master_seed=seed))


def dataset_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir())


def hash_dataset_files(h, directory: Path) -> None:
    """Feed the CSVs and MAC-Model.txt (not session journals) into ``h``."""
    for path in sorted(directory.iterdir()):
        if path.suffix in (".csv", ".txt"):
            h.update(path.name.encode())
            h.update(path.read_bytes())


def cluster_models(tracer, dataset: schema.Dataset, seed: int):
    """The ``skewbench cluster`` path: model labels, min-max, PCA, k-means."""
    with tracer.span("analysis.build_matrix"):
        matrix = analysis.clustering_matrix(dataset)
    with tracer.span("analysis.minmax_fit_transform"):
        normalized, _ = analysis.minmax_fit_transform(matrix)
    with tracer.span("analysis.pca"):
        projected = analysis.pca(normalized, out_dims=2)
    k = len(np.unique(matrix.labels))
    with tracer.span("analysis.kmeans") as span:
        result = analysis.kmeans(projected.projection, k=k, seed=seed)
    span.set(lloyd_iters=len(result.wcss_trajectory))
    purity, _ = analysis.cluster_purity(result.assignments, matrix.labels)
    return result, purity


def identify_forest(tracer, dataset: schema.Dataset, seed: int):
    """The ``skewbench identify`` path with a random forest."""
    with tracer.span("analysis.build_matrix"):
        matrix = analysis.identification_matrix(dataset)
    train, test = analysis.split(matrix, TRAIN_FRACTION, seed=seed)
    with tracer.span("analysis.train_classifier.random_forest", trees=FOREST_TREES):
        forest = analysis.train_classifier(
            "random_forest", train, {"n_estimators": FOREST_TREES}, seed=seed
        )
    with tracer.span("analysis.evaluate.random_forest"):
        report = analysis.evaluate(forest, test)
    return forest, train, test, report


def output_quality(dataset: schema.Dataset, seed: int) -> dict[str, float]:
    """Quality metrics of a workload's output, computed off the timed path."""
    _, purity = cluster_models(_UNTRACED, dataset, seed)
    *_, report = identify_forest(_UNTRACED, dataset, seed)
    return {"cluster_purity": purity, "macro_f1": report.macro_f1}


class Workload:
    name = ""
    rows_per_iteration = 0

    def __init__(self, seed: int, tracer, workdir: Path):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir

    def setup(self) -> None:
        """Build the inputs; counted in ``setup_s``."""

    def iteration(self, index: int) -> dict:
        """One timed pipeline run; returns what the checks need."""
        raise NotImplementedError

    def check(self, out: dict, checks: Checks, first: bool) -> None:
        """Correctness checks on one iteration's outputs (untimed)."""

    def digest(self, out: dict) -> str:
        """SHA-256 of the iteration's outputs; equal seeds give equal digests."""
        raise NotImplementedError

    def quality(self, out: dict) -> dict[str, float]:
        """``cluster_purity`` and ``macro_f1`` of this workload's output."""
        raise NotImplementedError

    def release(self, out: dict) -> None:
        """Remove files the iteration wrote."""


class FleetCsv(Workload):
    """simulate → write_dataset → read_dataset → cluster, as the CLI runs it."""

    name = "fleet-csv"

    def setup(self) -> None:
        self.farm = fleet(self.seed)
        self.rows_per_iteration = len(self.farm) * FLEET_SAMPLES

    def iteration(self, index: int) -> dict:
        tracer = self.tracer
        directory = self.workdir / f"iter-{index}"
        with tracer.span("simulator.simulate_dataset", rows=self.rows_per_iteration):
            simulated = simulator.simulate_dataset(self.farm, FLEET_SAMPLES, START_TIME)
        with tracer.span("schema.write_dataset") as write_span:
            schema.write_dataset(simulated, directory)
        with tracer.span("schema.read_dataset") as read_span:
            dataset = schema.read_dataset(directory)
        if tracer.enabled:
            size = dataset_bytes(directory)
            write_span.set(bytes=size)
            read_span.set(bytes=size)
        clusters, purity = cluster_models(tracer, dataset, self.seed)
        return {"dir": directory, "simulated": simulated, "read": dataset,
                "assignments": clusters.assignments, "purity": purity}

    def check(self, out: dict, checks: Checks, first: bool) -> None:
        checks.expect(out["read"].equals(out["simulated"]),
                      "read_dataset differs from the simulated dataset")
        if first:
            rewrite = out["dir"].with_name(out["dir"].name + "-rewrite")
            schema.write_dataset(out["read"], rewrite)
            names = sorted(p.name for p in out["dir"].iterdir())
            same = names == sorted(p.name for p in rewrite.iterdir()) and all(
                (out["dir"] / n).read_bytes() == (rewrite / n).read_bytes() for n in names
            )
            shutil.rmtree(rewrite)
            checks.expect(same, "re-writing the read dataset changed its bytes")

    def digest(self, out: dict) -> str:
        h = hashlib.sha256()
        hash_dataset_files(h, out["dir"])
        h.update(np.asarray(out["assignments"], dtype="<i8").tobytes())
        return h.hexdigest()

    def quality(self, out: dict) -> dict[str, float]:
        *_, report = identify_forest(_UNTRACED, out["read"], self.seed)
        return {"cluster_purity": out["purity"], "macro_f1": report.macro_f1}

    def release(self, out: dict) -> None:
        shutil.rmtree(out["dir"], ignore_errors=True)


class IdentifyForest(Workload):
    """Forest then kNN identification on an in-memory fleet; no CSV I/O."""

    name = "identify-forest"

    def setup(self) -> None:
        farm = fleet(self.seed)
        self.rows_per_iteration = len(farm) * FLEET_SAMPLES
        with self.tracer.span("simulator.simulate_dataset", rows=self.rows_per_iteration):
            self.dataset = simulator.simulate_dataset(farm, FLEET_SAMPLES, START_TIME)

    def iteration(self, index: int) -> dict:
        tracer = self.tracer
        forest, train, test, forest_report = identify_forest(tracer, self.dataset, self.seed)
        with tracer.span("analysis.minmax_fit_transform"):
            normalized_train, params = analysis.minmax_fit_transform(train)
        normalized_test = analysis.minmax_apply(test, params)
        with tracer.span("analysis.train_classifier.knn"):
            knn = analysis.train_classifier("knn", normalized_train, {"k": KNN_K})
        with tracer.span("analysis.evaluate.knn") as span:
            knn_report = analysis.evaluate(knn, normalized_test)
        span.set(macro_f1=knn_report.macro_f1)
        return {"forest": forest, "test": test, "forest_report": forest_report,
                "knn": knn, "normalized_test": normalized_test}

    def digest(self, out: dict) -> str:
        h = hashlib.sha256()
        for model, test in ((out["forest"], out["test"]), (out["knn"], out["normalized_test"])):
            h.update("\n".join(map(str, model.predict(test.values))).encode())
            h.update(b"\0")
        return h.hexdigest()

    def quality(self, out: dict) -> dict[str, float]:
        _, purity = cluster_models(_UNTRACED, self.dataset, self.seed)
        return {"cluster_purity": purity, "macro_f1": out["forest_report"].macro_f1}


class VirtualCollect(Workload):
    """Virtual-time sessions, one flushed CSV row per sample, then a read."""

    name = "virtual-collect"

    def setup(self) -> None:
        self.farm = one_per_model(self.seed)
        self.rows_per_iteration = len(self.farm) * SESSION_SAMPLES
        self._expected: dict[str, np.ndarray] | None = None

    def iteration(self, index: int) -> dict:
        tracer = self.tracer
        directory = self.workdir / f"iter-{index}"
        results = []
        for device in self.farm:
            config = collector.SessionConfig(device.mac, device.model.model_name, directory,
                                             samples_per_session=SESSION_SAMPLES, seed=self.seed)
            adapter = collector.VirtualAdapter.for_device(device, START_TIME)
            with tracer.span("collector.run_session") as span:
                result = collector.run_session(config, adapter)
            span.set(rows=result.rows_written)
            results.append(result)
        with tracer.span("schema.read_dataset") as span:
            dataset = schema.read_dataset(directory)
        if tracer.enabled:
            span.set(bytes=dataset_bytes(directory))
        return {"dir": directory, "results": results, "read": dataset}

    def expected_rows(self) -> dict[str, np.ndarray]:
        if self._expected is None:
            self._expected = {
                d.mac: simulator.simulate_device_rows(d, SESSION_SAMPLES, START_TIME)
                for d in self.farm
            }
        return self._expected

    def check(self, out: dict, checks: Checks, first: bool) -> None:
        expected = self.expected_rows()
        for device, result in zip(self.farm, out["results"]):
            mac = device.mac
            checks.expect(not result.aborted and result.rows_written == SESSION_SAMPLES,
                          f"{mac}: session aborted or short ({result.abort_reason})")
            checks.expect(np.array_equal(out["read"].rows(mac), expected[mac]),
                          f"{mac}: collected rows differ from simulate_device_rows")
            journal = out["dir"] / f"{mac.replace(':', '-')}.session.jsonl"
            try:
                events = [json.loads(line) for line in journal.read_text().splitlines()]
                ok = events[-1]["event"] == "session_end" and not events[-1]["aborted"]
            except (OSError, ValueError, IndexError, KeyError):
                ok = False
            checks.expect(ok, f"{mac}: session journal does not parse or did not end")

    def digest(self, out: dict) -> str:
        h = hashlib.sha256()
        hash_dataset_files(h, out["dir"])
        return h.hexdigest()

    def quality(self, out: dict) -> dict[str, float]:
        return output_quality(out["read"], self.seed)

    def release(self, out: dict) -> None:
        shutil.rmtree(out["dir"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (FleetCsv, IdentifyForest, VirtualCollect)}
