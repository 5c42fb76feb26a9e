from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from skewbench import analysis, cli, schema
from skewbench.cli import main
from skewbench.collector import SessionConfig, SessionError
from skewbench.simulator import (
    FarmConfig,
    default_farm_config,
    default_models,
    farm_config_from_json,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = REPO_ROOT / "configs"


@pytest.fixture(scope="module")
def tiny_farm_config(tmp_path_factory) -> Path:
    obj = json.loads((CONFIGS / "default_farm.json").read_text())
    obj["models"] = [dict(entry, count=2) for entry in obj["models"]
                     if entry["spec"]["model_name"] in ("RPi4like", "RPi3like")]
    obj.update(master_seed=5, samples_per_device=6)
    assert farm_config_from_json(obj) == FarmConfig(
        models=((default_models()["RPi4like"], 2), (default_models()["RPi3like"], 2)),
        master_seed=5,
        samples_per_device=6,
    )
    path = tmp_path_factory.mktemp("config") / "farm.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture(scope="module")
def tiny_dataset_dir(tmp_path_factory, tiny_farm_config) -> Path:
    out = tmp_path_factory.mktemp("dataset")
    assert main(["simulate", "--config", str(tiny_farm_config), "--out", str(out)]) == 0
    return out


def dir_digest(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


class TestSimulate:
    def test_default_farm_config_yields_45_files(self, tmp_path):
        out = tmp_path / "fleet"
        code = main([
            "simulate", "--config", str(CONFIGS / "default_farm.json"),
            "--out", str(out), "--samples-per-device", "1",
        ])
        assert code == 0
        assert len(list(out.glob("*.csv"))) == 45
        assert len((out / "MAC-Model.txt").read_text().splitlines()) == 45

    def test_shipped_config_matches_builtin_defaults(self):
        shipped = farm_config_from_json(json.loads((CONFIGS / "default_farm.json").read_text()))
        assert shipped == default_farm_config(master_seed=1, samples_per_device=50)

    def test_zero_samples_rejected(self, tmp_path, tiny_farm_config):
        code = main([
            "simulate", "--config", str(tiny_farm_config),
            "--out", str(tmp_path / "x"), "--samples-per-device", "0",
        ])
        assert code == 1

    def test_same_seed_byte_identical(self, tmp_path, tiny_farm_config):
        for name in ("a", "b"):
            assert main(["simulate", "--config", str(tiny_farm_config), "--out", str(tmp_path / name)]) == 0
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_seed_override_changes_output(self, tmp_path, tiny_farm_config):
        assert main(["simulate", "--config", str(tiny_farm_config), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--config", str(tiny_farm_config), "--out", str(tmp_path / "b"), "--seed", "99"]) == 0
        assert dir_digest(tmp_path / "a") != dir_digest(tmp_path / "b")

    def test_missing_config_exits_1_naming_path(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "nope.json" in capsys.readouterr().err

    def test_misspelt_config_key_exits_1(self, tmp_path, capsys, tiny_farm_config):
        obj = json.loads(tiny_farm_config.read_text())
        obj["samples_per_devic"] = 7
        config = tmp_path / "typo.json"
        config.write_text(json.dumps(obj))
        code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "samples_per_devic" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_unwritable_out_exits_1_without_traceback(self, tmp_path, capsys, tiny_farm_config):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = main(["simulate", "--config", str(tiny_farm_config), "--out", str(blocker / "fleet")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestCollect:
    def test_simulated_session_three_rows(self, tmp_path):
        out = tmp_path / "session"
        code = main([
            "collect", "--config", str(CONFIGS / "sim_device.json"),
            "--out", str(out), "--samples", "3",
        ])
        assert code == 0
        ds = schema.read_dataset(out)
        assert ds.n_samples == 3

    def test_missing_config(self, tmp_path, capsys):
        code = main(["collect", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
        assert code == 1
        assert "absent.json" in capsys.readouterr().err

    def test_degraded_host_refused_without_flag(self, tmp_path, capsys):
        config = tmp_path / "host.json"
        config.write_text(json.dumps({
            "kind": "host", "mac": "02:68:6f:73:74:00", "model": "DevHost",
            "samples_per_session": 1, "seed": 0,
        }))
        code = main(["collect", "--config", str(config), "--out", str(tmp_path / "out")])
        # Sandbox and CI hosts do not satisfy the stability measures, so the
        # run must be refused before any sampling.
        assert code == 1
        assert "degraded" in capsys.readouterr().err.lower()

    def test_collect_deterministic(self, tmp_path):
        for name in ("a", "b"):
            code = main([
                "collect", "--config", str(CONFIGS / "sim_device.json"),
                "--out", str(tmp_path / name), "--samples", "2", "--seed", "42",
            ])
            assert code == 0
        mac = json.loads((CONFIGS / "sim_device.json").read_text())["mac"]
        assert (tmp_path / "a" / f"{mac}.csv").read_bytes() == (tmp_path / "b" / f"{mac}.csv").read_bytes()

    def test_misspelt_session_key_exits_1(self, tmp_path, capsys):
        obj = json.loads((CONFIGS / "sim_device.json").read_text())
        del obj["samples_per_session"]
        obj["samples_per_sesion"] = 2
        config = tmp_path / "typo.json"
        config.write_text(json.dumps(obj))
        code = main(["collect", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: session config: unknown keys ['samples_per_sesion']\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_simulated_keys_on_host_config_exit_1(self, tmp_path, capsys):
        obj = json.loads((CONFIGS / "sim_device.json").read_text())
        del obj["kind"]
        config = tmp_path / "no_kind.json"
        config.write_text(json.dumps(obj))
        code = main(["collect", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: session config: keys ['device_seed', 'model_spec', 'start_time'] "
            "apply only to kind simulated\n"
        )
        assert not (tmp_path / "out").exists()

    def test_malformed_mac_model_exits_1_naming_the_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "MAC-Model.txt").write_text("garbage line\n")
        code = main(["collect", "--config", str(CONFIGS / "sim_device.json"),
                     "--out", str(out), "--samples", "2"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {out / 'MAC-Model.txt'}: line 1: expected 'MAC,model'\n")
        assert not list(out.glob("*.csv"))
        assert (out / "MAC-Model.txt").read_text() == "garbage line\n"

    @pytest.mark.parametrize("model", ["RPi,4", "RPi\n4"])
    def test_model_tag_with_separator_exits_1(self, tmp_path, capsys, model):
        obj = json.loads((CONFIGS / "sim_device.json").read_text())
        obj["model"] = model
        config = tmp_path / "bad_model.json"
        config.write_text(json.dumps(obj))
        code = main(["collect", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--samples", "2"])
        assert code == 1
        assert capsys.readouterr().err == f"error: invalid model tag: {model!r}\n"
        assert not (tmp_path / "out").exists()

    def test_omitted_keys_take_session_defaults(self, tmp_path, monkeypatch):
        seen = []

        def stop(config, adapter):
            seen.append(config)
            raise SessionError("stopped before sampling")

        monkeypatch.setattr(cli, "run_session", stop)
        obj = {k: v for k, v in json.loads((CONFIGS / "sim_device.json").read_text()).items()
               if k in ("kind", "mac", "model", "model_spec")}
        config = tmp_path / "minimal.json"
        config.write_text(json.dumps(obj))
        assert main(["collect", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--seed", "5"]) == 1
        assert seen == [SessionConfig(obj["mac"], obj["model"], tmp_path / "out", seed=5)]


class TestMalformedConfig:
    @pytest.mark.parametrize("command, config, edit, key", [
        pytest.param("simulate", "default_farm.json",
                     lambda o: o["models"][0]["spec"].pop("cpu_freq_hz"), "cpu_freq_hz",
                     id="simulate-missing-cpu_freq_hz"),
        pytest.param("simulate", "default_farm.json",
                     lambda o: o["models"][0]["spec"].update(cpu_freq_hz=[1]), "cpu_freq_hz",
                     id="simulate-type-cpu_freq_hz"),
        pytest.param("collect", "sim_device.json", lambda o: o.pop("mac"), "mac",
                     id="collect-missing-mac"),
        pytest.param("collect", "sim_device.json", lambda o: o.pop("model_spec"), "model_spec",
                     id="collect-missing-model_spec"),
        pytest.param("collect", "sim_device.json", lambda o: o.update(seed="1"), "seed",
                     id="collect-type-seed"),
        pytest.param("collect", "sim_device.json", lambda o: o["model_spec"].pop("gpu_freq_hz"),
                     "gpu_freq_hz", id="collect-missing-spec-gpu_freq_hz"),
    ])
    def test_exits_1_naming_the_key(self, tmp_path, capsys, command, config, edit, key):
        obj = json.loads((CONFIGS / config).read_text())
        edit(obj)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_non_object_session_config(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert main(["collect", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: session config: expected a JSON object, got list\n"


class TestAnalysisCommands:
    def test_cluster_report(self, tmp_path, tiny_dataset_dir):
        out = tmp_path / "cluster"
        code = main(["cluster", str(tiny_dataset_dir), "--out", str(out), "--k", "2", "--seed", "3"])
        assert code == 0
        report = json.loads((out / "cluster_report.json").read_text())
        assert report["k"] == 2
        assert report["purity"] == 1.0
        assert sum(report["cluster_sizes"]) == report["n_rows"]
        lines = (out / "projections.csv").read_text().splitlines()
        assert lines[0] == "x,y,cluster,label"
        assert len(lines) == 1 + report["n_rows"]

    def test_identify_report(self, tmp_path, tiny_dataset_dir):
        out = tmp_path / "identify"
        code = main(["identify", str(tiny_dataset_dir), "--out", str(out), "--algo", "decision_tree"])
        assert code == 0
        report = json.loads((out / "identification_report.json").read_text())
        assert report["algo"] == "decision_tree"
        assert not report["normalized"]
        assert set(report["macro"]) == {"precision", "recall", "f1"}
        confusion = (out / "confusion_matrix.csv").read_text().splitlines()
        assert len(confusion) == 1 + len(report["classes"])

    def test_identify_knn_is_normalized(self, tmp_path, tiny_dataset_dir):
        out = tmp_path / "knn"
        assert main(["identify", str(tiny_dataset_dir), "--out", str(out), "--algo", "knn"]) == 0
        report = json.loads((out / "identification_report.json").read_text())
        assert report["normalized"]

    def test_correlate_all_devices(self, tmp_path, tiny_farm_config):
        # needs >= 30 rows per device
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(tiny_farm_config), "--out", str(data),
                     "--samples-per-device", "40"]) == 0
        out = tmp_path / "corr"
        assert main(["correlate", str(data), "--out", str(out)]) == 0
        report = json.loads((out / "correlation_report.json").read_text())
        assert len(report["devices"]) == 4
        any_device = next(iter(report["devices"].values()))
        assert any_device["temperature"] == pytest.approx(1.0)

    def test_correlate_unknown_mac(self, tmp_path, tiny_dataset_dir, capsys):
        code = main(["correlate", str(tiny_dataset_dir), "--out", str(tmp_path / "x"),
                     "--mac", "02:ff:ff:ff:ff:ff"])
        assert code == 1

    def test_correlate_mac_case_insensitive(self, tmp_path, tiny_farm_config):
        data = tmp_path / "data"
        assert main(["simulate", "--config", str(tiny_farm_config), "--out", str(data),
                     "--samples-per-device", "40"]) == 0
        mac = schema.read_dataset(data).devices[-1].mac
        out = tmp_path / "corr"
        assert main(["correlate", str(data), "--out", str(out), "--mac", f" {mac.upper()} "]) == 0
        report = json.loads((out / "correlation_report.json").read_text())
        assert list(report["devices"]) == [mac]

    def test_density_outputs(self, tmp_path, tiny_dataset_dir):
        out = tmp_path / "density"
        code = main([
            "density", str(tiny_dataset_dir), "--out", str(out),
            "--feature", "cpu_sleep_120s", "--model", "RPi4like",
        ])
        assert code == 0
        stats = json.loads((out / "density_cpu_sleep_120s_stats.json").read_text())
        assert len(stats["devices"]) == 2
        assert len(stats["bin_edges"]) == 101
        lines = (out / "density_cpu_sleep_120s.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 100

    def test_density_unknown_feature(self, tmp_path, tiny_dataset_dir, capsys):
        for feature in ("not_a_feature", "cpu/fib"):
            code = main(["density", str(tiny_dataset_dir), "--out", str(tmp_path / "x"),
                         "--feature", feature])
            assert code == 1
            assert capsys.readouterr().err == f"error: unknown feature: {feature!r}\n"
        assert not (tmp_path / "x").exists()

    def test_inspect(self, tmp_path, tiny_dataset_dir, capsys):
        code = main(["inspect", str(tiny_dataset_dir), "--out", str(tmp_path / "report")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["total_samples"] == 24
        assert printed["schema_columns"] == 218
        assert printed["models"] == {"RPi4like": 2, "RPi3like": 2}
        written = json.loads((tmp_path / "report" / "dataset_summary.json").read_text())
        assert written == printed

    def test_commands_do_not_mutate_dataset(self, tmp_path, tiny_dataset_dir):
        before = dir_digest(tiny_dataset_dir)
        main(["cluster", str(tiny_dataset_dir), "--out", str(tmp_path / "c"), "--k", "2"])
        main(["identify", str(tiny_dataset_dir), "--out", str(tmp_path / "i")])
        main(["density", str(tiny_dataset_dir), "--out", str(tmp_path / "d"),
              "--feature", "cpu_fib"])
        main(["inspect", str(tiny_dataset_dir)])
        assert dir_digest(tiny_dataset_dir) == before

    def test_analysis_outputs_deterministic(self, tmp_path, tiny_dataset_dir):
        for name in ("a", "b"):
            main(["cluster", str(tiny_dataset_dir), "--out", str(tmp_path / name), "--k", "2", "--seed", "5"])
        assert dir_digest(tmp_path / "a") == dir_digest(tmp_path / "b")

    def test_identify_bad_hyperparameter_exits_1(self, tmp_path, tiny_dataset_dir, monkeypatch, capsys):
        train = analysis.train_classifier
        monkeypatch.setattr(
            analysis, "train_classifier",
            lambda kind, matrix, seed=0: train(kind, matrix, {"max_depth": -1}, seed=seed),
        )
        assert main(["identify", str(tiny_dataset_dir), "--out", str(tmp_path / "i")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: max_depth")
        assert "Traceback" not in err
