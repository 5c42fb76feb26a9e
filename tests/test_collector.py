from __future__ import annotations

import gc
import hashlib
import json
import os
import re
import shutil
import signal
import stat
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from skewbench import collector, schema, simulator, workloads
from skewbench.collector import (
    CheckStatus,
    DegradedEnvironment,
    HostAdapter,
    PlatformProbe,
    SessionConfig,
    VirtualAdapter,
    bracket_plan,
    collect_sample,
    preflight,
    read_temperature,
    run_session,
    simulated_stability_report,
)
from skewbench.probes import Component, CounterRegistry, CounterSource, MeasurementInvalid
from skewbench.simulator import (
    default_models,
    make_device,
    model_vectors,
    simulate_device_rows,
)

MAC = "02:53:42:00:00:07"
N_FEATURES = len(schema.FEATURE_COLUMNS)


def sim_device(seed: int = 7, model: str = "RPi4like"):
    return make_device(default_models()[model], MAC, seed)


def wrap_workloads(plan, wrapper):
    """``plan`` with entry i's workload replaced by ``wrapper(i, workload)``."""
    return [(prepare, wrapper(i, workload), *rest)
            for i, (prepare, workload, *rest) in enumerate(plan)]


def journal_events(directory, mac: str = MAC) -> list[dict]:
    """Every event in the session journal that ``mac``'s sessions left in ``directory``."""
    return [json.loads(line)
            for line in schema.journal_path(directory, mac).read_text().splitlines()]


def sim_config(tmp_path, samples: int = 3, **overrides) -> SessionConfig:
    defaults = dict(
        device_mac=MAC,
        device_model="RPi4like",
        working_dir=tmp_path,
        samples_per_session=samples,
        seed=3,
    )
    defaults.update(overrides)
    return SessionConfig(**defaults)


class FakeProbe(PlatformProbe):
    """Injectable host answers for preflight tests."""

    def __init__(self, root, *, policy=None, nice=0, env_seed=None, gc_on=True, cpus=4):
        super().__init__(root)
        self._policy = policy
        self._nice = nice
        self._env_seed = env_seed
        self._gc_on = gc_on
        self._cpus = cpus

    def sched_policy(self):
        return self._policy

    def niceness(self):
        return self._nice

    def hash_seed_env(self):
        return self._env_seed

    def gc_enabled(self):
        return self._gc_on

    def cpu_count(self):
        return self._cpus


def fake_sysfs(tmp_path, governors=None, aslr=None, isolated=None, temp_milli=None):
    root = tmp_path / "root"
    if governors is not None:
        for i, gov in enumerate(governors):
            d = root / f"sys/devices/system/cpu/cpu{i}/cpufreq"
            d.mkdir(parents=True)
            (d / "scaling_governor").write_text(gov + "\n")
    if aslr is not None:
        d = root / "proc/sys/kernel"
        d.mkdir(parents=True)
        (d / "randomize_va_space").write_text(aslr + "\n")
    if isolated is not None:
        d = root / "sys/devices/system/cpu"
        d.mkdir(parents=True, exist_ok=True)
        (d / "isolated").write_text(isolated + "\n")
    if temp_milli is not None:
        d = root / "sys/class/thermal/thermal_zone0"
        d.mkdir(parents=True)
        (d / "temp").write_text(f"{temp_milli}\n")
    return root


class TestPreflight:
    def test_bare_host_all_unknown_or_unsatisfied(self, tmp_path):
        probe = FakeProbe(tmp_path / "root", nice=0, env_seed=None, gc_on=True)
        report = preflight(sim_config(tmp_path), probe)
        assert report.degraded
        for status in report.checks.values():
            assert status in (CheckStatus.UNKNOWN, CheckStatus.UNSATISFIED)

    def test_every_measure_appears_exactly_once(self, tmp_path):
        report = preflight(sim_config(tmp_path), FakeProbe(tmp_path))
        assert tuple(report.checks) == collector.STABILITY_CHECKS

    def test_performance_governor_satisfied(self, tmp_path):
        root = fake_sysfs(tmp_path, governors=["performance", "performance"])
        report = preflight(sim_config(tmp_path), FakeProbe(root))
        assert report.checks["fixed_frequency"] is CheckStatus.SATISFIED

    def test_mixed_governor_unsatisfied(self, tmp_path):
        root = fake_sysfs(tmp_path, governors=["performance", "ondemand"])
        report = preflight(sim_config(tmp_path), FakeProbe(root))
        assert report.checks["fixed_frequency"] is CheckStatus.UNSATISFIED

    def test_elevated_priority_detected(self, tmp_path):
        probe = FakeProbe(tmp_path, nice=-15)
        report = preflight(sim_config(tmp_path), probe)
        assert report.checks["kernel_priority"] is CheckStatus.SATISFIED

    def test_realtime_policy_detected(self, tmp_path):
        probe = FakeProbe(tmp_path, policy=collector.SCHED_RR)
        report = preflight(sim_config(tmp_path), probe)
        assert report.checks["kernel_priority"] is CheckStatus.SATISFIED

    def test_aslr_states(self, tmp_path):
        root = fake_sysfs(tmp_path, aslr="0")
        assert preflight(sim_config(tmp_path), FakeProbe(root)).checks["aslr_disabled"] is CheckStatus.SATISFIED
        root2 = fake_sysfs(tmp_path / "two", aslr="2")
        assert preflight(sim_config(tmp_path), FakeProbe(root2)).checks["aslr_disabled"] is CheckStatus.UNSATISFIED

    def test_core_isolation(self, tmp_path):
        root = fake_sysfs(tmp_path, isolated="3")
        config = sim_config(tmp_path, pinned_core=3)
        assert preflight(config, FakeProbe(root)).checks["core_isolation"] is CheckStatus.SATISFIED
        config_wrong = sim_config(tmp_path, pinned_core=1)
        assert preflight(config_wrong, FakeProbe(root)).checks["core_isolation"] is CheckStatus.UNSATISFIED

    def test_single_core_isolation_not_applicable(self, tmp_path):
        probe = FakeProbe(tmp_path, cpus=1)
        assert preflight(sim_config(tmp_path), probe).checks["core_isolation"] is CheckStatus.NOT_APPLICABLE

    def test_hash_seed_and_gc(self, tmp_path):
        probe = FakeProbe(tmp_path, env_seed="0", gc_on=False)
        report = preflight(sim_config(tmp_path), probe)
        assert report.checks["fixed_hash_seed"] is CheckStatus.SATISFIED
        assert report.checks["gc_disabled"] is CheckStatus.SATISFIED

    def test_simulated_all_not_applicable(self):
        report = simulated_stability_report()
        assert not report.degraded
        assert all(s is CheckStatus.NOT_APPLICABLE for s in report.checks.values())


class TestTemperature:
    def test_thermal_zone_read(self, tmp_path):
        root = fake_sysfs(tmp_path, temp_milli=45200)
        assert read_temperature(PlatformProbe(root)) == 45.2

    def test_sentinel_when_unavailable(self, tmp_path):
        assert read_temperature(PlatformProbe(tmp_path / "nowhere")) == -273.0

    def test_simulator_passthrough(self, tmp_path):
        adapter = VirtualAdapter.for_device(sim_device(), start_time=0.0)
        temp = adapter.read_temperature()
        profile = default_models()["RPi4like"].temp_profile
        assert abs(temp - profile.mean_c) < 5.0


class TestCollectSample:
    def test_virtual_sample_matches_simulator_oracle(self, tmp_path):
        device = sim_device(seed=11)
        adapter = VirtualAdapter.for_device(device, start_time=500.0)
        config = sim_config(tmp_path)
        row = collect_sample(config, adapter, bracket_plan(adapter))
        expected = simulate_device_rows(device, 1, start_time=500.0)[0]
        assert np.array_equal(row, expected)

    def test_two_samples_monotone_timestamps(self, tmp_path):
        adapter = VirtualAdapter.for_device(sim_device(), start_time=0.0)
        config = sim_config(tmp_path)
        plan = bracket_plan(adapter)
        first = collect_sample(config, adapter, plan)
        second = collect_sample(config, adapter, plan)
        assert second[schema.TIMESTAMP_INDEX] >= first[schema.TIMESTAMP_INDEX]

    def test_exactly_one_workload_invocation_per_bracket(self, tmp_path):
        counts = [0] * N_FEATURES

        def counted(i, workload):
            def run():
                counts[i] += 1
                return workload()
            return run

        adapter = VirtualAdapter.for_device(sim_device(), start_time=0.0)
        collect_sample(sim_config(tmp_path), adapter, wrap_workloads(bracket_plan(adapter), counted))
        assert counts == [1] * N_FEATURES

    def test_cpu_features_observed_by_gpu_counter(self, tmp_path):
        device = sim_device()
        adapter = VirtualAdapter.for_device(device, start_time=0.0)
        plan = bracket_plan(adapter)
        seen = []

        def spy(i, workload):
            def run():
                seen.append((schema.FEATURE_COLUMNS[i], plan[i][-1]))
                return workload()
            return run

        for _, _, read, _, observer_id in plan:
            assert read is adapter.registry.reader(observer_id)
        collect_sample(sim_config(tmp_path), adapter, wrap_workloads(plan, spy))
        observers = dict(seen)
        assert len(observers) == N_FEATURES
        assert observers["cpu_sleep_1s"] == "gpu-sim"
        assert observers["cpu_fib"] == "gpu-sim"
        assert observers["gpu_matrixmul"] == "cpu-sim"
        assert observers["storage_write_100"] == "cpu-sim"


    def test_host_bracket_holds_only_the_workload(self, tmp_path, monkeypatch):
        # A counting reader and logging workloads (which stand in for the real
        # ones) show what runs between the two reads of each bracket.
        monkeypatch.setattr(workloads, "URANDOM_BYTES", 64 * 1024)
        events = []

        def counting_read():
            events.append("read")
            return len(events)

        def logged_prepare(prepare):
            def run():
                events.append("prepare")
                prepare()
            return run

        registry = CounterRegistry(include_host_timer=False)
        registry.register(CounterSource("timer", Component.TIMER), counting_read)
        config = sim_config(tmp_path)
        adapter = HostAdapter(config, probe=FakeProbe(tmp_path / "root"), registry=registry)
        adapter.setup()
        try:
            expected = []
            plan = []
            for prepare, _, read, period, observer_id in bracket_plan(adapter):
                if prepare is not None:
                    expected.append("prepare")
                    prepare = logged_prepare(prepare)
                expected += ["read", "workload", "read"]
                plan.append((prepare, lambda: events.append("workload"), read, period, observer_id))
            row = collect_sample(config, adapter, plan)
        finally:
            adapter.teardown()
        assert events == expected
        assert expected.count("prepare") == 100  # one cache drop per storage read
        assert np.array_equal(row[schema.FEATURE_OFFSET:], np.full(N_FEATURES, 2.0))

    def test_mac_model_fsynced_before_first_row(self, tmp_path, monkeypatch):
        order = []
        fsync, format_rows = os.fsync, schema.format_rows

        def logged_fsync(fd):
            order.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def logged_format_rows(*args, **kwargs):
            order.append(("row", None))
            return format_rows(*args, **kwargs)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(schema, "format_rows", logged_format_rows)
        run_session(sim_config(tmp_path, samples=2), VirtualAdapter.for_device(sim_device(), 0.0))
        mac_model = ("fsync", (tmp_path / "MAC-Model.txt").stat().st_ino)
        assert mac_model in order
        assert order.index(mac_model) < order.index(("row", None))

    def test_directory_fsynced_before_first_row(self, tmp_path, monkeypatch):
        order = []
        fsync, format_rows = os.fsync, schema.format_rows

        def logged_fsync(fd):
            order.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode), os.fstat(fd).st_ino))
            fsync(fd)

        def logged_format_rows(*args, **kwargs):
            order.append(("row",))
            return format_rows(*args, **kwargs)

        monkeypatch.setattr(os, "fsync", logged_fsync)
        monkeypatch.setattr(schema, "format_rows", logged_format_rows)
        run_session(sim_config(tmp_path, samples=2), VirtualAdapter.for_device(sim_device(), 0.0))
        directory = ("fsync", True, tmp_path.stat().st_ino)
        assert order.count(directory) == 1
        assert order.index(directory) < order.index(("row",))
        assert order.index(directory) > order.index(
            ("fsync", False, (tmp_path / "MAC-Model.txt").stat().st_ino))


class TestRunSession:
    def test_three_rows(self, tmp_path):
        config = sim_config(tmp_path, samples=3)
        adapter = VirtualAdapter.for_device(sim_device(), start_time=0.0)
        result = run_session(config, adapter)
        assert result.rows_written == 3
        assert not result.aborted
        lines = result.csv_path.read_text().splitlines()
        assert len(lines) == 4  # header + 3 rows
        ds = schema.read_dataset(tmp_path)
        assert ds.n_samples == 3
        assert ds.devices == [schema.DeviceRecord(MAC, "RPi4like")]

    def test_session_rows_equal_direct_simulation(self, tmp_path):
        device = sim_device(seed=23)
        config = sim_config(tmp_path, samples=4)
        run_session(config, VirtualAdapter.for_device(device, start_time=100.0))
        ds = schema.read_dataset(tmp_path)
        direct = simulate_device_rows(device, 4, start_time=100.0)
        assert np.array_equal(ds.rows(MAC), direct)

    def test_byte_identical_under_fixed_seed(self, tmp_path):
        for sub in ("a", "b"):
            device = sim_device(seed=5)
            config = sim_config(tmp_path / sub, samples=5)
            run_session(config, VirtualAdapter.for_device(device, start_time=0.0))
        a = (tmp_path / "a" / f"{MAC}.csv").read_bytes()
        b = (tmp_path / "b" / f"{MAC}.csv").read_bytes()
        assert a == b

    def test_kill_injection_leaves_valid_csv(self, tmp_path):
        for kill_at in (0, 2, 4):
            out = tmp_path / f"kill{kill_at}"
            device = sim_device(seed=kill_at)

            def killer(index, row):
                if index == kill_at:
                    raise KeyboardInterrupt("injected kill")

            config = sim_config(out, samples=6)
            result = run_session(config, VirtualAdapter.for_device(device, 0.0), progress=killer)
            assert result.aborted
            assert result.rows_written == kill_at + 1
            ds = schema.read_dataset(out)  # parses with the full schema
            assert ds.n_samples == kill_at + 1

    def test_sigkill_mid_session_keeps_journal(self, tmp_path):
        script = (
            "import os, signal, sys\n"
            "from skewbench.collector import SessionConfig, VirtualAdapter, run_session\n"
            "from skewbench.simulator import default_models, make_device\n"
            f"device = make_device(default_models()['RPi4like'], {MAC!r}, 7)\n"
            "def kill(index, row):\n"
            "    if index == 5:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            f"config = SessionConfig({MAC!r}, 'RPi4like', sys.argv[1], samples_per_session=50)\n"
            "run_session(config, VirtualAdapter.for_device(device, 0.0), progress=kill)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(collector.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == -signal.SIGKILL, done.stderr
        assert schema.read_dataset(tmp_path).n_samples == 6
        events = journal_events(tmp_path)
        kinds = [e["event"] for e in events]
        assert kinds[:2] == ["session_start", "preflight"]
        assert [e["index"] for e in events if e["event"] == "sample"] == [0, 1, 2, 3, 4, 5]
        assert kinds[-1] == "sample" and "session_end" not in kinds

    def test_degraded_host_refused_without_flag(self, tmp_path):
        config = sim_config(tmp_path, samples=1, allow_degraded=False)
        probe = FakeProbe(tmp_path / "root")
        adapter = HostAdapter(config, probe=probe)
        with pytest.raises(DegradedEnvironment):
            run_session(config, adapter)
        assert not (tmp_path / f"{MAC}.csv").exists()
        events = journal_events(tmp_path)
        assert [e["event"] for e in events] == ["session_start", "preflight"]
        assert events[1]["degraded"]

    def test_require_fixed_frequency(self, tmp_path):
        config = sim_config(tmp_path, samples=1, allow_degraded=True, require_fixed_frequency=True)
        adapter = HostAdapter(config, probe=FakeProbe(tmp_path / "root"))
        with pytest.raises(DegradedEnvironment, match="fixed frequency"):
            run_session(config, adapter)

    def test_virtual_session_not_degraded(self, tmp_path):
        config = sim_config(tmp_path, samples=1, allow_degraded=False)
        result = run_session(config, VirtualAdapter.for_device(sim_device(), 0.0))
        assert not result.degraded
        assert result.rows_written == 1

    def test_session_log_written(self, tmp_path):
        config = sim_config(tmp_path, samples=2)
        run_session(config, VirtualAdapter.for_device(sim_device(), 0.0))
        events = journal_events(tmp_path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "session_start"
        assert "preflight" in kinds
        assert "bracket_overhead" in kinds
        assert kinds[-1] == "session_end"
        assert sum(1 for e in events if e["event"] == "sample") == 2

    def test_supervisor_restart_appends(self, tmp_path):
        device = sim_device(seed=9)
        cost = model_vectors(device.model).sample_wallclock_s
        config = sim_config(tmp_path, samples=2)
        run_session(config, VirtualAdapter.for_device(device, start_time=0.0))
        run_session(config, VirtualAdapter.for_device(device, start_time=2 * cost))
        ds = schema.read_dataset(tmp_path)
        assert ds.n_samples == 4

    def test_mac_model_conflict_rejected(self, tmp_path):
        run_session(sim_config(tmp_path, samples=1), VirtualAdapter.for_device(sim_device(), 0.0))
        other = sim_config(tmp_path, samples=1, device_model="SomethingElse")
        with pytest.raises(collector.SessionError, match="already registered"):
            run_session(other, VirtualAdapter.for_device(sim_device(), 1e6))

    def test_gc_restored_after_session(self, tmp_path):
        assert gc.isenabled()
        config = sim_config(tmp_path, samples=1)
        run_session(config, VirtualAdapter.for_device(sim_device(), 0.0))
        assert gc.isenabled()

    def test_failed_host_setup_restores_gc_and_ends_session(self, tmp_path):
        torn_down = []

        class BrokenSetup(HostAdapter):
            def setup(self):
                raise OSError("scratch device missing")

            def teardown(self):
                torn_down.append(True)
                super().teardown()

        assert gc.isenabled()
        config = sim_config(tmp_path, samples=1, allow_degraded=True)
        with pytest.raises(OSError, match="scratch device missing"):
            run_session(config, BrokenSetup(config, probe=FakeProbe(tmp_path / "root")))
        assert gc.isenabled()
        assert torn_down == [True]
        events = journal_events(tmp_path)
        assert [e["event"] for e in events] == ["session_start", "preflight", "session_end"]
        assert events[-1]["rows_written"] == 0

    def test_brackets_resolved_once_per_session(self, tmp_path, monkeypatch):
        calls = {"executable": 0, "observer_for": 0}
        executable = VirtualAdapter.executable
        observer_for = collector.observer_for

        def counted_executable(self, binding):
            calls["executable"] += 1
            return executable(self, binding)

        def counted_observer_for(registry, target):
            calls["observer_for"] += 1
            return observer_for(registry, target)

        monkeypatch.setattr(VirtualAdapter, "executable", counted_executable)
        monkeypatch.setattr(collector, "observer_for", counted_observer_for)
        result = run_session(sim_config(tmp_path, samples=3), VirtualAdapter.for_device(sim_device(), 0.0))
        assert result.rows_written == 3
        assert calls == {"executable": 215, "observer_for": 215}

    def test_double_wrap_aborts_session(self, tmp_path):
        device = sim_device(seed=9)
        cost = model_vectors(device.model).sample_wallclock_s
        run_session(sim_config(tmp_path, samples=2), VirtualAdapter.for_device(device, 0.0))
        kept = (tmp_path / f"{MAC}.csv").read_bytes()
        # A 28-bit gpu-sim wraps at 2.7e8 counts; cpu_sleep_1s, ~5.0e8 of
        # them, wraps it twice and leaves a residue above half the period.
        adapter = VirtualAdapter.for_device(device, 2 * cost)
        narrow = CounterRegistry(include_host_timer=False)
        for source_id in ("cpu-sim", "gpu-sim"):
            source = adapter.registry.source(source_id)
            width = 28 if source_id == "gpu-sim" else source.width_bits
            narrow.register(replace(source, width_bits=width), adapter.registry.reader(source_id))
        adapter.registry = narrow
        result = run_session(sim_config(tmp_path, samples=2), adapter)
        assert result.aborted and result.rows_written == 0
        assert re.fullmatch(r"sample 0: gpu-sim: delta \d{9} exceeds half the counter period; "
                            r"wrapped more than once or ran backwards", result.abort_reason)
        assert (tmp_path / f"{MAC}.csv").read_bytes() == kept
        failed, end = journal_events(tmp_path)[-2:]
        assert failed == {"event": "sample", "index": 0, "ok": False,
                          "error": result.abort_reason.removeprefix("sample 0: ")}
        assert end["event"] == "session_end" and end["aborted"] and end["rows_written"] == 0

    def test_same_component_observer_refused_before_any_workload(self, tmp_path, monkeypatch):
        adapter = VirtualAdapter.for_device(sim_device(), 0.0)
        monkeypatch.setattr(collector, "observer_for",
                            lambda registry, target: registry.source("gpu-sim"))
        with pytest.raises(MeasurementInvalid, match=(
                "observer gpu-sim belongs to the observed component gpu; "
                "cross-component measurement required")):
            run_session(sim_config(tmp_path, samples=1), adapter)
        assert [adapter.registry.reader(s)() for s in ("cpu-sim", "gpu-sim")] == [0, 0]
        assert not (tmp_path / f"{MAC}.csv").exists()
        events = journal_events(tmp_path)
        assert [e["event"] for e in events] == ["session_start", "preflight", "session_end"]

    def test_session_replays_row_stream_across_block_boundary(self, tmp_path):
        device = sim_device(seed=3)
        adapter = VirtualAdapter.for_device(device, 50.0, sample_seed=99)
        run_session(sim_config(tmp_path, samples=130), adapter)
        expected = simulator.RowStream(device, 50.0, 99).take(130)
        assert np.array_equal(schema.read_dataset(tmp_path).rows(MAC), expected)

    def test_fixed_seed_sessions_digest(self, tmp_path):
        """Every output byte of four seeded virtual sessions, CSVs, journals
        and MAC-Model.txt, is pinned."""
        models = tuple((spec, 1) for spec, _ in simulator.default_farm_config().models)
        farm = simulator.make_farm(simulator.FarmConfig(models=models, master_seed=3))
        for device in farm:
            config = SessionConfig(device.mac, device.model.model_name, tmp_path,
                                   samples_per_session=130, seed=4)
            run_session(config, VirtualAdapter.for_device(device, 1_700_000_000.0, sample_seed=17))
        digest = hashlib.sha256()
        for path in sorted(tmp_path.iterdir(), key=lambda p: p.name):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        assert digest.hexdigest() == "67a508bef54424c7585631865fc9d80421acb05e988e49fdf689dcab2da9066f"


class TestTornTail:
    """A row cut short by a crash is cut off, not appended to."""

    def first_session(self, directory, device):
        run_session(sim_config(directory, samples=3), VirtualAdapter.for_device(device, 0.0))
        return (directory / f"{MAC}.csv").read_bytes(), (directory / "MAC-Model.txt").read_bytes()

    def test_every_cut_inside_last_row(self, tmp_path):
        device = sim_device(seed=13)
        cost = model_vectors(device.model).sample_wallclock_s
        csv_bytes, mac_model = self.first_session(tmp_path / "base", device)
        last_row = csv_bytes.rstrip(b"\n").rfind(b"\n") + 1
        work = tmp_path / "work"
        for cut in range(last_row + 1, len(csv_bytes)):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            (work / f"{MAC}.csv").write_bytes(csv_bytes[:cut])
            (work / "MAC-Model.txt").write_bytes(mac_model)
            result = run_session(sim_config(work, samples=1),
                                 VirtualAdapter.for_device(device, 3 * cost))
            assert not result.aborted
            assert schema.read_dataset(work).n_samples == 3, cut
            assert (work / f"{MAC}.csv.torn").read_bytes() == csv_bytes[last_row:cut] + b"\n"
            repaired = [e for e in journal_events(work) if e["event"] == "repaired_tail"]
            assert repaired == [{"event": "repaired_tail", "file": f"{MAC}.csv",
                                 "kept_bytes": last_row, "torn_bytes": cut - last_row,
                                 "torn_file": f"{MAC}.csv.torn"}]

    def test_torn_mac_model_line(self, tmp_path):
        device = sim_device(seed=13)
        cost = model_vectors(device.model).sample_wallclock_s
        csv_bytes, mac_model = self.first_session(tmp_path / "base", device)
        other = b"02:53:42:00:00:08,RPi3like\n"
        for cut in range(1, len(other)):
            work = tmp_path / f"cut{cut}"
            work.mkdir()
            (work / f"{MAC}.csv").write_bytes(csv_bytes)
            (work / "MAC-Model.txt").write_bytes(mac_model + other[:cut])
            run_session(sim_config(work, samples=1), VirtualAdapter.for_device(device, 3 * cost))
            assert (work / "MAC-Model.txt").read_bytes() == mac_model
            assert schema.read_dataset(work).n_samples == 4
            assert (work / "MAC-Model.txt.torn").read_bytes() == other[:cut] + b"\n"

    def test_every_cut_inside_last_journal_line(self, tmp_path):
        device = sim_device(seed=13)
        cost = model_vectors(device.model).sample_wallclock_s
        csv_bytes, mac_model = self.first_session(tmp_path / "base", device)
        journal_name = schema.journal_path(tmp_path, MAC).name
        journal = (tmp_path / "base" / journal_name).read_bytes()
        last_line = journal.rstrip(b"\n").rfind(b"\n") + 1
        work = tmp_path / "work"
        for cut in range(last_line + 1, len(journal)):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir()
            (work / f"{MAC}.csv").write_bytes(csv_bytes)
            (work / "MAC-Model.txt").write_bytes(mac_model)
            (work / journal_name).write_bytes(journal[:cut])
            run_session(sim_config(work, samples=1), VirtualAdapter.for_device(device, 3 * cost))
            assert (work / f"{journal_name}.torn").read_bytes() == journal[last_line:cut] + b"\n"
            events = journal_events(work)  # every line parses
            assert (work / journal_name).read_bytes().startswith(journal[:last_line]), cut
            start = journal[:last_line].count(b"\n")
            assert [e["event"] for e in events[start:start + 2]] == ["session_start", "repaired_tail"]
            assert events[start + 1] == {"event": "repaired_tail", "file": journal_name,
                                         "kept_bytes": last_line, "torn_bytes": cut - last_line,
                                         "torn_file": f"{journal_name}.torn"}
            assert events[-1]["event"] == "session_end"
            assert schema.read_dataset(work).n_samples == 4

    def test_clean_file_untouched(self, tmp_path):
        device = sim_device(seed=13)
        cost = model_vectors(device.model).sample_wallclock_s
        csv_bytes, _ = self.first_session(tmp_path, device)
        run_session(sim_config(tmp_path, samples=1), VirtualAdapter.for_device(device, 3 * cost))
        assert (tmp_path / f"{MAC}.csv").read_bytes().startswith(csv_bytes)
        assert not list(tmp_path.glob("*.torn"))
        assert all(e["event"] != "repaired_tail" for e in journal_events(tmp_path))

    def test_foreign_header_refused(self, tmp_path):
        header = ",".join(schema.AGGREGATED_SCHEMA.columns) + "\n"
        (tmp_path / f"{MAC}.csv").write_text(header)
        with pytest.raises(collector.SessionError, match="header"):
            run_session(sim_config(tmp_path, samples=1), VirtualAdapter.for_device(sim_device(), 0.0))
        assert (tmp_path / f"{MAC}.csv").read_text() == header


class TestSharedFormat:
    """Sessions read and append the dataset directory with the reader's rules."""

    MAC = "02:ab:cd:00:00:01"

    def run(self, directory, listed: str):
        directory.mkdir(exist_ok=True)
        (directory / "MAC-Model.txt").write_text(listed)
        device = make_device(default_models()["RPi4like"], self.MAC, 7)
        config = SessionConfig(self.MAC, "RPi4like", directory, samples_per_session=2)
        return run_session(config, VirtualAdapter.for_device(device, 0.0))

    def test_upper_case_mac_line_not_repeated(self, tmp_path):
        listed = f"{self.MAC.upper()},RPi4like\n"
        assert self.run(tmp_path, listed).rows_written == 2
        assert (tmp_path / "MAC-Model.txt").read_text() == listed
        ds = schema.read_dataset(tmp_path)
        assert ds.devices == [schema.DeviceRecord(self.MAC, "RPi4like")]
        assert ds.n_samples == 2

    def test_space_after_comma(self, tmp_path):
        listed = f"{self.MAC}, RPi4like\n"
        result = self.run(tmp_path, listed)
        assert not result.aborted and result.rows_written == 2
        assert (tmp_path / "MAC-Model.txt").read_text() == listed
        assert schema.read_dataset(tmp_path).n_samples == 2

    def test_malformed_mac_model_refused_before_any_row(self, tmp_path):
        with pytest.raises(schema.SchemaViolation, match="line 1: expected 'MAC,model'") as refused:
            self.run(tmp_path, "garbage line\n")
        with pytest.raises(schema.SchemaViolation) as unreadable:
            schema.read_dataset(tmp_path)
        assert str(refused.value) == str(unreadable.value)
        assert (tmp_path / "MAC-Model.txt").read_text() == "garbage line\n"
        assert not schema.csv_path(tmp_path, self.MAC).exists()

    @pytest.mark.parametrize("model", ["RPi,4", "RPi\n4", "RPi\r4"])
    def test_model_tag_with_separator_refused(self, tmp_path, model):
        with pytest.raises(ValueError, match="invalid model tag"):
            SessionConfig(self.MAC, model, tmp_path)

    def test_sessions_write_what_write_dataset_writes(self, tmp_path):
        """CSVs and MAC-Model.txt of a 3-device farm's sessions are the bytes
        write_dataset gives for the same rows; journals are not compared."""
        models = tuple((spec, 1) for spec, _ in simulator.default_farm_config().models[:3])
        farm = simulator.make_farm(simulator.FarmConfig(models=models, master_seed=8))
        start = 1_700_000_000.0
        for device in farm:
            config = SessionConfig(device.mac, device.model.model_name, tmp_path / "collected",
                                   samples_per_session=6)
            run_session(config, VirtualAdapter.for_device(device, start))
        schema.write_dataset(simulator.simulate_dataset(farm, 6, start), tmp_path / "written")

        def files(directory):
            return {p.name: p.read_bytes() for p in directory.iterdir()
                    if not p.name.endswith(".session.jsonl")}

        written = files(tmp_path / "written")
        assert len(written) == 4
        assert files(tmp_path / "collected") == written
