from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from skewbench import schema, simulator
from skewbench.collector import VirtualAdapter, bracket_plan
from skewbench.probes import Component
from skewbench.simulator import (
    DeviceModelSpec,
    FarmConfig,
    TempProfile,
    VirtualDevice,
    _expectation_vector,
    default_farm_config,
    default_models,
    farm_config_from_json,
    make_device,
    make_farm,
    model_vectors,
    modeled_temperature,
    simulate_dataset,
    simulate_device_rows,
)
from skewbench.workloads import FEATURE_BINDINGS, KIND_BY_ID, KINDS

SLEEP_COLUMNS = tuple(b.column for b in FEATURE_BINDINGS if KIND_BY_ID[b.workload_id].sleep)


def with_heterogeneous_scales(config: FarmConfig, noisy_jitter: float = 0.03) -> FarmConfig:
    """Raise the jitter of every GPU, memory and storage workload kind.

    Produces a farm where feature scales are wildly heterogeneous: CPU
    features stay clean while GPU, memory, and storage features drown in
    noise, which unweighted distance metrics cannot shrug off.
    """
    noisy = {k.id: noisy_jitter for k in KINDS if k.component is not Component.CPU}
    models = tuple(
        (dataclasses.replace(spec, jitter_overrides={**spec.jitter_overrides, **noisy}), count)
        for spec, count in config.models
    )
    return dataclasses.replace(config, models=models)


def sample_values(device, vectors, t, rng):
    """Per-sample oracle: the measured temperature and all 215 rounded
    feature values of one sample, from one scalar normal (temperature noise)
    and then one batch of 215 normals (jitters)."""
    z = rng.standard_normal()
    temperature = modeled_temperature(device.model.temp_profile, t) + device.model.temp_profile.noise_sigma_c * z
    eps = rng.standard_normal(len(FEATURE_BINDINGS))
    values = _expectation_vector(device, vectors, temperature) * (1.0 + vectors.jitter * eps)
    return temperature, np.maximum(np.rint(values), 1.0)


def feature_expectation(device: VirtualDevice, column: str, t: float,
                        temperature_c: float | None = None) -> float:
    """Closed-form oracle: the jitter-free value of one feature at virtual time ``t``."""
    if temperature_c is None:
        temperature_c = modeled_temperature(device.model.temp_profile, t)
    values = _expectation_vector(device, model_vectors(device.model), temperature_c)
    return float(values[schema.FEATURE_COLUMNS.index(column)])


def farm_dataset(config: FarmConfig) -> schema.Dataset:
    """The fleet of ``config`` with its configured samples per device."""
    return simulate_dataset(make_farm(config), config.samples_per_device, config.start_time)


def model_spec_to_json(spec: DeviceModelSpec) -> dict:
    """Oracle for a model spec's JSON form: every field of ``spec``."""
    return {
        "model_name": spec.model_name,
        "cpu_freq_hz": spec.cpu_freq_hz,
        "gpu_freq_hz": spec.gpu_freq_hz,
        "op_duration_ns": dict(spec.op_duration_ns),
        "skew_sigma_ppm": spec.skew_sigma_ppm,
        "offset_sigma_ppm": spec.offset_sigma_ppm,
        "jitter_sigma": spec.jitter_sigma,
        "jitter_overrides": dict(spec.jitter_overrides),
        "temp_coeff_sleep": spec.temp_coeff_sleep,
        "temp_coeff_other": spec.temp_coeff_other,
        "temp_coeff_overrides": dict(spec.temp_coeff_overrides),
        "temp_profile": dataclasses.asdict(spec.temp_profile),
        "write_center_split": spec.write_center_split,
    }


def farm_config_to_json(config: FarmConfig) -> dict:
    """Oracle for farm_config_from_json: every field of ``config`` as JSON."""
    return {
        "master_seed": config.master_seed,
        "samples_per_device": config.samples_per_device,
        "start_time": config.start_time,
        "models": [
            {"count": count, "spec": model_spec_to_json(spec)}
            for spec, count in config.models
        ],
    }


def quiet_model(**overrides) -> DeviceModelSpec:
    """RPi4like geometry with all spread knobs zeroed unless overridden."""
    base = default_models()["RPi4like"]
    params = dict(
        skew_sigma_ppm=0.0,
        offset_sigma_ppm=0.0,
        jitter_sigma=0.0,
        temp_coeff_sleep=0.0,
        temp_coeff_other=0.0,
        write_center_split=0.0,
        temp_profile=TempProfile(mean_c=50.0, daily_amplitude_c=0.0, noise_sigma_c=0.0),
    )
    params.update(overrides)
    return dataclasses.replace(base, **params)


def explicit_device(spec: DeviceModelSpec, cpu_skew=0.0, gpu_skew=0.0, mac="02:53:42:00:00:00") -> VirtualDevice:
    return VirtualDevice(
        mac=mac,
        model=spec,
        cpu_skew_ppm=cpu_skew,
        gpu_skew_ppm=gpu_skew,
        feature_offsets=np.zeros(215),
        write_center_shift=0.0,
        rng_seed=1234,
    )


class TestFarm:
    def test_default_fleet_is_45_devices(self):
        farm = make_farm(default_farm_config())
        assert len(farm) == 45
        by_model: dict[str, int] = {}
        for dev in farm:
            by_model[dev.model.model_name] = by_model.get(dev.model.model_name, 0) + 1
        assert by_model == {"RPi4like": 15, "RPi3like": 10, "RPi1like": 10, "RPiZerolike": 10}

    def test_same_seed_identical_farm(self):
        a = make_farm(default_farm_config(master_seed=9))
        b = make_farm(default_farm_config(master_seed=9))
        for da, db in zip(a, b):
            assert da.mac == db.mac
            assert da.cpu_skew_ppm == db.cpu_skew_ppm
            assert da.gpu_skew_ppm == db.gpu_skew_ppm
            assert np.array_equal(da.feature_offsets, db.feature_offsets)
            assert da.rng_seed == db.rng_seed

    def test_different_seed_differs(self):
        a = make_farm(default_farm_config(master_seed=1))
        b = make_farm(default_farm_config(master_seed=2))
        assert a[0].cpu_skew_ppm != b[0].cpu_skew_ppm

    def test_zero_skew_sigma_degenerate(self):
        spec = quiet_model()
        config = FarmConfig(models=((spec, 4),), master_seed=3)
        farm = make_farm(config)
        assert all(d.cpu_skew_ppm == 0.0 and d.gpu_skew_ppm == 0.0 for d in farm)

    def test_macs_unique_and_valid(self):
        farm = make_farm(default_farm_config())
        macs = [d.mac for d in farm]
        assert len(set(macs)) == 45
        assert all(schema.is_valid_mac(m) for m in macs)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            FarmConfig(models=((quiet_model(), 0),))


class TestClosedForm:
    def test_all_zero_gives_exact_nominal(self):
        dev = explicit_device(quiet_model())
        assert feature_expectation(dev, "cpu_sleep_1s", 0.0) == 5.0e8

    def test_100ppm_gpu_skew(self):
        dev = explicit_device(quiet_model(), gpu_skew=100.0)
        expected = 5.0e8 * 1.0001  # 500_050_000
        assert feature_expectation(dev, "cpu_sleep_1s", 0.0) == pytest.approx(expected, rel=1e-12)
        col = 2 + schema.FEATURE_COLUMNS.index("cpu_sleep_1s")
        assert simulate_device_rows(dev, 1, 0.0)[0, col] == 500_050_000.0

    def test_sleep_scales_with_duration(self):
        dev = explicit_device(quiet_model())
        assert feature_expectation(dev, "cpu_sleep_120s", 0.0) == 120 * 5.0e8

    def test_cpu_op_measured_in_gpu_cycles(self):
        dev = explicit_device(quiet_model())
        # 115 us hash at 500 MHz -> 57500 cycles
        assert feature_expectation(dev, "cpu_string_hash", 0.0) == pytest.approx(
            115_000e-9 * 5.0e8, rel=1e-12
        )

    def test_time_features_at_nominal_ns(self):
        dev = explicit_device(quiet_model())
        assert feature_expectation(dev, "storage_read_1", 0.0) == pytest.approx(2_400_000, rel=1e-12)
        assert feature_expectation(dev, "gpu_matrixmul", 0.0) == pytest.approx(10_800_000, rel=1e-12)

    def test_skew_ordering_preserved(self):
        spec = quiet_model()
        low = explicit_device(spec, gpu_skew=-50.0)
        high = explicit_device(spec, gpu_skew=50.0)
        for col in SLEEP_COLUMNS:
            assert feature_expectation(low, col, 0.0) < feature_expectation(high, col, 0.0)

    def test_temperature_moves_non_sleep_features(self):
        spec = quiet_model(temp_coeff_other=1e-3)
        dev = explicit_device(spec)
        cold = feature_expectation(dev, "gpu_matrixmul", 0.0, temperature_c=40.0)
        hot = feature_expectation(dev, "gpu_matrixmul", 0.0, temperature_c=60.0)
        assert hot > cold
        assert hot / cold == pytest.approx((1 + 1e-3 * 10) / (1 - 1e-3 * 10), rel=1e-9)

    def test_temperature_profile_deterministic(self):
        profile = TempProfile(mean_c=50.0, daily_amplitude_c=4.0, noise_sigma_c=0.0)
        assert modeled_temperature(profile, 123.0) == modeled_temperature(profile, 123.0)
        quarter_day = simulator.SECONDS_PER_DAY / 4
        assert modeled_temperature(profile, quarter_day) == pytest.approx(54.0)

    def test_values_rounded_to_counts(self):
        dev = explicit_device(quiet_model(jitter_sigma=5e-4))
        values = simulate_device_rows(dev, 3, 0.0)[:, 2:]
        assert np.array_equal(values, np.rint(values))


def per_sample_rows(device: VirtualDevice, n_samples: int, start_time: float) -> np.ndarray:
    """Reference: one sample_values call per sample, as a session draws them."""
    vectors = model_vectors(device.model)
    rng = np.random.default_rng(device.rng_seed)
    rows = np.empty((n_samples, 217))
    for k in range(n_samples):
        t = start_time + k * vectors.sample_wallclock_s
        temperature, values = sample_values(device, vectors, t, rng)
        rows[k, 0] = t
        rows[k, 1] = temperature
        rows[k, 2:] = values
    return rows


class TestBatchMatchesPerSample:
    @pytest.mark.parametrize("n_samples", [0, 1, 200])
    @pytest.mark.parametrize("master_seed", [1, 7, 1009])
    def test_rows_byte_identical(self, n_samples, master_seed):
        config = with_heterogeneous_scales(default_farm_config(master_seed=master_seed))
        for device in make_farm(config)[::11]:
            batch = simulate_device_rows(device, n_samples, 1_700_000_000.0)
            reference = per_sample_rows(device, n_samples, 1_700_000_000.0)
            assert batch.shape == reference.shape == (n_samples, 217)
            assert batch.tobytes() == reference.tobytes()


class TestSimulatedData:
    def test_row_counts(self):
        config = FarmConfig(models=((quiet_model(), 3),), master_seed=5, samples_per_device=10)
        ds = farm_dataset(config)
        assert ds.n_samples == 30
        assert len(ds.devices) == 3

    def test_timestamps_advance_by_sample_cost(self):
        spec = quiet_model()
        dev = make_device(spec, "02:53:42:00:00:00", 7)
        rows = simulate_device_rows(dev, 3, start_time=1000.0)
        cost = model_vectors(spec).sample_wallclock_s
        assert cost > 138.0  # the sleeps alone
        assert rows[1, 0] - rows[0, 0] == pytest.approx(cost)
        assert rows[2, 0] - rows[1, 0] == pytest.approx(cost)

    def test_deterministic_and_byte_identical(self, tmp_path):
        config = FarmConfig(models=((default_models()["RPi4like"], 2),), master_seed=11, samples_per_device=5)
        a = farm_dataset(config)
        b = farm_dataset(config)
        assert a.equals(b)
        schema.write_dataset(a, tmp_path / "a")
        schema.write_dataset(b, tmp_path / "b")
        for path in (tmp_path / "a").iterdir():
            assert (tmp_path / "b" / path.name).read_bytes() == path.read_bytes()

    def test_dataset_is_schema_valid(self):
        config = default_farm_config(samples_per_device=2)
        ds = farm_dataset(config)
        ds.validate()

    def test_ground_truth_recoverability(self):
        # Mean of cpu_sleep_1s over N samples within 4*jitter/sqrt(N) of the
        # closed form (relative).
        spec = default_models()["RPi4like"]
        dev = make_device(spec, "02:53:42:00:00:00", 21)
        n = 10_000
        rows = simulate_device_rows(dev, n, start_time=0.0)
        col = 2 + schema.FEATURE_COLUMNS.index("cpu_sleep_1s")
        sampled_mean = rows[:, col].mean()
        expected = feature_expectation(dev, "cpu_sleep_1s", 0.0)
        tolerance = 4 * spec.jitter_sigma / np.sqrt(n)
        assert abs(sampled_mean - expected) / expected < tolerance

    def test_between_model_separation_on_sleep(self):
        # 400 vs 500 MHz nominal GPU frequency separates the newest model
        # from the rest by far more than the within-model spread.
        ds = farm_dataset(default_farm_config(samples_per_device=10))
        col = 2 + schema.FEATURE_COLUMNS.index("cpu_sleep_1s")
        by_model: dict[str, list[np.ndarray]] = {}
        for dev in ds.devices:
            by_model.setdefault(dev.model, []).append(ds.rows(dev.mac)[:, col])
        means = {m: np.concatenate(v).mean() for m, v in by_model.items()}
        spreads = {m: np.concatenate(v).std() for m, v in by_model.items()}
        worst_spread = max(spreads.values())
        for other in ("RPi3like", "RPi1like", "RPiZerolike"):
            assert abs(means["RPi4like"] - means[other]) >= 20 * worst_spread

    def test_temp_coeff_zero_gives_no_correlation(self):
        spec = quiet_model(jitter_sigma=5e-4, temp_profile=TempProfile(50.0, 4.0, 0.3))
        dev = make_device(spec, "02:53:42:00:00:00", 3)
        rows = simulate_device_rows(dev, 600, start_time=0.0)
        col = 2 + schema.FEATURE_COLUMNS.index("cpu_sleep_1s")
        r = np.corrcoef(rows[:, 1], rows[:, col])[0, 1]
        assert abs(r) < 0.1

    def test_write_center_split_two_sides(self):
        spec = quiet_model(write_center_split=0.01)
        config = FarmConfig(models=((spec, 12),), master_seed=2)
        farm = make_farm(config)
        shifts = {d.write_center_shift for d in farm}
        assert shifts == {0.005, -0.005}


class TestRuntime:
    """The virtual session backend replays the simulator's rows."""

    def test_sources(self):
        dev = make_device(default_models()["RPi4like"], "02:53:42:00:00:00", 1)
        plan = bracket_plan(VirtualAdapter.for_device(dev, 0.0))
        assert {entry[-1] for entry in plan} == {"cpu-sim", "gpu-sim"}

    def test_counters_monotonic_through_samples(self):
        dev = make_device(default_models()["RPi4like"], "02:53:42:00:00:00", 5)
        adapter = VirtualAdapter.for_device(dev, 0.0)
        reg = adapter.registry
        adapter.read_temperature()
        last = {source_id: reg.reader(source_id)() for source_id in ("cpu-sim", "gpu-sim")}
        for binding in FEATURE_BINDINGS:
            _, workload = adapter.executable(binding)
            workload()
            for source_id, value in last.items():
                now = reg.reader(source_id)()
                assert now >= value
                last[source_id] = now
        assert adapter.samples_done == 1

    def test_workload_order_enforced(self):
        adapter = VirtualAdapter.for_device(explicit_device(quiet_model()), 0.0)
        adapter.read_temperature()
        with pytest.raises(RuntimeError, match="workload order mismatch"):
            adapter.executable(FEATURE_BINDINGS[1])[1]()
        with pytest.raises(RuntimeError, match="previous sample still in progress"):
            adapter.read_temperature()


class TestConfigJson:
    def test_round_trip(self):
        config = default_farm_config(master_seed=77, samples_per_device=9)
        back = farm_config_from_json(farm_config_to_json(config))
        assert back == config

    def test_heterogeneous_scales_override(self):
        config = with_heterogeneous_scales(default_farm_config(), noisy_jitter=0.02)
        for spec, _count in config.models:
            assert spec.jitter_overrides["storage_read"] == 0.02
            assert spec.jitter_overrides["gpu_matrixmul"] == 0.02
            assert "cpu_string_hash" not in spec.jitter_overrides
            assert spec.jitter_sigma == 5e-4

    def test_defaults_fill_in(self):
        obj = {
            "model_name": "tiny",
            "cpu_freq_hz": 1e9,
            "gpu_freq_hz": 4e8,
            "op_duration_ns": {k: 1000.0 for k in simulator.NON_SLEEP_KINDS},
        }
        config = farm_config_from_json({"models": [{"count": 1, "spec": obj}]})
        ((spec, count),) = config.models
        assert count == 1
        assert spec.skew_sigma_ppm == 200.0
        assert spec.jitter_sigma == 5e-4

    @pytest.mark.parametrize("where, key, value", [
        pytest.param("spec", "jitter_sigmaa", 0.5, id="spec-jitter_sigmaa"),
        pytest.param("temp_profile", "mean", 0.5, id="temp_profile-mean"),
        pytest.param("farm", "samples_per_devic", 0.5, id="farm-samples_per_devic"),
        pytest.param("entry", "weight", 0.5, id="entry-weight"),
        # missing required keys
        pytest.param("spec", "cpu_freq_hz", None, id="missing-spec-cpu_freq_hz"),
        pytest.param("spec", "op_duration_ns", None, id="missing-spec-op_duration_ns"),
        pytest.param("farm", "models", None, id="missing-farm-models"),
        pytest.param("entry", "count", None, id="missing-entry-count"),
        # values of the wrong JSON type
        pytest.param("spec", "cpu_freq_hz", [1], id="type-spec-cpu_freq_hz"),
        pytest.param("spec", "model_name", 4, id="type-spec-model_name"),
        pytest.param("spec", "jitter_overrides", [], id="type-spec-jitter_overrides"),
        pytest.param("spec", "temp_profile", 50.0, id="type-spec-temp_profile"),
        pytest.param("temp_profile", "mean_c", "50", id="type-temp_profile-mean_c"),
        pytest.param("farm", "master_seed", 1.5, id="type-farm-master_seed"),
        pytest.param("farm", "samples_per_device", True, id="type-farm-samples_per_device"),
        pytest.param("farm", "models", {}, id="type-farm-models"),
        pytest.param("entry", "spec", [], id="type-entry-spec"),
    ])
    def test_unknown_key_rejected(self, where, key, value):
        """An unknown key, a missing required key (``value`` None) or a
        value of the wrong JSON type raises ValueError naming the key."""
        obj = farm_config_to_json(default_farm_config())
        target = {
            "spec": obj["models"][0]["spec"],
            "temp_profile": obj["models"][0]["spec"]["temp_profile"],
            "farm": obj,
            "entry": obj["models"][0],
        }[where]
        if value is None:
            del target[key]
        else:
            target[key] = value
        with pytest.raises(ValueError, match=key):
            farm_config_from_json(obj)

    @pytest.mark.parametrize("obj", [[], "farm", 1, None])
    def test_non_object_rejected(self, obj):
        with pytest.raises(ValueError, match="farm config: expected a JSON object"):
            farm_config_from_json(obj)

    def test_numbers_take_float_fields(self):
        obj = farm_config_to_json(default_farm_config())
        obj["models"][0]["spec"]["cpu_freq_hz"] = 1_500_000_000
        spec = farm_config_from_json(obj).models[0][0]
        assert spec == default_models()["RPi4like"]
        assert type(spec.cpu_freq_hz) is float
