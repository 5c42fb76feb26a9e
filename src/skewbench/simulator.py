"""Synthetic fleets of virtual devices with fixed per-device clock skew.

The physical model: every device multiplies one base oscillator into
per-component frequencies, and manufacturing spread leaves each device with
a fixed CPU and GPU frequency skew plus a fixed per-feature offset. Each
sample adds independent multiplicative jitter, and temperature moves
features through per-feature linear coefficients. Counter readings are
whole counts, so simulated values are rounded to the nearest integer.

For one feature the model is::

    value = base * (1 + (gpu_skew - cpu_skew) * 1e-6 + offset)
                 * (1 + temp_coeff * (T(t) - T_ref))
                 * (1 + eps),        eps ~ Normal(0, jitter_sigma)

where ``base`` is duration * nominal GPU frequency for CPU-side features
(observed in GPU cycles) and the nominal duration in nanoseconds for
everything else (observed in CPU-side time). ``T(t)`` follows a daily
sinusoid plus Gaussian noise and is deterministic in (seed, t).

:class:`RowStream` is the one generator of a device's rows. Fleets take
their rows from it through :func:`simulate_device_rows`, and the
collector's virtual backend takes one row per sample from it, so a virtual
session writes exactly the simulator's rows.

The JSON config loaders share :func:`json_kwargs`, which takes each key, its
type and its default from the dataclass fields, so each is declared once.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import schema
from .probes import Component
from .workloads import FEATURE_BINDINGS, KIND_BY_ID, KINDS

PPM = 1e-6
DEFAULT_START_TIME = 1_700_000_000.0
SECONDS_PER_DAY = 86400.0

# Every kind but the sleeps needs a nominal duration in op_duration_ns.
NON_SLEEP_KINDS = tuple(k.id for k in KINDS if not k.sleep)

# The columns that write_center_split moves.
_STORAGE_WRITE_MASK = np.array([b.workload_id == "storage_write" for b in FEATURE_BINDINGS])

# Rows per normal draw in RowStream.take; any size gives the same stream and rows.
SIMULATION_BLOCK_ROWS = 64


@dataclass(frozen=True)
class TempProfile:
    """Daily temperature model: mean + amplitude * sin(2*pi*t/day) + noise."""

    mean_c: float = 50.0
    daily_amplitude_c: float = 3.0
    noise_sigma_c: float = 0.3


@dataclass(frozen=True)
class DeviceModelSpec:
    """Nominal frequencies, workload durations, and spread parameters for
    one hardware model.

    ``skew_sigma_ppm`` is the inter-device manufacturing spread of each
    component clock; ``offset_sigma_ppm`` the per-feature device-constant
    spread; ``jitter_sigma`` the per-sample multiplicative noise (relative),
    overridable per workload kind. ``write_center_split`` > 0 puts each
    device's storage-write center on one of two values split by that
    relative amount.
    """

    model_name: str
    cpu_freq_hz: float
    gpu_freq_hz: float
    op_duration_ns: Mapping[str, float]
    skew_sigma_ppm: float = 200.0
    offset_sigma_ppm: float = 600.0
    jitter_sigma: float = 5e-4
    jitter_overrides: Mapping[str, float] = field(default_factory=dict)
    temp_coeff_sleep: float = 0.0
    temp_coeff_other: float = 1e-5
    temp_coeff_overrides: Mapping[str, float] = field(default_factory=dict)
    temp_profile: TempProfile = field(default_factory=TempProfile)
    write_center_split: float = 0.0

    def __post_init__(self):
        if self.cpu_freq_hz <= 0 or self.gpu_freq_hz <= 0:
            raise ValueError("frequencies must be positive")
        if self.skew_sigma_ppm < 0 or self.offset_sigma_ppm < 0 or self.jitter_sigma < 0:
            raise ValueError("spread parameters must be non-negative")
        missing = [k for k in NON_SLEEP_KINDS if k not in self.op_duration_ns]
        if missing:
            raise ValueError(f"op_duration_ns missing kinds: {missing}")


@dataclass(frozen=True)
class ModelVectors:
    """Per-feature arrays derived from a model spec, in schema order."""

    base: np.ndarray          # nominal counter value per feature
    duration_s: np.ndarray    # nominal wall-clock cost per feature
    jitter: np.ndarray        # relative jitter sigma per feature
    temp_coeff: np.ndarray    # relative change per degree C
    is_write: np.ndarray      # storage_write column mask

    @property
    def sample_wallclock_s(self) -> float:
        return float(self.duration_s.sum())


def model_vectors(spec: DeviceModelSpec) -> ModelVectors:
    n = len(FEATURE_BINDINGS)
    base = np.empty(n)
    duration = np.empty(n)
    jitter = np.empty(n)
    coeff = np.empty(n)
    for i, binding in enumerate(FEATURE_BINDINGS):
        kind = binding.workload_id
        if KIND_BY_ID[kind].sleep:
            dur_s = float(binding.variant)
            base[i] = dur_s * spec.gpu_freq_hz
            coeff[i] = spec.temp_coeff_overrides.get(kind, spec.temp_coeff_sleep)
        else:
            dur_s = spec.op_duration_ns[kind] * 1e-9
            if binding.target_component is Component.CPU:
                base[i] = dur_s * spec.gpu_freq_hz
            else:
                base[i] = spec.op_duration_ns[kind]
            coeff[i] = spec.temp_coeff_overrides.get(kind, spec.temp_coeff_other)
        duration[i] = dur_s
        jitter[i] = spec.jitter_overrides.get(kind, spec.jitter_sigma)
    return ModelVectors(base, duration, jitter, coeff, _STORAGE_WRITE_MASK)


@dataclass(frozen=True)
class VirtualDevice:
    """One simulated device: skews and offsets are fixed for its lifetime."""

    mac: str
    model: DeviceModelSpec
    cpu_skew_ppm: float
    gpu_skew_ppm: float
    feature_offsets: np.ndarray   # (215,) relative, device-constant
    write_center_shift: float     # relative, +/- split/2 (0 when unimodal)
    rng_seed: int


@dataclass(frozen=True)
class FarmConfig:
    models: tuple[tuple[DeviceModelSpec, int], ...]
    master_seed: int = 1
    samples_per_device: int = 100
    start_time: float = DEFAULT_START_TIME

    def __post_init__(self):
        if any(count < 1 for _, count in self.models):
            raise ValueError("device counts must be >= 1")
        if self.samples_per_device < 1:
            raise ValueError("samples_per_device must be >= 1")


def make_device(spec: DeviceModelSpec, mac: str, device_seed: int) -> VirtualDevice:
    """Draw one device's fixed parameters from the model distributions."""
    rng = np.random.default_rng(device_seed)
    cpu_skew, gpu_skew = rng.normal(0.0, spec.skew_sigma_ppm, size=2)
    offsets = rng.normal(0.0, spec.offset_sigma_ppm * PPM, size=len(FEATURE_BINDINGS))
    if spec.write_center_split > 0:
        side = 1.0 if rng.random() < 0.5 else -1.0
        shift = side * spec.write_center_split / 2.0
    else:
        rng.random()  # keep the draw count fixed across configurations
        shift = 0.0
    rng_seed = int(rng.integers(0, 2**63))
    return VirtualDevice(mac, spec, float(cpu_skew), float(gpu_skew), offsets, shift, rng_seed)


def _device_mac(model_index: int, device_index: int) -> str:
    return f"02:53:42:{model_index:02x}:{device_index >> 8:02x}:{device_index & 0xff:02x}"


def make_farm(config: FarmConfig) -> list[VirtualDevice]:
    """Deterministic fleet: same config, same devices."""
    devices: list[VirtualDevice] = []
    for model_index, (spec, count) in enumerate(config.models):
        for device_index in range(count):
            seed_seq = np.random.SeedSequence(
                [int(config.master_seed), model_index, device_index]
            )
            device_seed = int(seed_seq.generate_state(1, np.uint64)[0])
            mac = _device_mac(model_index, device_index)
            devices.append(make_device(spec, mac, device_seed))
    return devices


def modeled_temperature(profile: TempProfile, t: float) -> float:
    """Noise-free part of T(t); deterministic in t."""
    phase = 2.0 * math.pi * (t % SECONDS_PER_DAY) / SECONDS_PER_DAY
    return profile.mean_c + profile.daily_amplitude_c * math.sin(phase)


def _expectation_vector(
    device: VirtualDevice, vectors: ModelVectors, temperature_c: float | np.ndarray
) -> np.ndarray:
    """Jitter-free feature values; an ``(n, 1)`` temperature column gives ``(n, 215)``."""
    rel = (device.gpu_skew_ppm - device.cpu_skew_ppm) * PPM
    shift = np.where(vectors.is_write, device.write_center_shift, 0.0)
    scale = 1.0 + rel + device.feature_offsets + shift
    temp_factor = 1.0 + vectors.temp_coeff * (temperature_c - device.model.temp_profile.mean_c)
    return vectors.base * scale * temp_factor


class RowStream:
    """One device's numeric rows in order: timestamp, temperature, then the
    215 rounded feature values.

    Row ``k`` is timestamped ``start_time + k * sample cost``. All rows come
    from one normal stream seeded by ``seed``; each row takes 216 draws, the
    temperature noise and then the 215 jitters. :meth:`take` continues where
    the last call stopped, so the rows do not depend on how many are taken
    at a time.
    """

    def __init__(self, device: VirtualDevice, start_time: float, seed: int):
        self.device = device
        self.vectors = model_vectors(device.model)
        self.start_time = start_time
        self._taken = 0
        self._rng = np.random.default_rng(seed)

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` rows, as an ``(n, 217)`` array."""
        vectors = self.vectors
        profile = self.device.model.temp_profile
        cost = vectors.sample_wallclock_s
        rows = np.empty((n, 2 + len(FEATURE_BINDINGS)))
        rows[:, 0] = [self.start_time + k * cost for k in range(self._taken, self._taken + n)]
        # scalar math.sin per row: np.sin may differ from it in the last ulp
        rows[:, 1] = [modeled_temperature(profile, t) for t in rows[:, 0].tolist()]
        # Blocks keep the temporaries small however many rows are asked for.
        for lo in range(0, n, SIMULATION_BLOCK_ROWS):
            block = rows[lo : lo + SIMULATION_BLOCK_ROWS]
            draws = self._rng.standard_normal((len(block), 1 + len(FEATURE_BINDINGS)))
            block[:, 1] += profile.noise_sigma_c * draws[:, 0]
            jitter = draws[:, 1:]
            jitter *= vectors.jitter
            jitter += 1.0
            values = _expectation_vector(self.device, vectors, block[:, 1:2])
            values *= jitter
            np.maximum(np.rint(values, out=values), 1.0, out=block[:, 2:])
        self._taken += n
        return rows


def simulate_device_rows(
    device: VirtualDevice, n_samples: int, start_time: float
) -> np.ndarray:
    """The first ``n_samples`` rows of the device's own :class:`RowStream`."""
    return RowStream(device, start_time, device.rng_seed).take(n_samples)


def simulate_dataset(farm: list[VirtualDevice], samples_per_device: int,
                     start_time: float) -> schema.Dataset:
    devices = [schema.DeviceRecord(d.mac, d.model.model_name) for d in farm]
    samples = {
        d.mac: simulate_device_rows(d, samples_per_device, start_time) for d in farm
    }
    return schema.Dataset(devices, samples)


# ---------------------------------------------------------------------------
# Default fleet: four hardware models mirroring a 45-device testbed with a
# 500 MHz GPU on the newest model and 400 MHz on the rest.
# ---------------------------------------------------------------------------

def default_models() -> dict[str, DeviceModelSpec]:
    rpi4 = DeviceModelSpec(
        model_name="RPi4like",
        cpu_freq_hz=1.5e9,
        gpu_freq_hz=5.0e8,
        op_duration_ns={
            "cpu_string_hash": 115_000,
            "cpu_pseudo_random": 2_800,
            "cpu_urandom": 1_350_000_000,
            "cpu_fib": 5_200,
            "gpu_matrixmul": 10_800_000,
            "gpu_matrixsum": 1_250_000,
            "gpu_scopy": 860_000,
            "mem_list_creation": 58_000,
            "mem_reserve": 205_000_000,
            "mem_csv_read": 41_000_000,
            "storage_read": 2_400_000,
            "storage_write": 3_900_000,
        },
        temp_coeff_other=1e-5,
        temp_profile=TempProfile(mean_c=52.0, daily_amplitude_c=3.0, noise_sigma_c=0.3),
        write_center_split=0.01,
    )
    rpi3 = DeviceModelSpec(
        model_name="RPi3like",
        cpu_freq_hz=1.4e9,
        gpu_freq_hz=4.0e8,
        op_duration_ns={
            "cpu_string_hash": 145_000,
            "cpu_pseudo_random": 3_600,
            "cpu_urandom": 2_250_000_000,
            "cpu_fib": 6_800,
            "gpu_matrixmul": 16_500_000,
            "gpu_matrixsum": 2_100_000,
            "gpu_scopy": 1_400_000,
            "mem_list_creation": 76_000,
            "mem_reserve": 310_000_000,
            "mem_csv_read": 63_000_000,
            "storage_read": 3_200_000,
            "storage_write": 5_600_000,
        },
        temp_coeff_other=5e-4,
        temp_profile=TempProfile(mean_c=55.0, daily_amplitude_c=4.0, noise_sigma_c=0.3),
    )
    rpi1 = DeviceModelSpec(
        model_name="RPi1like",
        cpu_freq_hz=7.0e8,
        gpu_freq_hz=4.0e8,
        op_duration_ns={
            "cpu_string_hash": 340_000,
            "cpu_pseudo_random": 8_400,
            "cpu_urandom": 5_600_000_000,
            "cpu_fib": 15_500,
            "gpu_matrixmul": 31_000_000,
            "gpu_matrixsum": 4_300_000,
            "gpu_scopy": 2_700_000,
            "mem_list_creation": 170_000,
            "mem_reserve": 690_000_000,
            "mem_csv_read": 150_000_000,
            "storage_read": 5_500_000,
            "storage_write": 8_900_000,
        },
        temp_coeff_other=1e-5,
        temp_profile=TempProfile(mean_c=47.0, daily_amplitude_c=3.5, noise_sigma_c=0.3),
    )
    zero = DeviceModelSpec(
        model_name="RPiZerolike",
        cpu_freq_hz=1.0e9,
        gpu_freq_hz=4.0e8,
        op_duration_ns={
            "cpu_string_hash": 235_000,
            "cpu_pseudo_random": 5_900,
            "cpu_urandom": 3_900_000_000,
            "cpu_fib": 10_700,
            "gpu_matrixmul": 22_000_000,
            "gpu_matrixsum": 3_000_000,
            "gpu_scopy": 1_900_000,
            "mem_list_creation": 118_000,
            "mem_reserve": 480_000_000,
            "mem_csv_read": 104_000_000,
            "storage_read": 4_600_000,
            "storage_write": 7_300_000,
        },
        temp_coeff_other=1e-5,
        temp_profile=TempProfile(mean_c=44.0, daily_amplitude_c=3.0, noise_sigma_c=0.25),
    )
    return {m.model_name: m for m in (rpi4, rpi3, rpi1, zero)}


DEFAULT_FLEET_COUNTS = (("RPi4like", 15), ("RPi3like", 10), ("RPi1like", 10), ("RPiZerolike", 10))


def default_farm_config(**kwargs) -> FarmConfig:
    """The default fleet; keyword arguments go to :class:`FarmConfig`."""
    models = default_models()
    return FarmConfig(
        models=tuple((models[name], count) for name, count in DEFAULT_FLEET_COUNTS), **kwargs
    )


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def json_kwargs(obj: object, what: str, *classes: type, exclude: Iterable[str] = (),
                json_hints: Mapping[str, object] = {}) -> list[dict]:
    """Check the JSON object ``obj`` against the fields of the dataclasses
    ``classes``, less ``exclude``, and split it into keyword arguments, one
    dict per class. An omitted key is left out, so its field keeps its default.

    A field's type hint, or its entry in ``json_hints``, gives the JSON value
    it takes: a number for ``float``, an object for a mapping or a dataclass,
    an array for a list, ``null`` for an optional field. Raises ValueError
    naming the key for an unknown or missing key, a value of the wrong JSON
    type, or an ``obj`` that is not a JSON object.
    """
    if type(obj) is not dict:
        raise ValueError(f"{what}: expected a JSON object, got {type(obj).__name__}")
    declared = [[f for f in fields(cls) if f.name not in exclude] for cls in classes]
    unknown = sorted(set(obj).difference(*([f.name for f in d] for d in declared)))
    if unknown:
        raise ValueError(f"{what}: unknown keys {unknown}")
    missing = [f.name for d in declared for f in d if f.name not in obj
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"{what}: missing keys {missing}")
    out = []
    for cls, d in zip(classes, declared):
        hints = {**get_type_hints(cls), **json_hints}
        out.append({f.name: _from_json(hints[f.name], obj[f.name], f"{what}: {f.name}")
                    for f in d if f.name in obj})
    return out


def _from_json(hint, value: object, what: str):
    """``value`` as the type ``hint`` names, or ValueError naming ``what``."""
    origin, args = get_origin(hint), get_args(hint)
    if is_dataclass(hint):
        (kwargs,) = json_kwargs(value, what, hint)
        return hint(**kwargs)
    if origin is UnionType:  # X | None
        return None if value is None else _from_json(args[0], value, what)
    if origin is list and type(value) is list:
        return [_from_json(args[0], v, f"{what}[{i}]") for i, v in enumerate(value)]
    if origin is Mapping and type(value) is dict:
        return {k: _from_json(args[1], v, f"{what}: {k}") for k, v in value.items()}
    if hint is float and type(value) in (int, float):
        return float(value)
    if type(value) is hint or (hint is Path and type(value) is str):
        return value
    raise ValueError(f"{what}: expected {getattr(hint, '__name__', hint)}, "
                     f"got {type(value).__name__}")


@dataclass(frozen=True)
class _ModelEntry:
    """The JSON form of one ``FarmConfig.models`` item."""

    count: int
    spec: DeviceModelSpec


def farm_config_from_json(obj: object) -> FarmConfig:
    (kwargs,) = json_kwargs(obj, "farm config", FarmConfig,
                            json_hints={"models": list[_ModelEntry]})
    kwargs["models"] = tuple((entry.spec, entry.count) for entry in kwargs["models"])
    return FarmConfig(**kwargs)
