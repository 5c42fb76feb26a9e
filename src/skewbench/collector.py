"""Measurement sessions: stability preflight, per-sample assembly, and
session segmentation.

A session appends complete rows to the device's CSV until the configured
sample count is reached, then stops; a supervisor loop restarts the process
for the next session, which resets accumulated process noise the same way a
device reboot would. Rows are written atomically (one write plus flush per
sample), so a killed session always leaves a parseable file; the session
journal is streamed the same way, one flushed line per event. A row torn by
power loss mid-write is cut off at the next session start and kept in
``<file>.torn`` (the same for ``MAC-Model.txt`` and the journal), and a
session appends only to a CSV whose header is the 218-column schema.

File names, header, ``MAC-Model.txt`` parser and line, and the row check
are :mod:`skewbench.schema`'s, so a session appends what ``read_dataset``
reads: MACs match case-insensitively, whitespace around a field is ignored,
a model tag has no ``,`` or newline, and a ``MAC-Model.txt`` the reader
rejects stops the session before any row.

A session backend supplies the counters and the workloads: ``HostAdapter``
for the real host, ``VirtualAdapter`` for a simulated device in virtual
time. After the backend's setup, the session resolves each of the 215
bindings once (:func:`bracket_plan`): its workload, the observer counter's
reader and wrap period, with the cross-component check done there. Each
sample then runs the brackets itself (:func:`collect_sample`): read,
workload, read, and the modular delta check of ``probes.counter_delta``.

The preflight only observes the host; it never mutates system state.
Applying the stability measures (fixed frequency governor, elevated
priority, ASLR off, core isolation, a fixed hash seed environment) is the
operator's job; the report records what was found. Interpreter build-time
optimizations are not applicable here and are not checked.
"""

from __future__ import annotations

import gc
import json
import os
import random
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import schema, workloads
from .probes import (
    Component,
    CounterRegistry,
    CounterSource,
    MeasurementInvalid,
    counter_delta,
    host_registry,
    observer_for,
)
from .simulator import RowStream, VirtualDevice
from .workloads import (
    FEATURE_BINDINGS,
    KIND_BY_ID,
    FeatureBinding,
    GpuSurrogate,
    HostState,
    StorageScratch,
)

SCHED_FIFO = 1
SCHED_RR = 2

CPU_SIM_SOURCE_ID = "cpu-sim"
GPU_SIM_SOURCE_ID = "gpu-sim"


class SessionError(RuntimeError):
    """The session cannot start or continue."""


class DegradedEnvironment(SessionError):
    """Stability measures are missing and the config does not allow that."""


class CheckStatus(Enum):
    SATISFIED = "satisfied"
    UNSATISFIED = "unsatisfied"
    NOT_APPLICABLE = "not-applicable"
    UNKNOWN = "unknown"


STABILITY_CHECKS = (
    "fixed_frequency",
    "kernel_priority",
    "aslr_disabled",
    "core_isolation",
    "fixed_hash_seed",
    "gc_disabled",
)


@dataclass(frozen=True)
class StabilityReport:
    checks: dict[str, CheckStatus]

    def __post_init__(self):
        if tuple(self.checks) != STABILITY_CHECKS:
            raise ValueError(f"report must cover exactly {STABILITY_CHECKS}")

    @property
    def degraded(self) -> bool:
        return any(
            status in (CheckStatus.UNSATISFIED, CheckStatus.UNKNOWN)
            for status in self.checks.values()
        )

    def to_json(self) -> dict[str, str]:
        return {name: status.value for name, status in self.checks.items()}


@dataclass
class SessionConfig:
    device_mac: str
    device_model: str
    working_dir: Path = Path(".")
    samples_per_session: int = 800
    seed: int = 0
    pinned_core: int | None = None
    require_fixed_frequency: bool = False
    allow_degraded: bool = False

    def __post_init__(self):
        self.working_dir = Path(self.working_dir)
        if self.samples_per_session < 1:
            raise ValueError("samples_per_session must be >= 1")
        device = schema.DeviceRecord(self.device_mac, self.device_model)
        self.device_mac, self.device_model = device.mac, device.model


class PlatformProbe:
    """Best-effort host introspection, rooted for testability."""

    def __init__(self, root: str | Path = "/"):
        self.root = Path(root)

    def _read(self, relative: str) -> str | None:
        try:
            return (self.root / relative).read_text().strip()
        except OSError:
            return None

    def governors(self) -> list[str] | None:
        base = self.root / "sys/devices/system/cpu"
        if not base.exists():
            return None
        values = []
        for cpu_dir in sorted(base.glob("cpu[0-9]*")):
            gov = cpu_dir / "cpufreq/scaling_governor"
            try:
                values.append(gov.read_text().strip())
            except OSError:
                continue
        return values or None

    def sched_policy(self) -> int | None:
        try:
            return os.sched_getscheduler(0)
        except (AttributeError, OSError):
            return None

    def niceness(self) -> int | None:
        try:
            return os.getpriority(os.PRIO_PROCESS, 0)
        except (AttributeError, OSError):
            return None

    def aslr(self) -> str | None:
        return self._read("proc/sys/kernel/randomize_va_space")

    def isolated_cpus(self) -> set[int] | None:
        raw = self._read("sys/devices/system/cpu/isolated")
        if raw is None:
            return None
        cpus: set[int] = set()
        for part in raw.split(","):
            part = part.strip()
            if not part:
                continue
            if "-" in part:
                lo, hi = part.split("-", 1)
                cpus.update(range(int(lo), int(hi) + 1))
            else:
                cpus.add(int(part))
        return cpus

    def cpu_count(self) -> int:
        return os.cpu_count() or 1

    def hash_seed_env(self) -> str | None:
        return os.environ.get("PYTHONHASHSEED")

    def gc_enabled(self) -> bool:
        return gc.isenabled()

    def temperature_c(self) -> float | None:
        base = self.root / "sys/class/thermal"
        if not base.exists():
            return None
        for zone in sorted(base.glob("thermal_zone*")):
            try:
                milli = int((zone / "temp").read_text().strip())
            except (OSError, ValueError):
                continue
            return milli / 1000.0
        return None


def _status(ok: bool | None) -> CheckStatus:
    """SATISFIED or UNSATISFIED, or UNKNOWN when the host could not tell."""
    if ok is None:
        return CheckStatus.UNKNOWN
    return CheckStatus.SATISFIED if ok else CheckStatus.UNSATISFIED


def preflight(config: SessionConfig, probe: PlatformProbe) -> StabilityReport:
    """Detect the stability measures; unknown is a valid status."""
    governors = probe.governors()
    frequency = None if governors is None else all(g == "performance" for g in governors)
    if probe.sched_policy() in (SCHED_FIFO, SCHED_RR):
        priority = True
    else:
        nice = probe.niceness()
        priority = None if nice is None else nice <= -10
    aslr = probe.aslr()
    if probe.cpu_count() == 1:
        isolation = CheckStatus.NOT_APPLICABLE
    else:
        isolated = probe.isolated_cpus()
        isolation = _status(None if isolated is None else config.pinned_core in isolated)
    seed_env = probe.hash_seed_env()
    return StabilityReport({
        "fixed_frequency": _status(frequency),
        "kernel_priority": _status(priority),
        "aslr_disabled": _status(None if aslr is None else aslr == "0"),
        "core_isolation": isolation,
        "fixed_hash_seed": _status(seed_env is not None and seed_env.isdigit()),
        "gc_disabled": _status(not probe.gc_enabled()),
    })


def simulated_stability_report() -> StabilityReport:
    """No physical system behind a virtual device: nothing to stabilize."""
    return StabilityReport({name: CheckStatus.NOT_APPLICABLE for name in STABILITY_CHECKS})


def read_temperature(probe: PlatformProbe) -> float:
    value = probe.temperature_c()
    return schema.TEMPERATURE_UNAVAILABLE_C if value is None else value


class SessionLog:
    """JSON-lines session journal, written and flushed event by event, so a
    killed session leaves every event added before the kill."""

    def __init__(self, path: Path):
        self._fh = open(path, "a", encoding="utf-8")

    def add(self, event: str, **payload) -> None:
        self._fh.write(json.dumps({"event": event, **payload}, sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        """Make the journal durable and close it."""
        os.fsync(self._fh.fileno())
        self._fh.close()


@dataclass
class SessionResult:
    csv_path: Path
    rows_written: int
    degraded: bool
    aborted: bool
    abort_reason: str | None


class HostAdapter:
    """Real-hardware session backend: host counters and real workloads."""

    is_virtual = False

    def __init__(self, config: SessionConfig, probe: PlatformProbe | None = None,
                 registry: CounterRegistry | None = None):
        self.config = config
        self.probe = probe or PlatformProbe()
        self.registry = registry if registry is not None else host_registry()
        self._state: HostState | None = None

    def setup(self) -> None:
        scratch_dir = self.config.working_dir / "scratch"
        scratch_dir.mkdir(parents=True, exist_ok=True)
        self._state = HostState(
            surrogate=GpuSurrogate(),
            fixture=workloads.write_csv_fixture(scratch_dir / "fixture.csv"),
            scratch=StorageScratch(scratch_dir / "scratch.bin"),
            urandom_buf=bytearray(workloads.URANDOM_BYTES),
            rng=random.Random(self.config.seed),
            seed=self.config.seed,
        )

    def teardown(self) -> None:
        if self._state is not None:
            self._state.scratch.close()
            self._state = None

    def now(self) -> float:
        return time.time()

    def preflight(self) -> StabilityReport:
        return preflight(self.config, self.probe)

    def read_temperature(self) -> float:
        return read_temperature(self.probe)

    def backend_names(self) -> dict[str, str]:
        return {"gpu": self._state.surrogate.backend_name if self._state else "none",
                "hash": workloads.HASH_FUNCTION_NAME}

    def executable(self, binding: FeatureBinding):
        if self._state is None:
            raise SessionError("adapter not set up")
        return KIND_BY_ID[binding.workload_id].host(self._state, binding.variant)


class VirtualAdapter:
    """Session backend for a simulated device running in virtual time.

    Each sample replays the next row of a :class:`simulator.RowStream`:
    reading the temperature starts it, and each workload adds its feature
    value to the counter that observes it (``gpu-sim`` for CPU work,
    ``cpu-sim`` for the rest). Every bracket delta is so the simulated
    value, and a session writes exactly the simulator's rows.
    """

    is_virtual = True

    def __init__(self, device: VirtualDevice, start_time: float, seed: int):
        self._rows = RowStream(device, start_time, seed)
        self._started = 0
        self._values: list[int] | None = None
        self._cursor = len(FEATURE_BINDINGS)
        counts = self._counts = [0, 0]  # cpu-sim, gpu-sim
        self.registry = CounterRegistry(include_host_timer=False)
        self.registry.register(CounterSource(CPU_SIM_SOURCE_ID, Component.CPU), lambda: counts[0])
        self.registry.register(CounterSource(GPU_SIM_SOURCE_ID, Component.GPU), lambda: counts[1])

    @classmethod
    def for_device(cls, device: VirtualDevice, start_time: float,
                   sample_seed: int | None = None) -> "VirtualAdapter":
        """Replay the rows seeded by ``sample_seed``, or by the device's own seed."""
        return cls(device, start_time, device.rng_seed if sample_seed is None else sample_seed)

    def setup(self) -> None:
        pass

    def teardown(self) -> None:
        pass

    @property
    def samples_done(self) -> int:
        """Samples whose every workload has run."""
        return self._started - (self._cursor < len(FEATURE_BINDINGS))

    def now(self) -> float:
        """Virtual time on the sample schedule ``start + k * sample cost``."""
        return self._rows.start_time + self.samples_done * self._rows.vectors.sample_wallclock_s

    def preflight(self) -> StabilityReport:
        return simulated_stability_report()

    def read_temperature(self) -> float:
        """Begin a sample: take the next simulated row."""
        if self._cursor < len(FEATURE_BINDINGS):
            raise RuntimeError("previous sample still in progress")
        row = self._rows.take(1)[0]
        self._values = row[schema.FEATURE_OFFSET:].astype(np.int64).tolist()
        self._started += 1
        self._cursor = 0
        return float(row[schema.TEMPERATURE_INDEX])

    def backend_names(self) -> dict[str, str]:
        return {"gpu": "simulator", "hash": "simulator"}

    def executable(self, binding: FeatureBinding):
        """(prepare, workload) pair for the collector's measurement bracket."""
        index = schema.FEATURE_COLUMNS.index(binding.column)
        observer = 1 if binding.target_component is Component.CPU else 0
        counts = self._counts

        def workload():
            if self._cursor != index:
                self._out_of_order(binding)
            counts[observer] += self._values[index]
            self._cursor = index + 1

        return None, workload

    def _out_of_order(self, binding: FeatureBinding) -> None:
        if self._cursor == len(FEATURE_BINDINGS):
            raise RuntimeError("read_temperature must start the sample")
        raise RuntimeError(
            f"workload order mismatch: expected "
            f"{FEATURE_BINDINGS[self._cursor].column}, got {binding.column}"
        )


def bracket_plan(adapter) -> list[tuple]:
    """Each binding's ``(prepare, workload, read, period, observer id)``, in
    schema order: ``read`` is the observer counter's reader and ``period``
    its wrap period, ``1 << width_bits``.

    Resolved once per session, after ``adapter.setup()``; every sample of
    the session brackets through it. An observer that belongs to the
    observed component raises :class:`MeasurementInvalid` here, before any
    workload runs.
    """
    registry = adapter.registry
    plan = []
    for binding in FEATURE_BINDINGS:
        observer = observer_for(registry, binding.target_component)
        if observer.component is binding.target_component:
            raise MeasurementInvalid(
                f"observer {observer.id} belongs to the observed component "
                f"{binding.target_component.value}; cross-component measurement required"
            )
        plan.append((*adapter.executable(binding), registry.reader(observer.id),
                     1 << observer.width_bits, observer.id))
    return plan


def collect_sample(config: SessionConfig, adapter, plan: list[tuple]) -> np.ndarray:
    """Assemble and check one complete row of numeric values: timestamp,
    temperature, then every feature in schema order, each the observer
    delta across its workload in ``plan`` (see :func:`bracket_plan`).

    The bracket holds exactly the workload between the two reads; ``prepare``
    runs before the first read, and the delta check after the second. Any
    workload or measurement failure propagates and the partial sample is
    discarded by the caller; no row is ever half-written.
    """
    row = np.empty(schema.DEFAULT_SCHEMA.n_numeric)
    row[schema.TIMESTAMP_INDEX] = adapter.now()
    row[schema.TEMPERATURE_INDEX] = adapter.read_temperature()
    deltas = []
    for prepare, workload, read, period, observer_id in plan:
        if prepare is not None:
            prepare()
        before = read()
        workload()
        after = read()
        deltas.append(counter_delta(observer_id, period, before, after))
    row[schema.FEATURE_OFFSET:] = deltas
    schema.DEFAULT_SCHEMA.check_rows(row[None, :], config.device_mac)
    return row


def _ensure_mac_model_entry(path: Path, device: schema.DeviceRecord) -> None:
    listed = schema.read_mac_model(path).get(device.mac) if path.exists() else None
    if listed is None:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(schema.mac_model_line(device))
            # Durable before the first row: read_dataset skips unlisted CSVs.
            fh.flush()
            os.fsync(fh.fileno())
    elif listed != device:
        raise SessionError(
            f"{path}: {device.mac} already registered as {listed.model!r}, not {device.model!r}"
        )


def _repair_torn_tail(path: Path) -> dict | None:
    """Cut ``path`` back to its last newline if a write was torn there.

    The cut bytes are appended, as one line, to ``<name>.torn`` beside it,
    and the payload of the ``repaired_tail`` event to journal is returned
    (``None`` when nothing was cut). Appending to a torn file would glue the
    next line onto the fragment and make the file unreadable.
    """
    if not path.exists():
        return None
    with open(path, "rb+") as fh:
        end = fh.seek(0, os.SEEK_END)
        keep = pos = end
        while pos > 0:
            start = max(0, pos - 4096)
            fh.seek(start)
            newline = fh.read(pos - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            pos = keep = start
        if keep == end:
            return None
        fh.seek(keep)
        fragment = fh.read()
        torn = path.with_name(path.name + ".torn")
        with open(torn, "ab") as out:
            out.write(fragment + b"\n")
            out.flush()
            os.fsync(out.fileno())
        fh.truncate(keep)
        fh.flush()
        os.fsync(fh.fileno())
    return dict(file=path.name, kept_bytes=keep, torn_bytes=end - keep, torn_file=torn.name)


def _check_header(csv_path: Path) -> None:
    """Refuse to append to a device CSV whose header is not the 218-column one."""
    with open(csv_path, "rb") as fh:
        header = fh.readline().rstrip(b"\r\n").decode("utf-8", errors="replace")
    if header != schema.DEFAULT_SCHEMA.header:
        raise SessionError(
            f"{csv_path}: existing header is not the {schema.DEFAULT_SCHEMA.n_columns}-column "
            "schema; refusing to append"
        )


def run_session(config: SessionConfig, adapter=None, progress=None) -> SessionResult:
    """Run one bounded collection session.

    Appends at most ``samples_per_session`` rows to ``<MAC>.csv`` under the
    working directory and stops. The session journal beside it is written
    as events happen, from before the preflight on, and both files are
    fsynced at session end. A ``progress`` callable, if given, is invoked as
    ``progress(index, row)`` after each appended row; raising from it aborts
    the session cleanly (used by supervisors to stop early).
    """
    if adapter is None:
        adapter = HostAdapter(config)
    config.working_dir.mkdir(parents=True, exist_ok=True)
    csv_path = schema.csv_path(config.working_dir, config.device_mac)
    mac_model = config.working_dir / schema.MAC_MODEL_FILENAME
    journal = schema.journal_path(config.working_dir, config.device_mac)
    # Before the first event, or session_start is glued onto a torn line.
    journal_repair = _repair_torn_tail(journal)
    log = SessionLog(journal)
    try:
        log.add("session_start", mac=config.device_mac, model=config.device_model,
                samples_per_session=config.samples_per_session, seed=config.seed,
                virtual=adapter.is_virtual, started_at=adapter.now())
        if journal_repair is not None:
            log.add("repaired_tail", **journal_repair)

        report = adapter.preflight()
        log.add("preflight", checks=report.to_json(), degraded=report.degraded)
        if (config.require_fixed_frequency
                and report.checks["fixed_frequency"] is not CheckStatus.SATISFIED):
            raise DegradedEnvironment("fixed frequency required but not detected")
        if report.degraded and not config.allow_degraded:
            raise DegradedEnvironment(
                "stability measures missing (degraded host); pass allow_degraded to proceed"
            )

        gc_was_enabled = gc.isenabled()
        if not adapter.is_virtual and gc_was_enabled:
            gc.disable()
        rows_written = 0
        abort_reason: str | None = None
        try:
            adapter.setup()
            plan = bracket_plan(adapter)
            log.add("backends", **adapter.backend_names())
            for observer_id in sorted({entry[-1] for entry in plan}):
                log.add("bracket_overhead", **adapter.registry.measure_overhead(observer_id))

            if (repair := _repair_torn_tail(mac_model)) is not None:
                log.add("repaired_tail", **repair)
            device = schema.DeviceRecord(config.device_mac, config.device_model)
            _ensure_mac_model_entry(mac_model, device)
            if (repair := _repair_torn_tail(csv_path)) is not None:
                log.add("repaired_tail", **repair)
            new_file = not csv_path.exists() or csv_path.stat().st_size == 0
            if not new_file:
                _check_header(csv_path)
            with open(csv_path, "a", encoding="utf-8", newline="") as fh:
                # The journal, MAC-Model.txt and the CSV may be new: make
                # their directory entries durable before the first row.
                dir_fd = os.open(config.working_dir, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
                if new_file:
                    fh.write(schema.DEFAULT_SCHEMA.header + "\n")
                    fh.flush()
                for index in range(config.samples_per_session):
                    try:
                        row = collect_sample(config, adapter, plan)
                    except SessionError:
                        raise
                    except KeyboardInterrupt:
                        abort_reason = f"interrupted during sample {index}"
                        log.add("sample", index=index, ok=False, error="interrupted")
                        break
                    except Exception as exc:  # workload/measurement failure
                        abort_reason = f"sample {index}: {exc}"
                        log.add("sample", index=index, ok=False, error=str(exc))
                        break
                    fh.write(schema.format_rows(row[None, :], config.device_mac))
                    fh.flush()
                    rows_written += 1
                    log.add("sample", index=index, ok=True,
                            timestamp=float(row[schema.TIMESTAMP_INDEX]))
                    if progress is not None:
                        try:
                            progress(index, row)
                        except (Exception, KeyboardInterrupt) as exc:
                            abort_reason = f"stopped by supervisor at sample {index}: {exc}"
                            break
                os.fsync(fh.fileno())
        finally:
            adapter.teardown()
            if not adapter.is_virtual and gc_was_enabled:
                gc.enable()
            log.add("session_end", rows_written=rows_written, aborted=abort_reason is not None,
                    abort_reason=abort_reason, ended_at=adapter.now())
    finally:
        log.close()

    return SessionResult(
        csv_path=csv_path,
        rows_written=rows_written,
        degraded=report.degraded,
        aborted=abort_reason is not None,
        abort_reason=abort_reason,
    )
