from __future__ import annotations

import pytest

from skewbench import collector
from skewbench.collector import SessionConfig, bracket_plan, collect_sample
from skewbench.probes import (
    Component,
    CounterRegistry,
    CounterSource,
    MeasurementInvalid,
    SourceUnavailable,
    TIMER_SOURCE_ID,
    host_registry,
    observer_for,
)
from skewbench.schema import FEATURE_COLUMNS, FEATURE_OFFSET
from skewbench.workloads import FEATURE_BINDINGS

CONFIG = SessionConfig("02:00:00:00:00:01", "Stub", ".")


class FakeCounter:
    """Deterministic counter advanced manually or on every read."""

    def __init__(self, step: int = 0):
        self.value = 0
        self.step = step

    def read(self) -> int:
        self.value += self.step
        return self.value

    def advance(self, amount: int) -> None:
        self.value += amount


def fake_gpu_source(width_bits: int = 64) -> CounterSource:
    return CounterSource("gpu-fake", Component.GPU, width_bits=width_bits)


def fake_registry(gpu_read, cpu_read, gpu_width_bits: int = 64) -> CounterRegistry:
    """``gpu-fake`` observes CPU work, ``cpu-fake`` everything else."""
    reg = CounterRegistry(include_host_timer=False)
    reg.register(fake_gpu_source(gpu_width_bits), gpu_read)
    reg.register(CounterSource("cpu-fake", Component.CPU), cpu_read)
    return reg


class BracketStub:
    """The adapter surface that bracket_plan and collect_sample use: a
    registry, and one workload per binding that runs ``work(binding)``."""

    def __init__(self, registry: CounterRegistry, work):
        self.registry = registry
        self.work = work

    def now(self) -> float:
        return 0.0

    def read_temperature(self) -> float:
        return 50.0

    def executable(self, binding):
        return None, lambda: self.work(binding)


def advancing(gpu: FakeCounter, cpu: FakeCounter, amount: int):
    """Work that advances the observer of each binding by ``amount``."""

    def work(binding):
        (gpu if binding.target_component is Component.CPU else cpu).advance(amount)

    return work


def sample_deltas(adapter) -> dict[str, float]:
    row = collect_sample(CONFIG, adapter, bracket_plan(adapter))
    return dict(zip(FEATURE_COLUMNS, row[FEATURE_OFFSET:].tolist()))


class TestSources:
    def test_host_registry_has_timer(self):
        plan = bracket_plan(BracketStub(host_registry(), lambda binding: None))
        assert {entry[-1] for entry in plan} == {TIMER_SOURCE_ID}

    def test_registration_contract(self):
        reg = host_registry()
        reg.register(fake_gpu_source(), FakeCounter().read)
        plan = bracket_plan(BracketStub(reg, lambda binding: None))
        assert [entry[-1] for entry in plan] == [
            "gpu-fake" if b.target_component is Component.CPU else TIMER_SOURCE_ID
            for b in FEATURE_BINDINGS
        ]

    def test_duplicate_id_rejected(self):
        reg = host_registry()
        reg.register(fake_gpu_source(), FakeCounter().read)
        with pytest.raises(ValueError):
            reg.register(fake_gpu_source(), FakeCounter().read)

    def test_unregistered_source_unavailable(self):
        with pytest.raises(SourceUnavailable):
            host_registry().reader("gpu-fake")

    def test_timer_monotonic(self):
        read = host_registry().reader(TIMER_SOURCE_ID)
        r1 = read()
        r2 = read()
        assert r2 >= r1

    def test_backend_failure_maps_to_unavailable(self):
        # The session measures each observer's overhead before its first sample.
        reg = host_registry()

        def broken() -> int:
            raise PermissionError("register gone")

        reg.register(fake_gpu_source(), broken)
        with pytest.raises(SourceUnavailable, match="register gone"):
            reg.measure_overhead("gpu-fake")

    def test_fake_counter_rate(self):
        # 500 MHz counter driven by a virtual clock, reads 1 s apart.
        clock = {"t": 0.0}
        reg = CounterRegistry(include_host_timer=True)
        reg.register(fake_gpu_source(), lambda: int(clock["t"] * 5e8))
        read = reg.reader("gpu-fake")
        before = read()
        clock["t"] += 1.0
        after = read()
        assert after - before == pytest.approx(5.0e8, rel=1e-6)


class TestMeasure:
    """The bracket of collect_sample, through the plan of bracket_plan."""

    def test_delta_is_workload_cost(self):
        gpu, cpu = FakeCounter(), FakeCounter()
        adapter = BracketStub(fake_registry(gpu.read, cpu.read), advancing(gpu, cpu, 1234))
        assert set(sample_deltas(adapter).values()) == {1234.0}
        assert [entry[-1] for entry in bracket_plan(adapter)] == [
            "gpu-fake" if b.target_component is Component.CPU else "cpu-fake"
            for b in FEATURE_BINDINGS
        ]

    def test_cross_component_required(self, monkeypatch):
        calls = []
        reg = fake_registry(FakeCounter().read, FakeCounter().read)
        monkeypatch.setattr(collector, "observer_for",
                            lambda registry, target: registry.source("gpu-fake"))
        with pytest.raises(MeasurementInvalid, match=(
                "observer gpu-fake belongs to the observed component gpu; "
                "cross-component measurement required")):
            bracket_plan(BracketStub(reg, calls.append))
        assert calls == []  # rejected before execution

    def test_bracket_contains_exactly_one_invocation_and_two_reads(self):
        events = []

        class CountingCounter(FakeCounter):
            def read(self) -> int:
                events.append("read")
                return super().read()

        gpu, cpu = CountingCounter(), CountingCounter()
        work = advancing(gpu, cpu, 1)

        def logged(binding):
            events.append("workload")
            work(binding)

        sample_deltas(BracketStub(fake_registry(gpu.read, cpu.read), logged))
        assert events == ["read", "workload", "read"] * len(FEATURE_BINDINGS)

    def test_workload_failure_propagates(self):
        def boom(binding):
            raise RuntimeError("workload died")

        adapter = BracketStub(fake_registry(FakeCounter().read, FakeCounter().read), boom)
        with pytest.raises(RuntimeError, match="workload died"):
            sample_deltas(adapter)

    def test_single_wrap_handled(self):
        gpu, cpu = FakeCounter(), FakeCounter()
        gpu.value = (1 << 16) - 6
        reg = fake_registry(lambda: gpu.read() & 0xFFFF, cpu.read, gpu_width_bits=16)
        deltas = sample_deltas(BracketStub(reg, advancing(gpu, cpu, 11)))
        assert gpu.value > 1 << 16  # the first CPU bracket wrapped
        assert set(deltas.values()) == {11.0}

    def test_half_period_rejected(self):
        gpu, cpu = FakeCounter(), FakeCounter()
        adapter = BracketStub(fake_registry(gpu.read, cpu.read, gpu_width_bits=16),
                              advancing(gpu, cpu, 40000))
        with pytest.raises(MeasurementInvalid, match="gpu-fake: delta 40000 exceeds half"):
            sample_deltas(adapter)

    def test_backwards_counter_rejected(self):
        gpu, cpu = FakeCounter(), FakeCounter()
        gpu.value = cpu.value = 1000
        adapter = BracketStub(fake_registry(gpu.read, cpu.read), advancing(gpu, cpu, -500))
        with pytest.raises(MeasurementInvalid, match="delta -500 exceeds half"):
            sample_deltas(adapter)

    def test_nested_brackets_outer_geq_inner(self):
        gpu, cpu = FakeCounter(step=3), FakeCounter(step=3)
        reg = fake_registry(gpu.read, cpu.read)
        inner = BracketStub(reg, advancing(gpu, cpu, 50))
        inner_deltas = []

        def outer_work(binding):
            if binding.column == "cpu_fib":
                inner_deltas.append(sample_deltas(inner))

        outer = sample_deltas(BracketStub(reg, outer_work))
        inner_on_gpu = [inner_deltas[0][b.column] for b in FEATURE_BINDINGS
                        if b.target_component is Component.CPU]
        assert set(inner_on_gpu) == {53.0}
        assert outer["cpu_fib"] >= sum(inner_on_gpu)

    def test_noop_bounded_by_overhead(self):
        reg = host_registry()
        overhead = reg.measure_overhead(TIMER_SOURCE_ID)
        adapter = BracketStub(reg, lambda binding: None)
        # min over many brackets discards scheduler blips hitting the no-op
        best = min(min(sample_deltas(adapter).values()) for _ in range(3))
        assert 0 <= best <= 10 * max(overhead["max"], 1.0)

    def test_sleep_against_fake_500mhz(self):
        # Virtual clock standing in for real sleep: 1 s at 500 MHz.
        clock = {"t": 0.0}
        cpu = FakeCounter()

        def work(binding):
            if binding.column == "cpu_sleep_1s":
                clock["t"] += 1.0005  # scheduler overshoot of +0.05%, inside +/-0.2%
            elif binding.target_component is Component.CPU:
                clock["t"] += 1e-6
            else:
                cpu.advance(1)

        reg = fake_registry(lambda: int(clock["t"] * 5e8), cpu.read)
        deltas = sample_deltas(BracketStub(reg, work))
        assert 4.99e8 <= deltas["cpu_sleep_1s"] <= 5.01e8


class TestObserverSelection:
    def test_cpu_observed_by_gpu(self):
        reg = CounterRegistry(include_host_timer=True)
        reg.register(fake_gpu_source(), FakeCounter().read)
        assert observer_for(reg, Component.CPU).id == "gpu-fake"

    def test_others_observed_by_cpu_side(self):
        reg = CounterRegistry(include_host_timer=True)
        reg.register(CounterSource("cpu-fake", Component.CPU), FakeCounter().read)
        for target in (Component.GPU, Component.MEMORY, Component.STORAGE):
            assert observer_for(reg, target).id == "cpu-fake"

    def test_timer_fallback(self):
        reg = CounterRegistry(include_host_timer=True)
        for target in (Component.CPU, Component.GPU, Component.MEMORY, Component.STORAGE):
            assert observer_for(reg, target).id == TIMER_SOURCE_ID

    def test_no_observer_at_all(self):
        reg = CounterRegistry(include_host_timer=False)
        with pytest.raises(SourceUnavailable):
            observer_for(reg, Component.CPU)
