from __future__ import annotations

import pytest

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
    return CounterSource("gpu-fake", Component.GPU, 5e8, width_bits=width_bits)


class TestSources:
    def test_host_registry_has_timer(self):
        ids = [s.id for s in host_registry().sources()]
        assert TIMER_SOURCE_ID in ids

    def test_registration_contract(self):
        reg = host_registry()
        reg.register(fake_gpu_source(), FakeCounter().read)
        ids = [s.id for s in reg.sources()]
        assert ids == [TIMER_SOURCE_ID, "gpu-fake"]

    def test_duplicate_id_rejected(self):
        reg = host_registry()
        reg.register(fake_gpu_source(), FakeCounter().read)
        with pytest.raises(ValueError):
            reg.register(fake_gpu_source(), FakeCounter().read)

    def test_unregistered_source_unavailable(self):
        with pytest.raises(SourceUnavailable):
            host_registry().read("gpu-fake")

    def test_timer_monotonic(self):
        reg = host_registry()
        r1 = reg.read(TIMER_SOURCE_ID)
        r2 = reg.read(TIMER_SOURCE_ID)
        assert r2.value >= r1.value

    def test_backend_failure_maps_to_unavailable(self):
        reg = host_registry()

        def broken() -> int:
            raise PermissionError("register gone")

        reg.register(fake_gpu_source(), broken)
        with pytest.raises(SourceUnavailable):
            reg.read("gpu-fake")

    def test_fake_counter_rate(self):
        # 500 MHz counter driven by a virtual clock, reads 1 s apart.
        clock = {"t": 0.0}
        reg = CounterRegistry(include_host_timer=True)
        reg.register(fake_gpu_source(), lambda: int(clock["t"] * 5e8))
        before = reg.read("gpu-fake").value
        clock["t"] += 1.0
        after = reg.read("gpu-fake").value
        assert after - before == pytest.approx(5.0e8, rel=1e-6)


class TestMeasure:
    def test_delta_is_workload_cost(self):
        counter = FakeCounter()
        reg = CounterRegistry(include_host_timer=False)
        reg.register(fake_gpu_source(), counter.read)
        m = reg.measure("gpu-fake", Component.CPU, "w", lambda: counter.advance(1234))
        assert m.delta == 1234
        assert m.observer == "gpu-fake"
        assert m.observed_component is Component.CPU

    def test_cross_component_required(self):
        counter = FakeCounter()
        reg = CounterRegistry(include_host_timer=False)
        reg.register(fake_gpu_source(), counter.read)
        calls = []
        with pytest.raises(MeasurementInvalid):
            reg.measure("gpu-fake", Component.GPU, "w", lambda: calls.append(1))
        assert calls == []  # rejected before execution

    def test_bracket_contains_exactly_one_invocation_and_two_reads(self):
        reads = []
        invocations = []

        class CountingCounter(FakeCounter):
            def read(self) -> int:
                reads.append(1)
                return super().read()

        counter = CountingCounter()
        reg = CounterRegistry(include_host_timer=False)
        reg.register(fake_gpu_source(), counter.read)
        reg.measure("gpu-fake", Component.CPU, "w", lambda: invocations.append(1))
        assert len(invocations) == 1
        assert len(reads) == 2

    def test_workload_failure_propagates(self):
        counter = FakeCounter()
        reg = CounterRegistry(include_host_timer=False)
        reg.register(fake_gpu_source(), counter.read)

        def boom():
            raise RuntimeError("workload died")

        with pytest.raises(RuntimeError, match="workload died"):
            reg.measure("gpu-fake", Component.CPU, "w", boom)

    def test_single_wrap_handled(self):
        counter = FakeCounter()
        counter.value = (1 << 16) - 6
        reg = CounterRegistry(include_host_timer=False)
        reg.register(fake_gpu_source(width_bits=16), counter.read)
        m = reg.measure("gpu-fake", Component.CPU, "w", lambda: counter.advance(11))
        assert m.delta == 11

    def test_half_period_rejected(self):
        counter = FakeCounter()
        reg = CounterRegistry(include_host_timer=False)
        reg.register(fake_gpu_source(width_bits=16), counter.read)
        with pytest.raises(MeasurementInvalid):
            reg.measure("gpu-fake", Component.CPU, "w", lambda: counter.advance(40000))

    def test_backwards_counter_rejected(self):
        counter = FakeCounter()
        counter.value = 1000
        reg = CounterRegistry(include_host_timer=False)
        reg.register(fake_gpu_source(), counter.read)
        with pytest.raises(MeasurementInvalid):
            reg.measure("gpu-fake", Component.CPU, "w", lambda: counter.advance(-500))

    def test_nested_brackets_outer_geq_inner(self):
        counter = FakeCounter(step=3)
        reg = CounterRegistry(include_host_timer=False)
        reg.register(fake_gpu_source(), counter.read)
        inner: list[int] = []

        def outer_workload():
            m = reg.measure("gpu-fake", Component.MEMORY, "inner", lambda: counter.advance(50))
            inner.append(m.delta)

        outer = reg.measure("gpu-fake", Component.CPU, "outer", outer_workload)
        assert outer.delta >= inner[0]

    def test_noop_bounded_by_overhead(self):
        reg = host_registry()
        overhead = reg.measure_overhead(TIMER_SOURCE_ID, repetitions=1000)
        # min over a few brackets discards scheduler blips hitting the no-op
        best = min(
            reg.measure(TIMER_SOURCE_ID, Component.CPU, "noop", lambda: None).delta
            for _ in range(10)
        )
        assert 0 <= best <= 10 * max(overhead["max"], 1.0)

    def test_sleep_against_fake_500mhz(self):
        # Virtual clock standing in for real sleep: 1 s at 500 MHz.
        clock = {"t": 0.0}
        reg = CounterRegistry(include_host_timer=False)
        reg.register(fake_gpu_source(), lambda: int(clock["t"] * 5e8))

        def sleep_one_second():
            # scheduler overshoot of +0.05%, inside the +/-0.2% window
            clock["t"] += 1.0005

        m = reg.measure("gpu-fake", Component.CPU, "cpu_sleep_1s", sleep_one_second)
        assert 4.99e8 <= m.delta <= 5.01e8


class TestObserverSelection:
    def test_cpu_observed_by_gpu(self):
        reg = CounterRegistry(include_host_timer=True)
        reg.register(fake_gpu_source(), FakeCounter().read)
        assert observer_for(reg, Component.CPU).id == "gpu-fake"

    def test_others_observed_by_cpu_side(self):
        reg = CounterRegistry(include_host_timer=True)
        reg.register(CounterSource("cpu-fake", Component.CPU, 1e9), FakeCounter().read)
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
