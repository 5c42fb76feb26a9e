"""Counter sources and cross-component measurement brackets.

A measurement brackets exactly one workload between two reads of an
observer counter owned by a different component than the one doing the
work, so the observed component's own clock error cannot hide in its own
measurement. The default reference is a monotonic nanosecond timer; platform
backends (GPU cycle registers, CPU cycle counters) plug in through
:meth:`CounterRegistry.register` without any caller changes.

Backend notes for implementers of real GPU registers: deltas are computed
in unsigned modular arithmetic assuming at most one wrap, so counters
narrower than 64 bits reject workloads longer than half their period. Long
sleeps (up to 120 s) are read as a single read-pair, not polled; a narrow
hardware counter must either be widened in the backend or polled there.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable


class Component(Enum):
    CPU = "cpu"
    GPU = "gpu"
    MEMORY = "memory"
    STORAGE = "storage"
    TIMER = "timer"


class SourceUnavailable(RuntimeError):
    """The requested counter source is not registered or its backend failed."""


class MeasurementInvalid(RuntimeError):
    """The bracket cannot produce a trustworthy delta."""


@dataclass(frozen=True)
class CounterSource:
    id: str
    component: Component
    nominal_frequency_hz: float | None = None
    monotonic: bool = True
    width_bits: int = 64


@dataclass(frozen=True)
class CounterReading:
    source_id: str
    value: int


@dataclass(frozen=True)
class CrossMeasurement:
    """Observer-counter delta across one workload execution."""

    observer: str
    observed_component: Component
    workload_id: str
    delta: int
    duration_tag: str = ""


TIMER_SOURCE_ID = "timer"
TIMER_SOURCE = CounterSource(TIMER_SOURCE_ID, Component.TIMER, 1e9, monotonic=True)


class CounterRegistry:
    """Named counter backends plus measurement brackets.

    A registry is bound to the thread that uses it; brackets are strictly
    single-threaded. ``include_host_timer`` registers the monotonic
    nanosecond timer as source ``timer``.
    """

    def __init__(self, include_host_timer: bool = True):
        self._sources: dict[str, CounterSource] = {}
        self._readers: dict[str, Callable[[], int]] = {}
        if include_host_timer:
            self.register(TIMER_SOURCE, time.perf_counter_ns)

    def register(self, source: CounterSource, read_fn: Callable[[], int]) -> None:
        if source.id in self._sources:
            raise ValueError(f"source id already registered: {source.id}")
        self._sources[source.id] = source
        self._readers[source.id] = read_fn

    def sources(self) -> list[CounterSource]:
        return list(self._sources.values())

    def source(self, source_id: str) -> CounterSource:
        try:
            return self._sources[source_id]
        except KeyError:
            raise SourceUnavailable(f"no such counter source: {source_id}") from None

    def find(self, component: Component) -> CounterSource | None:
        for source in self._sources.values():
            if source.component is component:
                return source
        return None

    def read(self, source_id: str) -> CounterReading:
        source = self.source(source_id)
        try:
            value = self._readers[source_id]()
        except SourceUnavailable:
            raise
        except Exception as exc:
            raise SourceUnavailable(f"backend for {source_id} failed: {exc}") from exc
        return CounterReading(source.id, int(value))

    def _delta(self, source: CounterSource, before: int, after: int) -> int:
        period = 1 << source.width_bits
        delta = (after - before) % period
        if delta > period // 2:
            raise MeasurementInvalid(
                f"{source.id}: delta {after - before} exceeds half the counter "
                f"period; wrapped more than once or ran backwards"
            )
        return delta

    def measure(
        self,
        observer_id: str,
        observed_component: Component,
        workload_id: str,
        workload: Callable[[], object],
        duration_tag: str = "",
    ) -> CrossMeasurement:
        """Run ``workload`` inside a read-pair of the observer counter.

        The bracket contains exactly the workload call: the reader callables
        are resolved and the cross-component check done before the first
        read. A failing workload propagates and no measurement is produced.
        """
        source = self.source(observer_id)
        if source.component is observed_component:
            raise MeasurementInvalid(
                f"observer {observer_id} belongs to the observed component "
                f"{observed_component.value}; cross-component measurement required"
            )
        read_fn = self._readers[observer_id]
        before = read_fn()
        workload()
        after = read_fn()
        delta = self._delta(source, int(before), int(after))
        return CrossMeasurement(observer_id, observed_component, workload_id, delta, duration_tag)

    def measure_overhead(self, observer_id: str, repetitions: int = 1000) -> dict[str, float]:
        """Empty-bracket deltas: the cost of the read-pair itself.

        Measured once per session and stored alongside the data for later
        noise accounting.
        """
        source = self.source(observer_id)
        read_fn = self._readers[observer_id]
        deltas = []
        for _ in range(repetitions):
            before = read_fn()
            after = read_fn()
            deltas.append(self._delta(source, int(before), int(after)))
        return {
            "observer": observer_id,
            "repetitions": repetitions,
            "min": float(min(deltas)),
            "mean": float(statistics.fmean(deltas)),
            "max": float(max(deltas)),
        }


def host_registry() -> CounterRegistry:
    """Registry for the current host: the monotonic timer plus any platform
    backends the caller registers afterwards."""
    return CounterRegistry(include_host_timer=True)


def observer_for(registry: CounterRegistry, target: Component) -> CounterSource:
    """Pick the observer for a workload on ``target``.

    CPU work is observed by the GPU counter, everything else by the CPU-side
    counter; the timer is the fallback reference either way.
    """
    preferred = Component.GPU if target is Component.CPU else Component.CPU
    source = registry.find(preferred)
    if source is None:
        source = registry.find(Component.TIMER)
    if source is None:
        raise SourceUnavailable(f"no observer available for {target.value} workloads")
    return source
