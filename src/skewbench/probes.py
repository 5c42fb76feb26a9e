"""Counter sources and the cross-component delta check.

A measurement brackets exactly one workload between two reads of an
observer counter owned by a different component than the one doing the
work, so the observed component's own clock error cannot hide in its own
measurement. The bracket itself is ``collector.collect_sample``; its checks
live in ``collector.bracket_plan`` (the observer must belong to another
component, checked once per session) and in :func:`counter_delta` (the
modular delta of one read-pair). The default reference is a monotonic
nanosecond timer; platform backends (GPU cycle registers, CPU cycle
counters) plug in through :meth:`CounterRegistry.register` without any
caller changes.

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
    width_bits: int = 64


TIMER_SOURCE_ID = "timer"
TIMER_SOURCE = CounterSource(TIMER_SOURCE_ID, Component.TIMER)
OVERHEAD_REPETITIONS = 1000  # empty brackets per measure_overhead call


class CounterRegistry:
    """Named counter backends and their readers.

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

    def reader(self, source_id: str) -> Callable[[], int]:
        """The read callable of a registered source."""
        self.source(source_id)
        return self._readers[source_id]

    def measure_overhead(self, observer_id: str) -> dict[str, float]:
        """Empty-bracket deltas: the cost of the read-pair itself.

        Measured once per session, before the first sample, and stored
        alongside the data for later noise accounting. A backend that fails
        here raises :class:`SourceUnavailable`.
        """
        period = 1 << self.source(observer_id).width_bits
        read_fn = self._readers[observer_id]
        try:
            pairs = [(read_fn(), read_fn()) for _ in range(OVERHEAD_REPETITIONS)]
        except Exception as exc:
            raise SourceUnavailable(f"backend for {observer_id} failed: {exc}") from exc
        deltas = [counter_delta(observer_id, period, before, after) for before, after in pairs]
        return {
            "observer": observer_id,
            "repetitions": OVERHEAD_REPETITIONS,
            "min": float(min(deltas)),
            "mean": float(statistics.fmean(deltas)),
            "max": float(max(deltas)),
        }


def counter_delta(source_id: str, period: int, before: int, after: int) -> int:
    """Counts from ``before`` to ``after`` on a counter that wraps at ``period``.

    At most one wrap is assumed. A delta above half the period cannot be
    told from a double wrap or a counter running backwards, and raises
    :class:`MeasurementInvalid`.
    """
    delta = (after - before) % period
    if delta > period // 2:
        raise MeasurementInvalid(
            f"{source_id}: delta {after - before} exceeds half the counter "
            f"period; wrapped more than once or ran backwards"
        )
    return delta


def host_registry() -> CounterRegistry:
    """Registry for the current host: the monotonic timer plus any platform
    backends the caller registers afterwards."""
    return CounterRegistry()


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
