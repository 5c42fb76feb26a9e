"""In-memory spans recorded around the benchmark's calls into skewbench.

A span holds its name, start and end (``perf_counter_ns``), the id of the
span that was open when it started, the id of the outermost open span
(``root``: every span of one pipeline iteration shares it) and free-form
counts such as bytes or rows. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import time


class Span:
    __slots__ = ("tracer", "id", "name", "parent", "root", "start_ns", "end_ns", "attrs")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        stack = self.tracer._stack
        self.id = len(self.tracer.spans)
        self.parent = stack[-1].id if stack else None
        self.root = stack[0].id if stack else self.id
        self.tracer.spans.append(self)
        stack.append(self)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self.end_ns = time.perf_counter_ns()
        self.tracer._stack.pop()
        return False

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def to_json(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "root": self.root,
            "start_ns": self.start_ns, "end_ns": self.end_ns, **self.attrs,
        }


class _NullSpan:
    """Stands in for a span when tracing is off; records nothing."""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attrs):
        return Span(self, name, attrs) if self.enabled else _NULL_SPAN


def span_cost_s(repetitions: int = 20000) -> float:
    """Mean cost of opening and closing one empty span, in seconds."""
    tracer = Tracer(True)
    start = time.perf_counter()
    for _ in range(repetitions):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - start) / repetitions
