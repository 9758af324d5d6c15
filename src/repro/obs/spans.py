"""Context-manager tracing: hierarchical spans and one-shot timers.

:class:`Tracer` records *span trees*: a ``with tracer.span("epoch")``
block may open nested spans (``allocate``, ``measure``, ...), and on
exit each block knows its wall-clock duration.  Completed root spans
are kept in a bounded deque (``tracer.roots``), so a long-running
service can be traced indefinitely at O(1) memory; dropped roots are
counted.

:func:`timed` is the scalar little sibling: it times one block into a
registry histogram and involves no tree at all.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from .registry import MetricsRegistry, Series

__all__ = ["SpanRecord", "Tracer", "timed"]


@dataclass
class SpanRecord:
    """One completed (or in-flight) traced block.

    ``start`` is a ``time.perf_counter`` timestamp — meaningful only
    relative to other spans from the same process; exporters emit
    offsets relative to the root span instead.
    """

    name: str
    start: float
    duration: float = 0.0
    meta: Dict[str, object] = field(default_factory=dict)
    children: List["SpanRecord"] = field(default_factory=list)

    def walk(self) -> Iterator["SpanRecord"]:
        """This span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> List["SpanRecord"]:
        """All descendant spans (including self) with the given name."""
        return [span for span in self.walk() if span.name == name]

    def as_dict(self, _origin: Optional[float] = None) -> Dict[str, object]:
        """JSON-safe tree; ``offset`` is seconds since the root's start."""
        origin = self.start if _origin is None else _origin
        record: Dict[str, object] = {
            "name": self.name,
            "offset": self.start - origin,
            "duration": self.duration,
        }
        if self.meta:
            record["meta"] = dict(self.meta)
        if self.children:
            record["children"] = [child.as_dict(origin) for child in self.children]
        return record


#: The mirror histogram of every completed span, by span name.
_SPAN_SECONDS = Series(
    "histogram", "repro_span_seconds", "Durations of traced spans, by span name.", ("span",)
)


class Tracer:
    """Builds span trees from nested ``with`` blocks.

    Parameters
    ----------
    metrics:
        Optional registry; when given, every completed span also
        observes its duration into ``repro_span_seconds{span=<name>}``.
    max_roots:
        Bound on retained completed root spans (oldest dropped first;
        ``dropped_roots`` counts them).
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None, max_roots: int = 1024):
        if max_roots < 1:
            raise ValueError(f"max_roots must be >= 1, got {max_roots}")
        self.metrics = metrics
        self.max_roots = int(max_roots)
        self.roots: List[SpanRecord] = []
        self.dropped_roots = 0
        self._stack: List[SpanRecord] = []

    @property
    def current(self) -> Optional[SpanRecord]:
        """The innermost open span, or ``None`` outside any block."""
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **meta: object) -> Iterator[SpanRecord]:
        """Open a span; nested calls become children of the open span."""
        record = SpanRecord(name=name, start=time.perf_counter(), meta=dict(meta))
        parent = self.current
        if parent is not None:
            parent.children.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.duration = time.perf_counter() - record.start
            self._stack.pop()
            if parent is None:
                self.roots.append(record)
                if len(self.roots) > self.max_roots:
                    del self.roots[: len(self.roots) - self.max_roots]
                    self.dropped_roots += 1
            if self.metrics is not None:
                self.metrics.child(_SPAN_SECONDS, name).observe(record.duration)

    def spans_as_dicts(self) -> List[Dict[str, object]]:
        """All retained root span trees, JSON-safe."""
        return [root.as_dict() for root in self.roots]


@contextmanager
def timed(
    registry: MetricsRegistry,
    name: str,
    help: str = "",
    buckets: Optional[Tuple[float, ...]] = None,
    **labels: str,
) -> Iterator[None]:
    """Time one block into the histogram ``name{labels}`` of ``registry``.

    The duration is recorded even when the block raises — a failing
    epoch still costs wall-clock time and must show up in latency
    telemetry.
    """
    bounds = None if buckets is None else tuple(buckets)
    series = Series("histogram", name, help, tuple(labels), bounds)
    start = time.perf_counter()
    try:
        yield
    finally:
        registry.child(series, *labels.values()).observe(time.perf_counter() - start)
