"""Metric primitives and the registry that owns them.

Three metric kinds, mirroring the Prometheus data model:

* :class:`Counter` — monotonically non-decreasing totals;
* :class:`Gauge` — a value that can move both ways;
* :class:`Histogram` — observation count/sum/min/max and fixed
  buckets (for Prometheus export and quantile estimates), so its size
  never depends on how many observations it took.

Every metric belongs to a *family* (one name, one kind, one help
string) and is keyed within the family by its label set, exactly like
Prometheus children.  :class:`MetricsRegistry` creates metrics on first
use, serializes to/from plain dicts (JSON-safe), and merges — the
operation the CLI uses to combine a profiler's registry with the
process-global one before export.

A producer declares each family it writes as a :class:`Series` and
touches it through :meth:`MetricsRegistry.child`, which holds every
child it has handed out: a warm touch is one dict lookup.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "global_registry",
    "set_global_registry",
]

#: Default latency-oriented bucket upper bounds (seconds).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    for name in labels:
        if not _LABEL_NAME.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically non-decreasing total."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        self.value += float(amount)


class Gauge:
    """A point-in-time value that can move in both directions."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += float(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= float(amount)


class Histogram:
    """Observation statistics with fixed buckets.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]`` minus
    those counted by earlier buckets (non-cumulative storage; the
    Prometheus exporter re-accumulates).  :meth:`quantile` estimates
    from the buckets alone, so memory stays O(buckets) over
    arbitrarily long runs.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelKey = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        buckets = tuple(float(b) for b in buckets)
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(buckets, buckets[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing, got {buckets}")
        self.name = name
        self.labels = labels
        self.buckets = buckets
        self.bucket_counts = [0] * (len(buckets) + 1)  # final slot = +Inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    def observe_many(self, values) -> None:
        """Record each of ``values`` in order: the state one :meth:`observe`
        per value leaves, for values that are not NaN.

        One ``np.searchsorted`` on the bounds counts the buckets (its
        left side is ``bisect_left``'s rule), and ``sum`` adds the values
        one at a time, so it keeps ``observe``'s bits.
        """
        values = np.asarray(values, dtype=float).ravel()
        if not values.size:
            return
        total = self.sum
        for value in values.tolist():
            total += value
        self.count += values.size
        self.sum = total
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))
        added = np.bincount(
            np.searchsorted(self.buckets, values), minlength=len(self.bucket_counts)
        )
        self.bucket_counts = [n + k for n, k in zip(self.bucket_counts, added.tolist())]

    def quantile(self, q: float) -> float:
        """The ``q`` quantile estimated from the buckets.

        Interpolates linearly inside the bucket that holds rank
        ``q * count``, whose edges are clamped to the observed min and
        max (so ``quantile(0)`` is the min and ``quantile(1)`` the max).
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return float("nan")
        rank, seen = q * self.count, 0
        for i, n in enumerate(self.bucket_counts):
            if n and seen + n >= rank:
                lower = max(self.buckets[i - 1], self.min) if i else self.min
                upper = min(self.buckets[i], self.max) if i < len(self.buckets) else self.max
                return lower + (upper - lower) * (rank - seen) / n
            seen += n
        return self.max  # pragma: no cover - the buckets hold every observation

    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")


class Series(NamedTuple):
    """A declared metric family: kind, name, help, label names, histogram buckets.

    ``kind`` names the registry method that creates it (``"counter"``,
    ``"gauge"`` or ``"histogram"``); :meth:`MetricsRegistry.child` takes
    one value per label name, in order.
    """

    kind: str
    name: str
    help: str = ""
    labels: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None


class _Family:
    """One metric name: its kind, help string and per-label children."""

    def __init__(self, name: str, kind: str, help: str):
        self.name = name
        self.kind = kind
        self.help = help
        self.children: Dict[LabelKey, object] = {}
        #: Each child's Prometheus series text up to its value, in label
        #: order, kept by the exporter (children are only ever added).
        self.rendered: Dict[LabelKey, object] = {}


class MetricsRegistry:
    """Creates, owns, serializes and merges metric families.

    Metrics are created on first use and returned on every subsequent
    call with the same name and labels::

        registry = MetricsRegistry()
        registry.counter("requests_total", route="/allocate").inc()
        registry.histogram("epoch_seconds").observe(0.012)

    Access is guarded by a single lock, so concurrent instrumentation
    from worker threads is safe.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._lock = threading.Lock()
        #: (series, label values) -> the child :meth:`child` handed out.
        self._children: Dict[Tuple[Series, tuple], object] = {}

    # ------------------------------------------------------------------
    # Creation / lookup

    def _family(self, name: str, kind: str, help: str) -> _Family:
        if not _METRIC_NAME.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help)
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as a {family.kind}, "
                f"cannot re-register as a {kind}"
            )
        if help and not family.help:
            family.help = help
        return family

    def _get(self, kind: str, name: str, help: str, labels: Mapping[str, str], make):
        """The child ``name{labels}`` of a ``kind`` family; ``make(key)`` creates it."""
        with self._lock:
            family = self._family(name, kind, help)
            key = _label_key(labels)
            child = family.children.get(key)
            if child is None:
                child = family.children[key] = make(key)
            return child

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._get("counter", name, help, labels, lambda key: Counter(name, key))

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._get("gauge", name, help, labels, lambda key: Gauge(name, key))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram ``name{labels}``.

        ``buckets`` applies only on first creation; later calls for the
        same child must agree (or omit the argument).
        """
        bounds = DEFAULT_BUCKETS if buckets is None else buckets
        child = self._get("histogram", name, help, labels, lambda key: Histogram(name, key, bounds))
        if buckets is not None and tuple(float(b) for b in buckets) != child.buckets:
            raise ValueError(
                f"histogram {name!r}{dict(child.labels)} already exists with buckets "
                f"{child.buckets}; cannot change them to {tuple(buckets)}"
            )
        return child

    def child(self, series: Series, *label_values):
        """The child of ``series`` labelled ``label_values``, one per label name.

        Once the child exists this is one dict lookup.  The first touch
        creates it through :meth:`counter`, :meth:`gauge` or
        :meth:`histogram`, looked up when called (so a wrapped method
        sees every creation); a series appears only once it is touched.
        """
        try:
            return self._children[series, label_values]
        except KeyError:
            if len(label_values) != len(series.labels):
                raise ValueError(f"{series.name} takes labels {series.labels}, got {label_values}")
            options = dict(zip(series.labels, map(str, label_values)))
            if series.buckets is not None:
                options["buckets"] = series.buckets
            child = getattr(self, series.kind)(series.name, series.help, **options)
            self._children[series, label_values] = child
            return child

    # ------------------------------------------------------------------
    # Introspection

    def families(self) -> List[_Family]:
        """All families, sorted by metric name."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def metrics(self) -> Iterator[object]:
        """Every child metric across all families, in stable order."""
        for family in self.families():
            for key in sorted(family.children):
                yield family.children[key]

    def get(self, name: str, **labels: str):
        """Return the child ``name{labels}`` or ``None`` if absent."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return None
            return family.children.get(_label_key(labels))

    def __len__(self) -> int:
        with self._lock:
            return sum(len(f.children) for f in self._families.values())

    # ------------------------------------------------------------------
    # Serialization

    def as_dict(self) -> Dict[str, object]:
        """JSON-safe snapshot (``from_dict`` round-trips it exactly)."""
        counters, gauges, histograms = [], [], []
        for family in self.families():
            for key in sorted(family.children):
                child = family.children[key]
                base = {
                    "name": family.name,
                    "help": family.help,
                    "labels": dict(key),
                }
                if family.kind == "counter":
                    counters.append({**base, "value": child.value})
                elif family.kind == "gauge":
                    gauges.append({**base, "value": child.value})
                else:
                    histograms.append(
                        {
                            **base,
                            "count": child.count,
                            "sum": child.sum,
                            "min": child.min if child.count else None,
                            "max": child.max if child.count else None,
                            "buckets": [
                                [bound, count]
                                for bound, count in zip(child.buckets, child.bucket_counts)
                            ],
                            "overflow": child.bucket_counts[-1],
                        }
                    )
        return {
            "version": 1,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`as_dict` output (extra keys ignored)."""
        registry = cls()
        for entry in data.get("counters", ()):  # type: ignore[union-attr]
            registry.counter(entry["name"], help=entry.get("help", ""), **entry["labels"]).inc(
                entry["value"]
            )
        for entry in data.get("gauges", ()):  # type: ignore[union-attr]
            registry.gauge(entry["name"], help=entry.get("help", ""), **entry["labels"]).set(
                entry["value"]
            )
        for entry in data.get("histograms", ()):  # type: ignore[union-attr]
            bounds = [bound for bound, _ in entry["buckets"]]
            child = registry.histogram(
                entry["name"],
                help=entry.get("help", ""),
                buckets=bounds,
                **entry["labels"],
            )
            child.count = int(entry["count"])
            child.sum = float(entry["sum"])
            child.min = float(entry["min"]) if entry.get("min") is not None else float("inf")
            child.max = float(entry["max"]) if entry.get("max") is not None else float("-inf")
            child.bucket_counts = [int(c) for _, c in entry["buckets"]] + [
                int(entry.get("overflow", 0))
            ]
        return registry

    # ------------------------------------------------------------------
    # Merging

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place) and return self.

        Counters and histograms accumulate; gauges take the other
        registry's (more recent) value.  Histogram children must agree
        on bucket bounds.
        """
        for family in other.families():
            for key in sorted(family.children):
                child = family.children[key]
                labels = dict(key)
                if family.kind == "counter":
                    self.counter(family.name, help=family.help, **labels).inc(child.value)
                elif family.kind == "gauge":
                    self.gauge(family.name, help=family.help, **labels).set(child.value)
                else:
                    mine = self.histogram(
                        family.name,
                        help=family.help,
                        buckets=child.buckets,
                        **labels,
                    )
                    if mine.buckets != child.buckets:
                        raise ValueError(
                            f"cannot merge histogram {family.name!r}: bucket bounds differ"
                        )
                    mine.count += child.count
                    mine.sum += child.sum
                    mine.min = min(mine.min, child.min)
                    mine.max = max(mine.max, child.max)
                    mine.bucket_counts = [
                        a + b for a, b in zip(mine.bucket_counts, child.bucket_counts)
                    ]
        return self


_GLOBAL_REGISTRY = MetricsRegistry()
_GLOBAL_LOCK = threading.Lock()


def global_registry() -> MetricsRegistry:
    """The process-global registry (for code no registry can be passed to)."""
    return _GLOBAL_REGISTRY


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one.

    Tests use this to observe instrumentation in isolation::

        previous = set_global_registry(MetricsRegistry())
        try:
            ...
        finally:
            set_global_registry(previous)
    """
    global _GLOBAL_REGISTRY
    with _GLOBAL_LOCK:
        previous = _GLOBAL_REGISTRY
        _GLOBAL_REGISTRY = registry
        return previous
