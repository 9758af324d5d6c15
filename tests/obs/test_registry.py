"""Tests for the metric primitives and the registry (repro.obs)."""

import math
import threading

import numpy as np
import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    global_registry,
    set_global_registry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("requests_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1.0)

    def test_same_labels_return_same_child(self):
        registry = MetricsRegistry()
        a = registry.counter("hits_total", tier="memory")
        b = registry.counter("hits_total", tier="memory")
        c = registry.counter("hits_total", tier="disk")
        assert a is b
        assert a is not c


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("agents")
        gauge.set(5.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == pytest.approx(4.0)


class TestHistogram:
    def test_count_sum_min_max(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 3.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.sum == pytest.approx(5.0)
        assert hist.min == pytest.approx(0.5)
        assert hist.max == pytest.approx(3.0)
        assert hist.mean() == pytest.approx(5.0 / 3.0)

    def test_bucket_boundaries_are_inclusive(self):
        # Prometheus semantics: bucket `le=b` includes observations == b.
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0)
        hist.observe(2.0)
        hist.observe(2.0001)
        assert hist.bucket_counts == [1, 1, 1]  # last slot is +Inf overflow

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError, match="at least one"):
            Histogram("h", buckets=())
        with pytest.raises(ValueError, match="increasing"):
            Histogram("h", buckets=(1.0, 1.0))

    def test_quantile_interpolates_inside_the_bucket_of_the_rank(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)
        # Rank 2 of 4 and rank 3 fall in (1, 2], rank 3.6 in (2, 4],
        # whose upper edge is clamped to the max seen, 3.
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(0.75) == pytest.approx(2.0)
        assert hist.quantile(0.9) == pytest.approx(2.6)

    def test_quantiles_are_clamped_to_min_and_max(self):
        hist = Histogram("h", buckets=(100.0,))
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(0.5) == pytest.approx(50.5)
        assert hist.quantile(1.0) == 100.0
        overflow = Histogram("h", buckets=(1.0,))
        for value in (5.0, 7.0):
            overflow.observe(value)
        assert (overflow.quantile(0.0), overflow.quantile(1.0)) == (5.0, 7.0)
        assert overflow.quantile(0.5) == pytest.approx(6.0)

    def test_a_file_with_a_reservoir_still_loads(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        data = registry.as_dict()
        assert "reservoir" not in data["histograms"][0]
        data["histograms"][0].update(reservoir=[1.5], reservoir_size=1024)
        loaded = MetricsRegistry.from_dict(data).get("h")
        assert loaded.bucket_counts == [0, 1, 0]
        assert loaded.quantile(1.0) == 1.5

    def test_observe_many_leaves_the_state_of_one_observe_per_value(self):
        rng = np.random.default_rng(3)
        # Values on the bounds, past both ends, and a sum whose bits
        # depend on the order of the additions.
        values = np.concatenate(
            [rng.normal(0.0, 0.4, size=500), [-0.5, 0.5, 0.0, -7.0, 7.0, 1e-17, 1e17, -1e17]]
        )
        rng.shuffle(values)
        looped, batched = Histogram("h"), Histogram("h")
        for hist in (looped, batched):
            hist.observe(0.25)
        for value in values:
            looped.observe(value)
        batched.observe_many(values[:123])
        batched.observe_many(values[123:])
        batched.observe_many([])
        assert batched.bucket_counts == looped.bucket_counts
        assert all(type(n) is int for n in batched.bucket_counts)
        assert (batched.count, batched.min, batched.max) == (
            looped.count, looped.min, looped.max
        )
        assert batched.sum.hex() == looped.sum.hex()

    def test_quantile_validation_and_empty(self):
        hist = Histogram("h")
        with pytest.raises(ValueError, match="quantile"):
            hist.quantile(1.5)
        assert math.isnan(hist.quantile(0.5))
        assert math.isnan(hist.mean())


class TestRegistry:
    def test_name_and_label_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad name")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total", **{"bad-label": "x"})

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")

    def test_histogram_bucket_conflict_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        registry.histogram("h")  # omitting buckets is fine
        with pytest.raises(ValueError, match="cannot change"):
            registry.histogram("h", buckets=(5.0,))

    def test_get_and_len(self):
        registry = MetricsRegistry()
        assert registry.get("missing") is None
        registry.counter("a_total", tier="x")
        registry.gauge("b")
        assert len(registry) == 2
        assert registry.get("a_total", tier="x").value == 0.0
        assert registry.get("a_total", tier="y") is None

    def test_default_buckets_used_when_unspecified(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.buckets == DEFAULT_BUCKETS

    def test_thread_safety_of_counter_increments(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.counter("n_total").inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Child creation is lock-guarded, so all threads share one child.
        assert registry.get("n_total") is registry.counter("n_total")


class TestSerialization:
    def _populated(self):
        registry = MetricsRegistry()
        registry.counter("runs_total", help="Runs.", mechanism="ref").inc(7)
        registry.gauge("agents").set(3.0)
        hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        return registry

    def test_round_trip_exact(self):
        original = self._populated()
        rebuilt = MetricsRegistry.from_dict(original.as_dict())
        assert rebuilt.as_dict() == original.as_dict()

    def test_empty_histogram_min_max_are_none(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        entry = registry.as_dict()["histograms"][0]
        assert entry["min"] is None and entry["max"] is None
        rebuilt = MetricsRegistry.from_dict(registry.as_dict())
        assert rebuilt.get("h").count == 0

    def test_from_dict_ignores_extra_keys(self):
        payload = self._populated().as_dict()
        payload["spans"] = [{"name": "epoch"}]
        rebuilt = MetricsRegistry.from_dict(payload)
        assert rebuilt.get("runs_total", mechanism="ref").value == 7


class TestMerge:
    def test_counters_accumulate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n_total").inc(2)
        b.counter("n_total").inc(3)
        a.merge(b)
        assert a.get("n_total").value == pytest.approx(5.0)

    def test_gauges_take_other_value(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g").set(1.0)
        b.gauge("g").set(9.0)
        a.merge(b)
        assert a.get("g").value == pytest.approx(9.0)

    def test_histograms_accumulate_counts_and_buckets(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (0.05, 0.5):
            a.histogram("h", buckets=(0.1, 1.0)).observe(value)
        for value in (5.0, 0.01):
            b.histogram("h", buckets=(0.1, 1.0)).observe(value)
        a.merge(b)
        merged = a.get("h")
        assert merged.count == 4
        assert merged.sum == pytest.approx(5.56)
        assert merged.min == pytest.approx(0.01)
        assert merged.max == pytest.approx(5.0)
        assert merged.bucket_counts == [2, 1, 1]

    def test_merge_disjoint_families(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("only_a_total").inc()
        b.counter("only_b_total").inc()
        a.merge(b)
        assert a.get("only_a_total").value == 1
        assert a.get("only_b_total").value == 1

    def test_merge_returns_self(self):
        a = MetricsRegistry()
        assert a.merge(MetricsRegistry()) is a


class TestGlobalRegistry:
    def test_swap_and_restore(self):
        replacement = MetricsRegistry()
        previous = set_global_registry(replacement)
        try:
            assert global_registry() is replacement
            global_registry().counter("swapped_total").inc()
            assert replacement.get("swapped_total").value == 1
        finally:
            restored = set_global_registry(previous)
            assert restored is replacement
        assert global_registry() is previous
