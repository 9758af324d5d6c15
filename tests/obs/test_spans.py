"""Tests for hierarchical span tracing and the timed() helper."""

import pytest

from repro.obs import MetricsRegistry, SpanRecord, Tracer, timed


class TestTracer:
    def test_mirror_histograms_are_looked_up_once_per_span_name(self, monkeypatch):
        lookups = []
        histogram = MetricsRegistry.histogram

        def counted(self, name, *args, **kwargs):
            lookups.append(kwargs.get("span"))
            return histogram(self, name, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, "histogram", counted)
        tracer = Tracer(metrics=MetricsRegistry())
        for _ in range(3):
            with tracer.span("epoch"):
                with tracer.span("allocate"):
                    pass
        assert sorted(lookups) == ["allocate", "epoch"]
        assert tracer.metrics.get("repro_span_seconds", span="epoch").count == 3
        # A replaced registry gets its own series.
        first, tracer.metrics = tracer.metrics, MetricsRegistry()
        with tracer.span("epoch"):
            pass
        assert tracer.metrics.get("repro_span_seconds", span="epoch").count == 1
        assert first.get("repro_span_seconds", span="epoch").count == 3

    def test_nested_spans_build_a_tree(self):
        tracer = Tracer()
        with tracer.span("epoch", epoch=0):
            with tracer.span("allocate"):
                pass
            with tracer.span("measure"):
                with tracer.span("retry"):
                    pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "epoch"
        assert root.meta == {"epoch": 0}
        assert [child.name for child in root.children] == ["allocate", "measure"]
        assert root.children[1].children[0].name == "retry"

    def test_walk_and_find(self):
        tracer = Tracer()
        with tracer.span("epoch"):
            with tracer.span("measure"):
                pass
            with tracer.span("measure"):
                pass
        root = tracer.roots[0]
        assert [span.name for span in root.walk()] == ["epoch", "measure", "measure"]
        assert len(root.find("measure")) == 2
        assert root.find("missing") == []

    def test_current_tracks_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer"):
            assert tracer.current.name == "outer"
            with tracer.span("inner"):
                assert tracer.current.name == "inner"
            assert tracer.current.name == "outer"
        assert tracer.current is None

    def test_durations_are_recorded_and_nested_fit_inside_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.duration >= inner.duration >= 0.0

    def test_duration_recorded_when_block_raises(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("fail")
        assert len(tracer.roots) == 1
        assert tracer.roots[0].duration >= 0.0
        assert tracer.current is None  # stack unwound cleanly

    def test_roots_are_bounded_and_drops_counted(self):
        tracer = Tracer(max_roots=3)
        for index in range(5):
            with tracer.span("epoch", epoch=index):
                pass
        assert len(tracer.roots) == 3
        assert [root.meta["epoch"] for root in tracer.roots] == [2, 3, 4]
        assert tracer.dropped_roots == 2

    def test_rejects_bad_max_roots(self):
        with pytest.raises(ValueError, match="max_roots"):
            Tracer(max_roots=0)

    def test_metrics_mirror_labels_by_span_name(self):
        registry = MetricsRegistry()
        tracer = Tracer(metrics=registry)
        with tracer.span("epoch"):
            with tracer.span("allocate"):
                pass
        assert registry.get("repro_span_seconds", span="epoch").count == 1
        assert registry.get("repro_span_seconds", span="allocate").count == 1

    def test_spans_as_dicts_offsets_relative_to_root(self):
        tracer = Tracer()
        with tracer.span("epoch"):
            with tracer.span("inner"):
                pass
        tree = tracer.spans_as_dicts()[0]
        assert tree["name"] == "epoch"
        assert tree["offset"] == 0.0
        child = tree["children"][0]
        assert child["offset"] >= 0.0
        assert "meta" not in tree  # empty meta omitted


class TestSpanRecord:
    def test_as_dict_includes_meta_when_present(self):
        record = SpanRecord(name="s", start=10.0, duration=1.0, meta={"k": "v"})
        as_dict = record.as_dict()
        assert as_dict == {"name": "s", "offset": 0.0, "duration": 1.0, "meta": {"k": "v"}}


class TestTimed:
    def test_observes_into_named_histogram(self):
        registry = MetricsRegistry()
        with timed(registry, "op_seconds", op="fit"):
            pass
        hist = registry.get("op_seconds", op="fit")
        assert hist.count == 1
        assert hist.sum >= 0.0

    def test_observes_even_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            with timed(registry, "op_seconds"):
                raise ValueError("boom")
        assert registry.get("op_seconds").count == 1

    def test_custom_buckets_forwarded(self):
        registry = MetricsRegistry()
        with timed(registry, "op_seconds", buckets=(1.0, 2.0)):
            pass
        assert registry.get("op_seconds").buckets == (1.0, 2.0)
