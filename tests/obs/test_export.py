"""Tests for the exporters and the strict Prometheus text parser."""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    MetricsRegistry,
    Tracer,
    parse_prometheus_text,
    render_table,
    to_json,
    to_prometheus,
    write_json,
)
from repro.obs.export import _escape_help, _format_value, _render_labels


def populated_registry():
    registry = MetricsRegistry()
    registry.counter("runs_total", help="Total runs.", mechanism="ref").inc(3)
    registry.gauge("agents", help="Active agents.").set(2.0)
    hist = registry.histogram("latency_seconds", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    return registry


class TestPrometheusExport:
    def test_help_type_and_samples(self):
        text = to_prometheus(populated_registry())
        assert "# HELP runs_total Total runs." in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{mechanism="ref"} 3' in text
        assert "# TYPE agents gauge" in text

    def test_histogram_buckets_are_cumulative(self):
        text = to_prometheus(populated_registry())
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_sum 5.55" in text
        assert "latency_seconds_count 3" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", path='say "hi"\nthere\\x').inc()
        text = to_prometheus(registry)
        assert 'path="say \\"hi\\"\\nthere\\\\x"' in text

    def test_empty_registry_exports_empty_string(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_output_parses_under_own_grammar(self):
        samples = parse_prometheus_text(to_prometheus(populated_registry()))
        names = {sample["name"] for sample in samples}
        assert {
            "runs_total",
            "agents",
            "latency_seconds_bucket",
            "latency_seconds_sum",
            "latency_seconds_count",
        } <= names


def merge_then_render(registries):
    """The reference for the union render: merge into a fresh registry,
    then render it the way the single-registry renderer always did."""
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    lines = []
    for family in merged.families():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for key in sorted(family.children):
            child = family.children[key]
            if family.kind in ("counter", "gauge"):
                lines.append(f"{family.name}{_render_labels(key)} {_format_value(child.value)}")
                continue
            cumulative = 0
            for bound, bucket_count in zip(child.buckets, child.bucket_counts):
                cumulative += bucket_count
                labels = key + (("le", _format_value(bound)),)
                lines.append(f"{family.name}_bucket{_render_labels(labels)} {cumulative}")
            labels = key + (("le", "+Inf"),)
            lines.append(f"{family.name}_bucket{_render_labels(labels)} {child.count}")
            lines.append(f"{family.name}_sum{_render_labels(key)} {_format_value(child.sum)}")
            lines.append(f"{family.name}_count{_render_labels(key)} {child.count}")
    return "\n".join(lines) + ("\n" if lines else "")


METRIC_NAMES = ("jobs_total", "depth", "wait_seconds")
KINDS = ("counter", "gauge", "histogram")
LABEL_SETS = (
    {},
    {"route": "a"},
    {"route": 'say "hi"'},
    {"route": "back\\slash", "status": "new\nline"},
)
HELPS = ("", "First help.", "Second\\help\nline.")
BUCKETS = ((0.1, 1.0), (0.1, 1.0, 10.0))
SPECIAL = st.sampled_from([0.0, 3.0, 0.5, 1.5e15, math.inf, math.nan])
COUNTER_VALUES = st.one_of(SPECIAL, st.floats(0.0, 1e6))
GAUGE_VALUES = st.one_of(SPECIAL, st.floats(-1e6, 1e6), st.just(-math.inf))
OBSERVATIONS = st.one_of(st.floats(-5.0, 50.0), st.sampled_from([math.inf, -math.inf]))


@st.composite
def overlapping_registries(draw):
    """One to three registries over a few shared names and label sets;
    a name's kind or a histogram's bounds may clash between them."""
    kinds = {name: draw(st.sampled_from(KINDS)) for name in METRIC_NAMES}
    registries = []
    for _ in range(draw(st.integers(1, 3))):
        registry = MetricsRegistry()
        for name in draw(st.lists(st.sampled_from(METRIC_NAMES), unique=True)):
            kind = kinds[name]
            if draw(st.integers(0, 9)) == 0:
                kind = draw(st.sampled_from(KINDS))
            text = draw(st.sampled_from(HELPS))
            for labels in draw(st.lists(st.sampled_from(LABEL_SETS), max_size=3, unique_by=repr)):
                if kind == "counter":
                    registry.counter(name, help=text, **labels).inc(draw(COUNTER_VALUES))
                elif kind == "gauge":
                    registry.gauge(name, help=text, **labels).set(draw(GAUGE_VALUES))
                else:
                    bounds = BUCKETS[0] if draw(st.integers(0, 7)) else BUCKETS[1]
                    child = registry.histogram(name, help=text, buckets=bounds, **labels)
                    for value in draw(st.lists(OBSERVATIONS, max_size=4)):
                        child.observe(value)
        registries.append(registry)
    return registries


class TestUnionRender:
    """``to_prometheus(*registries)`` renders what merging them would."""

    @settings(max_examples=300, deadline=None)
    @given(registries=overlapping_registries(), bumps=st.lists(COUNTER_VALUES, max_size=3))
    def test_matches_merge_then_render(self, registries, bumps):
        registries[0].gauge("late_gauge", route="z").set(1.0)
        try:
            expected = merge_then_render(registries)
        except ValueError as error:
            with pytest.raises(ValueError, match=re.escape(str(error))):
                to_prometheus(*registries)
            return
        assert to_prometheus(*registries) == expected
        # Kept series text must not keep values, and a label set that
        # joins a rendered family must land in label order.
        for value in bumps:
            registries[-1].counter("bumped_total", help="Bumps.", route="a").inc(value)
            for child in registries[0].metrics():
                if child.kind == "gauge":
                    child.set(value)
            registries[0].gauge("late_gauge", route=repr(value)).set(value)
            assert to_prometheus(*registries) == merge_then_render(registries)

    def test_counters_sum_gauges_take_the_last_value(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("jobs_total", route="a").inc(2)
        second.counter("jobs_total", help="Jobs.", route="a").inc(3)
        first.gauge("depth").set(7)
        second.gauge("depth", help="Depth.").set(4)
        text = to_prometheus(first, second)
        assert 'jobs_total{route="a"} 5' in text
        assert "depth 4" in text
        assert "# HELP jobs_total Jobs." in text

    def test_a_registry_passed_twice_counts_once(self):
        registry = populated_registry()
        assert to_prometheus(registry, registry) == to_prometheus(registry)

    def test_kind_clash_raises(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("x").inc()
        second.gauge("x").set(1)
        with pytest.raises(ValueError, match="already registered as a counter"):
            to_prometheus(first, second)

    def test_bucket_clash_raises(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.histogram("h", buckets=(1.0,), route="a").observe(0.5)
        second.histogram("h", buckets=(2.0,), route="a").observe(0.5)
        with pytest.raises(ValueError, match="already exists with buckets"):
            to_prometheus(first, second)

    def test_a_family_without_series_renders_nothing(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("lonely_total", **{"bad-label": "v"})
        assert to_prometheus(registry) == merge_then_render([registry]) == ""


class TestJsonExport:
    def test_round_trip_through_file(self, tmp_path):
        registry = populated_registry()
        path = tmp_path / "metrics.json"
        write_json(registry, str(path))
        rebuilt = MetricsRegistry.from_dict(json.loads(path.read_text()))
        assert rebuilt.as_dict() == registry.as_dict()

    def test_spans_embedded(self, tmp_path):
        registry = MetricsRegistry()
        tracer = Tracer()
        with tracer.span("epoch"):
            pass
        path = tmp_path / "metrics.json"
        write_json(registry, str(path), spans=tracer.spans_as_dicts())
        payload = json.loads(path.read_text())
        assert payload["spans"][0]["name"] == "epoch"
        # from_dict ignores the spans key.
        MetricsRegistry.from_dict(payload)

    def test_to_json_accepts_span_records(self):
        tracer = Tracer()
        with tracer.span("epoch"):
            pass
        payload = json.loads(to_json(MetricsRegistry(), spans=tracer.roots))
        assert payload["spans"][0]["name"] == "epoch"


class TestRenderTable:
    def test_empty_placeholder(self):
        assert render_table(MetricsRegistry()) == "(no metrics recorded)"

    def test_rows_for_each_child(self):
        table = render_table(populated_registry())
        assert 'runs_total{mechanism="ref"}' in table
        assert "count=3" in table
        assert "p50=" in table


class TestPrometheusParser:
    def test_parses_values_and_labels(self):
        samples = parse_prometheus_text(
            'a_total{x="1",y="two"} 5\nb 2.5\nc NaN\nd +Inf\n'
        )
        assert samples[0] == {"name": "a_total", "labels": {"x": "1", "y": "two"}, "value": 5.0}
        assert samples[1]["value"] == pytest.approx(2.5)
        assert math.isnan(samples[2]["value"])
        assert math.isinf(samples[3]["value"])

    def test_unescapes_label_values(self):
        samples = parse_prometheus_text('a{m="line\\nbreak \\"q\\" \\\\"} 1\n')
        assert samples[0]["labels"]["m"] == 'line\nbreak "q" \\'

    def test_rejects_malformed_lines(self):
        for bad in (
            "not a sample",
            "name{unclosed 1",
            'name{label="x"} not_a_number',
            "# TYPE metric bogus_kind",
            "# TYPE 1bad counter",
        ):
            with pytest.raises(ValueError):
                parse_prometheus_text(bad + "\n")

    def test_rejects_duplicate_type_comment(self):
        with pytest.raises(ValueError, match="duplicate TYPE"):
            parse_prometheus_text("# TYPE a counter\n# TYPE a counter\n")

    def test_ignores_freeform_comments_and_blank_lines(self):
        samples = parse_prometheus_text("# just a comment\n\na 1\n")
        assert len(samples) == 1
