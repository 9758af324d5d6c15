"""Exporters: registry → JSON file / Prometheus text format / table.

The JSON form is ``MetricsRegistry.as_dict()`` plus an optional
``"spans"`` key (the dynamic service's per-epoch span trees); it
round-trips through ``MetricsRegistry.from_dict`` and is what
``--metrics-out`` writes and ``python -m repro metrics FILE`` reads.

The Prometheus form follows the text exposition format (version
0.0.4): ``# HELP`` / ``# TYPE`` comments, escaped label values,
histograms expanded into cumulative ``_bucket{le=...}`` series plus
``_sum`` and ``_count``.  :func:`parse_prometheus_text` is a strict
parser for that grammar, used by tests and the CI smoke job to prove
the output is scrapeable.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .registry import LabelKey, MetricsRegistry, _Family
from .spans import SpanRecord

__all__ = [
    "parse_prometheus_text",
    "render_table",
    "to_json",
    "to_prometheus",
    "write_json",
]


def _format_value(value: float) -> str:
    """A Prometheus-legal rendering of a float."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{name}="{_escape_label_value(value)}"' for name, value in labels)
    return "{" + body + "}"


def _series_text(family: _Family, key: LabelKey) -> object:
    """Series ``key``'s text up to its value.

    A counter or gauge gets ``'name{labels} '``; a histogram gets its
    finite buckets' line prefixes, then its ``+Inf`` bucket's, its
    ``_sum``'s and its ``_count``'s.
    """
    name, labels = family.name, _render_labels(key)
    if family.kind != "histogram":
        return f"{name}{labels} "
    bounds = [_format_value(bound) for bound in (*family.children[key].buckets, math.inf)]
    bucket = [f"{name}_bucket" + _render_labels(key + (("le", le),)) + " " for le in bounds]
    return (bucket[:-1], bucket[-1], f"{name}_sum{labels} ", f"{name}_count{labels} ")


def _rendered(family: _Family) -> Dict[LabelKey, object]:
    """``family``'s series texts in label order, built once per series.

    A registry only ever adds children, so while the count matches the
    texts are current; a new child re-sorts them, keeping the built ones.
    """
    rendered = family.rendered
    if len(rendered) != len(family.children):
        rendered = family.rendered = {
            key: rendered[key] if key in rendered else _series_text(family, key)
            for key in sorted(family.children)
        }
    return rendered


def _series(group: List[_Family]) -> Iterator[Tuple[object, List[object]]]:
    """One metric name's label sets in label order: each one's text and
    its children, in registry order."""
    if len(group) == 1:
        children = group[0].children
        for key, text in _rendered(group[0]).items():
            yield text, [children[key]]
        return
    texts = [_rendered(family) for family in group]
    for key in sorted(set().union(*texts)):
        owners = [i for i, rendered in enumerate(texts) if key in rendered]
        yield texts[owners[0]][key], [group[i].children[key] for i in owners]


def _union(registries: Sequence[MetricsRegistry]) -> Dict[str, List[_Family]]:
    """Each metric name's non-empty families, in registry order.

    Raises the ``ValueError`` :meth:`MetricsRegistry.merge` would, at
    the clash it would meet first: a family whose kind differs from its
    first one, or a histogram child whose bucket bounds differ from the
    first child of the same labels.
    """
    union: Dict[str, List[_Family]] = {}
    distinct: List[MetricsRegistry] = []
    for registry in registries:
        if any(registry is other for other in distinct):
            continue
        distinct.append(registry)
        for family in registry.families():
            if not family.children:
                continue
            group = union.setdefault(family.name, [])
            if group and family.kind != group[0].kind:
                raise ValueError(
                    f"metric {family.name!r} already registered as a {group[0].kind}, "
                    f"cannot re-register as a {family.kind}"
                )
            if group and family.kind == "histogram":
                for key in sorted(family.children):
                    first = next((f.children[key] for f in group if key in f.children), None)
                    buckets = family.children[key].buckets
                    if first is not None and first.buckets != buckets:
                        raise ValueError(
                            f"histogram {family.name!r}{dict(key)} already exists with "
                            f"buckets {first.buckets}; cannot change them to {buckets}"
                        )
            group.append(family)
    return union


def to_prometheus(*registries: MetricsRegistry) -> str:
    """Render the union of ``registries`` in Prometheus text exposition format.

    The text is exactly that of merging the registries, in order, into a
    fresh one (:meth:`MetricsRegistry.merge`) and rendering it, without
    building that registry: counters are summed in registry order, a
    gauge takes the last registry's value, histograms are summed, a
    family's help is its first non-empty one, and a kind or bucket-bound
    clash raises ``ValueError``.  A registry passed twice counts once.
    """
    lines: List[str] = []
    append = lines.append
    union = _union(registries)
    for name in sorted(union):
        group = union[name]
        kind = group[0].kind
        help_text = next((family.help for family in group if family.help), "")
        if help_text:
            append(f"# HELP {name} {_escape_help(help_text)}")
        append(f"# TYPE {name} {kind}")
        for text, children in _series(group):
            if kind == "gauge":
                append(text + _format_value(children[-1].value))
                continue
            total = 0.0  # float sums in registry order, as merge adds them
            if kind == "counter":
                for child in children:
                    total += child.value
                append(text + _format_value(total))
                continue
            for child in children:
                total += child.sum
            count = sum(child.count for child in children)
            bucket_text, inf_text, sum_text, count_text = text
            cumulative = 0
            for prefix, *column in zip(bucket_text, *(child.bucket_counts for child in children)):
                cumulative += sum(column)
                append(f"{prefix}{cumulative}")
            append(f"{inf_text}{count}")
            append(sum_text + _format_value(total))
            append(f"{count_text}{count}")
    return "\n".join(lines) + ("\n" if lines else "")


def to_json(
    registry: MetricsRegistry,
    spans: Optional[Sequence[Union[SpanRecord, Dict[str, object]]]] = None,
    indent: int = 2,
) -> str:
    """Serialize a registry (and optional span trees) to a JSON string."""
    payload = registry.as_dict()
    if spans is not None:
        payload["spans"] = [
            span.as_dict() if isinstance(span, SpanRecord) else span for span in spans
        ]
    return json.dumps(payload, indent=indent, sort_keys=False)


def write_json(
    registry: MetricsRegistry,
    path: str,
    spans: Optional[Sequence[Union[SpanRecord, Dict[str, object]]]] = None,
) -> None:
    """Write :func:`to_json` output to ``path`` (the ``--metrics-out`` file)."""
    with open(path, "w") as handle:
        handle.write(to_json(registry, spans=spans))
        handle.write("\n")


def render_table(registry: MetricsRegistry) -> str:
    """Human-readable summary table (the default ``repro metrics`` view)."""
    rows: List[Tuple[str, str, str]] = []
    for family in registry.families():
        for key in sorted(family.children):
            child = family.children[key]
            name = f"{family.name}{_render_labels(key)}"
            if family.kind == "histogram":
                if child.count:
                    detail = (
                        f"count={child.count} mean={child.mean():.6g} "
                        f"min={child.min:.6g} max={child.max:.6g} "
                        f"p50={child.quantile(0.5):.6g} p99={child.quantile(0.99):.6g}"
                    )
                else:
                    detail = "count=0"
                rows.append((name, family.kind, detail))
            else:
                rows.append((name, family.kind, _format_value(child.value)))
    if not rows:
        return "(no metrics recorded)"
    name_width = max(len(name) for name, _, _ in rows)
    kind_width = max(len(kind) for _, kind, _ in rows)
    return "\n".join(
        f"{name:<{name_width}}  {kind:<{kind_width}}  {detail}"
        for name, kind, detail in rows
    )


# ---------------------------------------------------------------------------
# Prometheus text-format parser (for tests and CI assertions)
# ---------------------------------------------------------------------------

_METRIC_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_VALUE_RE = re.compile(r"^[+-]?(?:Inf|NaN|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def parse_prometheus_text(text: str) -> List[Dict[str, object]]:
    """Parse Prometheus text-format exposition; raises ``ValueError`` on
    any line that does not conform to the grammar.

    Returns the samples as ``{"name", "labels", "value"}`` dicts.
    Intentionally strict: the CI smoke job feeds ``repro metrics
    --format prometheus`` through this to guarantee scrapeability.
    """
    samples: List[Dict[str, object]] = []
    typed: Dict[str, str] = {}
    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3 or not _METRIC_RE.match(parts[2]):
                    raise ValueError(f"line {line_number}: malformed {parts[1]} comment: {raw_line!r}")
                if parts[1] == "TYPE":
                    if len(parts) < 4 or parts[3] not in (
                        "counter",
                        "gauge",
                        "histogram",
                        "summary",
                        "untyped",
                    ):
                        raise ValueError(f"line {line_number}: bad TYPE: {raw_line!r}")
                    if parts[2] in typed:
                        raise ValueError(
                            f"line {line_number}: duplicate TYPE for {parts[2]!r}"
                        )
                    typed[parts[2]] = parts[3]
            continue  # other comments are legal and ignored
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {line_number}: not a valid sample line: {raw_line!r}")
        labels: Dict[str, str] = {}
        label_text = match.group("labels")
        if label_text is not None and label_text.strip():
            position = 0
            while position < len(label_text):
                pair = _LABEL_PAIR_RE.match(label_text, position)
                if not pair:
                    raise ValueError(
                        f"line {line_number}: malformed labels: {label_text!r}"
                    )
                labels[pair.group("name")] = (
                    pair.group("value")
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
                position = pair.end()
        value_text = match.group("value")
        if not _VALUE_RE.match(value_text):
            raise ValueError(f"line {line_number}: bad sample value {value_text!r}")
        samples.append(
            {
                "name": match.group("name"),
                "labels": labels,
                "value": float(value_text.replace("Inf", "inf").replace("NaN", "nan")),
            }
        )
    return samples
