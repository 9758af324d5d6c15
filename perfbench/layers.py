"""Per-layer metrics from the span files a traced run leaves behind."""

from __future__ import annotations

import array
import bisect
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from stats import median, quantile

#: Spans that cover awaits (wall time, not CPU); never subtracted as work.
ASYNC_SPANS = ("shard.grant_round", "shard.merge")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int
    tick: int
    n: float
    main: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Process:
    pid: int
    ppid: int
    spans: List[Span]
    registry_calls: int
    registry_seconds: float
    lag: List[float]

    def named(self, *names: str) -> List[Span]:
        return [span for span in self.spans if span.name in names]


_CODES = {"sid": "q", "name": "H", "start": "d", "end": "d",
          "parent": "q", "tick": "q", "n": "d", "main": "b"}


def load(trace_dir: Path) -> List[Process]:
    """Read every ``spans-<pid>.bin`` written by the trace hook."""
    processes = []
    for path in sorted(trace_dir.glob("spans-*.bin")):
        with open(path, "rb") as handle:
            header = json.loads(handle.readline())
            cols = {}
            for key in header["columns"]:
                column = array.array(_CODES[key])
                column.fromfile(handle, header["spans"])
                cols[key] = column
            calls = array.array("d")
            calls.fromfile(handle, header["registry_calls"])
            spent = array.array("d")
            spent.fromfile(handle, header["registry_calls"])
            lag = array.array("d")
            lag.fromfile(handle, header["lag"])
        names = header["names"]
        spans = [
            Span(sid, names[name], start, end, parent, tick, n, bool(main))
            for sid, name, start, end, parent, tick, n, main in zip(
                *(cols[key] for key in header["columns"])
            )
        ]
        processes.append(
            Process(header["pid"], header["ppid"], spans, len(calls), sum(spent), list(lag))
        )
    return processes


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(span.sid, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach, span.start), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.sid] = span.duration - covered
    return out


def _total(spans: Iterable[Span]) -> float:
    return sum(span.duration for span in spans)


def _mean(values: Sequence[float], scale: float = 1.0) -> Optional[float]:
    return scale * sum(values) / len(values) if values else None


def batching_waits(process: Process) -> List[float]:
    """Seconds from each ``add_many`` to the flush that took its samples."""
    flushes = sorted(s.start for s in process.named("batching.flush") if s.n > 0)
    waits = []
    for add in process.named("batching.add_many"):
        if add.n <= 0:
            continue
        i = bisect.bisect_left(flushes, add.start)
        if i < len(flushes):
            waits.append(flushes[i] - add.start)
    return waits


def per_layer(
    processes: List[Process],
    front_pid: int,
    ops: int,
    samples: int,
    front_cpu_s: float,
    cell_cpu_s: float,
    scrape_bytes: Sequence[int],
    metrics_out: Optional[dict],
) -> Dict[str, Optional[float]]:
    """Every per-layer metric the traced run can measure (None if absent)."""
    front = next(p for p in processes if p.pid == front_pid)
    cells = [p for p in processes if p.pid != front_pid]
    every = [span for p in processes for span in p.spans]

    def named(*names: str) -> List[Span]:
        return [span for span in every if span.name in names]

    steps = named("dynamic.step")
    n_steps = len(steps)

    def per_step(*names: str) -> Optional[float]:
        return 1e3 * _total(named(*names)) / n_steps if n_steps else None

    def per_step_if_run(name: str) -> Optional[float]:
        """Per-step time of a layer only some workloads run; None where absent."""
        return per_step(name) if named(name) else None

    # The Agent/problem rebuild is _allocate's own time; it counts as the
    # step's self time, as it would if _allocate were not wrapped.
    step_self, rebuild = [], []
    for p in processes:
        selfs = self_times(p.spans)
        allocate = defaultdict(float)
        for s in p.named("dynamic.allocate"):
            allocate[s.parent] += selfs[s.sid]
        for s in p.named("dynamic.step"):
            step_self.append(selfs[s.sid] + allocate[s.sid])
            rebuild.append(allocate[s.sid])
    front_roots = [
        s for s in front.spans
        if s.parent < 0 and s.main and s.name not in ASYNC_SPANS
    ]
    waits = [w for p in processes for w in batching_waits(p)]
    flushes = [s.n for s in named("batching.flush") if s.n > 0]
    fits = named("profiling.apply_fit")
    batches = named("fitting.batch")
    rpcs = [s.duration for s in front.named("client.rpc")]
    return {
        "serve.loop_lag_p99_ms": 1e3 * quantile(front.lag, 0.99) if front.lag else None,
        "serve.snapshot_hit_ratio": _hit_ratio(metrics_out),
        "serve.other_ms_per_op": 1e3 * (front_cpu_s - _total(front_roots)) / ops,
        "protocol.parse_us_per_sample": 1e6 * (
            _total(s for s in named("protocol.parse_json") if s.n > 0)
            + _total(named("protocol.bulk_from_dict"))
        ) / samples if samples else None,
        "protocol.render_ms_per_miss": _mean([s.duration for s in named("protocol.render")], 1e3),
        "batching.wait_p50_ms": 1e3 * median(waits) if waits else None,
        "batching.wait_p99_ms": 1e3 * quantile(waits, 0.99) if waits else None,
        "batching.samples_per_flush": _mean(flushes),
        "dynamic.step_p50_ms": 1e3 * median([s.duration for s in steps]) if steps else None,
        "dynamic.step_p99_ms": 1e3 * quantile([s.duration for s in steps], 0.99) if steps else None,
        "dynamic.step_self_ms": _mean(step_self, 1e3),
        "dynamic.rebuild_ms_per_step": _mean(rebuild, 1e3),
        "dynamic.step_child_share": (
            1.0 - sum(step_self) / _total(steps) if steps else None
        ),
        "dynamic.observe_us_per_sample": _mean(
            [s.duration for s in named("dynamic.observe_sample")], 1e6
        ),
        "dynamic.churn_ms": _mean(
            [s.duration for s in named("dynamic.add_agent", "dynamic.remove_agent")], 1e3
        ),
        "profiling.refit_scan_ms_per_step": per_step(
            "profiling.needs_refit", "profiling.fit_inputs"
        ),
        "profiling.apply_fit_ms_per_step": per_step("profiling.apply_fit"),
        "profiling.accept_ratio": _mean([s.n for s in fits]),
        "fitting.batch_ms_per_step": per_step("fitting.batch"),
        "fitting.agents_per_batch": _mean([s.n for s in batches]),
        "mechanism.solve_ms_per_step": per_step("mechanism.solve"),
        "enforce.floors_ms_per_step": per_step("enforce.floors"),
        "obs.registry_calls_per_op": sum(p.registry_calls for p in processes) / ops,
        "obs.registry_us_per_op": 1e6 * sum(p.registry_seconds for p in processes) / ops,
        "obs.render_ms_per_scrape": _mean(
            [s.duration for s in front.named("obs.to_prometheus")], 1e3
        ),
        "obs.scrape_kb": _mean(scrape_bytes, 1 / 1024),
        # Layers only some workloads exercise.
        "mechanism.observe_ms_per_step": per_step_if_run("mechanism.observe"),
        "learning.report_ms_per_step": per_step_if_run("learning.report"),
        "learning.caps_ms_per_step": per_step_if_run("learning.caps"),
        "learning.perturb_ms_per_step": per_step_if_run("learning.perturb"),
        "learning.note_epoch_ms_per_step": per_step_if_run("learning.note_epoch"),
        "shard.cell_rpc_p50_ms": 1e3 * median(rpcs) if rpcs else None,
        "shard.cell_rpc_p99_ms": 1e3 * quantile(rpcs, 0.99) if rpcs else None,
        "shard.rpcs_per_op": len(rpcs) / ops if rpcs else None,
        "shard.grant_round_ms": _mean([s.duration for s in named("shard.grant_round")], 1e3),
        "hierarchy.split_ms": _mean([s.duration for s in named("hierarchy.split")], 1e3),
        "shard.cell_cpu_ms_per_op": 1e3 * cell_cpu_s / ops if cells else None,
    }


def _hit_ratio(metrics_out: Optional[dict]) -> Optional[float]:
    """Hit share of ``repro_serve_snapshots_total{route="/v1/allocation"}``."""
    if not metrics_out:
        return None
    counts = defaultdict(float)
    for counter in metrics_out.get("counters", ()):
        labels = counter.get("labels", {})
        if counter["name"] == "repro_serve_snapshots_total" and labels.get("route") == "/v1/allocation":
            counts[labels.get("result")] += counter["value"]
    total = counts["hit"] + counts["miss"]
    return counts["hit"] / total if total else None


def tick_breakdown(processes: List[Process]) -> Tuple[int, Dict[str, float]]:
    """Self time per span name inside controller ticks, ms per tick."""
    per_name: Dict[str, float] = defaultdict(float)
    n_steps = 0
    for p in processes:
        selfs = self_times(p.spans)
        for span in p.spans:
            if span.tick < 0:
                continue
            if span.name == "dynamic.step":
                n_steps += 1
            per_name[span.name] += selfs[span.sid]
    if not n_steps:
        return 0, {}
    return n_steps, {name: 1e3 * t / n_steps for name, t in per_name.items()}
