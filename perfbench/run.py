"""Open-loop benchmark of ``python -m repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload read-mostly --seed 1 --seconds 18 --trace 0

Each run spawns the real server from ``src/`` (flat, or ``--cells 2``),
drives it over two keep-alive connections with fixed-rate, pipelined
streams built from ``--seed`` (see ``workloads.py``), checks every reply
after the measured window, and prints a report followed by one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
same load twice, untraced and then with the span hook in every server
process, and reports the per-layer metrics plus the tracing overhead.
Scratch output goes to ``.perfbench_out/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import checks
import layers
import loadgen
from procs import Server, ServerError, cpu_seconds, peak_rss_mb
from stats import MIN_BEYOND, median, percentile_label, quantile, tail_quantile, trimmed_mean
from workloads import WORKLOADS, build_inputs, sample_tables

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Seconds of load before the measured window opens.
WARMUP = 4.0

#: Server spawns per untraced run; set-up time is their median.
SETUPS = 3

#: Latency metrics are the median over up to ROUNDS_MAX equal rounds of
#: the window, each holding at least ROUND_MIN of the stream's requests.
ROUNDS_MAX = 10
ROUND_MIN = 50

#: ``fresh_mean_ms`` drops this share of the freshness samples at each
#: end.  On the coordinator freshness is bimodal (an ack either just
#: precedes a grant round or waits out the next one) with few samples
#: near its median, so a median moves ~10% with the sample while this
#: mean moves ~3%; the trim keeps a short stall from moving it.
FRESH_TRIM = 0.1

#: Server CPU per operation is the median over this many equal rounds
#: of the window, so a short busy phase of the host moves one round,
#: not the run.
CPU_ROUNDS = 5

#: A connection whose replies in the window fall short of the requests
#: due in it by more than this share has a growing backlog.
BACKLOG_SHORTFALL = 0.03

#: The metrics of the final JSON line, by name and unit, as declared in
#: BENCHMARK.json: end-to-end for an untraced run, per-layer for a
#: traced one.  Only end-to-end metrics that repeat within their bounds
#: from run to run are declared there (see NOTES.md).
SPEC = ROOT / "BENCHMARK.json"


def declared(kind: str) -> Dict[str, str]:
    with open(SPEC) as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


#: Latencies printed and kept in result.json but not declared: on a
#: shared two-vCPU machine they swing with its CPU steal from run to run
#: by more than any bound a regression gate could use (see NOTES.md).
REPORTED = (
    ("fresh_p50_ms", "ms"),
    ("fresh_tail_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("churn_p50_ms", "ms"),
    ("churn_tail_ms", "ms"),
    ("scrape_p50_ms", "ms"),
)

#: Per-layer metrics of layers only some workloads run: reported in the
#: printed table and result.json, where the layer runs.
PER_LAYER_EXTRA = (
    ("dynamic.churn_ms", "ms"),
    ("mechanism.observe_ms_per_step", "ms"),
    ("learning.report_ms_per_step", "ms"),
    ("learning.caps_ms_per_step", "ms"),
    ("learning.perturb_ms_per_step", "ms"),
    ("learning.note_epoch_ms_per_step", "ms"),
    ("shard.cell_rpc_p50_ms", "ms"),
    ("shard.cell_rpc_p99_ms", "ms"),
    ("shard.rpcs_per_op", "count"),
    ("shard.grant_round_ms", "ms"),
    ("hierarchy.split_ms", "ms"),
    ("shard.cell_cpu_ms_per_op", "ms"),
)


class BenchError(RuntimeError):
    """The run could not be carried out (as opposed to measured wrong)."""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, _frame) -> None:
    # Unwind on SIGTERM, so the servers this run spawned are killed and
    # reaped by the ``finally`` blocks on the way out.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"perfbench: no {SPEC.name} at the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    run_dir = OUT / f"{workload.name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tables = sample_tables(OUT / "cache")
    inputs = build_inputs(workload, args.seed, WARMUP, args.seconds, tables)
    try:
        if args.trace:
            base = run_pass(workload, inputs, args.seconds, run_dir / "untraced", False, 1)
            traced = run_pass(workload, inputs, args.seconds, run_dir / "traced", True, 1)
            outcome = traced_metrics(base, traced)
            passes = [base, traced]
        else:
            plain = run_pass(workload, inputs, args.seconds, run_dir / "untraced", False, SETUPS)
            outcome = end_to_end(workload, plain)
            passes = [plain]
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [problem for p in passes for problem in p.problems]
    metrics, units, extra = outcome
    missing = [name for name in units if metrics.get(name) is None]
    problems += [f"metric {name} was not measured" for name in missing]
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics, "detail": extra,
    }
    with open(run_dir / "result.json", "w") as handle:
        json.dump(report, handle, indent=2)
    _print_report(report, units)
    if missing:
        return 1
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


@dataclass
class PassResult:
    """Everything one spawn-load-stop pass recorded."""

    setup_s: List[float]
    ops: Dict[str, list]
    window: tuple
    front_pid: int
    front_cpu_s: float
    cell_cpu_s: float
    #: Server-tree CPU seconds at each of the CPU_ROUNDS + 1 round edges.
    cpu_marks: List[float]
    rss_mb: float
    seconds: float
    run_dir: Path
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    answered_in_window: int = 0


def _server_command(workload, inputs, metrics_path: Path) -> List[str]:
    agents = ",".join(f"{name}={bench}" for name, bench in inputs.seeded.items())
    return [
        sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1", "--port", "0",
        "--agents", agents, "--metrics-out", str(metrics_path),
    ] + workload.server_args()


def run_pass(workload, inputs, seconds: float, run_dir: Path, traced: bool, setups: int):
    """Spawn the server ``setups`` times, load the last one, stop it, check."""
    run_dir.mkdir(parents=True)
    env = dict(os.environ)
    path = [str(SRC)]
    trace_dir = run_dir / "trace"
    if traced:
        trace_dir.mkdir()
        path.insert(0, str(HERE / "tracehook"))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(path)
    problems: List[str] = []
    setup_s: List[float] = []
    server = None
    try:
        for i in range(setups):
            if server is not None:
                problem = server.stop()
                if problem:
                    problems.append(f"set-up server {i - 1}: {problem}")
            command = _server_command(workload, inputs, run_dir / f"metrics-{i}.json")
            server = Server(command, env, ROOT, run_dir / f"server-{i}.log")
            server.spawn()
            setup_s.append(server.wait_allocation(inputs.seeded))
        for body in inputs.prefill:
            reply = json.loads(server.post("/v1/samples", body))
            if reply["rejected"]:
                raise BenchError(f"prefill: {reply['rejected']} samples rejected")
        tree = server.tree()
        front = tree[0]
        origin = loadgen.clock() + WARMUP + 0.05
        edges = [origin + seconds * k / CPU_ROUNDS for k in range(CPU_ROUNDS + 1)]
        window = (edges[0], edges[-1])
        conns = [
            loadgen.Connection("127.0.0.1", server.port, schedule, origin)
            for schedule in inputs.schedules
        ]
        marks = []

        def mark(k):
            marks.append((cpu_seconds([front]), cpu_seconds(tree[1:])))

        try:
            loadgen.drive(conns, edges, mark)
        finally:
            for conn in conns:
                conn.close()
        rss = peak_rss_mb(tree)
        if traced:
            with open(trace_dir / "window.json", "w") as handle:
                json.dump(list(window), handle)
        problem = server.stop()
        server = None
        if problem:
            problems.append(problem)
    except ServerError as error:
        raise BenchError(str(error)) from None
    finally:
        if server is not None:
            server.kill()
    result = PassResult(
        setup_s=setup_s,
        ops=_collect(conns),
        window=window,
        front_pid=front,
        front_cpu_s=marks[-1][0] - marks[0][0],
        cell_cpu_s=marks[-1][1] - marks[0][1],
        cpu_marks=[front_s + cells_s for front_s, cells_s in marks],
        rss_mb=rss,
        seconds=seconds,
        run_dir=run_dir,
        problems=problems,
    )
    _check(result, conns, inputs, workload)
    return result


def _collect(conns) -> Dict[str, list]:
    ops: Dict[str, list] = {"read": [], "bulk": [], "churn": [], "scrape": []}
    for conn in conns:
        for i, request in enumerate(conn.requests):
            group = "churn" if request.kind in ("register", "deregister") else request.kind
            ops[group].append(checks.Op(
                request.kind, conn.due[i], conn.sent[i], conn.recv[i],
                conn.status[i], conn.body[i], request.agents,
            ))
    return ops


def _check(result: PassResult, conns, inputs, workload) -> None:
    ops = result.ops
    sharded = workload.cells > 1
    timeline = checks.check_churn(ops["churn"], set(inputs.seeded))
    checks.check_reads(ops["read"], timeline, sharded)
    for op in ops["bulk"]:
        checks.check_bulk(op)
    for op in ops["scrape"]:
        checks.check_scrape(op)
    everything = [op for group in ops.values() for op in group]
    result.attempted = len(everything)
    failures = [op for op in everything if not op.ok]
    result.failed = len(failures)
    for op in failures[:5]:
        result.problems.append(f"{op.kind} failed: {op.failure}")
    first, last = result.window
    for k, conn in enumerate(conns):
        if conn.error:
            result.problems.append(f"connection {k}: {conn.error}")
        due = sum(1 for t in conn.due if first <= t < last)
        answered = sum(1 for t in conn.recv if first <= t < last)
        result.answered_in_window += answered
        if answered < (1 - BACKLOG_SHORTFALL) * due:
            result.problems.append(
                f"connection {k}: backlog, {answered} replies in the window "
                f"for {due} requests due"
            )


def _in_window(ops, window) -> list:
    return [op for op in ops if window[0] <= op.due < window[1]]


def _latencies(ops) -> List[tuple]:
    """``(due, seconds from due to reply)`` of each answered request."""
    return [(op.due, op.recv - op.due) for op in ops if op.ok]


def rounds_for(offered: int) -> int:
    """Rounds a stream's window is cut into: as many as keep ROUND_MIN each."""
    return max(1, min(ROUNDS_MAX, offered // ROUND_MIN))


def round_medians(timed, window, rounds: int, q: float):
    """Median over equal rounds of each round's p50 and q-quantile, in ms.

    Short stalls of the shared machine land in a minority of rounds, so
    the median over rounds moves far less between runs than one
    percentile over the whole window.
    """
    length = (window[1] - window[0]) / rounds
    buckets = [[] for _ in range(rounds)]
    for due, value in timed:
        buckets[min(rounds - 1, int((due - window[0]) / length))].append(value)
    buckets = [bucket for bucket in buckets if bucket]
    if not buckets:
        return None, None
    return (
        1e3 * median([median(bucket) for bucket in buckets]),
        1e3 * median([quantile(bucket, q) for bucket in buckets]),
    )


def end_to_end(workload, result: PassResult):
    window, seconds = result.window, result.seconds
    counts = _offered(workload, seconds)
    metrics: Dict[str, Optional[float]] = {"setup_s": median(result.setup_s)}
    detail: Dict[str, object] = {"setup_s_samples": result.setup_s}
    ops = {key: _in_window(group, window) for key, group in result.ops.items()}
    series = {
        "read": (_latencies(ops["read"]), ops["read"]),
        "write": (_latencies(ops["bulk"]), ops["bulk"]),
        "churn": (_latencies(ops["churn"]), ops["churn"]),
        "fresh": (
            checks.freshness(ops["bulk"], result.ops["read"], workload.cells > 1),
            ops["bulk"],
        ),
        "scrape": (_latencies(ops["scrape"]), ops["scrape"]),
    }
    for key, (timed, sent) in series.items():
        if not counts[key]:
            continue  # this workload does not run the operation
        rounds = rounds_for(counts[key])
        per_round = counts[key] // rounds
        q = tail_quantile(per_round) if per_round >= 2 * MIN_BEYOND else 0.5
        p50, tail = round_medians(timed, window, rounds, q)
        metrics[f"{key}_p50_ms"] = p50
        if key != "scrape" and q > 0.5:
            metrics[f"{key}_tail_ms"] = tail
        late = [op.sent - op.due for op in sent]
        detail[key] = {
            "samples": len(timed), "offered": counts[key], "rounds": rounds,
            "tail": percentile_label(q),
            "late_p50_ms": 1e3 * median(late), "late_p99_ms": 1e3 * quantile(late, 0.99),
        }
    fresh = [value for _, value in series["fresh"][0]]
    if counts["fresh"] and fresh:
        metrics["fresh_mean_ms"] = 1e3 * trimmed_mean(fresh, FRESH_TRIM)
    metrics["server_cpu_ms_per_op"] = cpu_per_op_rounds(result)
    metrics["server_rss_mb"] = result.rss_mb
    detail["ops_in_window"] = result.answered_in_window
    detail["reported"] = {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in REPORTED if metrics.get(name) is not None
    }
    units = declared("end_to_end")
    return {name: metrics.get(name) for name in units}, units, detail


def cpu_per_op_rounds(result: PassResult) -> float:
    """Median over CPU rounds of server CPU ms per reply in the round."""
    length = result.seconds / CPU_ROUNDS
    replies = [0] * CPU_ROUNDS
    for group in result.ops.values():
        for op in group:
            if op.recv and result.window[0] <= op.recv < result.window[1]:
                replies[min(CPU_ROUNDS - 1, int((op.recv - result.window[0]) / length))] += 1
    marks = result.cpu_marks
    return median([
        1e3 * (marks[k + 1] - marks[k]) / max(1, replies[k]) for k in range(CPU_ROUNDS)
    ])


def _offered(workload, seconds: float) -> Dict[str, int]:
    """Requests each stream offers in the window: its fixed sample count."""
    counts = {"read": 0, "write": 0, "churn": 0, "fresh": 0, "scrape": 0}
    for stream in workload.streams:
        n = round(stream.rate * seconds)
        if stream.kind == "read":
            counts["read"] += n
        elif stream.kind == "scrape":
            counts["scrape"] += n
        elif stream.kind == "bulk":
            counts["write"] += n
        else:
            counts["churn"] += 2 * n
            if stream.size:
                counts["write"] += n
    counts["fresh"] = counts["write"]
    return counts


def traced_metrics(base: PassResult, traced: PassResult):
    processes = layers.load(traced.run_dir / "trace")
    if not any(p.pid == traced.front_pid for p in processes):
        raise BenchError("the traced server wrote no spans")
    window = traced.window
    samples = sum(
        len(op.agents) for op in _in_window(traced.ops["bulk"], window)
    )
    metrics_out = None
    metrics_path = traced.run_dir / "metrics-0.json"
    if metrics_path.exists():
        with open(metrics_path) as handle:
            metrics_out = json.load(handle)
    ops = max(1, traced.answered_in_window)
    measured = layers.per_layer(
        processes,
        traced.front_pid,
        ops,
        samples,
        traced.front_cpu_s,
        traced.cell_cpu_s,
        [len(op.body) for op in _in_window(traced.ops["scrape"], window) if op.ok],
        metrics_out,
    )

    def cpu_per_op(result: PassResult) -> float:
        return (result.front_cpu_s + result.cell_cpu_s) / max(1, result.answered_in_window)

    measured["trace.cpu_overhead_pct"] = 100.0 * (cpu_per_op(traced) / cpu_per_op(base) - 1.0)
    steps, breakdown = layers.tick_breakdown(processes)
    units = declared("per_layer")
    detail = {
        "extra": {
            name: {"value": measured.get(name), "unit": unit}
            for name, unit in PER_LAYER_EXTRA if measured.get(name) is not None
        },
        "ticks": steps,
        "tick_self_ms": dict(sorted(breakdown.items(), key=lambda kv: -kv[1])),
        "untraced_cpu_ms_per_op": 1e3 * cpu_per_op(base),
        "traced_cpu_ms_per_op": 1e3 * cpu_per_op(traced),
    }
    return {name: measured.get(name) for name in units}, units, detail


def _print_report(report: dict, units: Dict[str, str]) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']:g} trace={report['trace']}: "
          f"attempted={report['attempted']} failed={report['failed']}")
    detail = report["detail"]
    rows = [(name, report["metrics"].get(name), unit) for name, unit in units.items()]
    for group in ("reported", "extra"):
        rows += [(name, e["value"], e["unit"]) for name, e in detail.get(group, {}).items()]
    for name, value, unit in rows:
        shown = "not measured" if value is None else f"{value:.6g} {unit}"
        note = ""
        info = detail.get(name.split("_")[0])
        if isinstance(info, dict) and name.endswith("_ms"):
            if name.endswith("_mean_ms"):
                how = f"mean of the middle {100 * (1 - 2 * FRESH_TRIM):g}%"
            else:
                which = info["tail"] if name.endswith("tail_ms") else "p50"
                how = f"{which}, median of {info['rounds']} rounds"
            note = (f"  [{how}, "
                    f"{info['samples']}/{info['offered']} answered; generator late "
                    f"p50 {info['late_p50_ms']:.3f} ms, p99 {info['late_p99_ms']:.3f} ms]")
        print(f"  {name:<34} {shown}{note}")
    if detail.get("tick_self_ms"):
        print(f"  self time per controller tick ({detail['ticks']} ticks):")
        for name, ms in detail["tick_self_ms"].items():
            print(f"    {name:<32} {ms:.4f} ms")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


if __name__ == "__main__":
    sys.exit(main())
