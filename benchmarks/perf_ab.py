"""Paired A/B of the serve benchmark: a base revision against this checkout.

Run from the repository root (``make perf-ab BASE=<rev>
[CLAIM=<metric>:<workload>] SEED_BASE=<n>``)::

    python3 benchmarks/perf_ab.py --base HEAD~1 \\
        --claim server_cpu_ms_per_op:ingest-heavy --seed-base 2000

The tree of the base revision is written by ``git archive`` into a
temporary directory, removed again when the runs end.  For every
workload of ``BENCHMARK.json`` the tool runs ten pairs of the
benchmark's real entry point, ``python3 perfbench/run.py --workload W
--seed S --seconds 18 --trace 0``, once per side, alternating which
side runs first, each pair on its own seed.  The seeds are numbered
from ``--seed-base``, which has no default: a claim must be measured
on seeds not used while the change was written, so every run names
them.  It prints the paired table of ``docs/performance.md`` (median
[q1–q3] per side, the ratio, the median per-pair ratio over the pairs
the parent ran first in and over those the change ran first in, and
how often the change read better) and a verdict:

* the **claim** (optional) holds when the change is better in at least
  9 of 10 pairs and the medians differ by more than the base's quartile
  spread;
* every other metric and workload (all of them, without a claim) is
  **within bound** unless its median is worse by more than its
  ``BENCHMARK.json`` bound (**regressed**), and **unresolved** when
  either side's quartile spread is wider than that bound;
* every run must be correct with no failed operation.

Each run also keeps the latencies the benchmark prints but does not
declare (``detail.reported`` of its ``result.json``: write, read,
fresh, churn and scrape p50/tail); the table gets a row for each,
marked not gated, with no verdict.  The runs, the table and the
verdicts are written to ``--ledger`` (``"claim": null`` without one).
The exit status is 0 only when the claim, if any, holds and nothing
regressed or failed.

``--tripwire`` (``make perf-tripwire BASE=<rev> SEED_BASE=<n>``) runs
3 pairs of 6 s per workload instead, about 5 minutes, takes no claim
and writes no ledger.  A metric **trips** on a workload only when every
pair is worse than its parent by more than the metric's
``BENCHMARK.json`` bound and the pairs ran in both orders; one whose
quartile spread is wider than its bound is **unresolved**, as above,
and cannot trip.  A failed or incorrect run also fails it.  It catches
gross regressions; the 10-pair ledger stays the record of a change.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"

#: The claim's win rule: better in at least this share of the pairs.
WIN_SHARE = 0.9
#: Pairs per workload, and the benchmark's own run length.
PAIRS = 10
SECONDS = 18.0
#: The same for ``--tripwire``.
TRIPWIRE_PAIRS = 3
TRIPWIRE_SECONDS = 6.0


@dataclass(frozen=True)
class Summary:
    """Order statistics of one side's runs of one metric."""

    median: float
    q1: float
    q3: float

    @classmethod
    def of(cls, values: Sequence[float]) -> "Summary":
        if len(values) == 1:
            return cls(values[0], values[0], values[0])
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return cls(median, q1, q3)

    @property
    def spread(self) -> float:
        return self.q3 - self.q1


def better(change: float, base: float, direction: str) -> bool:
    return change < base if direction == "lower" else change > base


def claim_verdict(
    base: Sequence[float], change: Sequence[float], direction: str
) -> Tuple[bool, str]:
    """The claim holds: better in >= 90% of pairs and beyond the base's spread."""
    wins = sum(better(c, b, direction) for b, c in zip(base, change))
    need = math.ceil(WIN_SHARE * len(base))
    base_stats, change_stats = Summary.of(base), Summary.of(change)
    gap = base_stats.median - change_stats.median
    if direction != "lower":
        gap = -gap
    holds = wins >= need and gap > base_stats.spread
    detail = (
        f"better in {wins}/{len(base)} pairs (need {need}); medians differ by "
        f"{gap:+.4g} against a base quartile spread of {base_stats.spread:.4g}"
    )
    return holds, detail


def bound_verdict(
    base: Sequence[float], change: Sequence[float], direction: str, bound: float
) -> Tuple[str, str]:
    """``within bound``, ``regressed`` or ``unresolved`` against a relative bound."""
    base_stats, change_stats = Summary.of(base), Summary.of(change)
    ratio = change_stats.median / base_stats.median if base_stats.median else math.inf
    worse_by = ratio - 1.0 if direction == "lower" else 1.0 - ratio
    spreads = [
        stats.spread / abs(stats.median) if stats.median else math.inf
        for stats in (base_stats, change_stats)
    ]
    detail = f"change/base {ratio:.3f}, relative spreads {spreads[0]:.3f}/{spreads[1]:.3f}"
    if max(spreads) > bound:
        return "unresolved", detail
    if worse_by > bound:
        return "regressed", detail
    return "within bound", detail


def trips(
    base: Sequence[float], change: Sequence[float], firsts: Sequence[str],
    direction: str, bound: float,
) -> bool:
    """Every pair worse than its parent by more than ``bound``, in both run orders."""
    if set(firsts) != {"base", "change"}:
        return False
    if direction == "lower":
        return all(c > b * (1.0 + bound) for b, c in zip(base, change))
    return all(c < b * (1.0 - bound) for b, c in zip(base, change))


def tripwire(runs: Dict[str, List[dict]], spec: dict) -> Tuple[List[str], List[str]]:
    """What fails the tripwire, and what it cannot judge, as lines.

    Each failed run and each (metric, workload) that :func:`trips` fail
    it.  A (metric, workload) whose spread :func:`bound_verdict` finds
    wider than its bound is unresolved instead, and cannot trip.
    """
    found = [f"FAILED RUN: {failure}" for failure in failed_runs(runs)]
    unresolved = []
    for workload, pairs in runs.items():
        for metric in spec["end_to_end"]:
            name, direction, bound = metric["name"], metric["better"], metric["bound"]
            base, change, firsts = _paired(pairs, lambda run: run["metrics"].get(name))
            if not base:
                continue
            verdict, detail = bound_verdict(base, change, direction, bound)
            if verdict == "unresolved":
                unresolved.append(f"UNRESOLVED: {name}:{workload}: {detail}")
            elif trips(base, change, firsts, direction, bound):
                ratios = ", ".join(f"{c / b:.3f}" for b, c in zip(base, change) if b)
                found.append(f"TRIPPED: {name}:{workload}: every pair worse than "
                             f"{bound:g} in both orders (change/parent {ratios})")
    return found, unresolved


def reported(result_json: Path) -> Dict[str, dict]:
    """A run's undeclared latencies, ``{name: {"value", "unit"}}`` ({} if absent)."""
    try:
        detail = json.loads(result_json.read_text())["detail"]
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    return dict(detail.get("reported", {}))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run through the real entry point."""
    command = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        return {"correct": False, "failed": None, "attempted": None, "metrics": {},
                "error": (proc.stderr or proc.stdout)[-400:]}
    result = json.loads(lines[-1])
    run_dir = checkout / ".perfbench_out" / f"{workload}-s{seed}-t0"
    return {
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "reported": reported(run_dir / "result.json"),
    }


def extract(rev: str, into: Path) -> Path:
    """Write the tree of ``rev`` into the new directory ``into``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return into


def measure(base: Path, workloads: Sequence[str], pairs: int, seed_base: int,
            seconds: float, log=print) -> Dict[str, List[dict]]:
    """``{workload: [{"seed", "base", "change"}, ...]}``, sides alternating."""
    runs: Dict[str, List[dict]] = {}
    for w, workload in enumerate(workloads):
        runs[workload] = []
        for k in range(pairs):
            seed = seed_base + 10 * w + k
            order = [("base", base), ("change", ROOT)]
            if k % 2:
                order.reverse()
            pair = {"seed": seed, "first": order[0][0]}
            for side, checkout in order:
                pair[side] = run_once(checkout, workload, seed, seconds)
            log(f"[perf-ab] {workload} seed {seed}: "
                + ", ".join(f"{side} correct={pair[side]['correct']}" for side, _ in order))
            runs[workload].append(pair)
    return runs


def order_ratios(base: Sequence[float], change: Sequence[float],
                 firsts: Sequence[str]) -> Dict[str, Optional[float]]:
    """The median change/parent ratio of the pairs, by the side that ran first.

    Keyed ``"base"`` and ``"change"`` like ``pair["first"]``; ``None``
    where no pair ran in that order.
    """
    ratios: Dict[str, Optional[float]] = {}
    for side in ("base", "change"):
        paired = [c / b for b, c, first in zip(base, change, firsts) if first == side and b]
        ratios[side] = statistics.median(paired) if paired else None
    return ratios


def _row(workload: str, name: str, unit: str, measured: Tuple[List[float], ...],
         direction: str, gated: bool) -> dict:
    base, change, firsts = measured
    b, c = Summary.of(base), Summary.of(change)
    return {
        "workload": workload, "metric": name, "unit": unit, "gated": gated,
        "pairs": len(base), "base": vars(b), "change": vars(c),
        "ratio": c.median / b.median if b.median else None,
        "ratio_by_first": order_ratios(base, change, firsts),
        "change_better": sum(better(y, x, direction) for x, y in zip(base, change)),
    }


def _paired(pairs: List[dict], values) -> Tuple[List[float], List[float], List[str]]:
    """Per-side values, and which side ran first, of the pairs in which
    both sides measured one."""
    measured = [(values(p["base"]), values(p["change"]), p.get("first")) for p in pairs]
    measured = [(b, c, f) for b, c, f in measured if b is not None and c is not None]
    if not measured:
        return [], [], []
    base, change, firsts = zip(*measured)
    return list(base), list(change), list(firsts)


def failed_runs(runs: Dict[str, List[dict]]) -> List[str]:
    """Every run that was not correct or failed operations, as a line."""
    return [
        f"{workload} seed {pair['seed']} {side}: "
        f"correct={pair[side]['correct']} failed={pair[side]['failed']}"
        for workload, pairs in runs.items()
        for pair in pairs
        for side in ("base", "change")
        if not pair[side]["correct"] or pair[side]["failed"]
    ]


def summarize(
    runs: Dict[str, List[dict]], spec: dict, claim: Optional[Tuple[str, str]]
) -> dict:
    """The paired rows and every verdict (reported latencies get rows only).

    Without a ``claim`` every end-to-end metric gets its bound verdict.
    """
    rows, verdicts = [], []
    failures = failed_runs(runs)
    claim_result = None
    for workload, pairs in runs.items():
        for metric in spec["end_to_end"]:
            name, direction = metric["name"], metric["better"]
            measured = _paired(pairs, lambda run: run["metrics"].get(name))
            base, change, _ = measured
            if not base:
                continue
            rows.append(_row(workload, name, metric["unit"], measured, direction, True))
            if (name, workload) == claim:
                holds, detail = claim_verdict(base, change, direction)
                claim_result = {"holds": holds, "detail": detail}
            else:
                verdict, detail = bound_verdict(base, change, direction, metric["bound"])
                verdicts.append({"workload": workload, "metric": name,
                                 "verdict": verdict, "detail": detail})
        units = {}
        for pair in pairs:
            for side in ("base", "change"):
                for name, entry in pair[side].get("reported", {}).items():
                    units.setdefault(name, entry["unit"])
        for name, unit in units.items():
            measured = _paired(
                pairs, lambda run: run.get("reported", {}).get(name, {}).get("value")
            )
            if measured[0]:  # latencies: lower is better
                rows.append(_row(workload, name, unit, measured, "lower", False))
    if claim is not None and claim_result is None:
        claim_result = {"holds": False, "detail": "no data"}
    return {"rows": rows, "claim": claim_result, "verdicts": verdicts, "failures": failures}


def table(rows: Sequence[dict]) -> str:
    lines = [
        "| workload (pairs) | metric | parent median [q1–q3] | change median [q1–q3] "
        "| change/parent | parent first | change first | change lower in |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        fmt = _fmt(row["base"]["median"])
        cells = [
            f"`{row['workload']}` ({row['pairs']})",
            f"`{row['metric']}` ({row['unit']}"
            + ("" if row.get("gated", True) else ", not gated") + ")",
            *(f"{fmt(s['median'])} [{fmt(s['q1'])}–{fmt(s['q3'])}]"
              for s in (row["base"], row["change"])),
            f"{row['ratio']:.2f}" if row["ratio"] is not None else "n/a",
            *(f"{ratio:.3f}" if ratio is not None else "n/a"
              for ratio in (row["ratio_by_first"][side] for side in ("base", "change"))),
            f"{row['change_better']}/{row['pairs']}",
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _fmt(scale: float):
    digits = 3 if abs(scale) < 10 else 2
    return lambda value: f"{value:.{digits}f}"


def report(summary: dict, claim: Optional[Tuple[str, str]]) -> str:
    lines = [table(summary["rows"]), ""]
    if summary["claim"] is None:
        lines.append("no claim: every metric and workload judged by its bound")
    else:
        verdict = "HOLDS" if summary["claim"]["holds"] else "DOES NOT HOLD"
        lines.append(f"claim {claim[0]}:{claim[1]}: {verdict} ({summary['claim']['detail']})")
    for entry in summary["verdicts"]:
        lines.append(f"{entry['metric']}:{entry['workload']}: {entry['verdict']} "
                     f"({entry['detail']})")
    lines += [f"FAILED RUN: {failure}" for failure in summary["failures"]]
    return "\n".join(lines)


def passed(summary: dict) -> bool:
    return (
        (summary["claim"] is None or summary["claim"]["holds"])
        and not summary["failures"]
        and all(v["verdict"] != "regressed" for v in summary["verdicts"])
    )


def parse_claim(text: str) -> Tuple[str, str]:
    metric, sep, workload = text.partition(":")
    if not sep or not metric or not workload:
        raise argparse.ArgumentTypeError("--claim expects METRIC:WORKLOAD")
    return metric, workload


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--claim", type=parse_claim,
                        help="the claimed gain, METRIC:WORKLOAD (none: bounds only)")
    parser.add_argument("--seed-base", type=int, required=True,
                        help="pair k of workload w runs on seed SEED_BASE + 10 w + k")
    parser.add_argument("--ledger", type=Path, default=ROOT / "ledger" / "perf-ab.json")
    parser.add_argument("--tripwire", action="store_true",
                        help=f"{TRIPWIRE_PAIRS} pairs of {TRIPWIRE_SECONDS:g} s that fail "
                             "only on a gross regression; no claim, no ledger")
    args = parser.parse_args(argv)
    if args.tripwire and args.claim:
        parser.error("--tripwire takes no --claim")

    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metric_names = {m["name"] for m in spec["end_to_end"]}
    if args.claim and (args.claim[0] not in metric_names or args.claim[1] not in workloads):
        parser.error("--claim must name an end-to-end metric and a workload of BENCHMARK.json")

    pairs, seconds = (TRIPWIRE_PAIRS, TRIPWIRE_SECONDS) if args.tripwire else (PAIRS, SECONDS)
    with tempfile.TemporaryDirectory(prefix="perf-ab-") as scratch:
        base = extract(args.base, Path(scratch) / "base")
        runs = measure(base, workloads, pairs, args.seed_base, seconds)

    summary = summarize(runs, spec, args.claim)
    if args.tripwire:
        print(table(summary["rows"]))
        found, unresolved = tripwire(runs, spec)
        for line in unresolved + found:
            print(line)
        if not found:
            print("perf-tripwire OK: no metric worse in every pair")
        return 1 if found else 0
    print(report(summary, args.claim))
    args.ledger.parent.mkdir(parents=True, exist_ok=True)
    args.ledger.write_text(json.dumps(ledger(args, summary, runs), indent=1) + "\n")
    print(f"wrote {args.ledger}")
    return 0 if passed(summary) else 1


def ledger(args, summary: dict, runs: Dict[str, List[dict]]) -> dict:
    """The committed record: how the runs were made, the verdicts, every run."""
    return {
        "base": args.base,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {SECONDS:g} --trace 0",
        "pairs": PAIRS,
        "seed_base": args.seed_base,
        "passed": passed(summary),
        "rows": summary["rows"],
        "claim": args.claim and {
            "metric": args.claim[0], "workload": args.claim[1], **summary["claim"]
        },
        "verdicts": summary["verdicts"],
        "failures": summary["failures"],
        "runs": runs,
    }


if __name__ == "__main__":
    sys.exit(main())
