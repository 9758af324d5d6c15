"""Traffic shapes and the seeded request schedules they send.

Every workload drives ``python -m repro serve`` over exactly two
keep-alive connections.  Connection 0 carries the allocation reads;
connection 1 carries everything that writes or scrapes (bulk samples,
agent churn, ``/metrics``).  Each stream has a fixed rate and its
requests are due on a fixed grid from the moment the warm-up starts,
whether or not earlier replies have arrived (open loop).

Rates are sized so each server event loop is about 40% busy on a
two-vCPU machine, leaving room for the host's busy phases before a
backlog forms; NOTES.md records each shape, its reason and its offered
load.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: Fair share per agent: the server's default capacities are
#: (6.4 GB/s, 1024 KB) per initial agent.
FAIR_BANDWIDTH_GBPS = 6.4
FAIR_CACHE_KB = 1024.0

#: Machine-consistent points per benchmark table.
TABLE_ENTRIES = 32

#: Samples posted per seeded agent before the warm-up, so every
#: profiler history is at its steady-state cap (86 at decay 0.85)
#: when timing starts.
PREFILL_PER_AGENT = 90

#: Largest prefill bulk POST (well under the server's 1 MiB body limit).
PREFILL_CHUNK = 2048


@dataclass(frozen=True)
class Stream:
    """One fixed-rate request stream on one connection.

    ``kind`` is ``read``, ``bulk``, ``scrape`` or ``churn``.  A churn
    stream's rate counts cycles: register a new agent, optionally post
    ``size`` exploration samples for it, then deregister the agent the
    previous cycle registered.
    """

    kind: str
    rate: float
    conn: int
    size: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    agents: int
    streams: Tuple[Stream, ...]
    cells: int = 1
    mechanism: str = "ref"
    epoch_ms: float = 50.0
    max_batch: int = 64
    learn: bool = False

    def server_args(self) -> List[str]:
        args = [
            "--epoch-ms", f"{self.epoch_ms:g}",
            "--max-batch", str(self.max_batch),
            "--mechanism", self.mechanism,
        ]
        if self.cells > 1:
            args += ["--cells", str(self.cells)]
        if self.learn:
            args.append("--learn-demands")
        return args

    def stream(self, kind: str) -> Optional[Stream]:
        return next((s for s in self.streams if s.kind == kind), None)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "read-mostly",
            agents=16,
            epoch_ms=50.0,
            max_batch=64,
            streams=(
                Stream("read", 1200.0, conn=0),
                Stream("bulk", 15.0, conn=1, size=16),
                Stream("scrape", 1.0, conn=1),
            ),
        ),
        Workload(
            "ingest-heavy",
            agents=256,
            epoch_ms=20.0,
            max_batch=512,
            streams=(
                Stream("read", 200.0, conn=0),
                Stream("bulk", 7.0, conn=1, size=64),
                Stream("scrape", 1.0, conn=1),
            ),
        ),
        Workload(
            "churn-learn",
            agents=32,
            mechanism="credit",
            learn=True,
            streams=(
                Stream("read", 300.0, conn=0),
                Stream("churn", 16.0, conn=1, size=8),
                Stream("scrape", 1.0, conn=1),
            ),
        ),
        Workload(
            "sharded",
            agents=64,
            cells=2,
            epoch_ms=50.0,
            streams=(
                Stream("read", 150.0, conn=0),
                Stream("bulk", 20.0, conn=1, size=32),
                Stream("scrape", 1.0, conn=1),
            ),
        ),
    )
}


@dataclass
class Request:
    """One scheduled request; ``due`` is seconds from the window start."""

    due: float
    kind: str
    data: bytes
    #: bulk: the agents of its samples, in order; churn: the agent.
    agents: Tuple[str, ...] = ()


@dataclass
class Inputs:
    """Everything one run sends, encoded before any timing starts."""

    seeded: Dict[str, str]
    schedules: Tuple[List[Request], List[Request]]
    prefill: List[bytes] = field(default_factory=list)


def _http(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: repro\r\n"
    if method == "POST":
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return head.encode("latin-1") + b"\r\n" + body


def _json(payload) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode()


READ_REQUEST = _http("GET", "/v1/allocation")
SCRAPE_REQUEST = _http("GET", "/metrics")


def sample_tables(cache_dir: Path) -> Dict[str, Tuple[Tuple[float, float, float], ...]]:
    """Machine-consistent ``(bandwidth, cache_kb, ipc)`` points per benchmark.

    Points span 0.6x-1.4x of the fair share with decorrelated bandwidth
    and cache jitter (the on-line fit needs ratio variation to stay
    identified), the same grid ``benchmarks/bench_serve_load.py`` uses.
    Each point costs an ``AnalyticMachine`` root-find (~8 ms), so the
    tables are computed once per checkout and cached on disk.
    """
    path = cache_dir / f"samples-{TABLE_ENTRIES}.json"
    if path.exists():
        with open(path) as handle:
            return {name: tuple(map(tuple, rows)) for name, rows in json.load(handle).items()}
    from repro.sim.analytic import AnalyticMachine
    from repro.workloads import BENCHMARKS, get_workload

    machine = AnalyticMachine()
    tables = {}
    n = TABLE_ENTRIES
    for name in sorted(BENCHMARKS):
        workload = get_workload(name)
        rows = []
        for k in range(n):
            bandwidth = max(0.5, FAIR_BANDWIDTH_GBPS * (0.6 + 0.8 * k / (n - 1)))
            cache_kb = max(96.0, FAIR_CACHE_KB * (0.6 + 0.8 * ((k * 13 + 7) % n) / (n - 1)))
            rows.append((bandwidth, cache_kb, float(machine.ipc(workload, cache_kb, bandwidth))))
        tables[name] = tuple(rows)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    with open(tmp, "w") as handle:
        json.dump(tables, handle)
    os.replace(tmp, path)
    return tables


class _SampleSource:
    """Seeded walk over each agent's benchmark table with IPC noise."""

    def __init__(self, tables, rng: random.Random):
        self.tables = tables
        self.rng = rng
        self.cursor: Dict[str, int] = {}

    def sample(self, agent: str, benchmark: str, exploration: bool = False) -> dict:
        table = self.tables[benchmark]
        if agent not in self.cursor:
            self.cursor[agent] = self.rng.randrange(len(table))
        k = self.cursor[agent]
        # Stride 5 is coprime with the table size, so an agent visits
        # every point before repeating one.
        self.cursor[agent] = (k + 5) % len(table)
        bandwidth, cache_kb, ipc = table[k]
        item = {
            "agent": agent,
            "bandwidth_gbps": bandwidth,
            "cache_kb": cache_kb,
            "ipc": ipc * self.rng.lognormvariate(0.0, 0.01),
        }
        if exploration:
            item["exploration"] = True
        return item


def _bulk(items: Sequence[dict]) -> bytes:
    return _http("POST", "/v1/samples", _json({"version": 1, "samples": list(items)}))


def _group(benchmark: str) -> str:
    from repro.workloads import get_workload

    return getattr(get_workload(benchmark), "expected_group", None) or "C"


def build_inputs(
    workload: Workload, seed: int, warmup: float, seconds: float, tables
) -> Inputs:
    """Encode every request of one run from ``seed``.

    The seed picks each agent's benchmark, where each agent starts in
    its table, the IPC noise, the churned agents and the phase of every
    stream.  The same seed always yields the same bytes.
    """
    rng = random.Random(seed)
    names = sorted(tables)
    # Dealt from a seeded shuffle rather than drawn independently: each
    # benchmark serves floor or ceil of agents / len(names) agents
    # whatever the seed, so the mix (which sets the fit cost of a tick)
    # barely moves from seed to seed.
    rng.shuffle(names)
    seeded = {f"a{i:03d}": names[i % len(names)] for i in range(workload.agents)}
    agents = list(seeded)
    source = _SampleSource(tables, rng)
    schedules: Tuple[List[Request], List[Request]] = ([], [])
    for stream in workload.streams:
        period = 1.0 / stream.rate
        start = -warmup + rng.random() * period
        out = schedules[stream.conn]
        cursor = 0
        for k in itertools.count():
            due = start + k * period
            if due >= seconds:
                break
            if stream.kind == "read":
                out.append(Request(due, "read", READ_REQUEST))
            elif stream.kind == "scrape":
                out.append(Request(due, "scrape", SCRAPE_REQUEST))
            elif stream.kind == "bulk":
                batch = [agents[(cursor + j) % len(agents)] for j in range(stream.size)]
                cursor = (cursor + stream.size) % len(agents)
                items = [source.sample(a, seeded[a]) for a in batch]
                out.append(Request(due, "bulk", _bulk(items), tuple(batch)))
            else:
                cycle = _churn_cycle(workload, stream, rng, source, seed, k, due, period)
                out.extend(request for request in cycle if request.due < seconds)
    for schedule in schedules:
        schedule.sort(key=lambda request: request.due)
    prefill: List[bytes] = []
    if workload.stream("bulk") is not None:
        items = [
            source.sample(agent, seeded[agent])
            for _ in range(PREFILL_PER_AGENT)
            for agent in agents
        ]
        prefill = [
            _bulk(items[i:i + PREFILL_CHUNK]) for i in range(0, len(items), PREFILL_CHUNK)
        ]
    return Inputs(seeded=seeded, schedules=schedules, prefill=prefill)


def _churn_agent(seed: int, k: int) -> str:
    return f"c{seed}-{k}"


def _churn_cycle(workload, stream, rng, source, seed, k, due, period) -> List[Request]:
    """Register agent k, post its samples, deregister agent k - 1.

    The server deregisters before it runs the churn tick, so
    deregistering agent k itself would orphan its samples.  The tick of
    agent k - 1's deregister folds them in while agent k is registered.
    """
    agent = _churn_agent(seed, k)
    benchmark = rng.choice(sorted(source.tables))
    if workload.learn:
        register = {
            "version": 1, "action": "register", "agent": agent,
            "profile": None, "workload_class": _group(benchmark),
        }
    else:
        register = {"version": 1, "action": "register", "agent": agent, "workload": benchmark}
    steps = [Request(due, "register", _http("POST", "/v1/agents", _json(register)), (agent,))]
    if stream.size:
        items = [source.sample(agent, benchmark, exploration=True) for _ in range(stream.size)]
        steps.append(Request(0.0, "bulk", _bulk(items), (agent,) * stream.size))
    if k > 0:
        previous = _churn_agent(seed, k - 1)
        deregister = {"version": 1, "action": "deregister", "agent": previous}
        steps.append(
            Request(0.0, "deregister", _http("POST", "/v1/agents", _json(deregister)), (previous,))
        )
    for i, step in enumerate(steps[1:], start=1):
        step.due = due + i * period / len(steps)
    return steps
