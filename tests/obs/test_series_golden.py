"""Golden series test: every metric series the service writes, pinned.

Three deterministic scenarios drive the producers that write into a
:class:`~repro.obs.MetricsRegistry`:

* ``allocator`` — a :class:`~repro.dynamic.DynamicAllocator` under the
  ``credit`` mechanism (balance clip tightened so credit is forfeited)
  with demand learning, injected faults, a profile-free agent fed bad
  and good external samples, and churn (an arrival, departures and a
  returning agent);
* ``server`` — a flat :class:`~repro.serve.AllocationServer`: ticks,
  bulk POSTs naming unknown agents, single samples, snapshot reads,
  register/deregister, a capacity grant, a 400 and a 500;
* ``coordinator`` — a :class:`~repro.serve.ShardCoordinator` over stub
  cell links: grant rounds (one cell refusing its grant), snapshot
  reads, and a dead cell reaped and its agents re-homed.

After every step the recording holds the registry's sorted series,
each as (family, kind, help, label set, histogram bucket bounds), with
every counter's and gauge's value and each histogram's observation
count.  Timing histograms therefore pin their counts, not durations.
Values compare at ``VALUE_RTOL`` (fits run through LAPACK, whose last
bits may differ between machines); everything else compares exactly.
The file lists each distinct series once (``series``) and each step as
``[series index, value]`` pairs.

Regenerate the recording after an intended change to the metric
catalogue with ``PYTHONPATH=src python tests/obs/test_series_golden.py
--record``.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

from repro.dynamic import DynamicAllocator, FaultSpec
from repro.obs import MetricsRegistry
from repro.serve import AllocationServer, ShardCoordinator
from repro.serve.client import ServeError
from repro.serve.protocol import AgentResponse, CapacityResponse
from repro.workloads import get_workload

RECORDING = Path(__file__).with_name("golden_series.json")
#: Counter and gauge values agree to this on any host.
VALUE_RTOL = 1e-9

#: One step: ``((name, kind, help, labels, bucket bounds), value)`` per series.
Snapshot = List[Tuple[tuple, float]]


def snapshot(registry: MetricsRegistry) -> Snapshot:
    """Every series of ``registry`` in order, with its value.

    The value is a counter's or gauge's value, or a histogram's count;
    the bucket bounds of a counter or gauge are ``None``.
    """
    series = []
    for family in registry.families():
        for key in sorted(family.children):
            child = family.children[key]
            labels = tuple(tuple(pair) for pair in key)
            if family.kind == "histogram":
                ident = (family.name, family.kind, family.help, labels, tuple(child.buckets))
                series.append((ident, child.count))
            else:
                series.append(((family.name, family.kind, family.help, labels, None), child.value))
    return series


# ----------------------------------------------------------------------
# Scenarios: each returns one snapshot per step


def run_allocator() -> List[Snapshot]:
    registry = MetricsRegistry()
    allocator = DynamicAllocator(
        {name: get_workload(name) for name in ("freqmine", "dedup", "canneal", "x264")},
        capacities=(25.6, 4096.0),
        decay=0.5,  # a short history, so samples are trimmed
        seed=7,
        faults=FaultSpec(drop=0.05, non_positive=0.08, outlier=0.08, outlier_scale=60.0),
        metrics=registry,
        mechanism="credit",
        learn_demands=True,
    )
    allocator._mechanism_impl.max_balance = 0.05  # clip, so credit is forfeited
    allocator.add_agent("learner", None, workload_class="C")
    rng = np.random.default_rng(8)
    steps = []
    for epoch in range(40):
        if epoch == 10:
            allocator.add_agent("late", get_workload("canneal"))
        if epoch == 18:
            allocator.remove_agent("dedup")
        if epoch == 26:
            allocator.add_agent("dedup", get_workload("dedup"))  # a returning agent
        if epoch == 32:
            allocator.remove_agent("learner")
        if "learner" in allocator.workloads:
            for _ in range(3):
                bundle = tuple(float(v) for v in rng.uniform(0.5, 12.0, size=2) * (1.0, 200.0))
                ipc = 0.4 * bundle[0] ** 0.3 * (bundle[1] / 1024.0) ** 0.2
                kind = rng.integers(6)
                if kind == 0:
                    ipc = -ipc
                elif kind == 1:
                    ipc *= 300.0
                allocator.observe_sample("learner", bundle, ipc, exploration=kind == 2)
        allocator.step(epoch, measure=epoch % 2 == 0)
        steps.append(snapshot(registry))
    return steps


def _server() -> AllocationServer:
    registry = MetricsRegistry()
    allocator = DynamicAllocator(
        {name: get_workload(name) for name in ("freqmine", "dedup", "x264")},
        capacities=(25.6, 4096.0),
        seed=5,
        metrics=registry,
    )
    return AllocationServer(allocator, metrics=registry)


def _body(payload) -> bytes:
    return json.dumps(payload).encode()


def _sample(agent: str, bandwidth: float, cache: float, ipc: float) -> dict:
    return {"agent": agent, "bandwidth_gbps": bandwidth, "cache_kb": cache, "ipc": ipc}


def run_server() -> List[Snapshot]:
    server = _server()
    registry = server.metrics
    steps: List[Snapshot] = []

    def request(method: str, path: str, body: bytes = b"") -> None:
        # What a connection does per request: dispatch, then count.
        started = server._loop.time()
        status = server._dispatch(method, path, body)[0]
        server._count_request(path, status, started)

    bulk = _body(
        {
            "samples": [
                _sample("freqmine", 3.0, 512.0, 1.0),
                _sample("dedup", 5.0, 1024.0, 0.8),
                _sample("ghost", 5.0, 1024.0, 0.8),
                _sample("x264", 2.0, 300.0, -1.0),
            ]
        }
    )
    actions: List[Callable[[], object]] = [
        lambda: server._run_epoch([], trigger="startup"),
        lambda: request("POST", "/v1/samples", bulk),
        lambda: server._run_epoch(server._batcher.flush(), trigger="max_delay"),
        lambda: request("GET", "/v1/allocation"),
        lambda: request("GET", "/v1/allocation"),
        lambda: request("GET", "/healthz"),
        lambda: request("POST", "/v1/samples", _body(_sample("dedup", 4.0, 900.0, 0.9))),
        lambda: request("POST", "/v1/samples", b"{not json"),
        lambda: request(
            "POST", "/v1/agents", _body({"action": "register", "agent": "w", "workload": "canneal"})
        ),
        lambda: request("POST", "/v1/samples", bulk),
        lambda: request("POST", "/v1/agents", _body({"action": "deregister", "agent": "dedup"})),
        lambda: server._run_epoch(server._batcher.flush(), trigger="max_delay"),
        lambda: request(
            "POST",
            "/v1/capacity",
            _body({"capacities": {"membw_gbps": 20.0, "cache_kb": 3072.0}}),
        ),
        lambda: server._count_request(
            "/v1/allocation", server._error_result(RuntimeError("boom"))[0], server._loop.time()
        ),
        lambda: request("GET", "/v1/nowhere"),
    ]

    async def scenario():
        server._loop = asyncio.get_running_loop()
        for action in actions:
            action()
            steps.append(snapshot(registry))

    asyncio.run(scenario())
    return steps


class _StubLink:
    """A cell link answering grants and registrations in process."""

    refuse = ()

    def __init__(self, cell):
        self.cell = cell

    async def grant_capacity(self, capacities):
        if self.cell.name in self.refuse:
            raise ServeError(400, "unknown_resource", "refused")
        return CapacityResponse(
            epoch=0,
            agents=tuple(sorted(self.cell.agents)),
            capacities=dict(capacities),
            aggregate_elasticity={name: 0.5 * len(self.cell.agents) for name in capacities},
        )

    async def register(self, agent, workload, workload_class=None):
        agents = tuple(sorted({*self.cell.agents, agent}))
        return AgentResponse(action="register", agent=agent, agents=agents, epoch=0)


def run_coordinator() -> List[Snapshot]:
    registry = MetricsRegistry()
    coordinator = ShardCoordinator(
        {name: name for name in ("freqmine", "dedup", "canneal", "x264", "ferret", "fft")},
        capacities=(25.6, 4096.0),
        cells=3,
        metrics=registry,
    )
    coordinator._seed_placement()
    for cell in coordinator.cells:
        cell.alive = True
        cell.grant = {"membw_gbps": 25.6 / 3, "cache_kb": 4096.0 / 3}

    async def call(cell, fn):
        return await fn(_StubLink(cell))

    coordinator._call = call
    steps: List[Snapshot] = []

    def refuse(*names):
        _StubLink.refuse = names

    def kill(cell):
        cell.alive = False

    actions: List[Callable[[], object]] = [
        coordinator._grant_round,
        lambda: refuse(coordinator.cells[1].name),
        coordinator._grant_round,
        lambda: refuse(),
        lambda: kill(coordinator.cells[2]),
        coordinator._reap_dead_cells,
        coordinator._grant_round,
    ]

    async def scenario():
        coordinator._loop = asyncio.get_running_loop()
        for action in actions:
            result = action()
            if asyncio.iscoroutine(result):
                await result
            started = coordinator._loop.time()
            coordinator._count_request("/v1/allocation", 200, started)
            steps.append(snapshot(registry))

    try:
        asyncio.run(scenario())
    finally:
        refuse()
    return steps


SCENARIOS: Dict[str, Callable[[], List[Snapshot]]] = {
    "allocator": run_allocator,
    "server": run_server,
    "coordinator": run_coordinator,
}


# ----------------------------------------------------------------------
# Comparison


def _same_value(got: float, expected: float) -> bool:
    if math.isnan(expected):
        return math.isnan(got)
    return got == expected or math.isclose(got, expected, rel_tol=VALUE_RTOL, abs_tol=1e-300)


def _as_ident(entry: list) -> tuple:
    name, kind, help, labels, bounds = entry
    return (
        name,
        kind,
        help,
        tuple(tuple(pair) for pair in labels),
        None if bounds is None else tuple(bounds),
    )


def _recording() -> dict:
    return json.loads(RECORDING.read_text())


def _recorded_steps(scenario: str) -> List[Snapshot]:
    recording = _recording()
    table = [_as_ident(entry) for entry in recording["series"]]
    return [
        [(table[index], value) for index, value in step]
        for step in recording["scenarios"][scenario]
    ]


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_series_match_recording(scenario):
    expected_steps = _recorded_steps(scenario)
    got_steps = SCENARIOS[scenario]()
    assert len(got_steps) == len(expected_steps)
    for step, (got, expected) in enumerate(zip(got_steps, expected_steps)):
        assert [ident for ident, _ in got] == [ident for ident, _ in expected], (
            f"step {step}: series differ"
        )
        for (ident, value), (_, recorded) in zip(got, expected):
            assert _same_value(value, recorded), (step, ident, value, recorded)


def test_scenarios_cover_every_producer():
    families = {ident[0] for scenario in SCENARIOS for ident, _ in _recorded_steps(scenario)[-1]}
    for prefix in (
        "repro_credit_forfeited_total",
        "repro_learning_report_drift",
        "repro_online_samples_rejected_total",
        "repro_dynamic_events_total",
        "repro_span_seconds",
        "repro_solver_batch_fit_agents",
        "repro_serve_bulk_samples_total",
        "repro_serve_internal_errors_total",
        "repro_serve_orphaned_samples_total",
        "repro_shard_grant_errors_total",
        "repro_shard_agents_rehashed_total",
    ):
        assert prefix in families, prefix


def main(argv) -> int:
    if "--record" not in argv:
        print("usage: test_series_golden.py --record", file=sys.stderr)
        return 2
    table: Dict[tuple, int] = {}
    scenarios = {}
    for name in sorted(SCENARIOS):
        scenarios[name] = [
            [[table.setdefault(ident, len(table)), value] for ident, value in step]
            for step in SCENARIOS[name]()
        ]
    payload = {"value_rtol": VALUE_RTOL, "series": list(table), "scenarios": scenarios}
    RECORDING.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
    print(f"wrote {RECORDING}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
