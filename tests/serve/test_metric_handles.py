"""Serve-path metrics are held children: no registry lookup once they exist.

Every series the flat server, the coordinator and the allocator under
them touch is a declared ``Series`` reached through
``MetricsRegistry.child``, so after a series is first touched a tick, a
bulk POST, a 500 or a grant round costs no
``MetricsRegistry.counter``/``gauge``/``histogram`` lookup.
"""

import asyncio

import numpy as np
import pytest

from repro.dynamic import DynamicAllocator
from repro.obs import MetricsRegistry
from repro.serve import AllocationServer, ShardCoordinator
from repro.serve.protocol import BulkSampleRequest, CapacityResponse, SampleRequest
from repro.workloads import get_workload

SERVE_PREFIXES = ("repro_serve_", "repro_shard_")


def _serve_lookups(calls):
    return [call for call in calls if call[0].startswith(SERVE_PREFIXES)]


def _server(**options) -> AllocationServer:
    registry = MetricsRegistry()
    allocator = DynamicAllocator(
        {"freqmine": get_workload("freqmine"), "dedup": get_workload("dedup")},
        capacities=(25.6, 4096.0),
        seed=5,
        metrics=registry,
        **options,
    )
    return AllocationServer(allocator, metrics=registry)


SAMPLES = [
    SampleRequest("freqmine", 3.0, 512.0, 1.0),
    SampleRequest("dedup", 5.0, 1024.0, 0.8),
    SampleRequest("ghost", 5.0, 1024.0, 0.8),  # orphaned: never registered
]


def test_flat_tick_with_samples_looks_nothing_up(registry_calls):
    server = _server()
    server._run_epoch([], trigger="startup")
    server._run_epoch(SAMPLES, trigger="max_delay")
    assert _serve_lookups(registry_calls)
    registry_calls.clear()
    server._run_epoch(SAMPLES, trigger="max_delay")
    assert _serve_lookups(registry_calls) == []


@pytest.mark.parametrize(
    "options", [{}, {"mechanism": "credit", "learn_demands": True}], ids=["ref", "credit-learn"]
)
def test_warm_tick_looks_nothing_up(registry_calls, options):
    # The whole tick: serve counters, the allocator's epoch series and
    # latency histogram, the batched re-fit, the mechanism's solve
    # counter, credit and learning bookkeeping, spans and events.
    server = _server(**options)
    rng = np.random.default_rng(9)

    def tick():
        samples = [
            SampleRequest(agent, *rng.uniform((1.0, 128.0), (12.0, 2048.0)), rng.uniform(0.5, 2.0))
            for agent in ("freqmine", "dedup", "ghost")
            for _ in range(3)
        ]
        server._run_epoch(samples, trigger="max_delay")

    server._run_epoch([], trigger="startup")
    for _ in range(12):
        tick()
    fits = server.metrics.get("repro_solver_batch_fits_total").value
    registry_calls.clear()
    tick()
    assert registry_calls == []
    assert server.metrics.get("repro_solver_batch_fits_total").value == fits + 1


def test_bulk_post_and_internal_error_look_nothing_up(registry_calls):
    server = _server()
    bulk = BulkSampleRequest(samples=tuple(SAMPLES))

    async def scenario():
        server._loop = asyncio.get_running_loop()
        server._run_epoch([], trigger="startup")
        for _ in range(2):
            registry_calls.clear()
            assert server._ingest_bulk(bulk)[0] == 200
            assert server._error_result(RuntimeError("boom"))[0] == 500
        return _serve_lookups(registry_calls)

    assert asyncio.run(scenario()) == []
    assert server._metric("bulk_samples", "rejected").value == 2
    assert server._metric("internal_errors").value == 2


def test_coordinator_grant_round_looks_nothing_up(registry_calls):
    coordinator = ShardCoordinator(
        {"freqmine": "freqmine", "dedup": "dedup"},
        capacities=(25.6, 4096.0),
        cells=2,
        metrics=MetricsRegistry(),
    )
    coordinator._seed_placement()
    for cell in coordinator.cells:
        cell.alive = True
        cell.grant = {"membw_gbps": 12.8, "cache_kb": 2048.0}

    class StubLink:
        def __init__(self, cell):
            self.cell = cell

        def grant_capacity(self, capacities):
            return CapacityResponse(
                epoch=0,
                agents=tuple(sorted(self.cell.agents)),
                capacities=dict(capacities),
                aggregate_elasticity={name: 1.0 for name in capacities},
            )

    async def call(cell, fn):
        return fn(StubLink(cell))

    coordinator._call = call

    async def scenario():
        coordinator._loop = asyncio.get_running_loop()
        await coordinator._grant_round()
        first = _serve_lookups(registry_calls)
        registry_calls.clear()
        await coordinator._grant_round()
        return first, _serve_lookups(registry_calls)

    first, second = asyncio.run(scenario())
    assert {name for name, _ in first} == {
        "repro_shard_grant_rounds_total",
        "repro_shard_epoch",
        "repro_shard_grant_latency_seconds",
    }
    assert second == []
    assert coordinator._metric("grant_rounds").value == 2
