"""A server whose tick task died stops.

The flat server's max-delay fold and the coordinator's grant round and
reap run on the tick task; a server that kept listening without it would
fold nothing on a timer and re-home no orphan.  When the task ends with
an exception, ``wait_stopped()`` returns (so ``repro serve`` goes on to
``stop()``), and ``stop()`` re-raises the failure after its teardown.
"""

import asyncio
import json

import pytest

from repro.dynamic import DynamicAllocator
from repro.obs import MetricsRegistry
from repro.serve import AllocationServer, BatchPolicy, ShardCoordinator
from repro.serve.protocol import CapacityResponse
from repro.serve.shard import CellWorker
from repro.workloads import get_workload

SAMPLE = json.dumps(
    {"agent": "freqmine", "bandwidth_gbps": 3.0, "cache_kb": 512.0, "ipc": 1.0}
).encode()


def _stops_and_reraises(server, after_start):
    """Start ``server``, run ``after_start``, wait for the server to stop itself, stop it."""

    async def scenario():
        await server.start()
        await after_start()
        await asyncio.wait_for(server.wait_stopped(), timeout=5.0)
        with pytest.raises(RuntimeError, match="tick died"):
            await server.stop()
        return server._server

    listener = asyncio.run(scenario())
    assert not listener.is_serving()


def test_a_flat_server_whose_tick_died_stops():
    registry = MetricsRegistry()
    allocator = DynamicAllocator(
        {"freqmine": get_workload("freqmine"), "dedup": get_workload("dedup")},
        capacities=(25.6, 4096.0),
        seed=11,
        metrics=registry,
    )
    server = AllocationServer(
        allocator, policy=BatchPolicy(max_delay=0.01, max_batch=64), metrics=registry
    )

    def run_epoch(batch, trigger):
        raise RuntimeError("tick died")

    async def post_a_sample():
        # The sample's max-delay fold, on the tick task, raises.
        server._run_epoch = run_epoch
        status, _, _ = server._dispatch("POST", "/v1/samples", SAMPLE)
        assert status == 200

    _stops_and_reraises(server, post_a_sample)


class _StubLink:
    def __init__(self, cell):
        self.cell = cell

    async def grant_capacity(self, capacities):
        return CapacityResponse(
            epoch=0,
            agents=tuple(sorted(self.cell.agents)),
            capacities=dict(capacities),
            aggregate_elasticity={name: 1.0 for name in capacities},
        )


def test_a_coordinator_whose_grant_loop_died_stops(monkeypatch):
    monkeypatch.setattr(CellWorker, "spawn", lambda self, timeout=30.0: None)
    monkeypatch.setattr(CellWorker, "terminate", lambda self, timeout=10.0: None)
    coordinator = ShardCoordinator(
        {"freqmine": "freqmine", "dedup": "dedup"},
        capacities=(25.6, 4096.0),
        cells=2,
        grant_ms=1.0,
        metrics=MetricsRegistry(),
    )

    async def call(cell, fn):
        return await fn(_StubLink(cell))

    async def reap():
        raise RuntimeError("tick died")

    coordinator._call = call
    coordinator._reap_dead_cells = reap

    async def nothing():
        pass

    _stops_and_reraises(coordinator, nothing)
