"""The coordinator's settings checks and cell teardown, with no worker subprocess.

A setting a cell would refuse is refused by the coordinator's
constructor, before any cell is spawned.  Every cell the coordinator
started is terminated however it ends: a sibling's failed spawn, a
listener that cannot bind, or a ``stop()`` after the grant loop died.
``CellWorker.spawn`` and ``terminate`` are stubbed, so nothing starts.
"""

import asyncio
import socket

import pytest

from repro.obs import MetricsRegistry
from repro.serve import ShardCoordinator
from repro.serve.protocol import AllocationResponse, CapacityResponse
from repro.serve.shard import CellWorker

WORKLOADS = {"freqmine": "freqmine", "dedup": "dedup", "canneal": "canneal"}


@pytest.mark.parametrize(
    "setting, reason",
    [
        ({"decay": 1.5}, "decay"),
        ({"decay": 0.0}, "decay"),
        ({"max_batch": 0}, "max_batch"),
        ({"epoch_ms": 0.0}, "max_delay"),
        ({"grant_ms": -1.0}, "grant_ms"),
        ({"prior": "bogus", "learn_demands": True}, "prior"),
    ],
)
def test_a_setting_a_cell_would_refuse_fails_the_constructor(setting, reason):
    with pytest.raises(ValueError, match=reason):
        ShardCoordinator(dict(WORKLOADS), capacities=(25.6, 4096.0), cells=2, **setting)


class StubLink:
    def __init__(self, cell):
        self.cell = cell

    async def grant_capacity(self, capacities):
        return CapacityResponse(
            epoch=0,
            agents=tuple(sorted(self.cell.agents)),
            capacities=dict(capacities),
            aggregate_elasticity={name: 1.0 for name in capacities},
        )

    async def allocation(self):
        return AllocationResponse(
            epoch=0,
            mechanism="ref",
            feasible=True,
            capacities=dict(self.cell.grant),
            shares={agent: {"membw_gbps": 1.0, "cache_kb": 64.0} for agent in self.cell.agents},
        )


@pytest.fixture()
def workers(monkeypatch):
    """Stub every cell's spawn and terminate; returns the spawned and terminated names."""
    log = {"spawned": [], "terminated": [], "fail": set()}

    def spawn(self, timeout=30.0):
        if self.name in log["fail"]:
            raise RuntimeError(f"cell {self.name}: worker exited before binding (rc=1)")
        log["spawned"].append(self.name)
        self.alive = True

    def terminate(self, timeout=10.0):
        self.alive = False
        log["terminated"].append(self.name)

    monkeypatch.setattr(CellWorker, "spawn", spawn)
    monkeypatch.setattr(CellWorker, "terminate", terminate)
    return log


def _coordinator(**options):
    coordinator = ShardCoordinator(
        dict(WORKLOADS), capacities=(25.6, 4096.0), metrics=MetricsRegistry(), **options
    )

    async def call(cell, fn):
        return await fn(StubLink(cell))

    coordinator._call = call
    return coordinator


def test_a_failed_spawn_terminates_the_cells_already_started(workers):
    workers["fail"].add("cell-1")
    coordinator = _coordinator(cells=3)
    with pytest.raises(RuntimeError, match="cell-1: worker exited before binding"):
        asyncio.run(coordinator.start())
    assert sorted(workers["spawned"]) == ["cell-0", "cell-2"]
    assert set(workers["spawned"]) <= set(workers["terminated"])


def test_a_listener_that_cannot_bind_terminates_every_cell(workers):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        coordinator = _coordinator(cells=2, port=taken.getsockname()[1])
        with pytest.raises(OSError):
            asyncio.run(coordinator.start())
    assert sorted(workers["terminated"]) == ["cell-0", "cell-1"]


def test_stop_after_the_grant_loop_died_still_tears_down(workers):
    coordinator = _coordinator(cells=2, grant_ms=1.0)

    async def reap():
        raise RuntimeError("grant loop died")

    coordinator._reap_dead_cells = reap

    async def scenario():
        await coordinator.start()
        while not coordinator._ticker.done():
            await asyncio.sleep(0.001)
        with pytest.raises(RuntimeError, match="grant loop died"):
            await coordinator.stop()
        return coordinator._server.is_serving()

    assert asyncio.run(scenario()) is False
    assert sorted(workers["terminated"]) == ["cell-0", "cell-1"]
    assert coordinator.summary_line().startswith("shard: cells=2/2")


def test_every_cell_is_spawned_with_every_resource_of_its_grant(workers):
    coordinator = _coordinator(cells=2)

    async def scenario():
        await coordinator.start()
        await coordinator.stop()

    asyncio.run(scenario())
    for cell in coordinator.cells:
        flag = cell.command.index("--capacities")
        granted = [float(value) for value in cell.command[flag + 1].split(",")]
        assert len(granted) == len(coordinator.resource_names)
    assert sorted(workers["terminated"]) == ["cell-0", "cell-1"]
