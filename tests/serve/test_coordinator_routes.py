"""Coordinator routes against stub cells, without worker subprocesses.

The single-sample proxy forwards the exploration flag.  A cached
``/v1/allocation`` read is answered inline; only a miss awaits the
cells.  Pipelined requests whose proxied calls finish out of order are
still answered in request order, and ``stop()`` delivers the reply in
flight before it closes the connection.  A body that is not UTF-8 is a
400 before any cell hears of it.
"""

import asyncio
import json

import pytest

from repro.dynamic.controller import RESOURCE_NAMES
from repro.obs import MetricsRegistry
from repro.serve import ShardCoordinator
from repro.serve.protocol import AllocationResponse, SampleResponse
from repro.serve.server import _Connection

from .test_connection import FakeTransport, http_request, replies

WORKLOADS = {"freqmine": "freqmine", "dedup": "dedup"}


def _coordinator():
    coordinator = ShardCoordinator(
        dict(WORKLOADS),
        capacities=(25.6, 4096.0),
        cells=2,
        metrics=MetricsRegistry(),
        learn_demands=True,
    )
    coordinator._seed_placement()
    for cell in coordinator.cells:
        cell.alive = True
    return coordinator


class StubClient:
    """A cell's client: records proxied samples, serves its agents' shares."""

    def __init__(self, cell, log):
        self.cell = cell
        self.log = log

    def submit_sample(self, agent, bandwidth_gbps, cache_kb, ipc, exploration=False):
        self.log.append((agent, exploration))
        return SampleResponse(agent=agent, queued=True, epoch=0, pending=1)

    def allocation(self):
        shares = {agent: {"membw_gbps": 1.0, "cache_kb": 64.0} for agent in self.cell.agents}
        return AllocationResponse(
            epoch=0,
            mechanism="ref",
            feasible=True,
            capacities={"membw_gbps": 12.8, "cache_kb": 2048.0},
            shares=shares,
        )


def sample_body(agent, exploration):
    payload = {"agent": agent, "bandwidth_gbps": 3.0, "cache_kb": 512.0, "ipc": 1.0}
    if exploration:
        payload["exploration"] = True
    return json.dumps(payload).encode()


class TestSampleProxy:
    def test_single_sample_keeps_its_exploration_flag(self):
        coordinator = _coordinator()
        log = []

        async def call(cell, fn):
            return fn(StubClient(cell, log))

        coordinator._call = call

        async def scenario():
            results = []
            for exploration in (True, False):
                body = sample_body("freqmine", exploration)
                results.append(await coordinator._dispatch("POST", "/v1/samples", body))
            return results

        results = asyncio.run(scenario())
        assert [status for status, _, _ in results] == [200, 200]
        assert log == [("freqmine", True), ("freqmine", False)]


class TestUndecodableBody:
    def test_a_register_that_is_not_utf8_is_a_400(self):
        coordinator = _coordinator()
        registered = []

        class StubLink:
            async def register(self, agent, workload, workload_class=None):
                registered.append(agent)

        async def call(cell, fn):
            return await fn(StubLink())

        coordinator._call = call
        body = b'{"action": "register", "agent": "w\xffb", "workload": "canneal"}'

        async def scenario():
            return await coordinator._dispatch("POST", "/v1/agents", body)

        status, payload, _ = asyncio.run(scenario())
        assert (status, payload["error"]) == (400, "bad_request")
        assert "not valid UTF-8" in payload["detail"]
        assert registered == []
        assert set(coordinator.workloads) == set(WORKLOADS)


class TestAllocationSnapshot:
    def test_hit_is_answered_inline_and_only_a_miss_awaits(self):
        coordinator = _coordinator()
        calls = []

        async def call(cell, fn):
            calls.append(cell.name)
            return fn(StubClient(cell, []))

        coordinator._call = call
        miss = coordinator._dispatch("GET", "/v1/allocation", b"")
        assert asyncio.iscoroutine(miss)
        status, body, _ = asyncio.run(miss)
        assert status == 200
        assert set(json.loads(body)["shares"]) == set(WORKLOADS)
        assert len(calls) == 2  # one read per live cell

        hit = coordinator._dispatch("GET", "/v1/allocation", b"")
        assert hit == (200, body, "application/json")
        assert len(calls) == 2
        for result, count in (("miss", 1), ("hit", 1)):
            counter = coordinator.metrics.get(
                "repro_serve_snapshots_total", route="/v1/allocation", result=result
            )
            assert counter is not None and counter.value == count


class TestPipelinedProxies:
    def test_slow_cells_do_not_reorder_replies(self):
        # The first proxied sample is the slowest: handlers run
        # concurrently would answer it last.
        coordinator = _coordinator()
        log = []
        delays = {"freqmine": 0.04, "dedup": 0.01}

        async def call(cell, fn):
            client = StubClient(cell, log)
            agents = sorted(cell.agents)
            await asyncio.sleep(delays.get(agents[0], 0.0) if agents else 0.0)
            return fn(client)

        coordinator._call = call
        burst = [
            http_request("POST", "/v1/samples", sample_body("freqmine", False)),
            http_request("GET", "/healthz"),
            http_request("POST", "/v1/samples", sample_body("dedup", True)),
            http_request("GET", "/v1/allocation"),
            http_request("GET", "/nope"),
        ]

        async def run():
            connection = _Connection(coordinator)
            transport = FakeTransport(connection)
            connection.connection_made(transport)
            connection.data_received(b"".join(burst))
            for _ in range(2000):
                if len(replies(transport.data)) == len(burst):
                    break
                await asyncio.sleep(0.001)
            transport.close()
            await asyncio.sleep(0)
            return replies(transport.data)

        got = asyncio.run(run())
        assert [status for status, _, _ in got] == [200, 200, 200, 200, 404]
        assert json.loads(got[0][2])["agent"] == "freqmine"
        assert json.loads(got[1][2])["status"] == "ok"
        assert json.loads(got[2][2])["agent"] == "dedup"
        assert set(json.loads(got[3][2])["shares"]) == set(WORKLOADS)
        assert log == [("freqmine", False), ("dedup", True)]


class TestShutdown:
    def test_stop_delivers_the_reply_in_flight_then_closes(self):
        coordinator = _coordinator()

        async def call(cell, fn):
            await asyncio.sleep(0.05)
            return fn(StubClient(cell, []))

        coordinator._call = call
        burst = [
            http_request("POST", "/v1/samples", sample_body("freqmine", False)),
            http_request("GET", "/healthz"),
        ]

        async def run():
            connection = _Connection(coordinator)
            transport = FakeTransport(connection)
            connection.connection_made(transport)
            connection.data_received(b"".join(burst))
            await asyncio.sleep(0.01)  # the proxied sample is in flight
            await coordinator.stop()
            return replies(transport.data), transport.closed, len(coordinator._connections)

        got, closed, still_open = asyncio.run(run())
        assert [(status, json.loads(body)["agent"]) for status, _, body in got] == [
            (200, "freqmine")
        ]
        assert closed and still_open == 0


class TestCapacityValidation:
    """The coordinator checks its capacities by the allocator's one rule."""

    @pytest.mark.parametrize(
        "capacities", [(25.6, 4096.0, 7.0), ("abc", 4096.0), (25.6, 0.0), (25.6, float("inf"))]
    )
    def test_bad_capacities_are_a_value_error(self, capacities):
        with pytest.raises(ValueError, match="2 positive finite numbers"):
            ShardCoordinator(dict(WORKLOADS), capacities=capacities, cells=2)

    def test_capacities_and_resource_names(self):
        coordinator = _coordinator()
        assert coordinator.capacities == (25.6, 4096.0)
        assert coordinator.resource_names is RESOURCE_NAMES
