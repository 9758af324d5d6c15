"""The coordinator's link to a cell, driven through fake transports.

Each connection the :class:`CellLink` opens is a fake transport the
test plays the cell on: it reads the requests the link wrote and feeds
replies back in chunks it chooses.  Pipelined replies come back in
request order however the stream is cut; ``Connection: close`` ends a
connection; a peer that closes with requests in flight fails them all
(and the coordinator answers 502 ``cell_unreachable``); a timeout
aborts the connection; and the link retries exactly as ``ServeClient``
does: one transparent reconnect of a stale connection, one retry of a
failed GET.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.serve import CellLink, ServeError, ShardCoordinator
from repro.serve.link import _LinkProtocol
from repro.serve.protocol import AllocationResponse
from repro.serve.server import _parse_request, _response

from .test_connection import FakeTransport


class CountingTransport(FakeTransport):
    def __init__(self, protocol):
        super().__init__(protocol)
        self.writes = 0

    def write(self, data):
        super().write(data)
        self.writes += 1


class FakeCell:
    """The cell's end of every connection a link opens."""

    def __init__(self, link):
        self.link = link
        self.connections = []
        self.refuse = False
        link._open = self.open

    async def open(self):
        if self.refuse:
            raise ConnectionRefusedError(111, "Connection refused")
        protocol = _LinkProtocol(self.link)
        transport = CountingTransport(protocol)
        protocol.connection_made(transport)
        self.connections.append((protocol, transport))
        return protocol

    @property
    def protocol(self):
        return self.connections[-1][0]

    @property
    def transport(self):
        return self.connections[-1][1]

    def requests(self, index=-1):
        """``(method, path, body)`` of every request on one connection."""
        data = self.connections[index][1].data
        out, start = [], 0
        while start < len(data):
            start, method, path, body, keep_alive = _parse_request(data, start)
            assert keep_alive
            out.append((method, path, body))
        return out

    def answer(self, *payloads, keep_alive=True, status=200):
        """Feed one reply per payload to the newest connection."""
        self.protocol.data_received(
            b"".join(reply(payload, keep_alive, status) for payload in payloads)
        )

    def hang_up(self):
        """The cell closes its end of the newest connection."""
        self.protocol.eof_received()
        self.transport.close()


def reply(payload, keep_alive=True, status=200):
    return _response(status, payload, "application/json", keep_alive)


async def until(predicate, turns=200):
    for _ in range(turns):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition never held")


def start(coro):
    return asyncio.get_running_loop().create_task(coro)


class TestPipelining:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        cuts=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=12),
    )
    def test_any_cut_of_n_replies_answers_n_waiters_in_order(self, n, cuts):
        async def scenario():
            link = CellLink("127.0.0.1", 9)
            cell = FakeCell(link)
            tasks = [start(link._request("POST", f"/r{i}", {"i": i})) for i in range(n)]
            await until(lambda: cell.connections and cell.transport.writes == n)
            stream = b"".join(reply({"i": i, "pad": "x" * i}) for i in range(n))
            positions = sorted({int(cut * len(stream)) for cut in cuts} | {0, len(stream)})
            for a, b in zip(positions, positions[1:]):
                cell.protocol.data_received(stream[a:b])
            results = await asyncio.gather(*tasks)
            await link.close()
            return cell, results

        cell, results = asyncio.run(scenario())
        assert len(cell.connections) == 1
        assert [path for _, path, _ in cell.requests()] == [f"/r{i}" for i in range(n)]
        assert [json.loads(body) for _, _, body in cell.requests()] == [
            {"i": i} for i in range(n)
        ]
        assert [(status, json.loads(text)["i"]) for status, text in results] == [
            (200, i) for i in range(n)
        ]

    def test_routes_decode_replies_and_carry_cell_errors(self):
        async def scenario():
            link = CellLink("127.0.0.1", 9)
            cell = FakeCell(link)
            allocation = start(link.allocation())
            refused = start(link.deregister("solo"))
            await until(lambda: cell.connections and cell.transport.writes == 2)
            body = AllocationResponse(
                epoch=3,
                mechanism="ref",
                feasible=True,
                capacities={"membw_gbps": 1.0, "cache_kb": 2.0},
                shares={"a": {"membw_gbps": 1.0, "cache_kb": 2.0}},
            ).as_dict()
            cell.answer(body)
            cell.answer({"error": "last_agent", "detail": "no"}, status=409)
            got = await allocation
            with pytest.raises(ServeError) as excinfo:
                await refused
            await link.close()
            return cell, got, excinfo.value

        cell, got, error = asyncio.run(scenario())
        assert [(m, p) for m, p, _ in cell.requests()] == [
            ("GET", "/v1/allocation"),
            ("POST", "/v1/agents"),
        ]
        assert isinstance(got, AllocationResponse) and got.epoch == 3
        assert (error.status, error.error, error.detail) == (409, "last_agent", "no")


class TestConnectionClose:
    def test_requests_behind_a_close_reply_move_to_a_fresh_connection(self):
        async def scenario():
            link = CellLink("127.0.0.1", 9)
            cell = FakeCell(link)
            tasks = [start(link._request("POST", f"/r{i}", {"i": i})) for i in range(3)]
            await until(lambda: cell.connections and cell.transport.writes == 3)
            first = cell.transport
            cell.answer({"i": 0}, keep_alive=False)
            await until(lambda: len(cell.connections) == 2 and cell.transport.writes == 2)
            cell.answer({"i": 1}, {"i": 2})
            results = await asyncio.gather(*tasks)
            await link.close()
            return cell, first, results

        cell, first, results = asyncio.run(scenario())
        assert first.closed
        assert [path for _, path, _ in cell.requests(1)] == ["/r1", "/r2"]
        assert [json.loads(text)["i"] for _, text in results] == [0, 1, 2]


class TestPeerClose:
    def test_every_waiter_fails_when_the_cell_hangs_up(self):
        async def scenario():
            link = CellLink("127.0.0.1", 9)
            cell = FakeCell(link)
            tasks = [start(link._request("POST", "/v1/samples", {"i": i})) for i in range(3)]
            await until(lambda: cell.connections and cell.transport.writes == 3)
            cell.refuse = True
            cell.hang_up()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await link.close()
            return cell, results

        cell, results = asyncio.run(scenario())
        assert len(cell.connections) == 1
        assert all(isinstance(r, ServeError) and r.is_transport for r in results)
        assert "RemoteDisconnected" in str(results[0])  # the first: not retried
        assert all("ConnectionRefusedError" in str(r) for r in results[1:])  # retried once

    def test_a_partial_reply_is_never_retried(self):
        async def scenario():
            link = CellLink("127.0.0.1", 9)
            cell = FakeCell(link)
            warm = start(link._request("POST", "/v1/samples", {}))
            await until(lambda: cell.connections and cell.transport.writes == 1)
            cell.answer({})
            await warm
            task = start(link._request("POST", "/v1/samples", {}))
            await until(lambda: cell.transport.writes == 2)
            cell.protocol.data_received(reply({"agent": "a"})[:-3])
            cell.hang_up()
            with pytest.raises(ServeError) as excinfo:
                await task
            await link.close()
            return cell, excinfo.value

        cell, error = asyncio.run(scenario())
        assert len(cell.connections) == 1
        assert "IncompleteRead" in str(error)

    def test_coordinator_answers_502_cell_unreachable(self):
        coordinator = ShardCoordinator(
            {"freqmine": "freqmine", "dedup": "dedup"},
            capacities=(25.6, 4096.0),
            cells=2,
            metrics=MetricsRegistry(),
        )
        coordinator._seed_placement()
        cells = {}
        for cell in coordinator.cells:
            cell.alive = True
            cell.link = CellLink("127.0.0.1", 9)
            cells[cell.name] = FakeCell(cell.link)
        owner = coordinator._owner("freqmine")
        fake = cells[owner.name]
        body = json.dumps(
            {"agent": "freqmine", "bandwidth_gbps": 3.0, "cache_kb": 512.0, "ipc": 1.0}
        ).encode()

        async def scenario():
            pending = start(coordinator._dispatch("POST", "/v1/samples", body))
            await until(lambda: fake.connections and fake.transport.writes == 1)
            fake.refuse = True
            fake.hang_up()
            result = await pending
            for cell in coordinator.cells:
                await cell.link.close()
            return result

        status, payload, _ = asyncio.run(scenario())
        assert status == 502
        assert payload["error"] == "cell_unreachable"
        assert payload["detail"].startswith(f"cell {owner.name}: transport: transport_error")
        assert "POST /v1/samples on 127.0.0.1:9" in payload["detail"]


class TestTimeout:
    def test_a_post_that_outlives_the_timeout_aborts_the_connection(self):
        async def scenario():
            link = CellLink("127.0.0.1", 9, timeout=0.05)
            cell = FakeCell(link)
            with pytest.raises(ServeError) as excinfo:
                await link._request("POST", "/v1/samples", {})
            await link.close()
            return cell, excinfo.value

        cell, error = asyncio.run(scenario())
        assert len(cell.connections) == 1  # a POST is not retried
        assert cell.transport.closed
        assert "TimeoutError: timed out" in str(error)

    def test_a_get_that_times_out_is_retried_once(self):
        async def scenario():
            link = CellLink("127.0.0.1", 9, timeout=0.05)
            cell = FakeCell(link)
            with pytest.raises(ServeError) as excinfo:
                await link._request("GET", "/v1/allocation")
            await link.close()
            return cell, excinfo.value

        cell, error = asyncio.run(scenario())
        assert len(cell.connections) == 2
        assert all(transport.closed for _, transport in cell.connections)
        assert error.is_transport


class TestRetries:
    def test_a_stale_connection_is_reconnected_once(self):
        async def scenario():
            link = CellLink("127.0.0.1", 9)
            cell = FakeCell(link)
            first = start(link._request("POST", "/v1/samples", {"n": 1}))
            await until(lambda: cell.connections and cell.transport.writes == 1)
            cell.answer({"n": 1})
            await first
            second = start(link._request("POST", "/v1/samples", {"n": 2}))
            await until(lambda: cell.transport.writes == 2)
            cell.hang_up()  # the cell closed before answering it
            await until(lambda: len(cell.connections) == 2 and cell.transport.writes == 1)
            cell.answer({"n": 2})
            result = await second
            await link.close()
            return cell, result

        cell, (status, text) = asyncio.run(scenario())
        assert (status, json.loads(text)) == (200, {"n": 2})
        assert [json.loads(body) for _, _, body in cell.requests()] == [{"n": 2}]

    def test_a_fresh_connection_post_is_not_retried(self):
        async def scenario():
            link = CellLink("127.0.0.1", 9)
            cell = FakeCell(link)
            task = start(link._request("POST", "/v1/samples", {}))
            await until(lambda: cell.connections and cell.transport.writes == 1)
            cell.hang_up()
            with pytest.raises(ServeError) as excinfo:
                await task
            await link.close()
            return cell, excinfo.value

        cell, error = asyncio.run(scenario())
        assert len(cell.connections) == 1
        assert "RemoteDisconnected" in str(error)

    def test_a_failed_get_is_retried_once(self):
        async def scenario():
            link = CellLink("127.0.0.1", 9)
            cell = FakeCell(link)
            task = start(link._request("GET", "/healthz"))
            await until(lambda: cell.connections and cell.transport.writes == 1)
            cell.hang_up()
            await until(lambda: len(cell.connections) == 2 and cell.transport.writes == 1)
            cell.answer({"ok": True})
            result = await task
            await link.close()
            return cell, result

        cell, (status, text) = asyncio.run(scenario())
        assert len(cell.connections) == 2
        assert (status, json.loads(text)) == (200, {"ok": True})


class TestClose:
    def test_close_fails_requests_in_flight_and_refuses_new_ones(self):
        async def scenario():
            link = CellLink("127.0.0.1", 9)
            cell = FakeCell(link)
            task = start(link._request("GET", "/healthz"))
            await until(lambda: cell.connections and cell.transport.writes == 1)
            await link.close()
            with pytest.raises(ServeError) as in_flight:
                await task
            with pytest.raises(ServeError) as after:
                await link._request("GET", "/healthz")
            return cell, in_flight.value, after.value

        cell, in_flight, after = asyncio.run(scenario())
        assert len(cell.connections) == 1
        assert in_flight.is_transport and after.is_transport
        assert "link closed" in str(after)
