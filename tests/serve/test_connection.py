"""The buffered HTTP/1.1 front end, driven through a fake transport.

One ``_Connection`` protocol is fed byte chunks directly, with no
socket, so the tests choose exactly where a pipelined stream is cut:
every complete request is answered once and in order, whatever the
chunking; a ``Connection: close`` or an unparseable request ends the
burst; back-pressure holds parsing; and the first-request timer closes
a connection that never completes a request.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicAllocator
from repro.obs import MetricsRegistry
from repro.serve import AllocationServer, BatchPolicy
from repro.serve import server as server_module
from repro.serve.server import MAX_REQUEST_LINE, _Connection
from repro.workloads import get_workload


class FakeTransport(asyncio.Transport):
    """Collects writes; closing reports ``connection_lost`` on the next
    loop iteration, as a socket transport does."""

    def __init__(self, protocol):
        super().__init__()
        self.protocol = protocol
        self.data = bytearray()
        self.closed = False
        self.reading = True

    def write(self, data):
        assert not self.closed, "write after close"
        self.data += data

    def is_closing(self):
        return self.closed

    def close(self):
        if not self.closed:
            self.closed = True
            asyncio.get_running_loop().call_soon(self.protocol.connection_lost, None)

    def abort(self):
        self.close()

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True


def http_request(method, path, body=b"", extra=""):
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}"
    if method == "POST":
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


def replies(data):
    """Split a byte stream into ``(status, connection, body)`` replies."""
    out = []
    data = bytes(data)
    at = 0
    while at < len(data):
        head_end = data.find(b"\r\n\r\n", at)
        assert head_end >= 0, f"truncated reply head: {data[at:]!r}"
        lines = data[at:head_end].decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines[1:])
        at = head_end + 4 + int(headers["Content-Length"])
        assert at <= len(data), "truncated reply body"
        out.append((int(lines[0].split()[1]), headers["Connection"], data[head_end + 4 : at]))
    return out


REQUESTS = {
    "allocation": http_request("GET", "/v1/allocation"),
    "health": http_request("GET", "/healthz"),
    "not_found": http_request("GET", "/nope"),
    "wrong_method": http_request("GET", "/v1/agents"),
    "bad_json": http_request("POST", "/v1/samples", b"{not json"),
    "unknown_agents": http_request(
        "POST",
        "/v1/samples",
        json.dumps(
            {
                "samples": [
                    {"agent": "ghost", "bandwidth_gbps": 3.0, "cache_kb": 512.0, "ipc": 1.0},
                    {"agent": "phantom", "bandwidth_gbps": 2.0, "cache_kb": 256.0, "ipc": 0.8},
                ]
            }
        ).encode(),
    ),
}


@pytest.fixture(scope="module")
def flat():
    """A flat server at epoch 0 on a private loop, never bound to a socket."""
    registry = MetricsRegistry()
    allocator = DynamicAllocator(
        {"freqmine": get_workload("freqmine"), "dedup": get_workload("dedup")},
        capacities=(25.6, 4096.0),
        seed=11,
        metrics=registry,
    )
    server = AllocationServer(
        allocator, policy=BatchPolicy(max_delay=3600.0, max_batch=10_000), metrics=registry
    )
    loop = asyncio.new_event_loop()
    server._loop = loop
    loop.run_until_complete(server._on_start())
    yield server, loop
    loop.close()


def exchange(server, loop, chunks):
    """Feed ``chunks`` to one connection; return (bytes written, closed)."""

    async def run():
        connection = _Connection(server)
        transport = FakeTransport(connection)
        connection.connection_made(transport)
        for chunk in chunks:
            connection.data_received(chunk)
            await asyncio.sleep(0)
        closed = transport.closed
        transport.close()
        await asyncio.sleep(0)  # deliver connection_lost
        return bytes(transport.data), closed

    return loop.run_until_complete(run())


def cut(stream, points):
    """``stream`` split at the given offsets."""
    bounds = [0, *sorted(set(points)), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:]) if b > a]


class TestPipelining:
    @settings(max_examples=60, deadline=None)
    @given(
        names=st.lists(st.sampled_from(sorted(REQUESTS)), min_size=1, max_size=8),
        data=st.data(),
    )
    def test_any_cut_of_a_pipelined_stream_answers_each_request_alone(self, flat, names, data):
        server, loop = flat
        alone = {}
        for name in set(names):
            written, closed = exchange(server, loop, [REQUESTS[name]])
            [alone[name]] = replies(written)
            assert not closed
        stream = b"".join(REQUESTS[name] for name in names)
        points = data.draw(
            st.lists(st.integers(min_value=1, max_value=len(stream) - 1), max_size=12)
        )
        written, closed = exchange(server, loop, cut(stream, points))
        assert replies(written) == [alone[name] for name in names]
        assert not closed

    def test_byte_at_a_time(self, flat):
        server, loop = flat
        stream = REQUESTS["health"] + REQUESTS["unknown_agents"] + REQUESTS["allocation"]
        written, _ = exchange(server, loop, [stream[i : i + 1] for i in range(len(stream))])
        assert [status for status, _, _ in replies(written)] == [200, 200, 200]

    def test_connection_close_ends_the_burst(self, flat):
        server, loop = flat
        burst = [
            REQUESTS["health"],
            REQUESTS["allocation"],
            http_request("GET", "/healthz", extra="Connection: close\r\n"),
            REQUESTS["health"],
            REQUESTS["allocation"],
        ]
        written, closed = exchange(server, loop, [b"".join(burst)])
        got = replies(written)
        assert [(status, connection) for status, connection, _ in got] == [
            (200, "keep-alive"),
            (200, "keep-alive"),
            (200, "close"),
        ]
        assert closed

    def test_malformed_request_ends_the_burst(self, flat):
        server, loop = flat
        burst = [REQUESTS["health"], REQUESTS["not_found"], b"BANANAS\r\n\r\n", REQUESTS["health"]]
        written, closed = exchange(server, loop, [b"".join(burst)])
        got = replies(written)
        assert [(status, connection) for status, connection, _ in got] == [
            (200, "keep-alive"),
            (404, "keep-alive"),
            (400, "close"),
        ]
        assert json.loads(got[2][2])["error"] == "bad_request"
        assert closed

    def test_bare_lf_line_endings(self, flat):
        server, loop = flat
        written, closed = exchange(server, loop, [b"GET /healthz HTTP/1.1\nHost: t\n\n"])
        [(status, connection, body)] = replies(written)
        assert (status, connection) == (200, "keep-alive")
        assert json.loads(body)["status"] == "ok"
        assert not closed

    def test_overlong_request_line_is_refused_before_its_end(self, flat):
        server, loop = flat
        written, closed = exchange(server, loop, [b"GET /" + b"x" * MAX_REQUEST_LINE])
        [(status, connection, body)] = replies(written)
        assert (status, connection) == (431, "close")
        assert json.loads(body)["error"] == "header_too_large"
        assert closed


class TestBackPressure:
    def test_pause_writing_holds_parsing_until_resume(self, flat):
        server, loop = flat

        async def run():
            connection = _Connection(server)
            transport = FakeTransport(connection)
            connection.connection_made(transport)
            connection.pause_writing()
            connection.data_received(REQUESTS["health"] * 3)
            held = len(transport.data)
            connection.resume_writing()
            answered = len(replies(transport.data))
            transport.close()
            await asyncio.sleep(0)
            return held, answered

        held, answered = loop.run_until_complete(run())
        assert held == 0
        assert answered == 3

    def test_reading_pauses_while_a_reply_is_held(self, flat):
        server, loop = flat

        async def run():
            connection = _Connection(server)
            transport = FakeTransport(connection)
            connection.connection_made(transport)
            connection.pause_writing()
            connection.data_received(REQUESTS["health"] * 40_000)
            paused = not transport.reading
            connection.resume_writing()
            resumed = transport.reading
            transport.close()
            await asyncio.sleep(0)
            return paused, resumed, len(replies(transport.data))

        paused, resumed, answered = loop.run_until_complete(run())
        assert paused and resumed
        assert answered == 40_000


class TestTimeouts:
    def test_incomplete_first_request_is_closed_unanswered(self, flat, monkeypatch):
        server, loop = flat
        monkeypatch.setattr(server_module, "FIRST_REQUEST_TIMEOUT", 0.02)

        async def run():
            connection = _Connection(server)
            transport = FakeTransport(connection)
            connection.connection_made(transport)
            connection.data_received(b"GET /healthz HTTP/1.1\r\nHost:")
            await asyncio.sleep(0.1)
            return bytes(transport.data), transport.closed

        written, closed = loop.run_until_complete(run())
        assert written == b""
        assert closed
