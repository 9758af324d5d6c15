"""Socket-level tests for the HTTP/1.1 keep-alive data plane.

The serve layer's persistent-connection contract, exercised with raw
sockets (the blocking client would hide framing bugs): N sequential
requests on one connection, idle-timeout close, a malformed request
poisoning only its own connection, the ``Connection: close`` opt-out,
snapshot-served reads, bulk sample ingest end-to-end, and the pooled
client's transparent reconnect.
"""

import json
import socket
import time

import pytest

from repro.dynamic import DynamicAllocator
from repro.obs import MetricsRegistry
from repro.serve import (
    AllocationServer,
    BatchPolicy,
    ServeClient,
    ServeError,
    ServerThread,
)
from repro.workloads import get_workload

IDLE_TIMEOUT = 0.4


def _make_server(registry: MetricsRegistry) -> AllocationServer:
    allocator = DynamicAllocator(
        {"freqmine": get_workload("freqmine"), "dedup": get_workload("dedup")},
        capacities=(25.6, 4096.0),
        seed=11,
        metrics=registry,
    )
    return AllocationServer(
        allocator,
        policy=BatchPolicy(max_delay=0.02, max_batch=8),
        metrics=registry,
        idle_timeout=IDLE_TIMEOUT,
    )


@pytest.fixture()
def service():
    """A live server (short idle timeout) plus its metrics registry."""
    registry = MetricsRegistry()
    server = _make_server(registry)
    thread = ServerThread(server).start()
    client = ServeClient("127.0.0.1", server.port)
    client.wait_ready(timeout=10)
    yield server, client, registry
    client.close()
    thread.stop()


def _request_blob(method: str, path: str, body: bytes = b"", extra: str = "") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\n{extra}"
    if method == "POST":
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


def _read_response(sock: socket.socket):
    """One framed response: ``(status, headers, body)`` — not read-to-EOF."""
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"EOF before headers: {data!r}")
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            break
        body += chunk
    return status, headers, body


class TestPersistentConnections:
    def test_n_sequential_requests_on_one_connection(self, service):
        server, _, registry = service
        before = registry.get("repro_serve_connections_total")
        before = int(before.value) if before else 0
        n = 7
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            for _ in range(n):
                sock.sendall(_request_blob("GET", "/healthz"))
                status, headers, body = _read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                assert json.loads(body)["status"] == "ok"
        after = registry.get("repro_serve_connections_total")
        assert int(after.value) == before + 1  # all n requests, one connection

    def test_requests_per_connection_histogram_observes_reuse(self, service):
        server, _, registry = service
        n = 5
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            for _ in range(n):
                sock.sendall(_request_blob("GET", "/healthz"))
                _read_response(sock)
            sock.sendall(_request_blob("GET", "/healthz", extra="Connection: close\r\n"))
            _read_response(sock)
        deadline = time.monotonic() + 5
        histogram = None
        while time.monotonic() < deadline:
            histogram = registry.get("repro_serve_requests_per_connection")
            if histogram is not None and histogram.sum >= n + 1:
                break
            time.sleep(0.01)
        assert histogram is not None and histogram.sum >= n + 1

    def test_connection_close_opts_out(self, service):
        server, _, _ = service
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(
                _request_blob("GET", "/healthz", extra="Connection: close\r\n")
            )
            status, headers, _ = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert sock.recv(1) == b""  # server actually closed

    def test_http_10_is_one_shot_by_default(self, service):
        server, _, _ = service
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n")
            status, headers, _ = _read_response(sock)
            assert status == 200
            assert headers["connection"] == "close"
            assert sock.recv(1) == b""

    def test_http_10_keep_alive_opt_in(self, service):
        server, _, _ = service
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            for _ in range(2):
                sock.sendall(
                    b"GET /healthz HTTP/1.0\r\nHost: t\r\n"
                    b"Connection: keep-alive\r\n\r\n"
                )
                status, headers, _ = _read_response(sock)
                assert status == 200
                assert headers["connection"] == "keep-alive"

    def test_idle_timeout_closes_the_connection(self, service):
        server, _, _ = service
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(_request_blob("GET", "/healthz"))
            status, _, _ = _read_response(sock)
            assert status == 200
            # No second request: the server must hang up on its own.
            sock.settimeout(IDLE_TIMEOUT * 10)
            assert sock.recv(1) == b""

    def test_malformed_second_request_poisons_only_its_connection(self, service):
        server, client, _ = service
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(_request_blob("GET", "/healthz"))
            status, _, _ = _read_response(sock)
            assert status == 200
            sock.sendall(b"BANANAS\r\n\r\n")
            status, headers, _ = _read_response(sock)
            assert status == 400
            assert headers["connection"] == "close"
            assert sock.recv(1) == b""  # this connection is done...
        assert client.health().status == "ok"  # ...the service is not

    def test_dispatch_errors_keep_the_connection(self, service):
        """A 404/405 is the handler's answer, not a framing failure."""
        server, _, _ = service
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            sock.sendall(_request_blob("GET", "/nope"))
            status, headers, _ = _read_response(sock)
            assert status == 404
            assert headers["connection"] == "keep-alive"
            sock.sendall(_request_blob("GET", "/healthz"))
            status, _, _ = _read_response(sock)
            assert status == 200


class TestRequestLatency:
    def test_latency_excludes_keep_alive_idle_time(self, service):
        """The clock starts when a request is complete, not when the
        connection begins waiting for it."""
        server, _, registry = service
        before = registry.get("repro_serve_request_latency_seconds", route="/healthz")
        before_count, before_sum = (before.count, before.sum) if before else (0, 0.0)
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            for pause in (0.0, 0.3):
                time.sleep(pause)
                sock.sendall(_request_blob("GET", "/healthz"))
                status, _, _ = _read_response(sock)
                assert status == 200
        latency = registry.get("repro_serve_request_latency_seconds", route="/healthz")
        assert latency.count == before_count + 2
        assert latency.sum - before_sum < 0.05


class TestSnapshotReads:
    def test_repeated_reads_hit_the_snapshot_cache(self, service):
        _, client, registry = service
        for _ in range(3):
            client.allocation()
        hits = registry.get(
            "repro_serve_snapshots_total", route="/v1/allocation", result="hit"
        )
        misses = registry.get(
            "repro_serve_snapshots_total", route="/v1/allocation", result="miss"
        )
        assert misses is not None and int(misses.value) >= 1
        assert hits is not None and int(hits.value) >= 1

    def test_churn_invalidates_the_snapshot(self, service):
        _, client, _ = service
        before = client.allocation()
        assert "canneal" not in before.shares
        client.register("canneal", "canneal")
        after = client.allocation()
        assert "canneal" in after.shares  # not a stale cached byte blob
        assert after.epoch > before.epoch


class TestBulkIngest:
    def test_bulk_reports_per_sample_outcomes(self, service):
        _, client, _ = service
        response = client.post_samples_bulk(
            [
                ("freqmine", 4.0, 512.0, 0.8),
                ("ghost", 4.0, 512.0, 0.8),
                ("dedup", 3.0, 256.0, 0.7),
            ]
        )
        assert response.accepted == 2
        assert response.rejected == 1
        assert [o.queued for o in response.results] == [True, False, True]
        assert response.results[1].agent == "ghost"
        assert response.results[1].error == "unknown_agent"

    def test_bulk_samples_fold_into_an_epoch(self, service):
        server, client, registry = service
        response = client.post_samples_bulk(
            [("freqmine", 4.0 + 0.1 * k, 512.0, 0.8) for k in range(5)]
        )
        assert response.accepted == 5
        deadline = time.monotonic() + 10
        applied = None
        while time.monotonic() < deadline:
            applied = registry.get("repro_serve_samples_total", outcome="accepted")
            if applied is not None and int(applied.value) >= 5:
                break
            time.sleep(0.01)
        assert applied is not None and int(applied.value) >= 5

    def test_single_sample_body_stays_valid(self, service):
        _, client, _ = service
        response = client.submit_sample("freqmine", 4.0, 512.0, 0.8)
        assert response.queued is True
        assert response.agent == "freqmine"

    def test_oversized_bulk_flushes_once(self, service):
        """A bulk array crossing max_batch costs ONE epoch tick."""
        server, client, registry = service
        before = registry.get("repro_serve_batches_total", trigger="max_batch")
        before = int(before.value) if before else 0
        response = client.post_samples_bulk(
            [("freqmine", 3.0 + 0.05 * k, 400.0, 0.7) for k in range(20)]
        )
        assert response.accepted == 20  # max_batch=8 crossed in one call
        after = registry.get("repro_serve_batches_total", trigger="max_batch")
        assert int(after.value) == before + 1


class TestClientReconnect:
    def test_pooled_connection_survives_idle_close(self, service):
        _, client, registry = service
        assert client.health().status == "ok"
        time.sleep(IDLE_TIMEOUT * 3)  # server reaps the pooled socket
        assert client.health().status == "ok"  # transparent reconnect

    def test_pooled_connection_is_reused(self, service):
        server, _, registry = service
        client = ServeClient("127.0.0.1", server.port)
        before = registry.get("repro_serve_connections_total")
        before = int(before.value) if before else 0
        for _ in range(4):
            client.health()
        client.close()
        after = registry.get("repro_serve_connections_total")
        assert int(after.value) == before + 1

    def test_transport_error_is_a_serve_error_with_context(self):
        with socket.socket() as placeholder:
            placeholder.bind(("127.0.0.1", 0))
            port = placeholder.getsockname()[1]
        client = ServeClient("127.0.0.1", port, timeout=1.0)
        with pytest.raises(ServeError) as excinfo:
            client.health()
        assert excinfo.value.status == 0
        assert excinfo.value.is_transport
        assert f"127.0.0.1:{port}" in str(excinfo.value)

    def test_get_reconnects_across_server_restart(self):
        """The mid-benchmark restart scenario: GETs retry transparently."""
        registry = MetricsRegistry()
        server = _make_server(registry)
        thread = ServerThread(server).start()
        client = ServeClient("127.0.0.1", server.port)
        client.wait_ready(timeout=10)
        port = server.port
        thread.stop()
        # Same port, fresh process state — the pooled socket is stale.
        registry2 = MetricsRegistry()
        server2 = _make_server(registry2)
        server2.port = port
        thread2 = ServerThread(server2).start()
        try:
            assert client.health().status == "ok"
        finally:
            client.close()
            thread2.stop()
