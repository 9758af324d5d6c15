"""End-to-end allocation-service tests over a real TCP socket."""

import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.dynamic import DynamicAllocator
from repro.obs import MetricsRegistry, parse_prometheus_text
from repro.serve import (
    AllocationServer,
    BatchPolicy,
    ServeClient,
    ServeError,
    ServerThread,
)
from repro.workloads import get_workload


@pytest.fixture()
def service():
    """A live server on an ephemeral port with its own metrics registry."""
    registry = MetricsRegistry()
    allocator = DynamicAllocator(
        {"freqmine": get_workload("freqmine"), "dedup": get_workload("dedup")},
        capacities=(25.6, 4096.0),
        seed=11,
        metrics=registry,
    )
    server = AllocationServer(
        allocator,
        policy=BatchPolicy(max_delay=0.02, max_batch=8),
        metrics=registry,
    )
    thread = ServerThread(server).start()
    client = ServeClient("127.0.0.1", server.port)
    client.wait_ready(timeout=10)
    yield server, client, registry
    client.close()
    thread.stop()


def _raw_request(port: int, blob: bytes) -> bytes:
    """Send one raw request; read one Content-Length-framed response.

    The server holds connections open by default (HTTP/1.1 keep-alive),
    so reading to EOF would block until the idle timeout.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(blob)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                return data
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"content-length:"):
                length = int(line.split(b":", 1)[1])
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                break
            body += chunk
    return head + b"\r\n\r\n" + body


class TestHappyPath:
    def test_allocation_is_served_before_any_sample(self, service):
        _, client, _ = service
        allocation = client.allocation()
        assert allocation.feasible
        assert set(allocation.shares) == {"freqmine", "dedup"}
        assert allocation.mechanism
        assert set(allocation.capacities) == {"membw_gbps", "cache_kb"}

    def test_sample_is_folded_into_a_later_epoch(self, service):
        server, client, _ = service
        before = client.health().epoch
        response = client.submit_sample("freqmine", 3.2, 512.0, 1.1)
        assert response.queued
        assert response.epoch == before + 1
        client.wait_for_epoch(response.epoch, timeout=10)
        allocation = client.allocation()
        assert allocation.feasible
        assert allocation.epoch >= response.epoch

    def test_health_reports_membership(self, service):
        _, client, _ = service
        health = client.health()
        assert health.status == "ok"
        assert set(health.agents) == {"freqmine", "dedup"}
        assert health.uptime_seconds >= 0.0

    def test_metrics_pass_the_strict_parser(self, service):
        _, client, _ = service
        client.submit_sample("dedup", 3.2, 512.0, 0.8)
        samples = parse_prometheus_text(client.metrics_text())
        names = {sample["name"] for sample in samples}
        assert "repro_serve_requests_total" in names
        assert "repro_dynamic_epochs_total" in names

    def test_batching_solves_at_most_once_per_tick(self, service):
        server, client, registry = service
        # The starting epoch is read before the first submit: read after
        # them, the deadline tick may already have folded the last
        # samples, and an idle server never ticks again.
        start = client.health().epoch
        for i in range(20):
            client.submit_sample("freqmine", 3.0 + 0.1 * i, 500.0 + 10.0 * i, 1.0)
        client.wait_for_epoch(start + 1, timeout=10)
        epochs = registry.get("repro_dynamic_epochs_total")
        assert epochs is not None
        assert server.samples_received >= 20
        # Far fewer solves than samples, and one solve per flushed batch.
        assert epochs.value < server.samples_received
        assert server.batches_flushed <= epochs.value


class TestChurn:
    def test_register_and_deregister_mid_flight(self, service):
        server, client, _ = service
        response = client.register("late", "canneal")
        assert "late" in response.agents
        # Churn re-solves immediately: the new agent holds a share now.
        allocation = client.allocation()
        assert "late" in allocation.shares
        assert allocation.feasible
        client.submit_sample("late", 2.0, 256.0, 0.9)

        response = client.deregister("late")
        assert "late" not in response.agents
        allocation = client.allocation()
        assert "late" not in allocation.shares
        assert allocation.feasible
        # A sample for the departed agent is now a 404, not a crash.
        with pytest.raises(ServeError) as excinfo:
            client.submit_sample("late", 2.0, 256.0, 0.9)
        assert excinfo.value.status == 404

    def test_duplicate_register_conflicts(self, service):
        _, client, _ = service
        with pytest.raises(ServeError) as excinfo:
            client.register("freqmine", "freqmine")
        assert excinfo.value.status == 409
        assert excinfo.value.error == "agent_exists"

    def test_unknown_workload_rejected(self, service):
        _, client, _ = service
        with pytest.raises(ServeError) as excinfo:
            client.register("late", "not_a_benchmark")
        assert excinfo.value.status == 400
        assert excinfo.value.error == "unknown_workload"

    def test_cannot_deregister_unknown_or_last_agent(self, service):
        _, client, _ = service
        with pytest.raises(ServeError) as excinfo:
            client.deregister("ghost")
        assert excinfo.value.status == 404
        client.deregister("dedup")
        with pytest.raises(ServeError) as excinfo:
            client.deregister("freqmine")
        assert excinfo.value.status == 409
        assert excinfo.value.error == "last_agent"


class TestMalformedRequests:
    def test_invalid_json_is_a_400(self, service):
        server, _, _ = service
        body = b"{not json"
        blob = (
            b"POST /v1/samples HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        response = _raw_request(server.port, blob)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"bad_request" in response

    def test_unknown_field_is_a_400(self, service):
        server, _, _ = service
        body = b'{"agent": "freqmine", "bandwidth_gbps": 1, "cache_kb": 1, "ipc": 1, "x": 1}'
        blob = (
            b"POST /v1/samples HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        response = _raw_request(server.port, blob)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"unknown field" in response

    def test_wrong_version_is_a_400(self, service):
        server, _, _ = service
        body = b'{"version": 99, "agent": "freqmine", "bandwidth_gbps": 1, "cache_kb": 1, "ipc": 1}'
        blob = (
            b"POST /v1/samples HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        response = _raw_request(server.port, blob)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"version" in response

    def test_post_without_length_is_a_411(self, service):
        server, _, _ = service
        response = _raw_request(
            server.port, b"POST /v1/samples HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 411 ")

    def test_unknown_route_is_a_404(self, service):
        server, _, _ = service
        response = _raw_request(server.port, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 404 ")

    def test_wrong_method_is_a_405(self, service):
        server, _, _ = service
        response = _raw_request(
            server.port, b"GET /v1/agents HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        assert response.startswith(b"HTTP/1.1 405 ")

    def test_malformed_request_line_is_a_400(self, service):
        server, _, _ = service
        response = _raw_request(server.port, b"BANANAS\r\n\r\n")
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_service_survives_malformed_traffic(self, service):
        _, client, _ = service
        _raw_request(service[0].port, b"BANANAS\r\n\r\n")
        assert client.health().status == "ok"
        assert client.allocation().feasible


class TestCliSubprocess:
    def test_sigterm_shuts_down_cleanly(self):
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--epoch-ms", "20", "--max-batch", "4",
                "--workloads", "freqmine,dedup",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.rsplit(":", 1)[1].split()[0])
            with ServeClient("127.0.0.1", port) as client:
                client.wait_ready(timeout=15)
                client.submit_sample("freqmine", 3.0, 512.0, 1.0)
            time.sleep(0.1)
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=30)
            assert process.returncode == 0, output
            assert "feasible=True" in output
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10)


@pytest.fixture()
def slow_service():
    """A server whose batcher never auto-flushes (max_delay is huge).

    Samples stay pending until something *else* flushes them — exactly
    the window in which the deregister-races-in-flight-samples bug
    lived.
    """
    registry = MetricsRegistry()
    allocator = DynamicAllocator(
        {"freqmine": get_workload("freqmine"), "dedup": get_workload("dedup")},
        capacities=(25.6, 4096.0),
        seed=11,
        metrics=registry,
    )
    server = AllocationServer(
        allocator,
        policy=BatchPolicy(max_delay=3600.0, max_batch=10_000),
        metrics=registry,
    )
    thread = ServerThread(server).start()
    client = ServeClient("127.0.0.1", server.port)
    client.wait_ready(timeout=10)
    yield server, client, registry
    client.close()
    thread.stop()


class TestOversizedRequestRegression:
    """An oversized header/request line must be a clean 4xx, not a hang.

    A request line past 8 KiB, a head past 64 KiB or more than 100
    headers is answered 431 and closes only its connection.
    """

    def test_oversized_header_is_a_431(self, service):
        server, client, registry = service
        blob = (
            b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
            b"X-Padding: " + b"a" * (128 * 1024) + b"\r\n\r\n"
        )
        response = _raw_request(server.port, blob)
        assert response.startswith(b"HTTP/1.1 431 "), response[:100]
        assert b"header_too_large" in response
        # The failure is counted like any other request...
        counter = registry.get(
            "repro_serve_requests_total", route="unparsed", status="431"
        )
        assert counter is not None and counter.value >= 1
        # ...and the service lives on.
        assert client.health().status == "ok"

    def test_oversized_request_line_is_a_431(self, service):
        server, client, _ = service
        blob = b"GET /" + b"x" * (128 * 1024) + b" HTTP/1.1\r\n\r\n"
        response = _raw_request(server.port, blob)
        assert response.startswith(b"HTTP/1.1 431 ")
        assert client.health().status == "ok"

    def test_too_many_headers_is_a_431(self, service):
        server, client, _ = service
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(150))
        blob = b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        response = _raw_request(server.port, blob)
        assert response.startswith(b"HTTP/1.1 431 ")
        assert client.health().status == "ok"


class TestOrphanedSampleRegression:
    """Deregister racing in-flight samples: dropped and counted, no crash.

    ``_route_agents`` removes the agent and *then* folds the pending
    batch into the churn re-solve, so samples addressed to the departed
    agent reach the epoch with no owner.  They must be dropped at flush
    time under ``repro_serve_orphaned_samples_total``.
    """

    def test_orphans_are_dropped_and_counted(self, slow_service):
        server, client, registry = slow_service
        client.register("late", "canneal")
        # Queue samples for 'late'; nothing flushes them (huge max_delay).
        for i in range(3):
            client.submit_sample("late", 2.0 + 0.1 * i, 256.0, 0.9)
        client.submit_sample("freqmine", 3.0, 512.0, 1.1)
        assert server.pending_samples == 4
        # The deregister's churn re-solve folds the flush: 3 orphans.
        client.deregister("late")
        assert server.pending_samples == 0
        orphaned = registry.get("repro_serve_orphaned_samples_total")
        assert orphaned is not None and orphaned.value == 3
        by_outcome = registry.get("repro_serve_samples_total", outcome="orphaned")
        assert by_outcome is not None and by_outcome.value == 3
        accepted = registry.get("repro_serve_samples_total", outcome="accepted")
        assert accepted is not None and accepted.value >= 1
        # Service healthy, allocation excludes the departed agent.
        allocation = client.allocation()
        assert allocation.feasible
        assert "late" not in allocation.shares

    def test_no_orphans_on_clean_flush(self, slow_service):
        server, client, registry = slow_service
        client.submit_sample("freqmine", 3.0, 512.0, 1.1)
        client.register("late", "canneal")  # churn flushes the sample
        assert server.pending_samples == 0
        assert registry.get("repro_serve_orphaned_samples_total") is None


class TestCapacityGrants:
    def test_grant_reshapes_the_allocation(self, service):
        _, client, _ = service
        before = client.allocation()
        assert before.capacities["membw_gbps"] == pytest.approx(25.6)
        response = client.grant_capacity({"membw_gbps": 12.8, "cache_kb": 2048.0})
        assert set(response.aggregate_elasticity) == {"membw_gbps", "cache_kb"}
        assert response.capacities == {"membw_gbps": 12.8, "cache_kb": 2048.0}
        after = client.allocation()
        assert after.capacities["membw_gbps"] == pytest.approx(12.8)
        assert after.feasible
        total_bw = sum(b["membw_gbps"] for b in after.shares.values())
        assert total_bw <= 12.8 * (1 + 1e-9)

    def test_grant_aggregate_matches_eq12_sum(self, service):
        server, client, _ = service
        response = client.grant_capacity({"membw_gbps": 25.6, "cache_kb": 4096.0})
        # Aggregates are sums of re-scaled (Eq. 12) elasticities, so
        # they sum to the agent count across resources.
        total = sum(response.aggregate_elasticity.values())
        assert total == pytest.approx(len(server.allocator.agent_names))

    def test_grant_with_wrong_resources_is_a_400(self, service):
        _, client, _ = service
        with pytest.raises(ServeError) as excinfo:
            client.grant_capacity({"membw_gbps": 1.0, "gpus": 2.0})
        assert excinfo.value.status == 400
        assert excinfo.value.error == "unknown_resource"

    def test_grant_with_non_positive_capacity_is_a_400(self, service):
        server, client, _ = service
        # The typed client refuses to build this request, so go raw to
        # prove the *server* rejects it too.
        body = b'{"capacities": {"membw_gbps": 0.0, "cache_kb": 1.0}}'
        blob = (
            b"POST /v1/capacity HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        response = _raw_request(server.port, blob)
        assert response.startswith(b"HTTP/1.1 400 ")
        assert b"finite and positive" in response
        assert client.health().status == "ok"


@pytest.fixture()
def learning_service():
    """A live server in demand-learning mode on an ephemeral port."""
    registry = MetricsRegistry()
    allocator = DynamicAllocator(
        {"freqmine": get_workload("freqmine"), "dedup": get_workload("dedup")},
        capacities=(25.6, 4096.0),
        seed=11,
        metrics=registry,
        learn_demands=True,
        prior="centroid",
    )
    server = AllocationServer(
        allocator,
        policy=BatchPolicy(max_delay=0.02, max_batch=8),
        metrics=registry,
    )
    thread = ServerThread(server).start()
    client = ServeClient("127.0.0.1", server.port)
    client.wait_ready(timeout=10)
    yield server, client, registry
    client.close()
    thread.stop()


class TestProfileFreeServing:
    def test_profile_free_register_rejected_without_learning(self, service):
        _, client, _ = service
        with pytest.raises(ServeError) as excinfo:
            client.register("mystery", None)
        assert excinfo.value.status == 400
        assert excinfo.value.error == "learning_disabled"

    def test_profile_free_agent_served_end_to_end(self, learning_service):
        _, client, _ = learning_service
        response = client.register("mystery", None, workload_class="M")
        assert "mystery" in response.agents
        # The agent gets a feasible bundle from its prior immediately.
        sample = client.submit_sample("mystery", 3.0, 512.0, 1.2, exploration=True)
        assert sample.queued
        client.wait_for_epoch(sample.epoch, timeout=10)
        allocation = client.allocation()
        assert allocation.feasible
        bundle = allocation.bundle("mystery")
        assert bundle["membw_gbps"] > 0
        assert bundle["cache_kb"] > 0

    def test_learning_metrics_exported(self, learning_service):
        _, client, _ = learning_service
        client.register("mystery", None)
        sample = client.submit_sample("mystery", 3.0, 512.0, 1.2)
        client.wait_for_epoch(sample.epoch, timeout=10)
        text = client.metrics_text()
        samples = parse_prometheus_text(text)
        names = {s["name"] for s in samples}
        assert "repro_learning_agents" in names

    def test_deregister_profile_free_agent(self, learning_service):
        _, client, _ = learning_service
        client.register("mystery", None)
        response = client.deregister("mystery")
        assert "mystery" not in response.agents
