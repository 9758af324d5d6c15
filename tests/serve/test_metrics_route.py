"""``GET /metrics`` renders the union of a server's registries.

The flat server renders the process-global registry, its own and the
allocator's; the coordinator the global one and its own.  The bytes
must equal merging them, in that order, into a fresh registry and
rendering that, as the route did before it stopped building one.
"""

import pytest

from repro.dynamic import DynamicAllocator
from repro.obs import MetricsRegistry, global_registry, set_global_registry, to_prometheus
from repro.serve import AllocationServer, ShardCoordinator
from repro.workloads import get_workload


def merged_text(*registries):
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    return to_prometheus(merged)


@pytest.fixture()
def shared_global():
    """A fresh process-global registry sharing a counter with the server's."""
    previous = set_global_registry(MetricsRegistry())
    global_registry().counter("repro_serve_requests_total", route="/healthz", status="200").inc(2)
    yield global_registry()
    set_global_registry(previous)


def test_flat_server_scrape_equals_merge_then_render(shared_global):
    allocator = DynamicAllocator(
        {"freqmine": get_workload("freqmine"), "dedup": get_workload("dedup")},
        capacities=(25.6, 4096.0),
        seed=3,
        metrics=MetricsRegistry(),
        mechanism="credit",
        learn_demands=True,
    )
    for epoch in range(4):
        allocator.step(epoch)
    server = AllocationServer(allocator, metrics=MetricsRegistry())
    server.metrics.counter(
        "repro_serve_requests_total",
        help="HTTP requests handled, by route and status.",
        route="/healthz",
        status="200",
    ).inc(5)
    status, text, content_type = server._route_metrics(b"")
    assert status == 200 and content_type == "text/plain; version=0.0.4"
    assert text == merged_text(shared_global, server.metrics, allocator.metrics)
    assert 'repro_serve_requests_total{route="/healthz",status="200"} 7' in text
    assert "# HELP repro_serve_requests_total HTTP requests handled" in text
    assert 'repro_credit_balance_count{resource="cache_kb"}' in text
    assert "agent=" not in text


def test_coordinator_scrape_equals_merge_then_render(shared_global):
    coordinator = ShardCoordinator(
        {"freqmine": "freqmine", "dedup": "dedup"},
        capacities=(25.6, 4096.0),
        cells=2,
        metrics=MetricsRegistry(),
    )
    coordinator.metrics.counter("repro_serve_requests_total", route="/healthz", status="200").inc(1)
    coordinator.metrics.gauge("repro_shard_cells_alive", help="Live cells.").set(2)
    _, text, _ = coordinator._route_metrics(b"")
    assert text == merged_text(shared_global, coordinator.metrics)
    assert 'repro_serve_requests_total{route="/healthz",status="200"} 3' in text
