"""Sharded-coordinator tests over real cell worker subprocesses.

These boot actual ``python -m repro serve`` workers, so they cost a few
seconds of interpreter startup each; everything here shares one
module-scoped coordinator except the kill/rebalance test, which gets its
own (it mutates the fleet).
"""

import os
import signal
import time

import pytest

from repro.obs import MetricsRegistry, parse_prometheus_text
from repro.serve import ServeClient, ServeError, ServerThread, ShardCoordinator

WORKLOADS = {
    "freqmine": "freqmine",
    "dedup": "dedup",
    "canneal": "canneal",
    "x264": "x264",
}
CAPACITIES = (25.6, 4096.0)


def _start(cells: int, workloads=None, mechanism: str = "ref"):
    registry = MetricsRegistry()
    coordinator = ShardCoordinator(
        dict(workloads or WORKLOADS),
        capacities=CAPACITIES,
        cells=cells,
        epoch_ms=20.0,
        grant_ms=60.0,
        metrics=registry,
        mechanism=mechanism,
    )
    thread = ServerThread(coordinator).start(timeout=60)
    client = ServeClient("127.0.0.1", coordinator.port)
    client.wait_ready(timeout=30)
    return coordinator, thread, client, registry


@pytest.fixture(scope="module")
def shard():
    coordinator, thread, client, registry = _start(cells=2)
    yield coordinator, client, registry
    thread.stop(timeout=30)
    client.close()


class TestShardedService:
    def test_every_cell_boots_alive_and_seeded(self, shard):
        _, client, _ = shard
        cells = client.cells()
        assert len(cells.cells) == 2
        assert all(cell.alive for cell in cells.cells)
        assert all(cell.agents for cell in cells.cells)
        placed = [a for cell in cells.cells for a in cell.agents]
        assert sorted(placed) == sorted(WORKLOADS)
        assert cells.capacities == {
            "membw_gbps": CAPACITIES[0],
            "cache_kb": CAPACITIES[1],
        }

    def test_grants_partition_the_global_capacity(self, shard):
        _, client, _ = shard
        cells = client.cells()
        for resource, total in cells.capacities.items():
            granted = sum(cell.grant[resource] for cell in cells.cells)
            assert granted == pytest.approx(total, rel=1e-6)

    def test_merged_allocation_covers_all_agents_and_is_feasible(self, shard):
        _, client, _ = shard
        allocation = client.allocation()
        assert allocation.mechanism == "ref-hierarchical"
        assert allocation.feasible
        assert set(allocation.shares) == set(WORKLOADS)
        for resource, capacity in allocation.capacities.items():
            total = sum(b[resource] for b in allocation.shares.values())
            assert total <= capacity * (1 + 1e-9)

    def test_samples_route_to_the_owning_cell(self, shard):
        _, client, _ = shard
        for agent in WORKLOADS:
            response = client.submit_sample(agent, 3.0, 512.0, 1.0)
            assert response.queued and response.agent == agent
        with pytest.raises(ServeError) as excinfo:
            client.submit_sample("ghost", 1.0, 1.0, 1.0)
        assert excinfo.value.status == 404

    def test_register_and_deregister_through_the_coordinator(self, shard):
        _, client, _ = shard
        response = client.register("late", "ferret")
        assert "late" in response.agents
        cells = client.cells()
        owner = cells.owner_of("late")
        assert owner.alive
        client.submit_sample("late", 2.0, 256.0, 0.9)
        response = client.deregister("late")
        assert "late" not in response.agents
        with pytest.raises(ServeError) as excinfo:
            client.deregister("late")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client.register("freqmine", "freqmine")
        assert excinfo.value.status == 409

    def test_direct_to_cell_traffic_works(self, shard):
        # The smart-client pattern: fetch the shard map, then talk to
        # the owning worker with no coordinator hop.
        _, client, _ = shard
        cells = client.cells()
        owner = cells.owner_of("freqmine")
        with ServeClient(owner.host, owner.port) as direct:
            response = direct.submit_sample("freqmine", 3.1, 600.0, 1.05)
            assert response.queued
            assert direct.health().status == "ok"
            assert direct.allocation().feasible

    def test_grants_keep_flowing_and_are_measured(self, shard):
        coordinator, client, registry = shard
        first = coordinator._epoch
        deadline = time.monotonic() + 15
        while coordinator._epoch < first + 2:
            assert time.monotonic() < deadline, "grant rounds stalled"
            time.sleep(0.05)
        samples = parse_prometheus_text(client.metrics_text())
        names = {sample["name"] for sample in samples}
        assert "repro_shard_cells" in names
        assert "repro_shard_grant_rounds_total" in names
        assert any(
            name.startswith("repro_shard_grant_latency_seconds") for name in names
        )

    def test_bulk_proxy_and_grant_round_stay_on_the_loop(self, shard):
        # Cell RPCs ride each cell's link on the coordinator's own event
        # loop: neither a bulk proxy nor a grant round hops to a thread.
        coordinator, client, _ = shard
        loop = coordinator._loop
        calls = []
        run_in_executor = loop.run_in_executor

        def counted(*args):
            calls.append(args)
            return run_in_executor(*args)

        loop.run_in_executor = counted
        try:
            first = coordinator._epoch
            bulk = client.post_samples_bulk(
                [(agent, 3.0, 512.0, 1.0) for agent in WORKLOADS]
            )
            deadline = time.monotonic() + 15
            while coordinator._epoch < first + 2:
                assert time.monotonic() < deadline, "grant rounds stalled"
                time.sleep(0.05)
        finally:
            del loop.run_in_executor
        assert bulk.accepted == len(WORKLOADS)
        assert calls == []

    def test_coordinator_health_is_ok(self, shard):
        _, client, _ = shard
        health = client.health()
        assert health.status == "ok"
        assert health.mechanism == "ref-hierarchical"


class TestShardedCredit:
    def test_rejects_non_hierarchical_mechanisms(self):
        with pytest.raises(ValueError, match="hierarchical"):
            ShardCoordinator(
                dict(WORKLOADS),
                capacities=CAPACITIES,
                cells=2,
                mechanism="max-welfare-fair",
            )

    def test_credit_cells_report_the_hierarchical_tag(self):
        coordinator, thread, client, _registry = _start(cells=2, mechanism="credit")
        try:
            health = client.health()
            assert health.status == "ok"
            assert health.mechanism == "credit-hierarchical"
            allocation = client.allocation()
            assert allocation.mechanism == "credit-hierarchical"
            assert allocation.feasible
            assert set(allocation.shares) == set(WORKLOADS)
            # Every worker really runs credit within its cell.
            for cell in client.cells().cells:
                with ServeClient(cell.host, cell.port) as direct:
                    assert direct.health().mechanism == "credit"
        finally:
            thread.stop(timeout=30)
            client.close()


class TestCellDeath:
    def test_killed_worker_rehashes_agents_to_survivor(self):
        coordinator, thread, client, registry = _start(cells=2)
        try:
            cells = client.cells()
            victim = cells.cells[0]
            survivor_name = cells.cells[1].cell
            orphans = set(victim.agents)
            assert orphans
            os.kill(victim.pid, signal.SIGKILL)

            deadline = time.monotonic() + 20
            while True:
                assert time.monotonic() < deadline, "rebalance never happened"
                time.sleep(0.1)
                now = client.cells()
                dead = next(c for c in now.cells if c.cell == victim.cell)
                survivor = next(c for c in now.cells if c.cell == survivor_name)
                if not dead.alive and orphans <= set(survivor.agents):
                    break

            # Degraded, not down: all agents live on the surviving cell
            # and the merged allocation is feasible under full capacity.
            health = client.health()
            assert health.status == "degraded"
            assert set(health.agents) == set(WORKLOADS)
            allocation = client.allocation()
            assert allocation.feasible
            assert set(allocation.shares) == set(WORKLOADS)

            rehashed = registry.get("repro_shard_agents_rehashed_total")
            assert rehashed is not None and rehashed.value == len(orphans)
            rebalances = registry.get("repro_shard_rebalances_total")
            assert rebalances is not None and rebalances.value >= 1

            # Samples for re-homed agents keep flowing (naive prior on
            # the new cell; the profiler re-converges from samples).
            for agent in orphans:
                assert client.submit_sample(agent, 2.5, 300.0, 0.8).queued
        finally:
            thread.stop(timeout=30)
            client.close()
        assert "feasible=True" in coordinator.summary_line()

    def test_wait_ready_accepts_a_degraded_coordinator(self):
        # Regression: wait_ready only accepted status == "ok", so a
        # coordinator that had lost a worker — alive, serving, merely
        # degraded — made every client spin until TimeoutError.
        coordinator, thread, client, _registry = _start(cells=2)
        try:
            victim = client.cells().cells[0]
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 20
            while client.health().status != "degraded":
                assert time.monotonic() < deadline, "coordinator never degraded"
                time.sleep(0.1)

            health = client.wait_ready(timeout=5)
            assert health.status == "degraded"
            # Callers that need a fully healthy fleet can still insist.
            with pytest.raises(TimeoutError, match="degraded"):
                client.wait_ready(timeout=0.5, require="ok")
        finally:
            thread.stop(timeout=30)
            client.close()
