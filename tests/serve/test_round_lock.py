"""The coordinator's round lock: merged reads never interleave a round.

A ``/v1/allocation`` read that runs while a grant round is mid-flight
would union some cells re-solved under this round's grants with others
still on the previous round's — a transiently capacity-infeasible view
even though every cell is feasible.  These tests pin the serialization,
and the grant reply's membership sync against registers that race a
round, without booting worker subprocesses.
"""

import asyncio
import json

import pytest

from repro.obs import MetricsRegistry
from repro.serve import ShardCoordinator
from repro.serve.protocol import CapacityResponse

WORKLOADS = {"freqmine": "freqmine", "dedup": "dedup"}


def _coordinator():
    return ShardCoordinator(
        dict(WORKLOADS),
        capacities=(25.6, 4096.0),
        cells=2,
        metrics=MetricsRegistry(),
    )


class TestRoundLock:
    def test_read_waits_for_an_inflight_round(self):
        coordinator = _coordinator()
        log = []

        async def slow_round():
            log.append("round_start")
            await asyncio.sleep(0.02)
            log.append("round_end")

        async def read():
            log.append("read")

        coordinator._grant_round_locked = slow_round
        coordinator._merged_allocation_locked = read

        async def scenario():
            round_task = asyncio.create_task(coordinator._grant_round())
            await asyncio.sleep(0.005)  # the round is mid-flight
            await coordinator._merged_allocation()
            await round_task

        asyncio.run(scenario())
        assert log == ["round_start", "round_end", "read"]

    def test_round_waits_for_an_inflight_read(self):
        coordinator = _coordinator()
        log = []

        async def round_():
            log.append("round")

        async def slow_read():
            log.append("read_start")
            await asyncio.sleep(0.02)
            log.append("read_end")

        coordinator._grant_round_locked = round_
        coordinator._merged_allocation_locked = slow_read

        async def scenario():
            read_task = asyncio.create_task(coordinator._merged_allocation())
            await asyncio.sleep(0.005)
            await coordinator._grant_round()
            await read_task

        asyncio.run(scenario())
        assert log == ["read_start", "read_end", "round"]

    def test_stop_lets_an_inflight_round_finish_before_the_merge(self):
        # Stopping the server cancels the tick loop mid-round.  A
        # capacity push already written still lands on its cell, so the
        # round must keep the lock until it ends: the final merge may
        # not read cells under grants from two different rounds.
        coordinator = _coordinator()
        coordinator.grant_ms = 1.0
        log = []

        async def slow_round():
            log.append("round_start")
            await asyncio.sleep(0.02)
            log.append("round_end")

        async def read():
            log.append("read")

        async def no_reap():
            pass

        coordinator._grant_round_locked = slow_round
        coordinator._merged_allocation_locked = read
        coordinator._reap_dead_cells = no_reap

        async def scenario():
            ticker = asyncio.create_task(coordinator._tick_loop())
            while not log:  # wait for the round to start
                await asyncio.sleep(0.001)
            ticker.cancel()
            with pytest.raises(asyncio.CancelledError):
                await ticker
            await coordinator._merged_allocation()

        asyncio.run(scenario())
        assert log == ["round_start", "round_end", "read"]

    def test_capacity_swap_is_atomic_with_its_regrant(self):
        # POST /v1/capacity must replace the vector and re-grant under
        # one lock acquisition: a queued read sees either the old
        # capacities with the old grants or the new with the new.
        coordinator = _coordinator()
        for cell in coordinator.cells:
            cell.alive = True
        observed = []

        async def round_():
            await asyncio.sleep(0.01)
            observed.append(("round", coordinator.capacities))

        async def read():
            observed.append(("read", coordinator.capacities))

        coordinator._grant_round_locked = round_
        coordinator._merged_allocation_locked = read

        async def scenario():
            body = (
                '{"capacities": {"membw_gbps": 12.8, "cache_kb": 2048.0}}'
            ).encode()
            swap = asyncio.create_task(coordinator._route_capacity(body))
            await asyncio.sleep(0.002)  # swap holds the lock mid-regrant
            await coordinator._merged_allocation()
            status, _, _ = await swap

        asyncio.run(scenario())
        assert observed == [
            ("round", (12.8, 2048.0)),
            ("read", (12.8, 2048.0)),
        ]

    def test_lock_exists_per_instance(self):
        a, b = _coordinator(), _coordinator()
        assert isinstance(a._round_lock, asyncio.Lock)
        assert a._round_lock is not b._round_lock


class TestGrantRaceWithRegister:
    def test_register_acked_mid_round_stays_placed(self):
        # A cell answers the grant, then applies a register and acks it;
        # the coordinator handles the (older) grant reply only after the
        # ack.  The reply does not list the new agent, but the agent was
        # not placed when the grant went out, so it must stay placed.
        coordinator = _coordinator()
        coordinator._seed_placement()
        members = {cell.name: set(cell.agents) for cell in coordinator.cells}
        for cell in coordinator.cells:
            cell.alive = True
            cell.grant = {"membw_gbps": 12.8, "cache_kb": 2048.0}
        answered = asyncio.Event()
        release = asyncio.Event()

        class StubClient:
            def __init__(self, cell):
                self.members = members[cell.name]

            def grant_capacity(self, capacities):
                return CapacityResponse(
                    epoch=0,
                    agents=tuple(sorted(self.members)),
                    capacities=dict(capacities),
                    aggregate_elasticity={name: 1.0 for name in capacities},
                )

            def register(self, agent, workload=None, workload_class=None):
                self.members.add(agent)

            def deregister(self, agent):
                self.members.remove(agent)

        async def call(cell, fn):
            result = fn(StubClient(cell))
            if isinstance(result, CapacityResponse):
                answered.set()  # the cell has answered the grant...
                await release.wait()  # ...the reply is still in flight
            return result

        coordinator._call = call

        def agents_request(**payload):
            return coordinator._dispatch("POST", "/v1/agents", json.dumps(payload).encode())

        async def scenario():
            round_task = asyncio.create_task(coordinator._grant_round())
            await answered.wait()
            registered = await agents_request(action="register", agent="newbie", workload="canneal")
            release.set()
            await round_task
            owner = coordinator._owner("newbie")
            deregistered = await agents_request(action="deregister", agent="newbie")
            return registered, owner, deregistered

        registered, owner, deregistered = asyncio.run(scenario())
        assert registered[0] == 200
        assert deregistered[0] == 200, deregistered  # not 404 unknown_agent
        assert owner is not None
        assert all("newbie" not in agents for agents in members.values())
        assert coordinator._owner("newbie") is None
