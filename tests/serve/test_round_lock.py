"""The coordinator's round lock: merged reads never interleave a round.

A ``/v1/allocation`` read that runs while a grant round is mid-flight
would union some cells re-solved under this round's grants with others
still on the previous round's — a transiently capacity-infeasible view
even though every cell is feasible.  These tests pin the serialization
without booting worker subprocesses.
"""

import asyncio

import pytest

from repro.obs import MetricsRegistry
from repro.serve import ShardCoordinator

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
        # Stopping the server cancels the tick loop mid-round.  The
        # round's capacity pushes still land (executor threads), so the
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
