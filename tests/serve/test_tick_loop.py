"""The flat server's epoch ticks are armed at the batch deadline.

An idle server's tick task waits for a sample instead of polling the
batcher, and a lone sample is folded at its max-delay deadline: not
before it, and not a polling interval after it.
"""

import asyncio
import json

from repro.dynamic import DynamicAllocator
from repro.obs import MetricsRegistry
from repro.serve import AllocationServer, BatchPolicy
from repro.workloads import get_workload


def _server(max_delay: float) -> AllocationServer:
    registry = MetricsRegistry()
    allocator = DynamicAllocator(
        {"freqmine": get_workload("freqmine"), "dedup": get_workload("dedup")},
        capacities=(25.6, 4096.0),
        seed=11,
        metrics=registry,
    )
    return AllocationServer(
        allocator, policy=BatchPolicy(max_delay=max_delay, max_batch=64), metrics=registry
    )


SAMPLE = json.dumps(
    {"agent": "freqmine", "bandwidth_gbps": 3.0, "cache_kb": 512.0, "ipc": 1.0}
).encode()


class TestDeadlineTicks:
    def test_idle_server_never_polls(self):
        server = _server(0.01)
        polls = []

        async def scenario():
            await server.start()
            poll = server._batcher.poll
            server._batcher.poll = lambda now: polls.append(now) or poll(now)
            await asyncio.sleep(0.3)
            await server.stop()

        asyncio.run(scenario())
        assert polls == []

    def test_lone_sample_folds_at_its_deadline(self):
        max_delay = 0.05
        server = _server(max_delay)
        folds = []

        async def scenario():
            await server.start()
            loop = asyncio.get_running_loop()
            run_epoch = server._run_epoch

            def traced(batch, trigger):
                folds.append((loop.time(), trigger, len(batch)))
                return run_epoch(batch, trigger)

            server._run_epoch = traced
            queued_at = loop.time()
            status, _, _ = server._dispatch("POST", "/v1/samples", SAMPLE)
            await asyncio.sleep(4 * max_delay)
            await server.stop()
            return queued_at, status

        queued_at, status = asyncio.run(scenario())
        assert status == 200
        [(folded_at, trigger, size)] = folds
        assert (trigger, size) == ("max_delay", 1)
        assert max_delay <= folded_at - queued_at < max_delay + 0.1

    def test_flush_before_the_deadline_rearms_for_the_next_sample(self):
        # A churn flush empties the batcher while the tick task sleeps
        # toward the old deadline; the next sample gets its own.
        max_delay = 0.05
        server = _server(max_delay)
        folds = []

        async def scenario():
            await server.start()
            loop = asyncio.get_running_loop()
            run_epoch = server._run_epoch

            def traced(batch, trigger):
                folds.append((loop.time(), trigger, len(batch)))
                return run_epoch(batch, trigger)

            server._run_epoch = traced
            server._dispatch("POST", "/v1/samples", SAMPLE)
            await asyncio.sleep(max_delay / 2)
            register = {"action": "register", "agent": "late", "workload": "canneal"}
            server._dispatch("POST", "/v1/agents", json.dumps(register).encode())
            await asyncio.sleep(max_delay / 2)
            queued_at = loop.time()
            server._dispatch("POST", "/v1/samples", SAMPLE)
            await asyncio.sleep(4 * max_delay)
            await server.stop()
            return queued_at

        queued_at = asyncio.run(scenario())
        assert [(trigger, size) for _, trigger, size in folds] == [
            ("churn", 1),
            ("max_delay", 1),
        ]
        assert max_delay <= folds[1][0] - queued_at < max_delay + 0.1
