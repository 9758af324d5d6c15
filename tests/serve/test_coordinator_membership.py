"""The coordinator's membership and a cell's refusals, against in-process cells.

Each cell is an :class:`~repro.serve.server.AllocationServer` answered
in process through the shared client routes, so the coordinator sees
real cell replies and real refusals without worker subprocesses.  The
cells' agent maps are the coordinator's only membership record:
``workloads``, ``/healthz`` and every ``agents`` list read them, a
grant reply that drops an agent drops it everywhere, and a reap keeps
each orphan listed until a survivor has it.
"""

import asyncio
import json

from repro.dynamic import DynamicAllocator
from repro.obs import MetricsRegistry
from repro.serve import AllocationServer, ServeError, ShardCoordinator
from repro.serve.client import _Routes
from repro.workloads import get_workload

CAPACITIES = (25.6, 4096.0)


class InProcessCell(_Routes):
    """A cell link whose routes an in-process :class:`AllocationServer` answers.

    ``refused`` maps an agent to the error its next registers raise
    instead of reaching the server; ``on_register`` runs before each
    register.
    """

    host, port = "in-process", 0

    def __init__(self, server):
        self.server = server
        self.refused = {}
        self.on_register = None

    def _started(self):
        server = self.server
        if server._loop is None:
            server._loop = asyncio.get_running_loop()
            server._run_epoch([], trigger="startup")
        return server

    async def _call(self, method, path, payload, decode):
        server = self._started()
        if path == "/v1/agents" and payload["action"] == "register":
            if self.on_register is not None:
                self.on_register(payload["agent"])
            if payload["agent"] in self.refused:
                raise self.refused[payload["agent"]]
        body = b"" if payload is None else json.dumps(payload).encode()
        status, reply, _ = server._dispatch(method, path, body)
        text = reply if isinstance(reply, bytes) else json.dumps(reply)
        return self._decode(status, text, decode)

    def request(self, **payload):
        """What a smart client sends straight to this cell."""
        status, reply, _ = self._started()._dispatch(
            "POST", "/v1/agents", json.dumps(payload).encode()
        )
        return status, reply


def fleet(seeds, cells):
    """A coordinator over ``cells`` in-process cells, and each cell's link."""
    coordinator = ShardCoordinator(
        seeds, capacities=CAPACITIES, cells=cells, metrics=MetricsRegistry(), learn_demands=True
    )
    coordinator._seed_placement()
    links = {}
    for cell in coordinator.cells:
        cell.alive = True
        cell.grant = {"membw_gbps": CAPACITIES[0] / cells, "cache_kb": CAPACITIES[1] / cells}
        allocator = DynamicAllocator(
            {agent: get_workload(seeds[agent]) for agent in cell.agents},
            capacities=tuple(cell.grant.values()),
            learn_demands=True,
        )
        links[cell.name] = InProcessCell(AllocationServer(allocator, metrics=MetricsRegistry()))

    async def call(cell, fn):
        return await fn(links[cell.name])

    coordinator._call = call
    return coordinator, links


async def adispatch(coordinator, method, path, payload=None):
    """One coordinator request, answered to ``(status, reply dict)``."""
    body = b"" if payload is None else json.dumps(payload).encode()
    result = coordinator._dispatch(method, path, body)
    if asyncio.iscoroutine(result):
        result = await result
    status, reply, _ = result
    return status, json.loads(reply) if isinstance(reply, bytes) else reply


SEEDS = {name: name for name in ("freqmine", "dedup", "canneal", "x264", "ferret", "fft")}


class TestGrantReplyMembership:
    def test_an_agent_a_grant_reply_omits_leaves_every_view(self):
        # A smart client deregisters at its cell directly; the next grant
        # reply no longer lists the agent, so neither may the coordinator.
        coordinator, links = fleet(SEEDS, cells=2)
        cell = max(coordinator.cells, key=lambda c: len(c.agents))
        gone = sorted(cell.agents)[0]

        async def scenario():
            coordinator._loop = asyncio.get_running_loop()
            await adispatch(coordinator, "GET", "/healthz")  # cache the snapshot
            status, _ = links[cell.name].request(action="deregister", agent=gone)
            assert status == 200
            await coordinator._grant_round()
            health = await adispatch(coordinator, "GET", "/healthz")
            register = await adispatch(
                coordinator, "POST", "/v1/agents",
                {"action": "register", "agent": "late", "workload": "canneal"},
            )
            return health, register

        (_, health), (status, register) = asyncio.run(scenario())
        assert gone not in coordinator.workloads
        assert gone not in health["agents"]
        assert status == 200
        assert gone not in register["agents"] and "late" in register["agents"]
        assert set(register["agents"]) == set(SEEDS) - {gone} | {"late"}


class TestReap:
    def test_a_stale_class_hint_never_reaches_a_rehash(self):
        # A profile-free agent with a class hint is dropped by a refused
        # rehash, then re-registers with a workload.  The next rehash
        # must register it with that workload alone.
        coordinator, links = fleet(SEEDS, cells=3)

        async def scenario():
            coordinator._loop = asyncio.get_running_loop()
            status, _ = await adispatch(
                coordinator, "POST", "/v1/agents",
                {"action": "register", "agent": "p", "profile": None, "workload_class": "C"},
            )
            assert status == 200
            first = coordinator._owner("p")
            for link in links.values():
                link.refused["p"] = ServeError(500, "internal_error", "refused")
            first.alive = False
            await coordinator._reap_dead_cells()
            assert "p" not in coordinator.workloads
            for link in links.values():
                link.refused.clear()
            status, _ = await adispatch(
                coordinator, "POST", "/v1/agents",
                {"action": "register", "agent": "p", "workload": "canneal"},
            )
            assert status == 200
            second = coordinator._owner("p")
            second.alive = False
            await coordinator._reap_dead_cells()
            return coordinator._owner("p")

        owner = asyncio.run(scenario())
        (survivor,) = coordinator.live_cells()
        assert owner is survivor
        assert survivor.agents["p"] == ("canneal", None)
        assert links[survivor.name].server.allocator.workloads["p"].name == "canneal"
        assert set(coordinator.workloads) == set(SEEDS) | {"p"}

    def test_each_orphan_stays_listed_until_it_is_rehomed_or_dropped(self):
        coordinator, links = fleet(SEEDS, cells=2)
        dead = max(coordinator.cells, key=lambda c: len(c.agents))
        orphans = sorted(dead.agents)
        assert len(orphans) >= 2
        seen = []

        def listed(agent):
            seen.append((agent, set(coordinator.workloads)))

        for link in links.values():
            link.on_register = listed
            link.refused[orphans[0]] = ServeError(500, "internal_error", "refused")

        async def scenario():
            coordinator._loop = asyncio.get_running_loop()
            dead.alive = False
            await coordinator._reap_dead_cells()

        asyncio.run(scenario())
        assert [agent for agent, _ in seen] == orphans
        for k, (agent, members) in enumerate(seen):
            assert set(orphans[k:]) <= members  # this one and every later orphan
            assert orphans[0] not in members or k == 0  # the refused one left at once
        assert set(coordinator.workloads) == set(SEEDS) - {orphans[0]}
        assert not dead.agents
        assert coordinator._metric("rehashed").value == len(orphans) - 1


class TestRefusalsPassThrough:
    """A cell's refusal reaches the client with the cell's status, error and detail."""

    def test_register_refused_by_the_cell(self):
        # A smart client registered the agent at its cell; the
        # coordinator's own record does not know it, the cell does.
        coordinator, links = fleet(SEEDS, cells=2)

        async def scenario():
            coordinator._loop = asyncio.get_running_loop()
            target = coordinator._place("sneaky")
            links[target.name].request(action="register", agent="sneaky", workload="dedup")
            return await adispatch(
                coordinator, "POST", "/v1/agents",
                {"action": "register", "agent": "sneaky", "workload": "canneal"},
            )

        status, reply = asyncio.run(scenario())
        assert (status, reply["error"], reply["detail"]) == (
            409, "agent_exists", "'sneaky' is registered"
        )
        assert "sneaky" not in coordinator.workloads

    def test_deregister_of_a_cells_last_agent(self):
        coordinator, _ = fleet({name: name for name in ("freqmine", "dedup", "canneal")}, 2)
        (lonely,) = next(cell.agents for cell in coordinator.cells if len(cell.agents) == 1)

        async def scenario():
            coordinator._loop = asyncio.get_running_loop()
            return await adispatch(
                coordinator, "POST", "/v1/agents", {"action": "deregister", "agent": lonely}
            )

        status, reply = asyncio.run(scenario())
        assert (status, reply["error"], reply["detail"]) == (
            409, "last_agent", "cannot deregister the last agent"
        )
        assert lonely in coordinator.workloads

    def test_single_sample_for_an_agent_the_cell_no_longer_has(self):
        coordinator, links = fleet(SEEDS, cells=2)
        cell = max(coordinator.cells, key=lambda c: len(c.agents))
        gone = sorted(cell.agents)[0]

        async def scenario():
            coordinator._loop = asyncio.get_running_loop()
            links[cell.name].request(action="deregister", agent=gone)
            return await adispatch(
                coordinator, "POST", "/v1/samples",
                {"agent": gone, "bandwidth_gbps": 3.0, "cache_kb": 512.0, "ipc": 1.0},
            )

        status, reply = asyncio.run(scenario())
        assert gone in coordinator.workloads  # so the 404 is the cell's
        assert (status, reply["error"], reply["detail"]) == (
            404, "unknown_agent", f"no agent {gone!r}"
        )
