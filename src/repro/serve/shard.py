"""Sharded multi-worker allocation service with a hierarchical coordinator.

Scale-out for :mod:`repro.serve`: agents are partitioned into *cells*,
each cell is a full :class:`~repro.serve.server.AllocationServer` in its
own ``python -m repro serve`` subprocess, and a
:class:`ShardCoordinator` in front

* **routes** — register/deregister/samples are proxied to the cell that
  owns the agent (rendezvous hashing on the agent id picks the default
  owner; the coordinator's shard map is authoritative);
* **grants** — each coordinator epoch the global capacity vector is
  re-sliced across cells with the Eq. 13 closed form on per-cell
  aggregate elasticities (:func:`repro.optimize.hierarchy.split_capacity`),
  and each cell re-solves on its grant — the hierarchical solve provably
  matches the flat one (see ``docs/sharding.md`` and the parity gate in
  ``tests/optimize/test_hierarchy.py``);
* **degrades** — a dead worker's agents are re-hashed onto the surviving
  cells and capacity is re-granted; the service shrinks, it does not
  fail.

Smart clients fetch ``GET /v1/cells`` and talk to their cell directly
(one hop); dumb clients talk only to the coordinator and pay the proxy
hop.  Both dialects are the same versioned JSON protocol, so
:class:`~repro.serve.client.ServeClient` works against either tier.
The coordinator reaches each cell over one
:class:`~repro.serve.link.CellLink`: a pipelined keep-alive connection
on its own event loop, so a proxy or a grant round costs no thread hop.
The coordinator speaks the same high-throughput dialect as the cells:
persistent connections, bulk ``POST /v1/samples`` (fanned out as one
sub-bulk per owning cell and merged index-aligned), and snapshot-served
reads whose byte caches are invalidated on every grant round, reap,
churn, or capacity change — a staleness bound of one grant round.

Placement is rendezvous (highest-random-weight) hashing, so a cell
death moves only the dead cell's agents — everyone else's profiler
state stays put.  A re-homed agent restarts from the naive prior on its
new cell; its samples keep flowing and the fit re-converges, which is
the same recovery semantics the fault-tolerant profiler already gives a
noisy agent.

Every cell must hold at least one agent at all times (an
:class:`~repro.core.mechanism.AllocationProblem` needs one): boot
requires at least as many seed agents as cells, the worker's 409
``last_agent`` refusal stops a cell from being emptied by churn, and
rehash targets are the surviving cells, which are never empty.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from ..core.registry import hierarchical_mechanism_names
from ..dynamic.controller import RESOURCE_NAMES, validate_capacities
from ..learning.prior import validate_prior
from ..obs import MetricsRegistry, Series, global_registry, to_prometheus
from ..optimize.hierarchy import split_capacity
from ..profiling.online import validate_decay
from ..workloads import BENCHMARKS
from .batching import BatchPolicy
from .client import ServeClient, ServeError
from .link import CellLink
from .protocol import (
    AgentRequest,
    AgentResponse,
    AllocationResponse,
    BulkSampleRequest,
    BulkSampleResponse,
    CapacityRequest,
    CapacityResponse,
    CellInfo,
    CellsResponse,
    HealthResponse,
    SampleOutcome,
    SampleRequest,
    parse_json,
)
from .server import (
    DEFAULT_IDLE_TIMEOUT,
    HttpServerBase,
    _check_register,
    _granted,
    _HttpError,
)

__all__ = ["CellWorker", "ShardCoordinator", "cell_for"]

T = TypeVar("T")

#: The worker's stdout line announcing its bound port.
_LISTEN_RE = re.compile(r"listening on http://[\d.]+:(\d+)")

#: Grant latency histogram buckets (seconds).
_GRANT_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5)


def cell_for(agent: str, cells: Sequence[str]) -> str:
    """Rendezvous (highest-random-weight) owner of ``agent`` among ``cells``.

    Each (cell, agent) pair gets a deterministic pseudo-random weight
    from SHA-1; the highest weight wins.  Removing a cell re-homes only
    that cell's agents — the minimal-disruption property consistent
    hashing is used for — and every coordinator computes the same
    placement with no shared state.
    """
    if not cells:
        raise ValueError("cell_for needs at least one candidate cell")
    return max(
        cells,
        key=lambda cell: hashlib.sha1(
            f"{cell}|{agent}".encode("utf-8")
        ).digest(),
    )


class CellWorker:
    """Handle on one ``python -m repro serve`` cell subprocess."""

    def __init__(self, name: str, command: List[str]):
        self.name = name
        self.command = command
        self.process: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        #: The coordinator's connection to the worker, once it listens.
        self.link: Optional[CellLink] = None
        #: agent -> (benchmark, workload_class) for the agents placed here
        #: (benchmark None for a profile-free learner): the coordinator's
        #: only membership record.
        self.agents: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
        #: The most recent capacity grant applied to this cell.
        self.grant: Dict[str, float] = {}
        #: Aggregate elasticities reported by the last grant round.
        self.aggregate: Optional[np.ndarray] = None
        self.alive = False

    @property
    def pid(self) -> int:
        return self.process.pid if self.process is not None else -1

    def spawn(self, timeout: float = 30.0) -> None:
        """Start the subprocess and wait for its listen line (blocking)."""
        self.process = subprocess.Popen(
            self.command,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ),
        )
        deadline = time.monotonic() + timeout
        assert self.process.stdout is not None
        while True:
            if time.monotonic() > deadline:
                self.terminate()
                raise RuntimeError(f"cell {self.name}: no listen line in {timeout}s")
            line = self.process.stdout.readline()
            if not line:
                self.terminate()
                raise RuntimeError(
                    f"cell {self.name}: worker exited before binding "
                    f"(rc={self.process.poll()})"
                )
            match = _LISTEN_RE.search(line)
            if match:
                self.port = int(match.group(1))
                break
        with ServeClient(self.host, self.port, timeout=10.0) as client:
            client.wait_ready(timeout=timeout)
        self.link = CellLink(self.host, self.port, timeout=10.0)
        self.alive = True

    def poll_dead(self) -> bool:
        """True when the subprocess has exited (and mark the cell dead)."""
        if self.process is not None and self.process.poll() is not None:
            self.alive = False
        return not self.alive

    def terminate(self, timeout: float = 10.0) -> None:
        """SIGTERM, then SIGKILL after ``timeout`` (blocking)."""
        self.alive = False
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                self.process.kill()
                self.process.wait(5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()

    def info(self) -> CellInfo:
        return CellInfo(
            cell=self.name,
            host=self.host,
            port=self.port,
            pid=self.pid,
            alive=self.alive,
            agents=tuple(sorted(self.agents)),
            grant=dict(self.grant),
        )


class ShardCoordinator(HttpServerBase):
    """Hierarchical REF coordinator over ``cells`` worker subprocesses.

    Parameters
    ----------
    workloads:
        Seed agents as ``{agent_name: benchmark_name}``; must contain at
        least as many agents as ``cells`` so every cell starts
        non-empty.
    capacities:
        The *global* capacity vector, one entry per resource, that the
        grant rounds keep re-slicing.
    cells:
        Number of worker subprocesses.
    epoch_ms / max_batch / decay / prior:
        Forwarded to every worker, after the worker's own rules passed here.
    grant_ms:
        Coordinator grant-round period.  Defaults to ``4 * epoch_ms`` so
        each cell solves a few epochs per grant regime.
    mechanism:
        Within-cell mechanism every worker runs.  Must be *hierarchical*
        (compose with the Eq. 13 capacity split) — see
        :func:`repro.core.registry.hierarchical_mechanism_names`.
    python:
        Interpreter used to spawn workers (defaults to this one).
    """

    _METRICS = {
        **HttpServerBase._METRICS,
        "cells": Series("gauge", "repro_shard_cells", "Live cell workers behind the coordinator."),
        "grant_errors": Series(
            "counter",
            "repro_shard_grant_errors_total",
            "Capacity grants a cell rejected.",
            ("cell",),
        ),
        "grant_latency": Series(
            "histogram",
            "repro_shard_grant_latency_seconds",
            "Round-trip latency of one cell capacity grant.",
            ("cell",),
            buckets=_GRANT_BUCKETS,
        ),
        "grant_rounds": Series(
            "counter", "repro_shard_grant_rounds_total", "Completed coordinator grant rounds."
        ),
        "round": Series("gauge", "repro_shard_epoch", "Most recently completed grant round."),
        "rebalances": Series(
            "counter", "repro_shard_rebalances_total", "Rebalances triggered by cell death."
        ),
        "rehashed": Series(
            "counter",
            "repro_shard_agents_rehashed_total",
            "Agents re-homed from a dead cell to a survivor.",
        ),
    }

    def __init__(
        self,
        workloads: Dict[str, str],
        capacities: Sequence[float],
        cells: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        epoch_ms: float = 50.0,
        max_batch: int = 64,
        grant_ms: Optional[float] = None,
        decay: float = 0.85,
        seed: int = 0,
        metrics: Optional[MetricsRegistry] = None,
        mechanism: str = "ref",
        python: Optional[str] = None,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        learn_demands: bool = False,
        prior: str = "equal",
    ):
        super().__init__(
            host=host, port=port, metrics=metrics, idle_timeout=idle_timeout
        )
        if cells < 1:
            raise ValueError(f"cells must be >= 1, got {cells}")
        hierarchical = hierarchical_mechanism_names()
        if mechanism not in hierarchical:
            raise ValueError(
                f"mechanism must be hierarchical ({', '.join(hierarchical)}), "
                f"got {mechanism!r}"
            )
        self.mechanism = mechanism
        if len(workloads) < cells:
            raise ValueError(
                f"need at least one seed agent per cell: {len(workloads)} "
                f"agents for {cells} cells"
            )
        unknown = sorted(set(workloads.values()) - set(BENCHMARKS))
        if unknown:
            raise ValueError(f"unknown benchmark(s): {unknown}")
        self.capacities = validate_capacities(capacities)
        self.resource_names = RESOURCE_NAMES
        self.epoch_ms = float(epoch_ms)
        self.max_batch = int(max_batch)
        BatchPolicy(max_delay=self.epoch_ms / 1000.0, max_batch=self.max_batch)
        self.grant_ms = float(grant_ms) if grant_ms is not None else 4.0 * self.epoch_ms
        if not self.grant_ms > 0:
            raise ValueError(f"grant_ms must be positive, got {self.grant_ms}")
        self.decay = validate_decay(float(decay))
        self.seed = int(seed)
        # Demand learning is forwarded to every worker; profile-free
        # registers are then proxied to the owning cell.  Seed agents
        # still need benchmarks (the worker spawn command names them).
        self.learn_demands = bool(learn_demands)
        self.prior = validate_prior(prior)
        self.python = python if python is not None else sys.executable
        self.cells: List[CellWorker] = [
            CellWorker(f"cell-{k}", []) for k in range(cells)
        ]
        self.cells[0].agents = {agent: (benchmark, None) for agent, benchmark in workloads.items()}
        self._seed_placement()  # spread the seed agents over every cell
        self._epoch = 0  # completed grant rounds
        self._rebalances = 0
        self._last_feasible = False
        self._final_summary: Optional[str] = None
        # Serializes grant rounds against merged allocation reads: a
        # read that interleaves with an in-flight round would see some
        # cells re-solved under this round's grant and others still on
        # the previous one — a union that can transiently overshoot the
        # global capacities even though every cell is feasible.
        self._round_lock = asyncio.Lock()
        self._reap_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # Placement

    @property
    def workloads(self) -> Dict[str, Optional[str]]:
        """Every placed agent's benchmark, read off the cells (a dead cell's until reaped)."""
        return {agent: entry[0] for cell in self.cells for agent, entry in cell.agents.items()}

    def live_cells(self) -> List[CellWorker]:
        return [cell for cell in self.cells if cell.alive]

    def _owner(self, agent: str) -> Optional[CellWorker]:
        for cell in self.cells:
            if cell.alive and agent in cell.agents:
                return cell
        return None

    def _place(self, agent: str) -> CellWorker:
        """Default placement for a *new* agent: rendezvous over live cells."""
        live = self.live_cells()
        if not live:
            raise _HttpError(503, "no_cells", "no live cell workers")
        name = cell_for(agent, [cell.name for cell in live])
        return next(cell for cell in live if cell.name == name)

    def _seed_placement(self) -> None:
        """Re-assign the placed agents to cells: rendezvous hash, then fix-empty.

        Pure rendezvous can leave a cell with zero seed agents when
        agents are few; every cell must start non-empty, so agents are
        deterministically moved from the fullest cells into the empty
        ones.  Post-boot arrivals use pure rendezvous (live cells are
        never empty again).  A second call changes nothing.
        """
        placed = {}
        for cell in self.cells:
            placed.update(cell.agents)
            cell.agents = {}
        names = [cell.name for cell in self.cells]
        for agent in sorted(placed):
            owner = cell_for(agent, names)
            cell = next(c for c in self.cells if c.name == owner)
            cell.agents[agent] = placed[agent]
        for cell in self.cells:
            while not cell.agents:
                donor = max(self.cells, key=lambda c: len(c.agents))
                if len(donor.agents) <= 1:  # unreachable: len(agents) >= cells
                    raise RuntimeError("cannot seed every cell with an agent")
                moved = sorted(donor.agents)[0]
                cell.agents[moved] = donor.agents.pop(moved)

    # ------------------------------------------------------------------
    # Lifecycle

    async def _on_start(self) -> None:
        total = sum(len(cell.agents) for cell in self.cells)
        caps = np.asarray(self.capacities)
        loop = asyncio.get_running_loop()
        spawns = []
        for k, cell in enumerate(self.cells):
            # Boot grant: equal split per agent (the naive-prior Eq. 13
            # split — every agent starts at alpha = (1/2, 1/2), so the
            # hierarchical grant is exactly count-proportional).
            grant = caps * (len(cell.agents) / total)
            cell.grant = dict(zip(self.resource_names, (float(g) for g in grant)))
            agents_spec = ",".join(
                f"{agent}={benchmark}"
                for agent, (benchmark, _) in sorted(cell.agents.items())
            )
            cell.command = [
                self.python,
                "-m",
                "repro",
                "serve",
                "--host",
                cell.host,
                "--port",
                "0",
                "--agents",
                agents_spec,
                "--capacities",
                ",".join(f"{float(g)!r}" for g in grant),
                "--epoch-ms",
                f"{self.epoch_ms:g}",
                "--max-batch",
                str(self.max_batch),
                "--decay",
                f"{self.decay:g}",
                "--mechanism",
                self.mechanism,
                "--seed",
                str(self.seed + k),
            ]
            if self.learn_demands:
                cell.command += ["--learn-demands", "--prior", self.prior]
            spawns.append(loop.run_in_executor(None, cell.spawn))
        for result in await asyncio.gather(*spawns, return_exceptions=True):
            if isinstance(result, BaseException):
                await self._close_cells()  # the workers that did start
                raise result
        self._metric("cells").set(len(self.live_cells()))
        await self._grant_round()

    async def _on_stop(self) -> None:
        # Best-effort final feasibility check before tearing workers down
        # (summary_line reports it; the smoke gate greps for it).
        try:
            await self._merged_allocation()
        except (ServeError, OSError, _HttpError, ValueError):
            pass
        self._final_summary = self.summary_line()
        await self._close_cells()

    async def _close_cells(self) -> None:
        """Close every cell's link, then terminate every worker."""
        await asyncio.gather(
            *[cell.link.close() for cell in self.cells if cell.link is not None]
        )
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *[loop.run_in_executor(None, cell.terminate) for cell in self.cells]
        )

    async def _tick_loop(self) -> None:
        period = self.grant_ms / 1000.0
        while True:
            await asyncio.sleep(period)
            await self._reap_dead_cells()
            # Shielded: stopping the server cancels this loop, but a
            # capacity push already written still lands on its cell.
            # The round must hold the lock until every push is answered,
            # so the final merge in _on_stop never sees cells on
            # different rounds.
            await asyncio.shield(self._grant_round())

    def summary_line(self) -> str:
        """Greppable one-line health summary (printed on shutdown)."""
        if self._final_summary is not None:
            return self._final_summary  # state as of just before teardown
        live = len(self.live_cells())
        agents = sum(len(cell.agents) for cell in self.cells if cell.alive)
        return (
            f"shard: cells={live}/{len(self.cells)} agents={agents} "
            f"grants={self._epoch} rebalances={self._rebalances} "
            f"feasible={self._last_feasible}"
        )

    # ------------------------------------------------------------------
    # Worker RPC plumbing

    async def _call(self, cell: CellWorker, fn: Callable[[CellLink], Awaitable[T]]) -> T:
        """Await one route call on ``cell``'s link, e.g. ``link.allocation()``.

        Transport failures mark the cell for reaping and surface as 502
        so the caller (or `_proxy_retry`) can re-route.  A live cell's
        refusal stays a :class:`ServeError`; one that reaches a route
        handler is answered as the cell gave it.
        """
        try:
            return await fn(cell.link)
        except ServeError as error:
            if not error.is_transport:
                raise  # semantic refusal from a live worker: caller's problem
            cell.poll_dead()
            raise _HttpError(
                502, "cell_unreachable", f"cell {cell.name}: {error}"
            ) from None

    async def _proxy_retry(self, agent: str, fn: Callable[[CellLink], Awaitable[T]]) -> T:
        """`_call` ``fn`` on the agent's owner; on cell death, reap and retry once."""
        for retry in (False, True):
            owner = self._owner(agent)
            if owner is None:
                raise _HttpError(404, "unknown_agent", f"no agent {agent!r}")
            try:
                return await self._call(owner, fn)
            except _HttpError:
                if retry:
                    raise
                await self._reap_dead_cells()
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    # Grant rounds (the hierarchical Eq. 13 split)

    async def _grant_round(self) -> None:
        """Push each cell its capacity slice; collect next-round aggregates.

        The split is Eq. 13 at cell granularity: cell *k* receives
        ``C_r * A_kr / sum A_kr`` where ``A_kr`` is its agents'
        aggregate re-scaled elasticity (count-proportional before the
        first aggregates arrive, matching the naive prior).
        """
        async with self._round_lock:
            await self._grant_round_locked()

    async def _grant_round_locked(self) -> None:
        live = self.live_cells()
        if not live:
            return
        n_resources = len(self.resource_names)
        known = [cell for cell in live if cell.aggregate is not None]
        if known:
            # Cells without aggregates yet (fresh boot) fall back to the
            # naive prior: 1/R per resource per agent.
            aggregates = np.stack(
                [
                    cell.aggregate
                    if cell.aggregate is not None
                    else np.full(n_resources, len(cell.agents) / n_resources)
                    for cell in live
                ]
            )
            counts = [max(1, len(cell.agents)) for cell in live]
            grants = split_capacity(aggregates, counts, np.asarray(self.capacities))
            for cell, grant in zip(live, grants):
                cell.grant = dict(
                    zip(self.resource_names, (float(g) for g in grant))
                )

        async def push(cell: CellWorker) -> None:
            request = CapacityRequest(capacities=dict(cell.grant))
            placed = set(cell.agents)
            started = self._loop.time() if self._loop is not None else 0.0
            try:
                response = await self._call(
                    cell, lambda link: link.grant_capacity(request.capacities)
                )
            except _HttpError:
                return  # dead cell: reaped on the next tick
            except (ServeError, ValueError):
                self._metric("grant_errors", cell.name).inc()
                return
            if self._loop is not None:
                self._metric("grant_latency", cell.name).observe(self._loop.time() - started)
            names = self.resource_names
            cell.aggregate = np.array(
                [response.aggregate_elasticity.get(name, 0.0) for name in names]
            )
            # The worker's own membership is ground truth for *its*
            # agents' benchmarks being live; keep placement in sync with
            # any churn that raced this round.  Only agents placed before
            # the grant went out can be judged by its reply: a register
            # acked while the grant was in flight may postdate the reply.
            for agent in placed - set(response.agents):
                cell.agents.pop(agent, None)

        await asyncio.gather(*[push(cell) for cell in live])
        self._epoch += 1
        self._metric("grant_rounds").inc()
        self._metric("round").set(self._epoch - 1)
        # Grants moved every cell's capacity slice and advanced the
        # epoch: the cached read snapshots are stale now.
        self._invalidate_snapshots()

    # ------------------------------------------------------------------
    # Cell death and rebalancing

    async def _reap_dead_cells(self) -> None:
        """Re-home agents from dead workers onto the survivors, one reap at a time.

        An orphan stays in its dead cell's map until a survivor takes it
        or it is dropped, so membership never loses an agent mid-reap.
        """
        async with self._reap_lock:
            for cell in self.cells:
                if cell.alive:
                    cell.poll_dead()
            # Covers both exit-detected deaths and cells marked dead by a
            # failed RPC: any dead cell still holding agents needs reaping.
            dead = [cell for cell in self.cells if not cell.alive and cell.agents]
            for cell in dead:
                cell.aggregate = None
                cell.grant = {}
                if cell.link is not None:
                    await cell.link.close()
                self._rebalances += 1
                self._metric("rebalances").inc()
                for agent, placement in sorted(cell.agents.items()):
                    if agent not in cell.agents:
                        continue  # deregistered, or left with a grant reply, meanwhile
                    # A profile-free orphan re-registers profile-free, with
                    # its class hint; its learned state died with the cell,
                    # so learning restarts from the prior.
                    try:
                        target = self._place(agent)
                        await self._call(target, lambda link: link.register(agent, *placement))
                        rehomed = True
                    except ServeError as error:
                        rehomed = error.error == "agent_exists"
                    except _HttpError:
                        # No live cell, or the survivor is unreachable:
                        # the agent can re-register when a cell returns.
                        rehomed = False
                    cell.agents.pop(agent, None)
                    if rehomed:
                        target.agents[agent] = placement
                        self._metric("rehashed").inc()
            self._metric("cells").set(len(self.live_cells()))
            # Liveness or placement may have changed (including cells marked
            # dead by a failed RPC since the last round).
            self._invalidate_snapshots()

    # ------------------------------------------------------------------
    # Routes

    def _routes(self):
        return {
            "/v1/agents": ("POST", self._route_agents),
            "/v1/samples": ("POST", self._route_samples),
            "/v1/capacity": ("POST", self._route_capacity),
            "/v1/allocation": ("GET", self._route_allocation),
            "/v1/cells": ("GET", self._route_cells),
            "/healthz": ("GET", self._route_health),
            "/metrics": ("GET", self._route_metrics),
        }

    async def _route_agents(self, body: bytes):
        # A cell's refusal (say the 409 last_agent that keeps every cell
        # non-empty) propagates as a ServeError and is answered as is.
        request = AgentRequest.from_dict(parse_json(body))
        if request.action == "register":
            _check_register(request, self.learn_demands, self.workloads)
            target = self._place(request.agent)
            placement = (request.workload, request.workload_class)
            await self._call(target, lambda link: link.register(request.agent, *placement))
            target.agents[request.agent] = placement
        else:
            await self._proxy_retry(request.agent, lambda link: link.deregister(request.agent))
            for cell in self.cells:
                cell.agents.pop(request.agent, None)
        self._invalidate_snapshots()  # membership changed
        response = AgentResponse(
            action=request.action,
            agent=request.agent,
            agents=tuple(sorted(self.workloads)),
            epoch=self._epoch - 1,
        )
        return 200, response.as_dict(), "application/json"

    async def _route_samples(self, body: bytes):
        data = parse_json(body)
        if "samples" in data:
            return await self._proxy_bulk(BulkSampleRequest.from_dict(data))
        request = SampleRequest.from_dict(data)
        response = await self._proxy_retry(
            request.agent,
            lambda link: link.submit_sample(
                request.agent,
                request.bandwidth_gbps,
                request.cache_kb,
                request.ipc,
                exploration=request.exploration,
            ),
        )
        return 200, response.as_dict(), "application/json"

    async def _proxy_bulk(self, request: BulkSampleRequest):
        """Fan a bulk sample array out to the owning cells; merge aligned.

        Each owning cell receives ONE sub-bulk POST (a round trip per
        cell, not per sample) and the per-sample outcomes are merged
        back index-aligned with the request.  A cell death mid-fan-out
        is reaped and only the unanswered samples are retried once
        against the re-homed placement — the bulk analogue of
        :meth:`_proxy_retry`.  ``epoch`` in the response is the
        coordinator's grant round; ``pending`` sums the owning cells'
        reported queues.
        """
        results: List[Optional[SampleOutcome]] = [None] * len(request.samples)
        pending = 0
        for retry in (False, True):
            groups: Dict[CellWorker, List[int]] = {}
            for i, sample in enumerate(request.samples):
                if results[i] is not None:
                    continue
                owner = self._owner(sample.agent)
                if owner is None:
                    results[i] = SampleOutcome(sample.agent, False, "unknown_agent")
                else:
                    groups.setdefault(owner, []).append(i)
            if not groups:
                break

            async def forward(cell: CellWorker, indexes: List[int]) -> int:
                sub = [request.samples[i] for i in indexes]
                try:
                    response = await self._call(
                        cell, lambda link: link.post_samples_bulk(sub)
                    )
                except _HttpError:
                    return 0  # dead cell: reaped below, samples retried
                except ServeError as error:
                    for i in indexes:
                        results[i] = SampleOutcome(
                            request.samples[i].agent, False, error.error
                        )
                    return 0
                for i, outcome in zip(indexes, response.results):
                    results[i] = outcome
                return response.pending

            pending += sum(
                await asyncio.gather(
                    *[forward(cell, indexes) for cell, indexes in groups.items()]
                )
            )
            if all(result is not None for result in results):
                break
            if not retry:
                await self._reap_dead_cells()
        outcomes = tuple(
            result
            if result is not None
            else SampleOutcome(sample.agent, False, "cell_unreachable")
            for sample, result in zip(request.samples, results)
        )
        accepted = sum(1 for outcome in outcomes if outcome.queued)
        response = BulkSampleResponse(
            epoch=self._epoch - 1,
            pending=pending,
            accepted=accepted,
            rejected=len(outcomes) - accepted,
            results=outcomes,
        )
        return 200, response.as_dict(), "application/json"

    async def _route_capacity(self, body: bytes):
        """Replace the *global* capacity vector; re-grant immediately."""
        request = CapacityRequest.from_dict(parse_json(body))
        names = self.resource_names
        capacities = _granted(request, names)
        # Swap the vector and re-grant under the round lock, so no
        # merged read ever judges old grants against the new capacities.
        async with self._round_lock:
            self.capacities = capacities
            # _grant_round invalidates the snapshots too, but it returns
            # early during a total outage — the capacity change itself
            # must still drop the cached reads.
            self._invalidate_snapshots()
            await self._grant_round_locked()
        known = [cell.aggregate for cell in self.live_cells() if cell.aggregate is not None]
        aggregate = sum(known, np.zeros(len(names)))
        response = CapacityResponse(
            epoch=self._epoch - 1,
            agents=tuple(sorted(self.workloads)),
            capacities=dict(zip(names, map(float, self.capacities))),
            aggregate_elasticity=dict(zip(names, map(float, aggregate))),
        )
        return 200, response.as_dict(), "application/json"

    async def _merged_allocation(self) -> AllocationResponse:
        """Union of the live cells' allocations under the global capacities.

        Holds the round lock so the union is read against one
        consistent set of grants, never halfway through a round.
        """
        async with self._round_lock:
            return await self._merged_allocation_locked()

    async def _merged_allocation_locked(self) -> AllocationResponse:
        live = self.live_cells()
        if not live:
            raise _HttpError(503, "no_cells", "no live cell workers")
        responses = await asyncio.gather(
            *[self._call(cell, lambda link: link.allocation()) for cell in live],
            return_exceptions=True,
        )
        shares: Dict[str, Dict[str, float]] = {}
        feasible = True
        got_any = False
        for cell, response in zip(live, responses):
            if isinstance(response, BaseException):
                feasible = False  # a cell we cannot read is not provably feasible
                continue
            got_any = True
            feasible = feasible and response.feasible
            shares.update(response.shares)
        if not got_any:
            raise _HttpError(502, "cells_unreachable", "no cell answered")
        # Grants sum to the global capacities, so the union must fit them.
        for r, name in enumerate(self.resource_names):
            total = sum(bundle.get(name, 0.0) for bundle in shares.values())
            feasible = feasible and total <= self.capacities[r] * (1 + 1e-9)
        self._last_feasible = feasible
        return AllocationResponse(
            epoch=self._epoch - 1,
            mechanism=f"{self.mechanism}-hierarchical",
            feasible=feasible,
            capacities=dict(
                zip(self.resource_names, map(float, self.capacities))
            ),
            shares=shares,
        )

    def _route_allocation(self, _body: bytes):
        # Snapshot-served like the worker's read path, but a miss is
        # async (it fans out to the cells), so the byte cache is managed
        # here instead of through _snapshot.  A hit is answered inline;
        # only a miss returns a coroutine.  Staleness bound: one grant
        # round — every grant/reap/churn/capacity change invalidates.
        body = self._snapshots.get("/v1/allocation")
        if body is None:
            return self._allocation_miss()
        self.metrics.child(self._METRICS["snapshots"], "/v1/allocation", "hit").inc()
        return 200, body, "application/json"

    async def _allocation_miss(self):
        response = await self._merged_allocation()
        body = json.dumps(response.as_dict()).encode()
        self._snapshots["/v1/allocation"] = body
        self._metric("snapshots", "/v1/allocation", "miss").inc()
        return 200, body, "application/json"

    def _route_cells(self, _body: bytes):
        return self._snapshot("/v1/cells", self._build_cells)

    def _build_cells(self) -> CellsResponse:
        return CellsResponse(
            epoch=self._epoch - 1,
            capacities=dict(zip(self.resource_names, map(float, self.capacities))),
            cells=tuple(cell.info() for cell in self.cells),
        )

    def _route_health(self, _body: bytes):
        # Snapshot-served: uptime (and a cell marked dead by a failed
        # RPC but not yet reaped) can be up to one grant round stale.
        return self._snapshot("/healthz", self._build_health)

    def _build_health(self) -> HealthResponse:
        live = self.live_cells()
        uptime = (self._loop.time() - self._started_at) if self._loop else 0.0
        status = "ok" if len(live) == len(self.cells) else (
            "degraded" if live else "down"
        )
        return HealthResponse(
            status=status,
            epoch=self._epoch - 1,
            agents=tuple(sorted(self.workloads)),
            pending_samples=0,  # pending batches live in the cells
            uptime_seconds=max(0.0, uptime),
            mechanism=f"{self.mechanism}-hierarchical",
        )

    def _route_metrics(self, _body: bytes):
        text = to_prometheus(global_registry(), self.metrics)
        return 200, text, "text/plain; version=0.0.4"
