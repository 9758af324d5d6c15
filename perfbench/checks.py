"""Output checks and freshness matching on the recorded replies.

Everything here runs after the measured window, on bodies the load
generator kept as bytes, so none of it costs timed CPU.  A request
fails when it got no reply, a non-200 reply, or a reply a check
rejects.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

#: Relative tolerance on a resource column summing to capacity.
SUM_RTOL = 1e-9


@dataclass
class Op:
    """One request as sent and answered (times are absolute seconds)."""

    kind: str
    due: float
    sent: float
    recv: float
    status: int
    body: Optional[bytes]
    agents: Tuple[str, ...] = ()
    failure: str = ""
    #: Parsed reply, filled in by the checks.
    reply: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.failure


@dataclass
class Membership:
    """When each churned agent joined and left, from the churn replies."""

    seeded: FrozenSet[str]
    reg_epoch: Dict[str, Optional[int]] = field(default_factory=dict)
    reg_sent: Dict[str, float] = field(default_factory=dict)
    dereg_epoch: Dict[str, Optional[int]] = field(default_factory=dict)
    dereg_sent: Dict[str, float] = field(default_factory=dict)


def _decode(op: Op, parsed: Optional[Dict[bytes, dict]] = None) -> Optional[dict]:
    """The reply as JSON; ``parsed`` shares one dict per distinct body."""
    if op.recv == 0.0:
        op.failure = "no reply"
        return None
    if op.status != 200:
        op.failure = f"HTTP {op.status}: {op.body[:120]!r}"
        return None
    reply = parsed.get(op.body) if parsed is not None else None
    if reply is None:
        try:
            reply = json.loads(op.body)
        except ValueError:
            op.failure = "reply is not JSON"
            return None
        if parsed is not None:
            parsed[op.body] = reply
    op.reply = reply
    return reply


def check_churn(ops: Sequence[Op], seeded: Set[str]) -> Membership:
    """Check register/deregister replies against the expected membership.

    Churn runs on one connection, in order, so the membership after
    each step is known exactly; the reply must list exactly that set.
    """
    members = set(seeded)
    timeline = Membership(seeded=frozenset(seeded))
    for op in ops:
        if op.kind not in ("register", "deregister"):
            continue
        (agent,) = op.agents
        if op.kind == "register":
            members.add(agent)
            timeline.reg_sent[agent] = op.sent
        else:
            members.discard(agent)
            timeline.dereg_sent[agent] = op.sent
        reply = _decode(op)
        epoch = None
        if reply is not None:
            if reply.get("agent") != agent or reply.get("action") != op.kind:
                op.failure = f"churn reply names {reply.get('action')} {reply.get('agent')}"
            elif set(reply.get("agents", ())) != members:
                op.failure = f"{op.kind} {agent}: reply membership differs from expected"
            else:
                epoch = reply["epoch"]
        (timeline.reg_epoch if op.kind == "register" else timeline.dereg_epoch)[agent] = epoch
    return timeline


def check_bulk(op: Op) -> None:
    reply = _decode(op)
    if reply is None:
        return
    results = reply.get("results", [])
    if len(results) != len(op.agents):
        op.failure = f"bulk reply has {len(results)} results for {len(op.agents)} samples"
    elif reply.get("rejected") != 0 or reply.get("accepted") != len(op.agents):
        op.failure = f"bulk rejected {reply.get('rejected')} samples"
    elif any(r.get("agent") != a or r.get("queued") is not True
             for r, a in zip(results, op.agents)):
        op.failure = "bulk results are not index-aligned and queued"


def check_scrape(op: Op) -> None:
    if op.recv == 0.0:
        op.failure = "no reply"
    elif op.status != 200:
        op.failure = f"HTTP {op.status}"
    elif b"repro_serve_requests_total" not in op.body:
        op.failure = "scrape lacks repro_serve_requests_total"


def expected_flat(timeline: Membership, epoch: int) -> Set[str]:
    """Membership a flat server serves at ``epoch``.

    Every churn step runs its own tick and acknowledges that tick's
    epoch, so an agent is listed exactly from its register's epoch up
    to (not including) its deregister's.
    """
    members = set(timeline.seeded)
    for agent, joined in timeline.reg_epoch.items():
        left = timeline.dereg_epoch.get(agent)
        if joined is not None and joined <= epoch and (left is None or epoch < left):
            members.add(agent)
    return members


def sharded_bounds(timeline: Membership, epoch: int, recv: float) -> Tuple[Set[str], Set[str]]:
    """``(required, allowed)`` agents for a coordinator read.

    The coordinator's epoch counts grant rounds and churn does not
    advance it; its read snapshot may lag churn by up to one round (the
    documented staleness bound).  An agent registered before the read's
    round began must be listed unless its deregister was already sent;
    an agent may be listed only if its register was sent before the
    reply arrived and it had not left before the read's round.
    """
    required = set(timeline.seeded)
    allowed = set(timeline.seeded)
    for agent, sent in timeline.reg_sent.items():
        if sent > recv:
            continue
        joined = timeline.reg_epoch.get(agent)
        left = timeline.dereg_epoch.get(agent)
        gone_sent = timeline.dereg_sent.get(agent)
        if left is not None and left < epoch:
            continue
        allowed.add(agent)
        if joined is not None and joined < epoch and (gone_sent is None or gone_sent > recv):
            required.add(agent)
    return required, allowed


def check_reads(ops: Sequence[Op], timeline: Membership, sharded: bool) -> None:
    """Feasibility, column sums and membership of every allocation read."""
    # Snapshot-served reads repeat byte-identical bodies within an
    # epoch; a flat verdict depends on the body alone.
    verdicts: Dict[bytes, str] = {}
    parsed: Dict[bytes, dict] = {}
    for op in ops:
        reply = _decode(op, parsed)
        if reply is None:
            continue
        problem = verdicts.get(op.body)
        if problem is None:
            problem = _allocation_problem(reply, sharded)
            if not problem and not sharded:
                if set(reply["shares"]) != expected_flat(timeline, reply["epoch"]):
                    problem = f"allocation at epoch {reply['epoch']} lists the wrong agents"
            verdicts[op.body] = problem
        if not problem and sharded:
            required, allowed = sharded_bounds(timeline, reply["epoch"], op.recv)
            listed = set(reply["shares"])
            if not required <= listed or not listed <= allowed:
                problem = "allocation membership outside the churn timeline"
        op.failure = problem


def _allocation_problem(reply: dict, sharded: bool) -> str:
    if reply.get("feasible") is not True:
        return "allocation is not feasible"
    capacities = reply["capacities"]
    for resource, capacity in capacities.items():
        total = sum(bundle[resource] for bundle in reply["shares"].values())
        if sharded:
            if total > capacity * (1 + SUM_RTOL):
                return f"{resource} shares sum {total!r} over capacity {capacity!r}"
        elif abs(total - capacity) > SUM_RTOL * capacity:
            return f"{resource} shares sum {total!r}, capacity {capacity!r}"
    return ""


def freshness(
    writes: Sequence[Op], reads: Sequence[Op], sharded: bool
) -> List[Tuple[float, float]]:
    """``(due, seconds)`` from each sample ack to the first read showing it.

    A flat ack names the epoch that will fold the sample in, so the
    first read at that epoch or later shows it.  The coordinator's bulk
    ack names its last completed grant round, so there the first read
    of a later round is the first one known to show it.  Acks with no
    such read before the reads stop are left out.
    """
    answered = [read for read in reads if read.ok]
    times = [read.recv for read in answered]
    out = []
    for write in writes:
        if not write.ok:
            continue
        epoch = write.reply["epoch"]
        for read in answered[bisect.bisect_left(times, write.recv):]:
            seen = read.reply["epoch"]
            if seen > epoch or (seen == epoch and not sharded):
                out.append((write.due, read.recv - write.recv))
                break
    return out
