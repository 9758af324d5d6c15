"""CreditMechanism.observe as one array pass, against the per-agent loop.

``loop_observe`` is the per-agent update the mechanism ran before its
balances were gathered into one ``(N, R)`` array; it stays here as the
reference.  Both sides see the same epochs (agents joining and leaving,
clipping, ``metrics=None`` and alternating registries) and must agree
bit for bit on balances, events, solves and every metric series.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Allocation
from repro.core.mechanism import AllocationProblem, proportional_split
from repro.core.registry import CreditMechanism
from repro.obs import MetricsRegistry

POOL = ("a", "b", "c", "d", "e", "f")


def loop_observe(balances, enforced, max_balance, metrics):
    """The per-agent credit update: balances dict in place, events out."""
    problem = enforced.problem
    entitlement = 1.0 / problem.n_agents
    fractions = enforced.shares / problem.capacity_vector
    events = []
    for i, name in enumerate(problem.names):
        delta = entitlement - fractions[i]
        before = balances.get(name, np.zeros(problem.n_resources))
        raw = before + delta
        clipped = np.clip(raw, -max_balance, max_balance)
        forfeited = float(np.abs(raw - clipped).sum())
        balances[name] = clipped
        if metrics is not None:
            banked = float(delta[delta > 0].sum())
            spent = float(-delta[delta < 0].sum())
            if banked > 0:
                metrics.counter(
                    "repro_credit_banked_total",
                    help="Credit banked by under-served agents (capacity fractions).",
                    agent=name,
                ).inc(banked)
            if spent > 0:
                metrics.counter(
                    "repro_credit_spent_total",
                    help="Credit spent by over-served agents (capacity fractions).",
                    agent=name,
                ).inc(spent)
            if forfeited > 0:
                metrics.counter(
                    "repro_credit_forfeited_total",
                    help="Credit lost to the balance clip (capacity fractions).",
                    agent=name,
                ).inc(forfeited)
            for r, resource in enumerate(problem.resource_names):
                metrics.gauge(
                    "repro_credit_balance",
                    help="Per-agent credit balance in capacity fractions.",
                    agent=name,
                    resource=resource,
                ).set(float(clipped[r]))
        if forfeited > 1e-12:
            events.append(
                (
                    "credit_clipped",
                    name,
                    f"forfeited {forfeited:.3g} at |balance| = {max_balance:g}",
                )
            )
    return tuple(events)


def loop_solve(balances, problem, spend_rate):
    """The credit solve with its weights gathered one agent at a time."""
    rows = [balances.get(name, np.zeros(problem.n_resources)) for name in problem.names]
    weights = np.exp(spend_rate * np.vstack(rows))
    alpha = problem.rescaled_alpha_matrix()
    alpha = np.where(np.isfinite(alpha) & (alpha > 0.0), alpha, 0.0)
    return proportional_split(alpha * weights, problem.capacity_vector, fallback=weights)


def matrix(draw, rows, cols, low, high):
    values = draw(st.lists(st.floats(low, high), min_size=rows * cols, max_size=rows * cols))
    return np.array(values).reshape(rows, cols)


@st.composite
def epochs(draw):
    """Up to eight epochs over one resource set: who is present, their
    reports and enforced shares, the registry (or none) each observe
    writes to, who leaves (before or after the observe), and whether the
    problem is solved before and after its observe."""
    n_resources = draw(st.integers(1, 3))
    resources = tuple(f"res{r}" for r in range(n_resources))
    capacities = matrix(draw, 1, n_resources, 0.5, 5000.0)[0]
    plan = []
    for _ in range(draw(st.integers(1, 8))):
        names = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=len(POOL), unique=True))
        alpha = matrix(draw, len(names), n_resources, 0.05, 1.0)
        # Enforced shares partition capacity, possibly very unevenly.
        weights = matrix(draw, len(names), n_resources, 0.01, 100.0)
        plan.append(
            dict(
                problem=AllocationProblem.from_arrays(names, alpha, capacities, resources),
                shares=weights / weights.sum(axis=0) * capacities,
                registry=draw(st.sampled_from([None, 0, 1])),
                solve_first=draw(st.booleans()),
                leave=draw(st.lists(st.sampled_from(POOL), max_size=2, unique=True)),
                leave_first=draw(st.booleans()),
                solve_again=draw(st.booleans()),
            )
        )
    return plan


def leave(mechanism, balances, names):
    for name in names:
        mechanism.forget_agent(name)
        balances.pop(name, None)


@settings(max_examples=80, deadline=None)
@given(
    plan=epochs(),
    max_balance=st.sampled_from([0.01, 0.1, 0.5, 5.0]),
    spend_rate=st.sampled_from([0.5, 2.0]),
)
def test_array_observe_matches_the_per_agent_loop(plan, max_balance, spend_rate):
    mechanism = CreditMechanism(spend_rate=spend_rate, max_balance=max_balance)
    balances = {}
    ours = (MetricsRegistry(), MetricsRegistry())
    theirs = (MetricsRegistry(), MetricsRegistry())
    for epoch, step in enumerate(plan):
        problem = step["problem"]
        if step["solve_first"]:
            # The controller's tick: solve, then observe the same problem.
            solved = mechanism.solve(problem)
            assert np.array_equal(solved.shares, loop_solve(balances, problem, spend_rate))
        if step["leave_first"]:
            leave(mechanism, balances, step["leave"])
        enforced = Allocation(problem, step["shares"], "credit")
        pick = step["registry"]
        mine = None if pick is None else ours[pick]
        reference = None if pick is None else theirs[pick]
        events = mechanism.observe(enforced, epoch=epoch, metrics=mine)
        assert events == loop_observe(balances, enforced, max_balance, reference)
        zero = np.zeros(problem.n_resources)
        for name in POOL:
            assert np.array_equal(mechanism.balance(name, len(zero)), balances.get(name, zero))
        for registry, expected in zip(ours, theirs):
            assert registry.as_dict() == expected.as_dict()
        if not step["leave_first"]:
            leave(mechanism, balances, step["leave"])
        if step["solve_again"]:
            # The same problem after its balances moved: no stale gather.
            solved = mechanism.solve(problem)
            assert np.array_equal(solved.shares, loop_solve(balances, problem, spend_rate))
    assert mechanism.state_dict()["balances"] == {
        name: [float(v) for v in vector] for name, vector in sorted(balances.items())
    }


#: Four agents' enforced shares; the columns sum to the capacities.
STEADY_SHARES = np.array([[4.0, 1024.0], [8.0, 3072.0], [6.0, 4096.0], [6.0, 4096.0]])


def steady_epoch(names=("a", "b", "c", "d")):
    problem = AllocationProblem.from_arrays(
        names, np.full((4, 2), 0.5), (24.0, 12288.0), ("bw", "cache")
    )
    return Allocation(problem, STEADY_SHARES, "credit")


class TestHeldHandles:
    """Series are looked up once, then written through held children."""

    def test_no_registry_calls_after_the_first_epoch(self, registry_calls):
        # Unclipped, unchanging epochs: every series exists after the
        # first observe, so later ones touch only held children.
        registry = MetricsRegistry()
        mechanism = CreditMechanism(max_balance=100.0)
        enforced = steady_epoch()
        mechanism.observe(enforced, epoch=0, metrics=registry)
        assert registry_calls
        registry_calls.clear()
        for epoch in range(1, 6):
            mechanism.observe(enforced, epoch=epoch, metrics=registry)
        assert registry_calls == []
        balance = registry.get("repro_credit_balance", agent="a", resource="bw")
        assert balance.value == mechanism.balance("a")[0]

    def test_every_lookup_creates_a_series(self, registry_calls):
        # Clipping and churn add series over time; each is looked up once.
        registry = MetricsRegistry()
        mechanism = CreditMechanism(max_balance=0.05)
        rng = np.random.default_rng(3)
        for epoch in range(30):
            names = tuple(rng.choice(list(POOL), size=4, replace=False))
            mechanism.observe(steady_epoch(names), epoch=epoch, metrics=registry)
        assert registry.get("repro_credit_forfeited_total", agent=names[0]) is not None
        assert len(registry_calls) == len(set(registry_calls))

    def test_forgotten_agent_looks_its_series_up_again(self, registry_calls):
        registry = MetricsRegistry()
        mechanism = CreditMechanism(max_balance=100.0)
        enforced = steady_epoch()
        mechanism.observe(enforced, metrics=registry)
        mechanism.forget_agent("a")
        registry_calls.clear()
        mechanism.observe(enforced, metrics=registry)
        assert {labels for _, labels in registry_calls} == {
            (("agent", "a"),),
            (("agent", "a"), ("resource", "bw")),
            (("agent", "a"), ("resource", "cache")),
        }

    def test_a_new_registry_gets_its_own_series(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        mechanism = CreditMechanism(max_balance=100.0)
        enforced = steady_epoch()
        mechanism.observe(enforced, metrics=first)
        mechanism.observe(enforced, metrics=second)
        mechanism.observe(enforced, metrics=first)
        gauge = first.get("repro_credit_balance", agent="a", resource="cache")
        assert gauge.value == mechanism.balance("a")[1]
        assert second.get("repro_credit_balance", agent="a", resource="cache").value < gauge.value
