"""The enforcement stage record: the latest epoch's shares, stage by stage.

``DynamicAllocator.stage_record`` holds one ``(S, N, R)`` stack per
epoch: the mechanism's solve, then the shares after each enforcement
stage.  The three tick-golden scenarios are driven tick by tick and the
stack is checked against the epoch's record after every tick; then the
SLSQP mechanism is checked to warm-start from its last slice only while
membership and capacity are unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dynamic import DynamicAllocator
from repro.obs import MetricsRegistry
from repro.workloads import get_workload

from .test_tick_golden import (
    FAULTS,
    N_TICKS,
    SCENARIOS,
    WORKLOADS,
    CobbDouglasMachine,
    _external_samples,
)

REL = 1e-9


def _scenario_ticks(name):
    """Yield ``(allocator, record, caps)`` after each tick of a tick-golden
    scenario; ``caps`` is the cap matrix the caps stage used (or None)."""
    config = SCENARIOS[name]
    workloads = {w: get_workload(w) for w in WORKLOADS}
    capacities = (6.4 * len(workloads), 1024.0 * len(workloads))
    machine = CobbDouglasMachine(config["seed"])
    allocator = DynamicAllocator(
        workloads,
        capacities=capacities,
        machine=machine,
        decay=config["decay"],
        seed=config["seed"],
        faults=FAULTS,
        metrics=MetricsRegistry(),
        mechanism=config["mechanism"],
        learn_demands=config["learn_demands"],
    )
    used = {}
    if allocator.learner is not None:
        allocator.add_agent("profile_free", None, workload_class="C")
        caps_for = allocator.learner.caps_for

        def spy(*args, **kwargs):
            used["caps"] = caps_for(*args, **kwargs)
            return used["caps"]

        allocator.learner.caps_for = spy
    rng = np.random.default_rng(config["seed"] + 1000)
    for epoch in range(N_TICKS):
        if epoch == 100:
            allocator.add_agent("late", get_workload("canneal"))
        if epoch == 200:
            allocator.remove_agent("cholesky")
        _external_samples(rng, allocator, machine, list(allocator.agent_names), capacities)
        used.clear()
        record = allocator.step(epoch, measure=epoch % 3 == 0)
        yield allocator, record, used.get("caps")


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_stage_record_invariants(scenario):
    for allocator, record, caps in _scenario_ticks(scenario):
        stages = allocator.stage_record
        learning = ("caps", "exploration") if allocator.learner is not None else ()
        assert stages.stages == ("solve", "floors") + learning
        assert stages.agents == record.agents
        assert stages.shares.shape == (len(stages.stages),) + record.allocation.shares.shape
        assert stages.shares[0].tobytes() == record.allocation.shares.tobytes()
        assert stages.shares[-1].tobytes() == record.enforced.shares.tobytes()
        assert np.all(stages.shares >= 0.0)
        capacity = np.asarray(allocator.capacities)
        sums = stages.shares.sum(axis=1)
        assert np.all(sums <= capacity * (1 + REL))
        # A column may fall short of capacity only where the caps stage
        # capped every agent in it (exploration keeps the sums it gets).
        for k, column in zip(*np.nonzero(np.abs(sums - capacity) > REL * capacity)):
            assert stages.stages[k] in learning, (record.epoch, stages.stages[k])
            at_caps = stages.shares[stages.stages.index("caps"), :, column]
            assert np.allclose(at_caps, caps[:, column], rtol=REL, atol=0.0)


def test_warm_start_reads_the_last_slice_while_membership_holds():
    allocator = DynamicAllocator(
        {name: get_workload(name) for name in ("canneal", "x264", "dedup")},
        capacities=(19.2, 3072.0),
        mechanism="max-welfare-fair",
    )
    impl = allocator._mechanism_impl
    solve = impl.solve
    seen = []

    def spy(problem, context):
        seen.append(context.warm_shares)
        return solve(problem, context)

    impl.solve = spy
    epochs = iter(range(100))

    def warm_shares():
        """The warm shares the next tick's solve receives."""
        allocator.step(next(epochs), measure=False)
        return seen[-1]

    def last_slice():
        return allocator.stage_record.shares[-1].tobytes()

    assert warm_shares() is None  # nothing recorded yet
    for _ in range(2):
        last = last_slice()
        assert warm_shares().tobytes() == last
    allocator.add_agent("late", get_workload("canneal"))
    assert warm_shares() is None
    last = last_slice()
    assert warm_shares().tobytes() == last
    allocator.remove_agent("x264")
    assert warm_shares() is None
    last = last_slice()
    assert warm_shares().tobytes() == last
    allocator.set_capacities((25.6, 4096.0))
    assert allocator.stage_record is None
    assert warm_shares() is None
    last = last_slice()
    assert warm_shares().tobytes() == last
