"""Tests for the controller's solver routing: mechanism selection,
closed-form fast path, SLSQP warm starts, and batched refits."""

import numpy as np
import pytest

from repro.core.mechanism import (
    Agent,
    AllocationProblem,
    apply_allocation_floors,
    proportional_elasticity,
)
from repro.dynamic import DynamicAllocator
from repro.dynamic.controller import RESOURCE_NAMES
from repro.obs import MetricsRegistry
from repro.profiling.online import OnlineProfiler
from repro.workloads import get_workload

CAPACITIES = (12.8, 2048.0)


def make_allocator(**kwargs):
    defaults = dict(
        workloads={
            "freqmine": get_workload("freqmine"),
            "dedup": get_workload("dedup"),
        },
        capacities=CAPACITIES,
        seed=7,
        metrics=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return DynamicAllocator(**defaults)


class TestMechanismSelection:
    def test_rejects_unknown_mechanism(self):
        with pytest.raises(ValueError, match="mechanism"):
            make_allocator(mechanism="magic")

    @pytest.mark.parametrize("name", DynamicAllocator.MECHANISM_NAMES)
    def test_all_mechanisms_run_feasibly(self, name):
        allocator = make_allocator(mechanism=name)
        result = allocator.run(3)
        assert result.all_feasible()

    def test_default_is_ref(self):
        assert make_allocator().mechanism == "ref"


class TestFastPath:
    def test_ref_counts_fast_path_and_no_warm_starts(self):
        allocator = make_allocator()
        allocator.run(4)
        fast = allocator.metrics.get("repro_solver_fast_path_total", mechanism="ref")
        assert fast is not None and fast.value == 4
        # The closed form never touches the warm-start machinery.
        for outcome in ("hit", "miss"):
            assert (
                allocator.metrics.get(
                    "repro_solver_warm_starts_total",
                    mechanism="ref",
                    outcome=outcome,
                )
                is None
            )

    def test_unfair_welfare_uses_fast_path(self):
        allocator = make_allocator(mechanism="max-welfare-unfair")
        allocator.run(2)
        fast = allocator.metrics.get(
            "repro_solver_fast_path_total", mechanism="max-welfare-unfair"
        )
        assert fast is not None and fast.value == 2


class TestWarmStarts:
    @pytest.mark.parametrize("name", ["max-welfare-fair", "equal-slowdown"])
    def test_first_epoch_misses_then_hits(self, name):
        allocator = make_allocator(mechanism=name)
        allocator.run(3)
        misses = allocator.metrics.get(
            "repro_solver_warm_starts_total", mechanism=name, outcome="miss"
        )
        hits = allocator.metrics.get(
            "repro_solver_warm_starts_total", mechanism=name, outcome="hit"
        )
        assert misses is not None and misses.value == 1
        assert hits is not None and hits.value == 2

    def test_churn_invalidates_warm_start(self):
        from repro.dynamic import ChurnEvent, ChurnSchedule

        allocator = make_allocator(mechanism="max-welfare-fair")
        churn = ChurnSchedule(
            [ChurnEvent(2, "add", "late", get_workload("canneal"))]
        )
        allocator.run(4, churn=churn)
        misses = allocator.metrics.get(
            "repro_solver_warm_starts_total",
            mechanism="max-welfare-fair",
            outcome="miss",
        )
        # Epoch 0 (no history) and epoch 2 (membership changed) miss.
        assert misses is not None and misses.value == 2


def eager_reference_shares(names, ticks, decay=0.85):
    """What a per-sample-refitting allocator enforces, tick by tick.

    One :class:`OnlineProfiler` per agent re-fits on every accepted
    sample; each tick then runs Eq. 13 on their utilities and the floor
    projection — the reference the batched tick must reproduce.
    """
    profilers = {name: OnlineProfiler(decay=decay) for name in names}
    floors = (DynamicAllocator.MIN_BANDWIDTH_GBPS, DynamicAllocator.MIN_CACHE_KB)
    for tick in ticks:
        for name, bundle, ipc in tick:
            profilers[name].observe(bundle, ipc)
        problem = AllocationProblem(
            [Agent(name, profilers[name].utility) for name in names],
            CAPACITIES,
            RESOURCE_NAMES,
        )
        enforced = apply_allocation_floors(proportional_elasticity(problem), floors)
        yield enforced.shares, {name: p.report_elasticities() for name, p in profilers.items()}


def sample_stream(names, epochs, per_tick, seed=0):
    rng = np.random.default_rng(seed)
    truth = {"freqmine": (0.2, 0.8), "dedup": (0.7, 0.3)}
    ticks = []
    for _ in range(epochs):
        tick = []
        for _ in range(per_tick):
            for name in names:
                bundle = tuple(rng.uniform(0.5, 1.5, size=2) * np.asarray(CAPACITIES) / 2.0)
                ipc = float(np.prod(np.asarray(bundle) ** np.asarray(truth[name])))
                tick.append((name, bundle, ipc * float(np.exp(rng.normal(0.0, 0.02)))))
        ticks.append(tick)
    return ticks


class TestBatchRefit:
    def test_batched_run_matches_eager_run(self):
        allocator = make_allocator()
        names = list(allocator.agent_names)
        ticks = sample_stream(names, epochs=10, per_tick=3)
        reference = eager_reference_shares(names, ticks)
        for epoch, (tick, (shares, reports)) in enumerate(zip(ticks, reference)):
            for name, bundle, ipc in tick:
                allocator.observe_sample(name, bundle, ipc)
            record = allocator.step(epoch, measure=False)
            assert np.max(np.abs(record.enforced.shares - shares)) < 1e-9
        for name in names:
            assert record.reported_alpha[name] == pytest.approx(reports[name], abs=1e-12)

    def test_batch_fit_metrics(self):
        allocator = make_allocator()
        allocator.run(5)
        fits = allocator.metrics.get("repro_solver_batch_fits_total")
        assert fits is not None and fits.value > 0
        agents = allocator.metrics.get("repro_solver_batch_fit_agents")
        assert agents is not None and agents.count == fits.value

    def test_external_samples_deferred_to_tick(self):
        allocator = make_allocator()
        rng = np.random.default_rng(0)
        record = allocator.step(0, measure=False)
        for _ in range(8):
            for name in allocator.agent_names:
                bundle = rng.uniform(0.5, 1.5, size=2) * np.asarray(
                    CAPACITIES
                ) / 2.0
                workload = {"freqmine": (0.2, 0.8), "dedup": (0.7, 0.3)}[name]
                ipc = float(np.prod(np.asarray(bundle) ** np.asarray(workload)))
                allocator.observe_sample(name, tuple(bundle), ipc)
        # Nothing refit yet: samples wait for the next tick.
        fits_before = allocator.metrics.get("repro_solver_batch_fits_total")
        assert fits_before is None or fits_before.value == 0
        record = allocator.step(1, measure=False)
        fits_after = allocator.metrics.get("repro_solver_batch_fits_total")
        assert fits_after is not None and fits_after.value == 1
        assert record.fit_condition["dedup"] < 1e8
