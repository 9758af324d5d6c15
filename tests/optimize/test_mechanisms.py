"""Tests for the evaluation mechanisms (§4.5, §5.5, Figs. 10-14)."""

import numpy as np
import pytest

from repro.core.mechanism import Agent, AllocationProblem, proportional_elasticity
from repro.core.registry import MECHANISM_REGISTRY, create_mechanism
from repro.core.properties import (
    check_fairness,
    is_envy_free,
    satisfies_sharing_incentives,
)
from repro.core.utility import CobbDouglasUtility
from repro.core.welfare import nash_welfare, weighted_system_throughput, weighted_utilities
from repro.experiments.throughput import MECHANISM_ORDER
from repro.optimize.mechanisms import equal_slowdown, max_nash_welfare, utilitarian_welfare


@pytest.fixture
def paper_problem():
    return AllocationProblem(
        agents=[
            Agent("user1", CobbDouglasUtility((0.6, 0.4))),
            Agent("user2", CobbDouglasUtility((0.2, 0.8))),
        ],
        capacities=(24.0, 12.0),
    )


@pytest.fixture
def asymmetric_problem():
    # One intense agent, one nearly-flat agent — the freqmine/linear
    # pattern where equal slowdown misbehaves (Example 3 shape).
    return AllocationProblem(
        agents=[
            Agent("light", CobbDouglasUtility((0.05, 0.12))),
            Agent("heavy", CobbDouglasUtility((0.45, 0.90))),
        ],
        capacities=(24.0, 12.0),
    )


class TestMaxNashWelfare:
    def test_closed_form_matches_numeric(self, paper_problem):
        closed = max_nash_welfare(paper_problem, fair=False)
        numeric = max_nash_welfare(paper_problem, fair=False, numeric=True)
        assert numeric.shares == pytest.approx(closed.shares, rel=1e-3)

    def test_unfair_closed_form_uses_raw_elasticities(self):
        # With raw (un-rescaled) elasticities differing in total weight,
        # the unfair optimum differs from REF's re-scaled shares.
        problem = AllocationProblem(
            agents=[
                Agent("a", CobbDouglasUtility((1.8, 0.2))),
                Agent("b", CobbDouglasUtility((0.1, 0.4))),
            ],
            capacities=(24.0, 12.0),
        )
        unfair = max_nash_welfare(problem, fair=False)
        ref = proportional_elasticity(problem)
        assert not np.allclose(unfair.shares, ref.shares, rtol=1e-3)

    def test_unfair_is_welfare_upper_bound(self, paper_problem):
        unfair = max_nash_welfare(paper_problem, fair=False)
        for name in ("ref", "equal-slowdown"):
            other = create_mechanism(name).solve(paper_problem)
            assert nash_welfare(unfair) >= nash_welfare(other) * (1 - 1e-6)

    def test_fair_variant_satisfies_fairness(self, paper_problem):
        fair = max_nash_welfare(paper_problem, fair=True)
        report = check_fairness(fair, pe_rtol=1e-2)
        assert report.sharing_incentives and report.envy_free

    def test_fair_matches_ref_on_rescaled_utilities(self, paper_problem):
        # §5.5's compelling result: among fair mechanisms, explicitly
        # optimizing welfare gains nothing over REF's closed form here.
        fair = max_nash_welfare(paper_problem, fair=True)
        ref = proportional_elasticity(paper_problem)
        assert weighted_system_throughput(fair) == pytest.approx(
            weighted_system_throughput(ref), rel=1e-3
        )


class TestEqualSlowdown:
    def test_equalizes_weighted_utilities(self, paper_problem):
        allocation = equal_slowdown(paper_problem)
        utilities = weighted_utilities(allocation)
        assert utilities.max() / utilities.min() == pytest.approx(1.0, abs=1e-3)

    def test_equalizes_for_four_agents(self):
        rng = np.random.default_rng(5)
        agents = [
            Agent(f"a{i}", CobbDouglasUtility(rng.uniform(0.1, 1.0, size=2)))
            for i in range(4)
        ]
        problem = AllocationProblem(agents, (24.0, 12.0))
        allocation = equal_slowdown(problem)
        utilities = weighted_utilities(allocation)
        assert utilities.max() / utilities.min() == pytest.approx(1.0, abs=5e-3)

    def test_violates_si_or_ef_on_asymmetric_pair(self, asymmetric_problem):
        # The paper's core counterexamples (Examples 2-3): equalizing
        # slowdown starves the flat agent below the equal split.
        allocation = equal_slowdown(asymmetric_problem)
        violations = (
            not satisfies_sharing_incentives(allocation, rtol=1e-4)
            or not is_envy_free(allocation, rtol=1e-4)
        )
        assert violations

    def test_feasible(self, paper_problem):
        allocation = equal_slowdown(paper_problem)
        assert allocation.is_feasible(tol=1e-6)


class TestUtilitarian:
    def test_at_least_as_good_as_ref_in_total_welfare(self, paper_problem):
        utilitarian = utilitarian_welfare(paper_problem, n_starts=3)
        ref = proportional_elasticity(paper_problem)
        assert weighted_system_throughput(utilitarian) >= (
            weighted_system_throughput(ref) - 1e-6
        )

    def test_fair_variant_obeys_si_and_ef(self, paper_problem):
        allocation = utilitarian_welfare(paper_problem, fair=True, n_starts=3)
        assert satisfies_sharing_incentives(allocation, rtol=1e-4)
        assert is_envy_free(allocation, rtol=1e-4)

    def test_deterministic_given_seed(self, paper_problem):
        a = utilitarian_welfare(paper_problem, n_starts=3, seed=1)
        b = utilitarian_welfare(paper_problem, n_starts=3, seed=1)
        assert a.shares == pytest.approx(b.shares)


class TestFigureMechanisms:
    def test_four_paper_mechanisms_in_legend_order(self):
        labels = [MECHANISM_REGISTRY.get(name).label for name in MECHANISM_ORDER]
        assert labels == [
            "Max Welfare w/ Fairness",
            "Proportional Elasticity w/ Fairness",
            "Max Welfare w/o Fairness",
            "Equal Slowdown w/o Fairness",
        ]

    def test_all_mechanisms_feasible(self, paper_problem):
        for name in MECHANISM_ORDER:
            allocation = create_mechanism(name).solve(paper_problem)
            assert allocation.is_feasible(tol=1e-6), name

    def test_fair_mechanisms_are_fair(self, paper_problem):
        for name in ("max-welfare-fair", "ref"):
            allocation = create_mechanism(name).solve(paper_problem)
            assert satisfies_sharing_incentives(allocation, rtol=1e-4), name
            assert is_envy_free(allocation, rtol=1e-4), name
