"""Tests for SI / EF / PE property checkers (§3, Eq. 11)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mechanism import Agent, Allocation, AllocationProblem, proportional_elasticity
from repro.core.properties import (
    check_fairness,
    envy_matrix,
    is_envy_free,
    is_pareto_efficient,
    mrs_spread,
    satisfies_sharing_incentives,
    sharing_incentive_margins,
    unfairness_index,
)
from repro.core.utility import CobbDouglasUtility


def paper_problem():
    return AllocationProblem(
        agents=[
            Agent("user1", CobbDouglasUtility((0.6, 0.4))),
            Agent("user2", CobbDouglasUtility((0.2, 0.8))),
        ],
        capacities=(24.0, 12.0),
    )


def random_problem(n_agents, seed, n_resources=2):
    rng = np.random.default_rng(seed)
    agents = [
        Agent(f"a{i}", CobbDouglasUtility(rng.uniform(0.05, 2.0, size=n_resources)))
        for i in range(n_agents)
    ]
    return AllocationProblem(agents, rng.uniform(5.0, 50.0, size=n_resources))


def make_allocation(problem, shares):
    return Allocation(problem=problem, shares=np.asarray(shares, dtype=float))


class TestSharingIncentives:
    def test_ref_satisfies_si_on_paper_example(self):
        allocation = proportional_elasticity(paper_problem())
        assert satisfies_sharing_incentives(allocation)

    def test_equal_split_is_si_boundary(self):
        problem = paper_problem()
        equal = np.tile(problem.equal_split, (2, 1))
        allocation = make_allocation(problem, equal)
        margins = sharing_incentive_margins(allocation)
        assert margins == pytest.approx([0.0, 0.0], abs=1e-12)
        assert satisfies_sharing_incentives(allocation)

    def test_starved_agent_violates_si(self):
        problem = paper_problem()
        shares = np.array([[23.0, 11.0], [1.0, 1.0]])
        allocation = make_allocation(problem, shares)
        assert not satisfies_sharing_incentives(allocation)
        assert sharing_incentive_margins(allocation)[1] < 0

    @given(
        n_agents=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60)
    def test_ref_always_satisfies_si(self, n_agents, seed):
        # §4.2's theorem, checked empirically over random populations.
        allocation = proportional_elasticity(random_problem(n_agents, seed))
        assert satisfies_sharing_incentives(allocation)


class TestEnvyFreeness:
    def test_ref_envy_free_on_paper_example(self):
        allocation = proportional_elasticity(paper_problem())
        assert is_envy_free(allocation)

    def test_envy_matrix_diagonal_zero(self):
        allocation = proportional_elasticity(paper_problem())
        matrix = envy_matrix(allocation)
        assert matrix[0, 0] == 0.0 and matrix[1, 1] == 0.0

    def test_obviously_envious_allocation_detected(self):
        problem = paper_problem()
        shares = np.array([[1.0, 1.0], [23.0, 11.0]])
        allocation = make_allocation(problem, shares)
        assert not is_envy_free(allocation)
        assert envy_matrix(allocation)[0, 1] > 0

    def test_zero_utility_agent_envies_positive_bundle(self):
        problem = paper_problem()
        shares = np.array([[0.0, 6.0], [24.0, 6.0]])
        allocation = make_allocation(problem, shares)
        assert envy_matrix(allocation)[0, 1] == np.inf

    def test_corner_allocations_are_envy_free(self):
        # §3.2: giving all of one resource to each user leaves both with
        # zero utility and no envy.
        problem = paper_problem()
        shares = np.array([[24.0, 0.0], [0.0, 12.0]])
        allocation = make_allocation(problem, shares)
        assert is_envy_free(allocation)

    @given(
        n_agents=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60)
    def test_ref_always_envy_free(self, n_agents, seed):
        allocation = proportional_elasticity(random_problem(n_agents, seed))
        assert is_envy_free(allocation)


class TestParetoEfficiency:
    def test_ref_is_pareto_efficient(self):
        allocation = proportional_elasticity(paper_problem())
        assert is_pareto_efficient(allocation)
        assert mrs_spread(allocation) < 1e-10

    def test_equal_split_usually_not_pe(self):
        # With heterogeneous preferences the equal split wastes trade
        # opportunities (MRS values differ).
        problem = paper_problem()
        equal = np.tile(problem.equal_split, (2, 1))
        allocation = make_allocation(problem, equal)
        assert not is_pareto_efficient(allocation)

    def test_eq10_tangency_on_contract_curve_point(self):
        # Hand-build an allocation satisfying Eq. 10 and check PE.
        problem = paper_problem()
        x1 = 10.0
        a = 0.6 / 0.4
        b = 0.2 / 0.8
        y1 = b * 12.0 * x1 / (a * (24.0 - x1) + b * x1)
        shares = np.array([[x1, y1], [24.0 - x1, 12.0 - y1]])
        allocation = make_allocation(problem, shares)
        assert is_pareto_efficient(allocation)

    def test_boundary_allocation_reports_not_pe(self):
        problem = paper_problem()
        shares = np.array([[24.0, 0.0], [0.0, 12.0]])
        allocation = make_allocation(problem, shares)
        assert not is_pareto_efficient(allocation)

    def test_mrs_spread_requires_interior(self):
        problem = paper_problem()
        shares = np.array([[24.0, 0.0], [0.0, 12.0]])
        with pytest.raises(ValueError, match="interior"):
            mrs_spread(make_allocation(problem, shares))

    @given(
        n_agents=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60)
    def test_ref_always_pe(self, n_agents, seed):
        allocation = proportional_elasticity(random_problem(n_agents, seed))
        assert is_pareto_efficient(allocation)


class TestUnfairnessIndex:
    def test_equal_split_of_identical_agents_is_one(self):
        agents = [Agent(f"a{i}", CobbDouglasUtility((0.5, 0.5))) for i in range(2)]
        problem = AllocationProblem(agents, (10.0, 10.0))
        allocation = proportional_elasticity(problem)
        assert unfairness_index(allocation) == pytest.approx(1.0)

    def test_skewed_allocation_has_large_index(self):
        problem = paper_problem()
        shares = np.array([[23.0, 11.0], [1.0, 1.0]])
        allocation = make_allocation(problem, shares)
        assert unfairness_index(allocation) > 2.0

    def test_zero_utility_gives_infinite_index(self):
        problem = paper_problem()
        shares = np.array([[24.0, 0.0], [0.0, 12.0]])
        allocation = make_allocation(problem, shares)
        assert unfairness_index(allocation) == np.inf


class TestFairnessReport:
    def test_ref_report_is_fair(self):
        report = check_fairness(proportional_elasticity(paper_problem()))
        assert report.is_fair
        assert report.sharing_incentives and report.envy_free and report.pareto_efficient

    def test_summary_contains_verdicts(self):
        report = check_fairness(proportional_elasticity(paper_problem()))
        text = report.summary()
        assert "sharing incentives" in text and "PASS" in text

    def test_violations_reported(self):
        problem = paper_problem()
        shares = np.array([[23.0, 11.0], [1.0, 1.0]])
        report = check_fairness(make_allocation(problem, shares))
        assert not report.is_fair
        assert "VIOLATED" in report.summary()

    def test_boundary_report_undefined_pe(self):
        problem = paper_problem()
        shares = np.array([[24.0, 0.0], [0.0, 12.0]])
        report = check_fairness(make_allocation(problem, shares))
        assert report.mrs_disagreement is None
        assert "UNDEFINED" in report.summary()


# ---------------------------------------------------------------------------
# The per-pair loops the vectorised checkers replaced, kept as the reference.


def loop_si_margins(allocation):
    problem = allocation.problem
    equal = problem.equal_split
    return np.array(
        [
            agent.utility.value(allocation.shares[i]) / agent.utility.value(equal) - 1.0
            for i, agent in enumerate(problem.agents)
        ]
    )


def loop_envy_matrix(allocation):
    problem = allocation.problem
    n = problem.n_agents
    matrix = np.zeros((n, n))
    for i, agent in enumerate(problem.agents):
        u_own = agent.utility.value(allocation.shares[i])
        for j in range(n):
            if i == j:
                continue
            u_other = agent.utility.value(allocation.shares[j])
            if u_own == 0.0:
                matrix[i, j] = np.inf if u_other > 0 else 0.0
            else:
                matrix[i, j] = u_other / u_own - 1.0
    return matrix


def loop_mrs_spread(allocation):
    directions = np.empty_like(allocation.shares)
    for i, agent in enumerate(allocation.problem.agents):
        grad = agent.utility.alpha / allocation.shares[i]
        directions[i] = grad / grad.sum()
    mean_dir = directions.mean(axis=0)
    return float(np.max(np.abs(directions - mean_dir) / mean_dir))


def loop_unfairness(allocation):
    problem = allocation.problem
    weighted = np.array(
        [
            agent.utility.value(allocation.shares[i])
            / agent.utility.value(problem.capacity_vector)
            for i, agent in enumerate(problem.agents)
        ]
    )
    if np.any(weighted == 0):
        return float("inf")
    return float(weighted.max() / weighted.min())


def _close(got, want, rtol=1e-12, atol=1e-12):
    np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


class TestVectorisedMatchesLoops:
    @given(
        n_agents=st.integers(min_value=1, max_value=9),
        n_resources=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        zeros=st.integers(min_value=0, max_value=4),
        scaled=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_checker_matches_its_loop(self, n_agents, n_resources, seed, zeros, scaled):
        # Random utilities (with scales, which must cancel) and random
        # shares with some entries zeroed: zero bundles exercise the
        # zero-utility envy rule and the -1 SI margin.
        rng = np.random.default_rng(seed)
        agents = [
            Agent(
                f"a{i}",
                CobbDouglasUtility(
                    rng.uniform(0.05, 2.0, size=n_resources),
                    scale=float(rng.uniform(0.5, 3.0)) if scaled else 1.0,
                ),
            )
            for i in range(n_agents)
        ]
        problem = AllocationProblem(agents, rng.uniform(5.0, 50.0, size=n_resources))
        shares = rng.uniform(0.0, 1.0, size=(n_agents, n_resources)) * problem.capacity_vector
        for _ in range(zeros):
            shares[rng.integers(n_agents), rng.integers(n_resources)] = 0.0
        allocation = make_allocation(problem, shares)

        _close(sharing_incentive_margins(allocation), loop_si_margins(allocation))
        envy, reference = envy_matrix(allocation), loop_envy_matrix(allocation)
        assert np.array_equal(np.isinf(envy), np.isinf(reference))
        finite = np.isfinite(reference)
        _close(envy[finite], reference[finite], rtol=1e-11)
        if np.all(shares > 0):
            _close(mrs_spread(allocation), loop_mrs_spread(allocation))
        _close(unfairness_index(allocation), loop_unfairness(allocation), rtol=1e-11)

    def test_zero_bundle_envies_only_valued_bundles(self):
        problem = AllocationProblem(
            [Agent(f"a{i}", CobbDouglasUtility((0.5, 0.5))) for i in range(3)],
            (24.0, 12.0),
        )
        shares = np.array([[0.0, 4.0], [12.0, 4.0], [12.0, 0.0]])
        matrix = envy_matrix(make_allocation(problem, shares))
        assert matrix[0].tolist() == [0.0, np.inf, 0.0]
        assert matrix[1, 0] == matrix[1, 2] == -1.0
        assert np.array_equal(matrix, loop_envy_matrix(make_allocation(problem, shares)))
