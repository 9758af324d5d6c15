"""Tests for the REF proportional-elasticity mechanism (§4.1, Eq. 13)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mechanism import Agent, Allocation, AllocationProblem, proportional_elasticity
from repro.core.utility import CobbDouglasUtility


def two_user_problem():
    """The paper's recurring example: Eq. 2 on 24 GB/s + 12 MB."""
    return AllocationProblem(
        agents=[
            Agent("user1", CobbDouglasUtility((0.6, 0.4))),
            Agent("user2", CobbDouglasUtility((0.2, 0.8))),
        ],
        capacities=(24.0, 12.0),
        resource_names=("membw", "cache"),
    )


def random_problem(n_agents, n_resources, seed):
    rng = np.random.default_rng(seed)
    agents = [
        Agent(f"a{i}", CobbDouglasUtility(rng.uniform(0.05, 2.0, size=n_resources)))
        for i in range(n_agents)
    ]
    capacities = rng.uniform(1.0, 100.0, size=n_resources)
    return AllocationProblem(agents, capacities)


class TestWorkedExample:
    def test_section_4_1_allocation(self):
        # §4.1: x1 = 18 GB/s, y1 = 4 MB; x2 = 6 GB/s, y2 = 8 MB.
        allocation = proportional_elasticity(two_user_problem())
        assert allocation["user1"] == pytest.approx([18.0, 4.0])
        assert allocation["user2"] == pytest.approx([6.0, 8.0])

    def test_mechanism_label(self):
        allocation = proportional_elasticity(two_user_problem())
        assert allocation.mechanism == "proportional_elasticity"

    def test_unscaled_utilities_give_same_allocation(self):
        # Eq. 12 re-scales internally, so reporting 2x elasticities (and
        # any positive scale) must not change the outcome.
        scaled = AllocationProblem(
            agents=[
                Agent("user1", CobbDouglasUtility((1.2, 0.8), scale=3.0)),
                Agent("user2", CobbDouglasUtility((0.4, 1.6), scale=0.1)),
            ],
            capacities=(24.0, 12.0),
        )
        allocation = proportional_elasticity(scaled)
        assert allocation["user1"] == pytest.approx([18.0, 4.0])
        assert allocation["user2"] == pytest.approx([6.0, 8.0])


class TestMechanismInvariants:
    @given(
        n_agents=st.integers(min_value=1, max_value=8),
        n_resources=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50)
    def test_capacity_fully_allocated(self, n_agents, n_resources, seed):
        problem = random_problem(n_agents, n_resources, seed)
        allocation = proportional_elasticity(problem)
        totals = allocation.shares.sum(axis=0)
        assert totals == pytest.approx(problem.capacity_vector)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50)
    def test_shares_strictly_positive(self, seed):
        problem = random_problem(4, 2, seed)
        allocation = proportional_elasticity(problem)
        assert np.all(allocation.shares > 0)

    def test_single_agent_gets_everything(self):
        problem = AllocationProblem(
            [Agent("only", CobbDouglasUtility((0.7, 0.3)))], (10.0, 20.0)
        )
        allocation = proportional_elasticity(problem)
        assert allocation["only"] == pytest.approx([10.0, 20.0])

    def test_identical_agents_split_equally(self):
        agents = [Agent(f"a{i}", CobbDouglasUtility((0.5, 0.5))) for i in range(4)]
        problem = AllocationProblem(agents, (8.0, 16.0))
        allocation = proportional_elasticity(problem)
        for i in range(4):
            assert allocation.shares[i] == pytest.approx([2.0, 4.0])

    def test_higher_elasticity_gets_larger_share(self):
        problem = two_user_problem()
        allocation = proportional_elasticity(problem)
        # user1 is more bandwidth-elastic, user2 more cache-elastic.
        assert allocation["user1"][0] > allocation["user2"][0]
        assert allocation["user2"][1] > allocation["user1"][1]

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30)
    def test_nash_product_optimality(self, seed):
        # §4.2 / Eq. 14: the REF allocation maximizes the product of
        # re-scaled utilities.  Compare against random feasible rivals.
        problem = random_problem(3, 2, seed)
        allocation = proportional_elasticity(problem)
        rescaled = [agent.utility.rescaled() for agent in problem.agents]

        def nash_product(shares):
            return np.prod([u.value(shares[i]) for i, u in enumerate(rescaled)])

        best = nash_product(allocation.shares)
        rng = np.random.default_rng(seed + 1)
        for _ in range(25):
            raw = rng.uniform(0.01, 1.0, size=allocation.shares.shape)
            rival = raw / raw.sum(axis=0) * problem.capacity_vector
            assert nash_product(rival) <= best * (1 + 1e-9)


class TestWeightedMechanism:
    def test_equal_weights_match_default(self):
        problem = two_user_problem()
        weighted = proportional_elasticity(problem, weights=[1.0, 1.0])
        plain = proportional_elasticity(problem)
        assert np.allclose(weighted.shares, plain.shares)
        assert weighted.mechanism == "weighted_proportional_elasticity"

    def test_weight_scale_invariant(self):
        problem = two_user_problem()
        a = proportional_elasticity(problem, weights=[2.0, 1.0])
        b = proportional_elasticity(problem, weights=[4.0, 2.0])
        assert np.allclose(a.shares, b.shares)

    def test_heavier_agent_gets_more_of_everything(self):
        problem = two_user_problem()
        plain = proportional_elasticity(problem)
        favoured = proportional_elasticity(problem, weights=[3.0, 1.0])
        assert np.all(favoured.shares[0] > plain.shares[0])

    def test_matches_unequal_income_ceei(self):
        from repro.core.ceei import competitive_equilibrium

        problem = two_user_problem()
        weighted = proportional_elasticity(problem, weights=[2.0, 1.0])
        market = competitive_equilibrium(problem, incomes=[2.0, 1.0])
        assert np.allclose(weighted.shares, market.allocation.shares)

    def test_weighted_allocation_still_pareto_efficient(self):
        from repro.core.properties import is_pareto_efficient

        problem = two_user_problem()
        weighted = proportional_elasticity(problem, weights=[5.0, 1.0])
        assert is_pareto_efficient(weighted)

    def test_rejects_bad_weights(self):
        problem = two_user_problem()
        with pytest.raises(ValueError, match="one entry per agent"):
            proportional_elasticity(problem, weights=[1.0])
        with pytest.raises(ValueError, match="strictly positive"):
            proportional_elasticity(problem, weights=[1.0, 0.0])


class TestAllocationProblemValidation:
    def test_rejects_no_agents(self):
        with pytest.raises(ValueError, match="at least one agent"):
            AllocationProblem([], (1.0,))

    def test_rejects_no_resources(self):
        with pytest.raises(ValueError, match="at least one resource"):
            AllocationProblem([Agent("a", CobbDouglasUtility((1.0,)))], ())

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError, match="strictly positive"):
            AllocationProblem([Agent("a", CobbDouglasUtility((1.0,)))], (0.0,))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="resources"):
            AllocationProblem([Agent("a", CobbDouglasUtility((0.5, 0.5)))], (1.0,))

    def test_rejects_duplicate_agent_names(self):
        agents = [
            Agent("dup", CobbDouglasUtility((0.5, 0.5))),
            Agent("dup", CobbDouglasUtility((0.3, 0.7))),
        ]
        with pytest.raises(ValueError, match="unique"):
            AllocationProblem(agents, (1.0, 1.0))

    def test_rejects_wrong_resource_name_count(self):
        with pytest.raises(ValueError, match="resource names"):
            AllocationProblem(
                [Agent("a", CobbDouglasUtility((0.5, 0.5)))], (1.0, 1.0), ("only_one",)
            )

    def test_default_resource_names(self):
        problem = AllocationProblem(
            [Agent("a", CobbDouglasUtility((0.5, 0.5)))], (1.0, 1.0)
        )
        assert problem.resource_names == ("r0", "r1")

    def test_equal_split(self):
        problem = two_user_problem()
        assert problem.equal_split == pytest.approx([12.0, 6.0])

    def test_rescaled_alpha_matrix_rows_sum_to_one(self):
        matrix = two_user_problem().rescaled_alpha_matrix()
        assert matrix.sum(axis=1) == pytest.approx([1.0, 1.0])

    def test_raw_alpha_matrix(self):
        matrix = two_user_problem().raw_alpha_matrix()
        assert matrix[0] == pytest.approx([0.6, 0.4])


class TestAllocationApi:
    def test_getitem_unknown_agent(self):
        allocation = proportional_elasticity(two_user_problem())
        with pytest.raises(KeyError, match="nobody"):
            allocation["nobody"]

    def test_utilities_in_agent_order(self):
        allocation = proportional_elasticity(two_user_problem())
        utilities = allocation.utilities()
        assert utilities[0] == pytest.approx(18.0**0.6 * 4.0**0.4)
        assert utilities[1] == pytest.approx(6.0**0.2 * 8.0**0.8)

    def test_fractions_sum_to_one_per_resource(self):
        allocation = proportional_elasticity(two_user_problem())
        assert allocation.fractions().sum(axis=0) == pytest.approx([1.0, 1.0])

    def test_is_feasible(self):
        allocation = proportional_elasticity(two_user_problem())
        assert allocation.is_feasible()

    def test_infeasible_detected(self):
        problem = two_user_problem()
        shares = np.array([[20.0, 8.0], [20.0, 8.0]])
        allocation = Allocation(problem=problem, shares=shares)
        assert not allocation.is_feasible()

    def test_rejects_wrong_share_shape(self):
        problem = two_user_problem()
        with pytest.raises(ValueError, match="shape"):
            Allocation(problem=problem, shares=np.ones((3, 2)))

    def test_rejects_negative_shares(self):
        problem = two_user_problem()
        with pytest.raises(ValueError, match="non-negative"):
            Allocation(problem=problem, shares=np.array([[-1.0, 1.0], [1.0, 1.0]]))

    def test_as_dict(self):
        allocation = proportional_elasticity(two_user_problem())
        mapping = allocation.as_dict()
        assert mapping["user1"]["membw"] == pytest.approx(18.0)
        assert mapping["user2"]["cache"] == pytest.approx(8.0)

    def test_summary_mentions_agents_and_resources(self):
        summary = proportional_elasticity(two_user_problem()).summary()
        assert "user1" in summary and "membw" in summary and "cache" in summary


class _DegenerateReportProblem(AllocationProblem):
    """A problem whose reported elasticity matrix is injected verbatim.

    Models a broken upstream fit pipeline (the mechanism itself must not
    crash on what it is handed)."""

    def with_reports(self, matrix):
        object.__setattr__(self, "_matrix", np.asarray(matrix, dtype=float))
        return self

    def rescaled_alpha_matrix(self):
        return self._matrix.copy()


class TestDegenerateReports:
    """Regression: a zero (or non-finite) elasticity column must not

    produce NaN shares — the resource nobody wants is equal-split."""

    def _problem(self, matrix):
        return _DegenerateReportProblem(
            agents=[
                Agent("a", CobbDouglasUtility((0.5, 0.5))),
                Agent("b", CobbDouglasUtility((0.5, 0.5))),
            ],
            capacities=(24.0, 12.0),
        ).with_reports(matrix)

    def test_zero_column_equal_split(self):
        allocation = proportional_elasticity(self._problem([[1.0, 0.0], [1.0, 0.0]]))
        assert np.all(np.isfinite(allocation.shares))
        # Resource 1 had denom == 0: equal split.
        assert allocation.shares[:, 1] == pytest.approx([6.0, 6.0])
        # Resource 0 still allocated proportionally.
        assert allocation.shares[:, 0] == pytest.approx([12.0, 12.0])
        assert allocation.is_feasible()

    def test_nan_reports_equal_split_that_resource(self):
        allocation = proportional_elasticity(
            self._problem([[0.7, float("nan")], [0.3, 0.5]])
        )
        assert np.all(np.isfinite(allocation.shares))
        assert allocation.shares[:, 1] == pytest.approx([6.0, 6.0])
        assert allocation.is_feasible()

    def test_all_zero_reports_give_equal_split(self):
        allocation = proportional_elasticity(self._problem(np.zeros((2, 2))))
        assert allocation.shares[0] == pytest.approx([12.0, 6.0])
        assert allocation.shares[1] == pytest.approx([12.0, 6.0])

    def test_allocation_rejects_non_finite_shares(self):
        problem = two_user_problem()
        shares = np.array([[np.nan, 4.0], [6.0, 8.0]])
        with pytest.raises(ValueError, match="finite"):
            Allocation(problem=problem, shares=shares)


class TestFloorProjection:
    def test_identity_when_floors_slack(self):
        from repro.core.mechanism import apply_allocation_floors

        allocation = proportional_elasticity(two_user_problem())
        floored = apply_allocation_floors(allocation, (0.1, 0.1))
        assert floored.shares == pytest.approx(allocation.shares)
        assert floored.mechanism.endswith("+floors")

    def test_never_exceeds_capacity_unlike_clamping(self):
        from repro.core.mechanism import apply_allocation_floors

        problem = AllocationProblem(
            agents=[
                Agent(f"a{i}", CobbDouglasUtility((0.5, 0.5))) for i in range(4)
            ],
            capacities=(24.0, 12.0),
        )
        # Extremely skewed shares: three agents near zero bandwidth.
        shares = np.array(
            [[23.7, 3.0], [0.1, 3.0], [0.1, 3.0], [0.1, 3.0]]
        )
        allocation = Allocation(problem=problem, shares=shares)
        floored = apply_allocation_floors(allocation, (2.0, 1.0))
        assert floored.is_feasible()
        assert np.all(floored.shares[:, 0] >= 2.0 - 1e-12)
