"""Mechanism registry: listings, capability flags, and the credit mechanism."""

import numpy as np
import pytest

from repro.core.mechanism import Agent, AllocationProblem, proportional_elasticity
from repro.core.registry import (
    MECHANISM_REGISTRY,
    CreditMechanism,
    Mechanism,
    MechanismRegistry,
    SolveContext,
    cli_mechanism_names,
    controller_mechanism_names,
    create_mechanism,
    hierarchical_mechanism_names,
    mechanism_names,
)
from repro.core.utility import CobbDouglasUtility
from repro.obs import MetricsRegistry


def _problem(alphas, capacities=(24.0, 12288.0)):
    agents = tuple(
        Agent(f"a{i}", CobbDouglasUtility(alpha)) for i, alpha in enumerate(alphas)
    )
    return AllocationProblem(agents, capacities, ("membw_gbps", "cache_kb"))


class TestRegistryListings:
    def test_all_legacy_mechanisms_are_registered(self):
        names = set(mechanism_names())
        assert {
            "ref",
            "max-welfare-fair",
            "max-welfare-unfair",
            "equal-slowdown",
            "drf",
            "equal-split-fallback",
            "credit",
        } <= names

    def test_one_shot_listing_matches_the_cli_choices(self):
        assert cli_mechanism_names() == (
            "drf",
            "equal-slowdown",
            "max-welfare-fair",
            "max-welfare-unfair",
            "ref",
        )

    def test_controller_listing_includes_credit_but_not_drf(self):
        names = controller_mechanism_names()
        assert "credit" in names
        assert "drf" not in names
        assert "equal-split-fallback" not in names

    def test_hierarchical_listing_is_ref_and_credit(self):
        assert hierarchical_mechanism_names() == ("credit", "ref")

    def test_flag_filtering_composes(self):
        assert set(mechanism_names(controller=True, fast_path=True)) == {
            "ref",
            "max-welfare-unfair",
            "credit",
        }
        assert set(mechanism_names(warm_startable=True)) == {
            "max-welfare-fair",
            "equal-slowdown",
        }

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(ValueError, match="unknown mechanism 'magic'"):
            create_mechanism("magic")

    def test_contains(self):
        assert "ref" in MECHANISM_REGISTRY
        assert "magic" not in MECHANISM_REGISTRY

    def test_registering_requires_a_unique_non_empty_name(self):
        registry = MechanismRegistry()

        class Nameless(Mechanism):
            name = ""

        with pytest.raises(ValueError, match="non-empty name"):
            registry.register(Nameless)

        class First(Mechanism):
            name = "dup"

        registry.register(First)

        class Second(Mechanism):
            name = "dup"

        with pytest.raises(ValueError, match="duplicate"):
            registry.register(Second)


class TestPortedMechanisms:
    def test_ref_matches_the_closed_form(self):
        problem = _problem([(0.3, 0.7), (0.8, 0.2)])
        ported = create_mechanism("ref").solve(problem)
        direct = proportional_elasticity(problem)
        assert np.allclose(ported.shares, direct.shares, atol=0.0, rtol=0.0)
        assert ported.mechanism == direct.mechanism

    def test_equal_split_fallback_splits_evenly(self):
        problem = _problem([(0.3, 0.7), (0.8, 0.2), (0.5, 0.5)])
        allocation = create_mechanism("equal-split-fallback").solve(problem)
        assert allocation.mechanism == "equal_split_fallback"
        assert np.allclose(
            allocation.shares, np.tile(problem.equal_split, (3, 1))
        )

    def test_fast_path_solves_count_into_metrics(self):
        problem = _problem([(0.3, 0.7), (0.8, 0.2)])
        metrics = MetricsRegistry()
        create_mechanism("ref").solve(problem, SolveContext(metrics=metrics))
        counter = metrics.get("repro_solver_fast_path_total", mechanism="ref")
        assert counter is not None and counter.value == 1

    def test_stateless_mechanisms_have_noop_state_hooks(self):
        mechanism = create_mechanism("ref")
        assert mechanism.observe(None) == ()
        assert mechanism.state_dict() == {}
        mechanism.load_state_dict({})
        mechanism.forget_agent("anyone")  # must not raise


class TestCreditMechanism:
    def test_zero_balances_reproduce_ref_exactly(self):
        problem = _problem([(0.3, 0.7), (0.8, 0.2), (0.5, 0.5)])
        credit = CreditMechanism().solve(problem)
        ref = proportional_elasticity(problem)
        assert np.allclose(credit.shares, ref.shares, atol=0.0, rtol=0.0)
        assert credit.mechanism == "credit"

    def test_banked_credit_buys_a_larger_share(self):
        problem = _problem([(0.5, 0.5), (0.5, 0.5)])
        mechanism = CreditMechanism()
        baseline = mechanism.solve(problem).shares[0].copy()
        mechanism.load_state_dict(
            {"balances": {"a0": [0.3, 0.3], "a1": [-0.3, -0.3]}}
        )
        biased = mechanism.solve(problem)
        assert np.all(biased.shares[0] > baseline)
        assert biased.is_feasible()

    def test_observe_is_zero_sum_while_unclipped(self):
        # A bank large enough for the bias equilibrium never clips, and
        # enforced allocations partition capacity, so balance updates
        # are exactly zero-sum per resource.
        problem = _problem([(0.1, 0.9), (0.9, 0.1), (0.5, 0.5)])
        mechanism = CreditMechanism(max_balance=5.0)
        for epoch in range(20):
            allocation = mechanism.solve(problem)
            assert not mechanism.observe(allocation, epoch=epoch)  # no clipping
            balances = np.vstack(
                [mechanism.balance(f"a{i}") for i in range(3)]
            )
            assert np.all(np.abs(balances.sum(axis=0)) <= 1e-9)

    def test_balances_stay_inside_the_bank_bound(self):
        problem = _problem([(0.1, 0.9), (0.9, 0.1), (0.5, 0.5)])
        mechanism = CreditMechanism(max_balance=0.4)
        for epoch in range(20):
            mechanism.observe(mechanism.solve(problem), epoch=epoch)
            balances = np.vstack(
                [mechanism.balance(f"a{i}") for i in range(3)]
            )
            assert np.all(np.abs(balances) <= 0.4 + 1e-12)

    def test_clipped_credit_is_forfeited_and_reported(self):
        problem = _problem([(0.05, 0.95), (0.95, 0.05)])
        mechanism = CreditMechanism(spend_rate=0.1, max_balance=0.2)
        metrics = MetricsRegistry()
        events = []
        for epoch in range(10):
            allocation = mechanism.solve(problem)
            events.extend(mechanism.observe(allocation, epoch, metrics=metrics))
        kinds = {kind for kind, _agent, _detail in events}
        assert kinds == {"credit_clipped"}
        forfeited = metrics.get("repro_credit_forfeited_total")
        assert forfeited is not None and forfeited.value > 0
        balances = metrics.get("repro_credit_balance", resource="membw_gbps")
        assert balances.count == 10 * 2  # every agent at every epoch
        assert -0.2 <= balances.min < 0 < balances.max <= 0.2

    def test_observe_emits_bank_spend_metrics(self):
        problem = _problem([(0.2, 0.8), (0.8, 0.2)])
        mechanism = CreditMechanism()
        metrics = MetricsRegistry()
        allocation = mechanism.solve(problem)
        mechanism.observe(allocation, epoch=0, metrics=metrics)
        banked = metrics.get("repro_credit_banked_total").value
        spent = metrics.get("repro_credit_spent_total").value
        assert banked == pytest.approx(spent, rel=1e-9)
        assert banked > 0

    def test_state_roundtrip(self):
        problem = _problem([(0.2, 0.8), (0.8, 0.2)])
        mechanism = CreditMechanism(spend_rate=3.0, max_balance=0.25)
        for epoch in range(5):
            mechanism.observe(mechanism.solve(problem), epoch)
        state = mechanism.state_dict()
        clone = CreditMechanism()
        clone.load_state_dict(state)
        assert clone.spend_rate == 3.0 and clone.max_balance == 0.25
        assert np.allclose(clone.balance("a0"), mechanism.balance("a0"))
        original = mechanism.solve(problem)
        restored = clone.solve(problem)
        assert np.allclose(restored.shares, original.shares, atol=0.0, rtol=0.0)

    def test_forget_agent_resets_its_balance(self):
        problem = _problem([(0.2, 0.8), (0.8, 0.2)])
        mechanism = CreditMechanism()
        mechanism.observe(mechanism.solve(problem), epoch=0)
        assert np.any(mechanism.balance("a0") != 0.0)
        mechanism.forget_agent("a0")
        assert np.all(mechanism.balance("a0") == 0.0)

    def test_degenerate_column_splits_by_credit_weight(self):
        # Cobb-Douglas forbids zero elasticities, so degenerate columns
        # are driven through a non-finite alpha (sanitized to zero).
        agents = (
            Agent("a0", CobbDouglasUtility((0.5, 0.5))),
            Agent("a1", CobbDouglasUtility((0.5, 0.5))),
        )
        problem = AllocationProblem(agents, (10.0, 10.0))
        mechanism = CreditMechanism(spend_rate=1.0)
        mechanism.load_state_dict({"balances": {"a0": [0.0, 0.0]}})

        class Degenerate:
            def rescaled_alpha_matrix(self):
                return np.array([[np.nan, 0.5], [np.nan, 0.5]])

            agents = problem.agents
            names = problem.names
            capacities = problem.capacities
            capacity_vector = problem.capacity_vector
            n_agents = 2
            n_resources = 2
            resource_names = problem.resource_names

        shares = mechanism._solve(Degenerate(), SolveContext()).shares
        assert np.allclose(shares[:, 0], [5.0, 5.0])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="spend_rate"):
            CreditMechanism(spend_rate=0.0)
        with pytest.raises(ValueError, match="max_balance"):
            CreditMechanism(max_balance=-1.0)
