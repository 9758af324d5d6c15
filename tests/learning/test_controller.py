"""DemandLearner: blended reports, perturbation, caps, convergence."""

import numpy as np
import pytest

from repro.core.fitting import fit_cobb_douglas_batch
from repro.learning import DemandLearner, LearnerConfig
from repro.obs import MetricsRegistry
from repro.profiling.online import AgentTable, OnlineProfiler

FLOORS = (0.4, 64.0)


def agent_table(name="a"):
    """A one-row agent table holding agent ``name``."""
    table = AgentTable()
    table.add(name)
    return table


def feed(table, alpha, n, seed=0):
    """Observe ``n`` exact samples into row 0, then run the tick's re-fit."""
    rng = np.random.default_rng(seed)
    from repro.core.utility import CobbDouglasUtility

    utility = CobbDouglasUtility(alpha)
    for _ in range(n):
        allocation = rng.uniform(0.5, 20.0, size=2)
        table.observe(0, allocation, utility.value(allocation))
    refit(table)


def refit(table):
    """One tick's re-fit of ``table``: the profiler protocol over its rows."""
    profiler = OnlineProfiler.over(table)
    if profiler.needs_refit:
        profiler.apply_fit(fit_cobb_douglas_batch(profiler.fit_inputs().moments))


class TestConfig:
    def test_defaults_validate(self):
        LearnerConfig()

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"epsilon0": 0.2, "epsilon_min": 0.5}, "epsilon_min"),
            ({"epsilon_decay": 0.0}, "epsilon_decay"),
            ({"perturb_width": 1.5}, "perturb_width"),
            ({"confidence_samples": 0}, "confidence_samples"),
            ({"convergence_tol": 0.0}, "convergence_tol/window"),
            ({"rearm_drift": 0.01}, "rearm_drift"),
        ],
    )
    def test_rejects_bad_knobs(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LearnerConfig(**kwargs)


class TestReports:
    def test_unfitted_agent_reports_its_prior(self):
        learner = DemandLearner()
        learner.register("a")
        table = agent_table()
        assert learner.confidence(table)[0] == 0.0
        assert learner.report(table)[0] == pytest.approx([0.5, 0.5])

    def test_confidence_ramps_with_samples(self):
        learner = DemandLearner(config=LearnerConfig(confidence_samples=10))
        learner.register("a")
        table = agent_table()
        feed(table, (0.8, 0.2), 5)
        assert learner.confidence(table)[0] == pytest.approx(0.5)
        feed(table, (0.8, 0.2), 10, seed=1)
        assert learner.confidence(table)[0] == 1.0

    def test_blend_moves_from_prior_to_fit(self):
        learner = DemandLearner(config=LearnerConfig(confidence_samples=10))
        learner.register("a")
        table = agent_table()
        feed(table, (0.9, 0.1), 5)
        half = learner.report(table)[0]
        fitted = table.report[0].copy()
        expected = 0.5 * np.array([0.5, 0.5]) + 0.5 * fitted
        assert half == pytest.approx(expected / expected.sum())
        feed(table, (0.9, 0.1), 10, seed=1)
        assert learner.report(table)[0] == pytest.approx(fitted, rel=1e-6)

    def test_report_always_a_valid_rescaled_vector(self):
        learner = DemandLearner()
        learner.register("a")
        table = agent_table()
        feed(table, (0.7, 0.3), 30)
        report = learner.report(table)[0]
        assert report.sum() == pytest.approx(1.0)
        assert np.all(report > 0)

    def test_unregistered_agent_passes_through(self):
        learner = DemandLearner()
        table = agent_table("profiled")
        feed(table, (0.7, 0.3), 30)
        assert learner.report(table)[0] == pytest.approx(
            table.report[0]
        )

    def test_register_is_idempotent(self):
        learner = DemandLearner()
        learner.register("a", cls="C")
        state = learner.state("a")
        learner.register("a", cls="M")
        assert learner.state("a") is state
        assert state.cls == "C"

    def test_forget_drops_state(self):
        learner = DemandLearner()
        learner.register("a")
        learner.forget("a")
        assert learner.state("a") is None
        learner.forget("a")  # no-op


class TestPriorFeedback:
    def test_confident_fit_feeds_the_store_once(self):
        learner = DemandLearner(prior="centroid")
        learner.register("a", cls="C")
        table = agent_table()
        feed(table, (0.8, 0.2), 20)
        learner.note_fit(table, 0)
        learner.note_fit(table, 0)
        assert learner.priors.observations("C") == 1
        # The next C agent starts from the learned centroid, not equal.
        learner.register("b", cls="C")
        assert learner.state("b").prior == pytest.approx([0.8, 0.2], rel=1e-5)

    def test_unconfident_fit_does_not_feed(self):
        learner = DemandLearner(prior="centroid")
        learner.register("a", cls="C")
        table = agent_table()
        feed(table, (0.8, 0.2), 5)
        learner.note_fit(table, 0)
        assert learner.priors.observations("C") == 0


class TestPerturb:
    def _learner(self, epsilon=1.0):
        config = LearnerConfig(epsilon0=epsilon, epsilon_min=epsilon)
        return DemandLearner(config=config, seed=7)

    def test_perturbation_preserves_column_sums_and_floors(self):
        learner = self._learner(epsilon=1.0)
        names = ("a", "b", "c")
        for name in names:
            learner.register(name)
        shares = np.array([[10.0, 4000.0], [8.0, 2000.0], [7.6, 2192.0]])
        out, explored = learner.perturb(shares, names, FLOORS)
        assert set(explored) == set(names)
        assert not np.allclose(out, shares)
        assert out.sum(axis=0) == pytest.approx(shares.sum(axis=0), rel=1e-9)
        assert np.all(out >= np.asarray(FLOORS) - 1e-12)

    def test_epsilon_zero_never_perturbs(self):
        learner = self._learner(epsilon=0.0)
        learner.register("a")
        shares = np.array([[10.0, 4000.0]])
        out, explored = learner.perturb(shares, ("a",), FLOORS)
        assert explored == ()
        assert np.array_equal(out, shares)

    def test_non_learning_agents_untouched(self):
        learner = self._learner(epsilon=1.0)
        learner.register("learned")
        shares = np.array([[10.0, 4000.0], [8.0, 2000.0]])
        out, explored = learner.perturb(shares, ("learned", "profiled"), FLOORS)
        assert explored == ("learned",)
        # Column renormalization may move the profiled agent slightly,
        # but the perturbation factor only ever applies to the learner.
        assert out.sum(axis=0) == pytest.approx(shares.sum(axis=0), rel=1e-9)

    def test_exploration_fraction_gauge(self):
        registry = MetricsRegistry()
        learner = DemandLearner(
            config=LearnerConfig(epsilon0=1.0, epsilon_min=1.0),
            metrics=registry,
            seed=3,
        )
        learner.register("a")
        learner.perturb(np.array([[10.0, 4000.0]]), ("a",), FLOORS)
        gauge = registry.gauge("repro_learning_exploration_fraction")
        assert gauge.value == 1.0


class TestCaps:
    def test_caps_require_confidence(self):
        learner = DemandLearner()
        learner.register("a")
        table = agent_table()
        caps = learner.caps_for(table, FLOORS)
        assert np.all(np.isinf(caps))

    def test_apply_caps_counts_events(self):
        registry = MetricsRegistry()
        learner = DemandLearner(metrics=registry)
        learner.register("a")
        table = AgentTable()
        table.add("a")
        table.add("b")  # not learning: never capped
        # A response flat in resource 1: performance tracks resource 0.
        rng = np.random.default_rng(2)
        for _ in range(20):
            allocation = rng.uniform((1.0, 200.0), (10.0, 3000.0))
            table.observe(0, allocation, float(allocation[0] ** 0.9))
        refit(table)
        shares = np.array([[12.0, 4096.0], [13.6, 4096.0]])
        out, capped = learner.apply_caps(shares, table, FLOORS)
        assert capped >= 1
        assert out[0, 1] < shares[0, 1]  # the saturated entry shrank
        assert out.sum(axis=0)[1] == pytest.approx(shares.sum(axis=0)[1])
        counter = registry.counter("repro_learning_cap_events_total")
        assert counter.value == capped


class TestConvergence:
    def _converged_learner(self):
        config = LearnerConfig(
            epsilon0=0.0,
            epsilon_min=0.0,
            confidence_samples=10,
            convergence_window=3,
        )
        learner = DemandLearner(config=config)
        learner.register("a")
        table = agent_table()
        feed(table, (0.8, 0.2), 20)
        return learner, table

    def test_stable_reports_converge(self):
        learner, table = self._converged_learner()
        converged = []
        for epoch in range(6):
            converged += learner.note_epoch(epoch, table)
        assert converged == ["a"]
        assert learner.state("a").converged_epoch is not None

    def test_drift_rearms_exploration(self):
        learner, table = self._converged_learner()
        for epoch in range(6):
            learner.note_epoch(epoch, table)
        assert learner.state("a").converged_epoch is not None
        # A phase change: the report jumps far beyond rearm_drift.
        feed(table, (0.05, 0.95), 40, seed=9)
        learner.note_epoch(6, table)
        assert learner.state("a").converged_epoch is None
        assert learner.state("a").epsilon == learner.config.epsilon0

    def test_epsilon_decays_to_floor(self):
        config = LearnerConfig(epsilon0=0.9, epsilon_min=0.1, epsilon_decay=0.5)
        learner = DemandLearner(config=config)
        learner.register("a")
        table = agent_table()
        for epoch in range(10):
            learner.note_epoch(epoch, table)
        assert learner.state("a").epsilon == pytest.approx(0.1)


class TestHeldHandles:
    """note_epoch computes drift in one array pass and writes held series."""

    def _learner_and_table(self, names=("a", "b", "c"), samples=0):
        learner = DemandLearner(config=LearnerConfig(convergence_window=2))
        table = AgentTable()
        for i, name in enumerate(names):
            table.add(name)
            learner.register(name)
            rng = np.random.default_rng(i)
            alpha = rng.uniform(0.1, 0.9, size=2)
            for _ in range(samples):
                allocation = rng.uniform(0.5, 20.0, size=2)
                table.observe(i, allocation, float(np.prod(allocation**alpha)))
        refit(table)
        return learner, table

    def test_no_registry_calls_once_every_series_exists(self, registry_calls):
        # Unfitted agents never converge: the drift gauge appears on the
        # first epoch (reading 0, as no agent has a previous report yet),
        # then nothing is looked up again.
        learner, table = self._learner_and_table()
        learner.note_epoch(0, table)
        assert registry_calls[-1] == ("repro_learning_report_drift", ())
        assert learner.metrics.get("repro_learning_report_drift").value == 0.0
        registry_calls.clear()
        for epoch in range(1, 8):
            learner.note_epoch(epoch, table)
        assert registry_calls == []

    def test_every_lookup_creates_a_series(self, registry_calls):
        # Convergence, a forgotten agent and a late arrival add no series.
        learner, table = self._learner_and_table(samples=20)
        converged = []
        for epoch in range(8):
            converged += learner.note_epoch(epoch, table)
            if epoch == 3:
                learner.forget("b")
                table.add("d")
                learner.register("d")
        assert converged
        assert learner.metrics.get("repro_learning_report_drift") is not None
        assert len(registry_calls) == len(set(registry_calls))
        assert len(learner.metrics) == 2  # the agent count and the drift

    def test_drift_is_the_largest_report_change(self):
        learner, table = self._learner_and_table(names=("a", "b", "c", "d"), samples=6)
        learner.note_epoch(0, table)
        previous = {name: learner.state(name).last_report for name in table.names}
        rng = np.random.default_rng(7)
        for _ in range(10):
            row = int(rng.integers(len(table)))
            allocation = rng.uniform(0.5, 20.0, size=2)
            table.observe(row, allocation, float(np.prod(allocation ** [0.7, 0.2])))
        refit(table)
        learner.note_epoch(1, table)
        drift = learner.metrics.get("repro_learning_report_drift")
        assert drift.value == max(
            float(np.max(np.abs(learner.state(name).last_report - previous[name])))
            for name in table.names
        )

    def test_drift_reads_zero_once_no_agent_has_a_previous_report(self):
        # Every learner departs and a newcomer arrives: the gauge does
        # not keep the departed agents' last drift.
        learner, table = self._learner_and_table(names=("a", "b"), samples=6)
        learner.note_epoch(0, table)
        for row in range(len(table)):
            table.observe(row, np.array([20.0, 0.5]), 3.0)
        refit(table)
        learner.note_epoch(1, table)
        drift = learner.metrics.get("repro_learning_report_drift")
        assert drift.value > 0
        for name in ("a", "b"):
            learner.forget(name)
        learner.register("c")
        learner.note_epoch(2, table)
        assert drift.value == 0.0

    def test_replaced_registry_gets_its_own_series(self):
        learner, table = self._learner_and_table()
        for epoch in range(2):
            learner.note_epoch(epoch, table)
        first, learner.metrics = learner.metrics, MetricsRegistry()
        learner.note_epoch(2, table)
        assert learner.metrics.get("repro_learning_report_drift") is not None
        assert first.get("repro_learning_report_drift") is not None
