"""DynamicAllocator(learn_demands=True): profile-free agents end to end."""

import numpy as np
import pytest

from repro.dynamic import DynamicAllocator
from repro.obs import MetricsRegistry
from repro.workloads import get_workload


def _allocator(**kwargs):
    defaults = dict(
        capacities=(19.2, 3072.0),
        seed=5,
        learn_demands=True,
    )
    defaults.update(kwargs)
    return DynamicAllocator(
        {"freqmine": get_workload("freqmine"), "dedup": get_workload("dedup")},
        **defaults,
    )


class TestConstruction:
    def test_profile_less_workload_requires_learning(self):
        with pytest.raises(ValueError, match="learn_demands"):
            DynamicAllocator(
                {"mystery": None, "dedup": get_workload("dedup")},
                capacities=(12.8, 2048.0),
            )

    def test_unknown_prior_rejected(self):
        with pytest.raises(ValueError, match="unknown prior policy"):
            _allocator(prior="oracle")

    def test_learner_absent_by_default(self):
        allocator = DynamicAllocator(
            {"dedup": get_workload("dedup")}, capacities=(6.4, 1024.0)
        )
        assert allocator.learner is None
        assert not allocator.learn_demands


class TestLearningLoop:
    def test_run_stays_feasible_and_explores(self):
        allocator = _allocator()
        result = allocator.run(30)
        assert result.all_feasible()
        assert result.counters.get("exploration_perturbed", 0) > 0

    def test_profile_less_agent_admitted_and_granted(self):
        allocator = _allocator()
        allocator.add_agent("mystery", None, workload_class="M")
        record = allocator.step(0)
        assert "mystery" in record.agents
        enforced = record.enforced or record.allocation
        bundle = enforced["mystery"]
        assert np.all(bundle > 0)

    def test_profile_less_agent_requires_learning_mode(self):
        allocator = DynamicAllocator(
            {"dedup": get_workload("dedup")}, capacities=(6.4, 1024.0)
        )
        with pytest.raises(ValueError, match="learn_demands"):
            allocator.add_agent("mystery", None)

    def test_remove_agent_forgets_learning_state(self):
        allocator = _allocator()
        allocator.add_agent("mystery", None)
        assert allocator.learner.state("mystery") is not None
        allocator.remove_agent("mystery")
        assert allocator.learner.state("mystery") is None

    def test_external_samples_teach_a_profile_less_agent(self):
        # Feed ground-truth measurements for a workload the allocator
        # never saw a profile of; once confident, the blended report
        # must have left the equal-split prior for the fit.
        from repro.sim.analytic import AnalyticMachine

        allocator = _allocator(seed=11)
        allocator.add_agent("mystery", None, workload_class="C")
        machine = AnalyticMachine()
        workload = get_workload("x264")
        rng = np.random.default_rng(3)
        for _ in range(30):
            bandwidth = float(rng.uniform(1.0, 12.0))
            cache_kb = float(rng.uniform(128.0, 2000.0))
            ipc = float(machine.ipc(workload, cache_kb, bandwidth))
            allocator.observe_sample(
                "mystery", (bandwidth, cache_kb), ipc, exploration=True
            )
        allocator.step(0)
        row = allocator.table.row("mystery")
        report = allocator.reports()[row]
        assert report.sum() == pytest.approx(1.0)
        assert abs(report[0] - 0.5) > 0.05  # fit took over from the prior
        assert report == pytest.approx(
            allocator.table.report[row], rel=1e-6
        )  # full confidence: the blend is the fit

    def test_aggregate_elasticities_include_learned_reports(self):
        allocator = _allocator()
        allocator.add_agent("mystery", None)
        aggregate = allocator.aggregate_elasticities()
        # Three sum-to-one reports (two profiled, one prior).
        assert aggregate.sum() == pytest.approx(3.0)

    def test_convergence_event_emitted(self):
        # decay=1 + zero measurement noise: the growing sample history
        # pins the fit down, so the drift-based detector must fire.
        allocator = _allocator(seed=2, decay=1.0, noise_sigma=0.0)
        result = allocator.run(60)
        assert result.counters.get("report_converged", 0) >= 1
        converged = allocator.metrics.get("repro_dynamic_events_total", kind="report_converged")
        assert converged.value == result.counters["report_converged"]

    def test_a_service_tick_reports_once(self, monkeypatch):
        # A service tick (measure=False) computes the learner's reports
        # once and hands them to the caps and the epoch bookkeeping; a
        # measuring tick re-fits after measuring, so its bookkeeping
        # takes fresh reports.
        from repro.learning import DemandLearner

        allocator = _allocator(seed=3)
        allocator.run(12)
        # Confident fits: the caps need the reports too.
        assert (allocator.learner.confidence(allocator.table) >= 1.0).any()
        calls = []
        report = DemandLearner.report

        def counted(self, table):
            calls.append(len(table))
            return report(self, table)

        monkeypatch.setattr(DemandLearner, "report", counted)
        allocator.step(100, measure=False)
        assert len(calls) == 1
        calls.clear()
        allocator.step(101, measure=True)
        assert len(calls) == 2

    def test_metrics_exported(self):
        registry = MetricsRegistry()
        allocator = _allocator(metrics=registry)
        allocator.run(10)
        assert registry.get("repro_learning_agents") is not None
        assert registry.get("repro_learning_exploration_fraction") is not None
