"""Credit mechanism end to end: controller integration and the horizon
harness's windowed SI/EF guarantees on bursty schedules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import ChurnEvent, ChurnSchedule, DynamicAllocator
from repro.experiments.credit_horizon import (
    AgentSchedule,
    bursty_pair,
    run_credit_horizon,
)
from repro.obs import MetricsRegistry
from repro.workloads import get_workload

CAPACITIES = (12.8, 2048.0)


def make_allocator(**kwargs):
    defaults = dict(
        workloads={
            "freqmine": get_workload("freqmine"),
            "dedup": get_workload("dedup"),
        },
        capacities=CAPACITIES,
        mechanism="credit",
        seed=7,
        metrics=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return DynamicAllocator(**defaults)


class TestControllerIntegration:
    def test_credit_runs_feasibly_and_counts_fast_path(self):
        allocator = make_allocator()
        result = allocator.run(6)
        assert result.all_feasible()
        fast = allocator.metrics.get(
            "repro_solver_fast_path_total", mechanism="credit"
        )
        assert fast is not None and fast.value == 6

    def test_credit_balance_histogram_is_exported(self):
        allocator = make_allocator()
        allocator.run(3)
        histogram = allocator.metrics.get("repro_credit_balance", resource="membw_gbps")
        assert histogram.count == 3 * len(allocator.agent_names)
        assert -0.5 <= histogram.min <= histogram.max <= 0.5

    def test_removed_agent_forgets_its_balance(self):
        allocator = make_allocator()
        churn = ChurnSchedule(
            [
                ChurnEvent(2, "add", "late", get_workload("canneal")),
                ChurnEvent(4, "remove", "dedup"),
            ]
        )
        result = allocator.run(6, churn=churn)
        assert result.all_feasible()
        state = allocator.mechanism_state()
        assert "dedup" not in state["balances"]
        assert {"freqmine", "late"} <= set(state["balances"])

    def test_mechanism_state_roundtrips_through_the_controller(self):
        first = make_allocator()
        first.run(5)
        state = first.mechanism_state()
        assert state["balances"]  # non-trivial after five epochs
        clone = make_allocator()
        clone.load_mechanism_state(state)
        assert clone.mechanism_state() == state

    def test_stateless_mechanism_state_is_empty(self):
        allocator = make_allocator(mechanism="ref")
        allocator.run(2)
        assert allocator.mechanism_state() == {}


class TestHorizonHarness:
    def test_credit_trades_per_epoch_si_for_windowed_si(self):
        # The acceptance scenario: per-epoch SI is violated somewhere in
        # the horizon, yet every tumbling window satisfies SI and EF.
        report = run_credit_horizon(bursty_pair(), mechanism="credit")
        assert report.all_feasible
        assert report.per_epoch_si_violations > 0
        assert report.windowed_si_ok
        assert report.windowed_ef_ok
        assert report.max_abs_balance <= 0.5
        assert report.balance_zero_sum_gap <= 1e-9

    def test_ref_is_clean_per_epoch_but_not_windowed(self):
        report = run_credit_horizon(bursty_pair(), mechanism="ref")
        assert report.all_feasible
        assert report.per_epoch_si_violations == 0
        assert not report.windowed_si_ok

    def test_rejects_partial_windows_and_bad_schedules(self):
        with pytest.raises(ValueError, match="multiple"):
            run_credit_horizon(bursty_pair(), epochs=100, window=33)
        with pytest.raises(ValueError, match="unique"):
            run_credit_horizon(
                (
                    AgentSchedule("dup", ((1, (0.5, 0.5)),)),
                    AgentSchedule("dup", ((1, (0.5, 0.5)),)),
                )
            )
        with pytest.raises(ValueError, match="phase"):
            AgentSchedule("empty", ())

    def test_schedule_cycles_through_phases(self):
        schedule = AgentSchedule("s", ((2, (0.1, 0.9)), (3, (0.9, 0.1))))
        assert schedule.cycle == 5
        alphas = [schedule.alpha_at(t) for t in range(7)]
        assert alphas[:2] == [(0.1, 0.9)] * 2
        assert alphas[2:5] == [(0.9, 0.1)] * 3
        assert alphas[5] == (0.1, 0.9)  # wrapped around

    @settings(max_examples=25, deadline=None)
    @given(
        quiet=st.integers(min_value=5, max_value=30),
        burst=st.integers(min_value=5, max_value=30),
        steady_alpha=st.floats(min_value=0.15, max_value=0.85),
        burst_alpha=st.floats(min_value=0.15, max_value=0.85),
    )
    def test_windowed_si_and_bounded_bank_hold_for_any_bursty_pair(
        self, quiet, burst, steady_alpha, burst_alpha
    ):
        # Property: for any steady/bursty pair whose elasticities stay
        # inside [0.15, 0.85], credit balances never need the clip (the
        # bias equilibrium fits the default bank), so updates stay
        # zero-sum and every cycle-aligned window satisfies SI.
        cycle = quiet + burst
        steady = AgentSchedule("steady", ((cycle, (steady_alpha, 1 - steady_alpha)),))
        bursty = AgentSchedule(
            "bursty",
            (
                (quiet, (burst_alpha, 1 - burst_alpha)),
                (burst, (1 - burst_alpha, burst_alpha)),
            ),
        )
        report = run_credit_horizon(
            (steady, bursty), epochs=4 * cycle, window=cycle
        )
        assert report.all_feasible
        assert report.windowed_si_ok
        assert report.windowed_ef_ok
        assert report.max_abs_balance < 0.5  # bank never saturates
        assert report.balance_zero_sum_gap <= 1e-9

    def test_small_bank_clips_but_stays_bounded(self):
        report = run_credit_horizon(
            bursty_pair(), mechanism="credit", max_balance=0.05
        )
        assert report.all_feasible
        assert report.max_abs_balance <= 0.05 + 1e-12
