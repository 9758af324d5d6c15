"""Tests for deferred (batched) re-fits on the agent table."""

import numpy as np
import pytest

from repro.core.fitting import StackedFit, fit_cobb_douglas_batch
from repro.core.utility import CobbDouglasUtility
from repro.obs import MetricsRegistry
from repro.profiling.online import AgentTable, OnlineProfiler


def feed_synthetic(observe, alpha, n, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    utility = CobbDouglasUtility(alpha)
    for _ in range(n):
        allocation = rng.uniform(0.5, 20.0, size=2)
        ipc = utility.value(allocation)
        if noise:
            ipc *= float(np.exp(rng.normal(0, noise)))
        observe(allocation, ipc)


def refit(table, fit_batch=fit_cobb_douglas_batch):
    """One tick's re-fit of ``table``: the profiler protocol over its rows."""
    profiler = OnlineProfiler.over(table)
    if not profiler.needs_refit:
        return
    block = profiler.fit_inputs()
    fits = fit_batch(block.moments)
    if np.isnan(fits.scale).any():
        fits = table.refit_alone(block.rows, fits, fit_batch)
    profiler.apply_fit(fits)


def unsolved(n_rows, n_resources=2):
    """A fit that left every one of ``n_rows`` rows to the SVD."""
    return StackedFit(
        np.full((n_rows, n_resources), np.nan), np.full(n_rows, np.nan), np.full(n_rows, np.inf)
    )


def one_row_table(**kwargs):
    table = AgentTable(**kwargs)
    table.add("a")
    return table


def feed_row(table, alpha, n, row=0, **kwargs):
    feed_synthetic(lambda x, y: table.observe(row, x, y), alpha, n, **kwargs)


class TestDeferredRefit:
    def test_table_keeps_prior_until_refit(self):
        table = one_row_table()
        feed_row(table, (0.7, 0.3), 12)
        # Samples accepted but no fit ran: the naive prior still reports.
        assert not table.fitted[0]
        assert table.report[0].tolist() == [0.5, 0.5]
        assert table.pending().tolist() == [0]

    def test_table_refit_matches_eager_profiler(self):
        eager = OnlineProfiler()
        table = one_row_table()
        feed_synthetic(eager.observe, (0.7, 0.3), 12, noise=0.02)
        feed_row(table, (0.7, 0.3), 12, noise=0.02)
        refit(table)
        assert table.pending().size == 0
        assert table.alpha[0] == pytest.approx(eager.utility.alpha, abs=1e-12)
        assert table.condition[0] == pytest.approx(eager.last_condition_number)

    def test_needs_refit_false_below_min_samples(self):
        table = one_row_table(min_samples=8)
        feed_row(table, (0.6, 0.4), 7)
        assert table.pending().size == 0

    def test_needs_refit_false_without_variation(self):
        table = one_row_table()
        for _ in range(6):
            table.observe(0, (4.0, 8.0), 1.0)
        assert table.pending().size == 0
        assert table.dirty[0]  # still waiting for a usable history

    def test_needs_refit_clears_after_apply(self):
        table = one_row_table()
        feed_row(table, (0.7, 0.3), 10)
        rows = table.pending()
        fits = fit_cobb_douglas_batch(table.fit_block(rows).moments)
        table.apply_fits(rows, fits.alpha, fits.scale, fits.condition)
        assert table.pending().size == 0
        assert table.alpha[0] == pytest.approx((0.7, 0.3), abs=1e-6)

    def test_reject_fits_counts_fallback(self):
        table = one_row_table()
        feed_row(table, (0.7, 0.3), 10)
        table.reject_fits(table.pending())
        assert table.counters_of(0)["fit_fallbacks"] == 1
        assert table.pending().size == 0
        # The prior keeps reporting; no half-applied fit leaks through.
        assert table.report[0].tolist() == [0.5, 0.5]
        assert table.condition[0] == np.inf

    def test_apply_fits_rejects_ill_conditioned(self):
        table = one_row_table(max_condition=10.0)
        feed_row(table, (0.7, 0.3), 10)
        refit(table)
        if table.condition[0] <= 10.0:
            pytest.skip("synthetic data unexpectedly well-conditioned")
        assert not table.fitted[0]
        assert table.counters_of(0)["fit_fallbacks"] == 1

    def test_refit_metrics_are_fleet_totals(self):
        registry = MetricsRegistry()
        table = AgentTable(metrics=registry)
        table.extend(["a", "b"])
        feed_row(table, (0.7, 0.3), 10, row=0)
        feed_row(table, (0.4, 0.6), 10, row=1)
        refit(table)
        assert registry.get("repro_online_refits_total").value == 2
        gauge = registry.get("repro_online_fit_condition_number")
        assert gauge.value == table.condition.max()
        assert registry.get("repro_online_fit_fallbacks_total") is None  # none was positive
        feed_row(table, (0.7, 0.3), 10, row=0)
        feed_row(table, (0.4, 0.6), 10, row=1)
        table.reject_fits(table.pending())
        assert registry.get("repro_online_fit_fallbacks_total").value == 2
        assert gauge.value == np.inf
        assert len(registry) == 3  # no series per row

    def test_no_rows_to_apply_on_an_empty_mirrored_table(self):
        table = AgentTable(metrics=MetricsRegistry())
        accepted = table.apply_fits(np.zeros(0, np.intp), np.zeros((0, 2)), np.zeros(0), np.zeros(0))
        assert accepted.shape == (0,)

    def test_eager_default_unchanged(self):
        profiler = OnlineProfiler()
        feed_synthetic(profiler.observe, (0.7, 0.3), 12)
        assert profiler.last_fit is not None
        assert not profiler.needs_refit


class TestStackedRefit:
    def test_rows_match_one_row_tables(self):
        # One batched solve over several rows equals each row solved on
        # its own table: no row's statistics leak into another's.
        stacked = AgentTable(decay=0.85)
        singles = []
        for k, alpha in enumerate([(0.7, 0.3), (0.2, 0.8), (0.5, 0.5)]):
            stacked.add(f"a{k}")
            single = AgentTable(decay=0.85)
            single.add(f"a{k}")
            singles.append(single)
            feed_row(stacked, alpha, 10 + 7 * k, row=k, seed=k, noise=0.05)
            feed_row(single, alpha, 10 + 7 * k, seed=k, noise=0.05)
        refit(stacked)
        for k, single in enumerate(singles):
            refit(single)
            assert stacked.alpha[k] == pytest.approx(single.alpha[0], rel=1e-12)
            assert stacked.condition[k] == pytest.approx(single.condition[0], rel=1e-9)

    def test_failed_stacked_solve_falls_back_per_row(self):
        table = AgentTable()
        for name in ("a", "b"):
            table.add(name)
        feed_row(table, (0.7, 0.3), 10, row=0)
        feed_row(table, (0.4, 0.6), 10, row=1, seed=1)
        calls = []

        def flaky(allocations, performance, weights):
            calls.append(len(allocations))
            if len(calls) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return fit_cobb_douglas_batch(allocations, performance, weights)

        rows = table.pending()
        fits = table.refit_alone(rows, unsolved(2), flaky)
        table.apply_fits(rows, fits.alpha, fits.scale, fits.condition)
        assert calls == [1, 1]
        assert table.fitted.tolist() == [True, False]
        assert table.counters_of(1)["fit_fallbacks"] == 1
        assert table.condition[1] == np.inf
        assert table.pending().size == 0

    def test_per_row_fallback_gauges_the_largest_condition(self):
        # The first row's own solve fails, the second's succeeds: the
        # re-fit's gauge reads inf, not the last row's finite value.
        registry = MetricsRegistry()
        table = AgentTable(metrics=registry)
        table.extend(["a", "b"])
        feed_row(table, (0.7, 0.3), 10, row=0)
        feed_row(table, (0.4, 0.6), 10, row=1, seed=1)
        calls = []

        def flaky(allocations, performance, weights):
            calls.append(len(allocations))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return fit_cobb_douglas_batch(allocations, performance, weights)

        rows = table.pending()
        fits = table.refit_alone(rows, unsolved(2), flaky)
        table.apply_fits(rows, fits.alpha, fits.scale, fits.condition)
        assert table.fitted.tolist() == [False, True]
        assert np.isfinite(table.condition[1])
        assert registry.get("repro_online_fit_condition_number").value == np.inf
        assert registry.get("repro_online_fit_fallbacks_total").value == 1
        assert registry.get("repro_online_refits_total").value == 1

    def test_protocol_covers_every_due_row(self):
        table = AgentTable()
        for name in ("a", "b", "c"):
            table.add(name)
        feed_row(table, (0.7, 0.3), 10, row=0)
        feed_row(table, (0.4, 0.6), 3, row=1)  # too few samples
        feed_row(table, (0.2, 0.8), 12, row=2, seed=2)
        profiler = OnlineProfiler.over(table)
        assert profiler.needs_refit
        block = profiler.fit_inputs()
        assert block.rows.tolist() == [0, 2]
        assert len(block.moments) == 2
        assert block.moments.gram.shape == (2, 3, 3)
        fits = fit_cobb_douglas_batch(block.moments)
        profiler.apply_fit(fits)
        assert profiler.last_fit is fits
        assert table.fitted.tolist() == [True, False, True]
        assert not profiler.needs_refit

    def test_remove_keeps_membership_order(self):
        table = AgentTable()
        for k, name in enumerate(("a", "b", "c", "d")):
            table.add(name)
            feed_row(table, (0.3 + 0.1 * k, 0.5), 6, row=k, seed=k)
        before = {name: table.samples(table.row(name)) for name in table.names}
        table.remove("b")
        assert table.names == ["a", "c", "d"]
        for name in table.names:
            got, want = table.samples(table.row(name)), before[name]
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        with pytest.raises(ValueError, match="no agent"):
            table.row("b")
