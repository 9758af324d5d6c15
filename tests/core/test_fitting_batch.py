"""Parity tests: the batched fitter must match the per-agent fitter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitting import (
    MAX_MOMENTS_CONDITION,
    FitMoments,
    fit_cobb_douglas,
    fit_cobb_douglas_batch,
)


def make_agents(n_agents, seed=2014, noise=0.02, weighted="mixed"):
    """Ragged synthetic sample sets drawn from true Cobb-Douglas agents."""
    rng = np.random.default_rng(seed)
    allocations, performance, weights = [], [], []
    for k in range(n_agents):
        m = int(rng.integers(5, 25))
        alloc = rng.uniform(0.05, 2.0, size=(m, 2))
        alpha = rng.uniform(0.1, 0.9, size=2)
        scale = rng.uniform(0.5, 2.0)
        perf = scale * np.prod(alloc**alpha, axis=1)
        perf = perf * np.exp(rng.normal(0.0, noise, size=m))
        allocations.append(alloc)
        performance.append(perf)
        if weighted == "all" or (weighted == "mixed" and k % 2 == 0):
            weights.append(0.85 ** np.arange(m)[::-1])
        else:
            weights.append(None)
    return allocations, performance, weights


def assert_fits_close(loop_fit, batch_fit, atol=1e-9):
    assert batch_fit.utility.alpha == pytest.approx(
        loop_fit.utility.alpha, abs=atol
    )
    assert batch_fit.utility.scale == pytest.approx(loop_fit.utility.scale, abs=atol)
    assert batch_fit.r_squared == pytest.approx(loop_fit.r_squared, abs=atol)
    assert batch_fit.r_squared_linear == pytest.approx(
        loop_fit.r_squared_linear, abs=atol
    )
    assert batch_fit.n_samples == loop_fit.n_samples
    assert np.asarray(batch_fit.residuals) == pytest.approx(
        np.asarray(loop_fit.residuals), abs=atol
    )
    if np.isfinite(loop_fit.condition_number):
        assert batch_fit.condition_number == pytest.approx(
            loop_fit.condition_number, rel=1e-6
        )
    else:
        assert not np.isfinite(batch_fit.condition_number)


class TestBatchParity:
    def test_matches_per_agent_fits(self):
        allocations, performance, weights = make_agents(20)
        batch = fit_cobb_douglas_batch(allocations, performance, weights)
        assert len(batch) == 20
        for a, p, w, bf in zip(allocations, performance, weights, batch):
            assert_fits_close(fit_cobb_douglas(a, p, weights=w), bf)

    def test_all_weighted(self):
        allocations, performance, weights = make_agents(8, seed=7, weighted="all")
        batch = fit_cobb_douglas_batch(allocations, performance, weights)
        for a, p, w, bf in zip(allocations, performance, weights, batch):
            assert_fits_close(fit_cobb_douglas(a, p, weights=w), bf)

    def test_no_weights_argument(self):
        allocations, performance, _ = make_agents(6, seed=3)
        batch = fit_cobb_douglas_batch(allocations, performance)
        for a, p, bf in zip(allocations, performance, batch):
            assert_fits_close(fit_cobb_douglas(a, p), bf)

    def test_single_agent_batch(self):
        allocations, performance, weights = make_agents(1, seed=5)
        batch = fit_cobb_douglas_batch(allocations, performance, weights)
        assert_fits_close(
            fit_cobb_douglas(allocations[0], performance[0], weights=weights[0]),
            batch[0],
        )

    def test_empty_batch(self):
        assert fit_cobb_douglas_batch([], []) == []

    @given(
        n_agents=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        noise=st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=30, deadline=None)
    def test_parity_property(self, n_agents, seed, noise):
        allocations, performance, weights = make_agents(
            n_agents, seed=seed, noise=noise
        )
        batch = fit_cobb_douglas_batch(allocations, performance, weights)
        for a, p, w, bf in zip(allocations, performance, weights, batch):
            assert_fits_close(fit_cobb_douglas(a, p, weights=w), bf, atol=1e-8)


class TestIllConditioned:
    def test_collinear_samples_match_loop_condition(self):
        # All allocations on a ray: the log-design's resource columns are
        # perfectly correlated, so the regression is rank-deficient.  Both
        # paths must agree on the (huge or infinite) condition number and
        # on the minimum-norm solution.
        base = np.array([1.0, 2.0])
        alloc = np.vstack([base * s for s in (0.5, 1.0, 2.0, 4.0, 8.0)])
        perf = np.array([0.4, 0.7, 1.3, 2.2, 4.1])
        healthy = np.random.default_rng(0).uniform(0.1, 2.0, size=(6, 2))
        healthy_perf = 1.3 * np.prod(healthy**0.4, axis=1)

        batch = fit_cobb_douglas_batch(
            [alloc, healthy], [perf, healthy_perf], [None, None]
        )
        loop = [
            fit_cobb_douglas(alloc, perf),
            fit_cobb_douglas(healthy, healthy_perf),
        ]
        for lf, bf in zip(loop, batch):
            assert_fits_close(lf, bf, atol=1e-8)
        assert batch[0].condition_number > 1e8 or not np.isfinite(
            batch[0].condition_number
        )

    def test_zero_variance_performance(self):
        # Constant IPC: log-target variance is zero, R² takes the
        # degenerate branch; both paths must pick the same branch.
        rng = np.random.default_rng(1)
        alloc = rng.uniform(0.5, 2.0, size=(8, 2))
        perf = np.full(8, 1.7)
        batch = fit_cobb_douglas_batch([alloc], [perf])
        assert_fits_close(fit_cobb_douglas(alloc, perf), batch[0], atol=1e-8)


class TestBatchValidation:
    def test_mismatched_outer_lengths(self):
        allocations, performance, _ = make_agents(3)
        with pytest.raises(ValueError, match="one performance vector per agent"):
            fit_cobb_douglas_batch(allocations, performance[:2])

    def test_mismatched_weight_length(self):
        allocations, performance, _ = make_agents(3)
        with pytest.raises(ValueError, match="one weight vector"):
            fit_cobb_douglas_batch(allocations, performance, [None])

    def test_bad_agent_is_named(self):
        allocations, performance, _ = make_agents(3)
        performance[1] = -performance[1]
        with pytest.raises(ValueError, match="agent 1"):
            fit_cobb_douglas_batch(allocations, performance)

    def test_inconsistent_resource_counts(self):
        rng = np.random.default_rng(0)
        a2 = rng.uniform(0.1, 1.0, size=(6, 2))
        a3 = rng.uniform(0.1, 1.0, size=(6, 3))
        with pytest.raises(ValueError, match="resource"):
            fit_cobb_douglas_batch(
                [a2, a3],
                [np.prod(a2, axis=1), np.prod(a3, axis=1)],
            )


def moments_of(allocations, performance, weights, origins=None):
    """The agents' weighted statistics about their first samples (or ``origins``)."""
    grams, moments, rows = [], [], []
    for k, (a, p, wk) in enumerate(zip(allocations, performance, weights)):
        origin = np.append(np.log(a[0]), np.log(p[0])) if origins is None else origins[k]
        w = np.ones(len(p)) if wk is None else wk
        d = np.column_stack([np.ones(len(p)), np.log(a) - origin[:-1]])
        t = np.log(p) - origin[-1]
        grams.append((w[:, None] * d).T @ d)
        moments.append((w[:, None] * d).T @ t)
        rows.append(origin)
    return FitMoments(np.array(grams), np.array(moments), np.array(rows))


class TestStatisticsForm:
    def test_matches_ragged_form(self):
        allocations, performance, weights = make_agents(12, seed=11)
        ragged = fit_cobb_douglas_batch(allocations, performance, weights)
        moments = moments_of(allocations, performance, weights)
        assert len(moments) == 12
        fits = fit_cobb_douglas_batch(moments)
        assert fits.alpha.shape == (12, 2)
        for k, fit in enumerate(ragged):
            assert fits.alpha[k] == pytest.approx(fit.utility.alpha, abs=1e-9)
            assert fits.scale[k] == pytest.approx(fit.utility.scale, rel=1e-9)
            assert fits.condition[k] == pytest.approx(fit.condition_number, rel=1e-9)

    def test_origin_moves_only_the_intercept_back(self):
        allocations, performance, weights = make_agents(6, seed=4)
        first = fit_cobb_douglas_batch(moments_of(allocations, performance, weights))
        elsewhere = [np.array([3.0, -2.0, 1.5]) for _ in allocations]
        moved = fit_cobb_douglas_batch(moments_of(allocations, performance, weights, elsewhere))
        np.testing.assert_allclose(moved.alpha, first.alpha, rtol=0, atol=1e-10)
        np.testing.assert_allclose(moved.scale, first.scale, rtol=1e-10)
        np.testing.assert_allclose(moved.condition, first.condition, rtol=1e-9)

    def test_ill_conditioned_rows_are_left_to_the_svd(self):
        # A ray of allocations: the design is rank-deficient, so its row
        # comes back NaN (for a re-fit from its samples); the healthy
        # row beside it is solved.
        base = np.array([1.0, 2.0])
        ray = np.vstack([base * s for s in (0.5, 1.0, 2.0, 4.0, 8.0)])
        healthy = np.random.default_rng(0).uniform(0.1, 2.0, size=(6, 2))
        fits = fit_cobb_douglas_batch(
            moments_of(
                [ray, healthy],
                [np.array([0.4, 0.7, 1.3, 2.2, 4.1]), 1.3 * np.prod(healthy**0.4, axis=1)],
                [None, None],
            )
        )
        assert np.isnan(fits.alpha[0]).all() and np.isnan(fits.scale[0])
        assert not fits.condition[0] <= MAX_MOMENTS_CONDITION
        assert fits.alpha[1] == pytest.approx([0.4, 0.4], abs=1e-9)
        assert fits.scale[1] == pytest.approx(1.3, rel=1e-9)
