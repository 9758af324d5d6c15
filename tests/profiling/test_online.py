"""Tests for the on-line profiler (§4.4's adaptive naive user)."""

import types

import numpy as np
import pytest

from repro.core.utility import CobbDouglasUtility
from repro.profiling.online import OnlineProfiler


def feed_synthetic(profiler, alpha, n, seed=0, noise=0.0):
    """Feed observations from an exact Cobb-Douglas surface."""
    rng = np.random.default_rng(seed)
    utility = CobbDouglasUtility(alpha)
    for _ in range(n):
        allocation = rng.uniform(0.5, 20.0, size=2)
        ipc = utility.value(allocation)
        if noise:
            ipc *= float(np.exp(rng.normal(0, noise)))
        profiler.observe(allocation, ipc)


class TestNaivePrior:
    def test_starts_with_equal_elasticities(self):
        profiler = OnlineProfiler(n_resources=2)
        assert profiler.utility.elasticities == (0.5, 0.5)
        assert profiler.report_elasticities() == pytest.approx([0.5, 0.5])

    def test_three_resource_prior(self):
        profiler = OnlineProfiler(n_resources=3)
        assert profiler.utility.elasticities == pytest.approx((1 / 3,) * 3)

    def test_prior_until_min_samples(self):
        profiler = OnlineProfiler(min_samples=6)
        feed_synthetic(profiler, (0.8, 0.2), 5)
        assert profiler.utility.elasticities == (0.5, 0.5)
        assert profiler.last_fit is None


class TestLearning:
    def test_converges_to_truth(self):
        profiler = OnlineProfiler()
        feed_synthetic(profiler, (0.7, 0.3), 20)
        assert profiler.utility.elasticities == pytest.approx((0.7, 0.3), rel=1e-6)

    def test_report_is_rescaled(self):
        profiler = OnlineProfiler()
        feed_synthetic(profiler, (1.4, 0.6), 20)
        assert profiler.report_elasticities() == pytest.approx([0.7, 0.3], rel=1e-6)

    def test_noisy_convergence(self):
        profiler = OnlineProfiler()
        feed_synthetic(profiler, (0.6, 0.4), 200, noise=0.02)
        assert profiler.report_elasticities() == pytest.approx([0.6, 0.4], abs=0.05)

    def test_decay_tracks_phase_change(self):
        # Switch the true utility mid-stream; with decay the recent
        # phase dominates the fit.
        profiler = OnlineProfiler(decay=0.8)
        feed_synthetic(profiler, (0.9, 0.1), 30, seed=1)
        feed_synthetic(profiler, (0.1, 0.9), 30, seed=2)
        report = profiler.report_elasticities()
        assert report[1] > 0.7

    def test_no_decay_averages_phases(self):
        profiler = OnlineProfiler(decay=1.0)
        feed_synthetic(profiler, (0.9, 0.1), 30, seed=1)
        feed_synthetic(profiler, (0.1, 0.9), 30, seed=2)
        report = profiler.report_elasticities()
        assert 0.3 < report[1] < 0.7

    def test_no_refit_without_variation(self):
        profiler = OnlineProfiler(min_samples=4)
        for _ in range(6):
            profiler.observe((2.0, 3.0), 1.5)
        # All samples identical: rank-deficient, stays on the prior.
        assert profiler.utility.elasticities == (0.5, 0.5)

    def test_n_samples_counts(self):
        profiler = OnlineProfiler()
        feed_synthetic(profiler, (0.5, 0.5), 7)
        assert profiler.n_samples == 7


class TestValidation:
    def test_rejects_bad_n_resources(self):
        with pytest.raises(ValueError):
            OnlineProfiler(n_resources=0)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            OnlineProfiler(decay=0.0)
        with pytest.raises(ValueError):
            OnlineProfiler(decay=1.5)

    def test_rejects_min_samples_below_parameters(self):
        with pytest.raises(ValueError, match="min_samples"):
            OnlineProfiler(n_resources=2, min_samples=2)

    def test_rejects_wrong_allocation_shape(self):
        profiler = OnlineProfiler()
        with pytest.raises(ValueError, match="shape"):
            profiler.observe((1.0, 2.0, 3.0), 1.0)

    def test_rejects_bad_weight_floor(self):
        with pytest.raises(ValueError, match="weight_floor"):
            OnlineProfiler(weight_floor=0.0)

    def test_rejects_bad_outlier_threshold(self):
        with pytest.raises(ValueError, match="outlier_log_threshold"):
            OnlineProfiler(outlier_log_threshold=-1.0)

    def test_settings_are_readable_and_read_only(self):
        profiler = OnlineProfiler(
            n_resources=3,
            min_samples=5,
            decay=0.85,
            weight_floor=1e-3,
            max_condition=1e6,
            outlier_log_threshold=2.0,
            max_consecutive_outliers=4,
        )
        assert (profiler.n_resources, profiler.min_samples, profiler.decay) == (3, 5, 0.85)
        assert (profiler.weight_floor, profiler.max_condition) == (1e-3, 1e6)
        assert (profiler.outlier_log_threshold, profiler.max_consecutive_outliers) == (2.0, 4)
        assert profiler.max_history == 43  # ceil(log(1e-3) / log(0.85))
        assert OnlineProfiler().max_history is None
        with pytest.raises(AttributeError):
            profiler.decay = 0.5


class TestSampleRejection:
    """Non-positive / non-finite samples are skipped, not raised (§4.4 loop

    must survive a bad measurement)."""

    def test_non_positive_samples_skipped_and_counted(self):
        profiler = OnlineProfiler()
        for bad in [((1.0, 2.0), 0.0), ((0.0, 2.0), 1.0), ((1.0, 2.0), -3.0)]:
            utility = profiler.observe(*bad)
            assert utility.elasticities == (0.5, 0.5)
        assert profiler.n_samples == 0
        assert profiler.counters["rejected_non_positive"] == 3

    def test_non_finite_samples_skipped_and_counted(self):
        profiler = OnlineProfiler()
        profiler.observe((1.0, 2.0), float("nan"))
        profiler.observe((float("inf"), 2.0), 1.0)
        assert profiler.n_samples == 0
        assert profiler.counters["rejected_non_positive"] == 2

    def test_rejection_does_not_poison_convergence(self):
        profiler = OnlineProfiler()
        feed_synthetic(profiler, (0.7, 0.3), 10)
        profiler.observe((1.0, 2.0), -1.0)
        feed_synthetic(profiler, (0.7, 0.3), 10, seed=5)
        assert profiler.utility.elasticities == pytest.approx((0.7, 0.3), rel=1e-6)


class TestBoundedHistory:
    def test_history_bounded_with_decay(self):
        profiler = OnlineProfiler(decay=0.5, weight_floor=1e-6)
        feed_synthetic(profiler, (0.6, 0.4), 200)
        # log(1e-6)/log(0.5) ~ 19.9 -> at most 20 samples retained.
        assert profiler.n_samples <= 20
        assert profiler.counters["trimmed_samples"] >= 180

    def test_history_unbounded_without_decay(self):
        profiler = OnlineProfiler(decay=1.0)
        feed_synthetic(profiler, (0.6, 0.4), 200)
        assert profiler.n_samples == 200

    def test_trimming_leaves_fit_unchanged_within_tolerance(self):
        # Dropped samples carry weight < weight_floor, so the bounded
        # profiler's fit must match the unbounded reference closely.
        bounded = OnlineProfiler(decay=0.8, weight_floor=1e-9)
        reference = OnlineProfiler(decay=0.8, weight_floor=1e-300)
        feed_synthetic(bounded, (0.7, 0.3), 300, noise=0.02)
        feed_synthetic(reference, (0.7, 0.3), 300, noise=0.02)
        assert bounded.n_samples < reference.n_samples
        assert bounded.report_elasticities() == pytest.approx(
            reference.report_elasticities(), abs=1e-4
        )


class TestDegenerateFitGuard:
    def test_condition_number_exposed(self):
        profiler = OnlineProfiler()
        feed_synthetic(profiler, (0.6, 0.4), 10)
        assert np.isfinite(profiler.last_condition_number)
        assert profiler.last_condition_number >= 1.0

    def test_ill_conditioned_fit_falls_back_to_last_good(self):
        profiler = OnlineProfiler(max_condition=50.0, min_samples=4, decay=0.5)
        feed_synthetic(profiler, (0.7, 0.3), 12)
        good = profiler.utility
        # Collinear follow-up samples (x == y) age the informative ones
        # out of the bounded history and make the design degenerate; the
        # profiler must keep the last good fit.
        rng = np.random.default_rng(3)
        for _ in range(40):
            base = rng.uniform(1.0, 8.0)
            profiler.observe((base, base), base + rng.normal(0, 1e-9))
        assert profiler.counters["fit_fallbacks"] > 0
        assert profiler.utility.elasticities == pytest.approx(
            good.elasticities, rel=1e-6
        )

    def test_fallback_to_naive_prior_when_never_fit(self):
        profiler = OnlineProfiler(max_condition=1.0 + 1e-12, min_samples=4)
        feed_synthetic(profiler, (0.7, 0.3), 12)
        # Every fit is "too ill-conditioned": the naive prior survives.
        assert profiler.utility.elasticities == (0.5, 0.5)
        assert profiler.counters["fit_fallbacks"] > 0


class TestOutlierGate:
    def test_outliers_rejected_once_fit_exists(self):
        profiler = OnlineProfiler(outlier_log_threshold=2.0)
        feed_synthetic(profiler, (0.6, 0.4), 20)
        before = profiler.n_samples
        profiler.observe((2.0, 2.0), 1e6)
        assert profiler.n_samples == before
        assert profiler.counters["rejected_outliers"] == 1

    def test_gate_disabled_by_default(self):
        profiler = OnlineProfiler()
        feed_synthetic(profiler, (0.6, 0.4), 20)
        before = profiler.n_samples
        profiler.observe((2.0, 2.0), 1e6)
        assert profiler.n_samples == before + 1

    def test_sustained_shift_admitted_as_phase_change(self):
        profiler = OnlineProfiler(
            outlier_log_threshold=1.0, max_consecutive_outliers=3, decay=0.7
        )
        feed_synthetic(profiler, (0.6, 0.4), 20)
        # A persistent 100x IPC jump: the first two samples are gated,
        # the third is admitted (regime change), and the fit recovers.
        utility = CobbDouglasUtility((0.6, 0.4), scale=100.0)
        rng = np.random.default_rng(9)
        accepted_before = profiler.n_samples
        for _ in range(30):
            allocation = rng.uniform(0.5, 20.0, size=2)
            profiler.observe(allocation, utility.value(allocation))
        assert profiler.counters["rejected_outliers"] >= 2
        assert profiler.n_samples > accepted_before
        assert profiler.last_fit.utility.scale == pytest.approx(100.0, rel=0.3)


class TestMetricsMirror:
    """Internal counters and the optional registry must agree."""

    def _profiler(self, **kwargs):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        profiler = OnlineProfiler(n_resources=2, metrics=registry, **kwargs)
        return profiler, registry

    def test_rejections_mirrored_with_reason_labels(self):
        profiler, registry = self._profiler()
        profiler.observe((1.0, 1.0), -5.0)
        profiler.observe((0.0, 1.0), 1.0)
        counter = registry.get("repro_online_samples_rejected_total", reason="non_positive")
        assert counter.value == profiler.counters["rejected_non_positive"] == 2

    def test_trim_and_refit_counters_mirrored(self):
        profiler, registry = self._profiler(decay=0.5, weight_floor=0.1)
        feed_synthetic(profiler, (0.6, 0.4), 40)
        trimmed = registry.get("repro_online_samples_trimmed_total")
        assert trimmed is not None
        assert trimmed.value == profiler.counters["trimmed_samples"] > 0
        refits = registry.get("repro_online_refits_total")
        assert refits is not None and refits.value > 0

    def test_condition_number_gauge_tracks_last_fit(self):
        profiler, registry = self._profiler()
        feed_synthetic(profiler, (0.6, 0.4), 12)
        gauge = registry.get("repro_online_fit_condition_number")
        assert gauge is not None
        assert gauge.value == pytest.approx(profiler.last_condition_number)

    def test_metric_free_by_default(self):
        profiler = OnlineProfiler(n_resources=2)
        profiler.observe((1.0, 1.0), -5.0)
        assert profiler.counters["rejected_non_positive"] == 1  # no crash, no registry

    def test_handles_held_after_first_use(self):
        # The profiler resolves each fleet child once and holds it.
        # Against a profiler that looks its child up on every bump, the
        # same series must exist after every step (a series appears only
        # when first touched) and the exposition must match byte for byte.
        from repro.obs import MetricsRegistry, to_prometheus

        class CountingRegistry(MetricsRegistry):
            lookups = 0

            def counter(self, name, help="", **labels):
                self.lookups += 1
                return super().counter(name, help, **labels)

            def gauge(self, name, help="", **labels):
                self.lookups += 1
                return super().gauge(name, help, **labels)

        def lookup_every_bump(table, key):
            series, *own = table._METRICS[key]
            labels = dict(zip(series.labels, own))
            return getattr(table._metrics, series.kind)(series.name, series.help, **labels)

        held_registry, lookup_registry = CountingRegistry(), CountingRegistry()
        kwargs = dict(
            decay=0.5,
            weight_floor=0.1,
            outlier_log_threshold=0.5,
        )
        held = OnlineProfiler(metrics=held_registry, **kwargs)
        lookup = OnlineProfiler(metrics=lookup_registry, **kwargs)
        lookup.table._metric = types.MethodType(lookup_every_bump, lookup.table)

        def series(registry):
            return [(metric.name, metric.labels) for metric in registry.metrics()]

        rng = np.random.default_rng(5)
        truth = CobbDouglasUtility((0.6, 0.4))
        steps = [((1.0, 1.0), -1.0)]  # the rejection series alone
        for _ in range(60):
            allocation = tuple(rng.uniform(0.5, 20.0, size=2))
            steps.append((allocation, truth.value(allocation)))
        steps += [((2.0, 2.0), 1e4)] * 2  # outliers once a fit exists
        for allocation, ipc in steps:
            held.observe(allocation, ipc)
            lookup.observe(allocation, ipc)
            assert series(held_registry) == series(lookup_registry)
        held.apply_fit(None)
        lookup.apply_fit(None)
        assert len(series(held_registry)) == 6
        assert to_prometheus(held_registry) == to_prometheus(lookup_registry)
        assert held_registry.lookups == 6 < lookup_registry.lookups


class TestExplorationBypass:
    """Exploration-tagged samples skip the fit-relative outlier gate.

    Regression: a demand-learning controller deliberately measures at
    perturbed operating points; a phase-changed agent's exploration
    stream used to be rejected wholesale before the consecutive-run
    escape could fire, so the learner never saw its own evidence.
    """

    def test_exploration_sample_bypasses_the_gate(self):
        profiler = OnlineProfiler(outlier_log_threshold=2.0)
        feed_synthetic(profiler, (0.6, 0.4), 20)
        before = profiler.n_samples
        profiler.observe((2.0, 2.0), 1e6, exploration=True)
        assert profiler.n_samples == before + 1
        assert profiler.counters["rejected_outliers"] == 0

    def test_plain_sample_still_gated(self):
        profiler = OnlineProfiler(outlier_log_threshold=2.0)
        feed_synthetic(profiler, (0.6, 0.4), 20)
        before = profiler.n_samples
        profiler.observe((2.0, 2.0), 1e6)
        assert profiler.n_samples == before
        assert profiler.counters["rejected_outliers"] == 1

    def test_phase_change_learned_through_exploration_stream(self):
        # With a tight gate and a long outlier run budget, a 100x IPC
        # regime change arriving purely as exploration samples must be
        # absorbed sample by sample, not rejected until the escape.
        profiler = OnlineProfiler(
            outlier_log_threshold=1.0, max_consecutive_outliers=1000, decay=0.7
        )
        feed_synthetic(profiler, (0.6, 0.4), 20)
        utility = CobbDouglasUtility((0.6, 0.4), scale=100.0)
        rng = np.random.default_rng(9)
        for _ in range(30):
            allocation = rng.uniform(0.5, 20.0, size=2)
            profiler.observe(allocation, utility.value(allocation), exploration=True)
        assert profiler.counters["rejected_outliers"] == 0
        assert profiler.last_fit.utility.scale == pytest.approx(100.0, rel=0.3)

    def test_exploration_does_not_bypass_validity_checks(self):
        # The tag skips only the *fit-relative* gate; garbage stays out.
        profiler = OnlineProfiler()
        profiler.observe((1.0, 2.0), -1.0, exploration=True)
        assert profiler.n_samples == 0
        assert profiler.counters["rejected_non_positive"] == 1


class TestSamplesAccessor:
    def test_empty_history_is_none(self):
        assert OnlineProfiler().samples() is None

    def test_samples_returns_accepted_history(self):
        profiler = OnlineProfiler()
        feed_synthetic(profiler, (0.6, 0.4), 7)
        allocations, performance = profiler.samples()
        assert allocations.shape == (7, 2)
        assert performance.shape == (7,)
        assert np.all(performance > 0)
