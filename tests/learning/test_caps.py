"""Demand caps: clipping, surplus redistribution, exact column sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learning import DemandCapEstimator, apply_demand_caps


class TestApplyDemandCaps:
    def test_no_caps_is_identity(self):
        shares = np.array([[10.0, 4000.0], [15.6, 4192.0]])
        result = apply_demand_caps(shares, np.full((2, 2), np.inf))
        assert np.array_equal(result.shares, shares)
        assert result.capped_entries == 0
        assert np.all(result.released == 0.0)

    def test_surplus_flows_to_the_free_agent(self):
        shares = np.array([[16.0, 4096.0], [9.6, 4096.0]])
        caps = np.array([[10.0, np.inf], [np.inf, np.inf]])
        result = apply_demand_caps(shares, caps)
        assert result.shares[0, 0] == pytest.approx(10.0)
        # Column sum preserved exactly: agent 1 absorbs the surplus.
        assert result.shares[1, 0] == pytest.approx(15.6)
        assert result.capped_entries == 1
        assert result.released[0] == 0.0

    def test_all_capped_releases_capacity(self):
        shares = np.array([[16.0, 4096.0], [9.6, 4096.0]])
        caps = np.array([[8.0, np.inf], [4.0, np.inf]])
        result = apply_demand_caps(shares, caps)
        assert result.shares[:, 0] == pytest.approx([8.0, 4.0])
        assert result.released[0] == pytest.approx(25.6 - 12.0)
        assert result.released[1] == 0.0

    def test_rescale_can_pin_a_second_agent(self):
        # Redistributing agent 0's surplus pushes agent 1 over *its*
        # cap; the iteration must pin it too and give the rest to 2.
        shares = np.array([[12.0], [6.0], [6.0]])
        caps = np.array([[4.0], [7.0], [np.inf]])
        result = apply_demand_caps(shares, caps)
        assert result.shares[0, 0] == pytest.approx(4.0)
        assert result.shares[1, 0] <= 7.0 + 1e-9
        assert result.shares.sum() == pytest.approx(24.0)

    def test_degenerate_caps_treated_as_uncapped(self):
        shares = np.array([[10.0, 4000.0], [15.6, 4192.0]])
        caps = np.array([[np.nan, -3.0], [0.0, np.inf]])
        result = apply_demand_caps(shares, caps)
        assert np.array_equal(result.shares, shares)
        assert result.capped_entries == 0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="caps"):
            apply_demand_caps(np.ones((2, 2)), np.ones((3, 2)))

    # ------------------------------------------------------------------
    # The ISSUE's property, mirroring the split_capacity exact-sum one:
    # with caps active, total allocated share never exceeds capacity and
    # capped agents' surplus is fully redistributed (exact column sums
    # whenever at least one agent stays free).

    @settings(max_examples=200, deadline=None)
    @given(
        shares=st.lists(
            st.tuples(
                st.floats(0.5, 12.0, allow_nan=False),
                st.floats(100.0, 4000.0, allow_nan=False),
            ),
            min_size=2,
            max_size=6,
        ),
        cap_data=st.data(),
    )
    def test_caps_property(self, shares, cap_data):
        shares = np.asarray(shares, dtype=float)
        n = shares.shape[0]
        capacities = shares.sum(axis=0)  # a fully-committed allocation
        caps = cap_data.draw(
            st.lists(
                st.tuples(
                    st.one_of(st.just(np.inf), st.floats(0.5, 12.0)),
                    st.one_of(st.just(np.inf), st.floats(100.0, 4000.0)),
                ),
                min_size=n,
                max_size=n,
            )
        )
        caps = np.asarray(caps, dtype=float)
        result = apply_demand_caps(shares, caps)

        # Never over cap, never negative, never over capacity.
        assert np.all(result.shares <= caps + 1e-9)
        assert np.all(result.shares >= 0.0)
        column_sums = result.shares.sum(axis=0)
        assert np.all(column_sums <= capacities + 1e-6 * np.abs(capacities))

        for r in range(shares.shape[1]):
            below_cap = result.shares[:, r] < caps[:, r] * (1 - 1e-12)
            if np.any(below_cap & (result.shares[:, r] > 0)):
                # At least one free agent with positive share: the
                # surplus must be fully redistributed — exact column sum.
                assert column_sums[r] == pytest.approx(
                    capacities[r], rel=1e-9, abs=1e-9
                )
            else:
                # Everyone capped: the gap is accounted as released.
                assert result.released[r] == pytest.approx(
                    capacities[r] - column_sums[r], rel=1e-9, abs=1e-9
                )


class TestDemandCapEstimator:
    FLOORS = (0.4, 64.0)

    def _samples(self, n=12, flat_resource=1):
        # Performance responds to resource 0 only; resource 1 is flat.
        rng = np.random.default_rng(5)
        allocations = rng.uniform((1.0, 200.0), (10.0, 3000.0), size=(n, 2))
        performance = allocations[:, 0] ** 0.9
        return allocations, performance

    def test_no_samples_no_caps(self):
        estimator = DemandCapEstimator()
        caps = estimator.caps_for((0.5, 0.5), None, self.FLOORS)
        assert np.all(np.isinf(caps))

    def test_too_few_samples_no_caps(self):
        estimator = DemandCapEstimator(min_samples=8)
        allocations, performance = self._samples(n=4)
        caps = estimator.caps_for(
            (0.95, 0.05), (allocations, performance), self.FLOORS
        )
        assert np.all(np.isinf(caps))

    def test_flat_resource_is_capped_elastic_is_not(self):
        estimator = DemandCapEstimator(flat_threshold=0.08, margin=1.25)
        allocations, performance = self._samples()
        caps = estimator.caps_for(
            (0.95, 0.05), (allocations, performance), self.FLOORS
        )
        assert np.isinf(caps[0])  # elastic: never capped
        assert np.isfinite(caps[1])
        # The cap is margin x the cheapest near-best operating point.
        best = performance.max()
        good = performance >= best * (1.0 - estimator.flat_tolerance)
        expected = max(allocations[good, 1].min() * 1.25, self.FLOORS[1])
        assert caps[1] == pytest.approx(expected)

    def test_cap_never_below_floor(self):
        estimator = DemandCapEstimator(margin=1.0)
        allocations = np.full((10, 2), (5.0, 1.0))
        allocations += np.linspace(0, 1, 10)[:, None]
        performance = np.ones(10)
        caps = estimator.caps_for(
            (0.95, 0.05), (allocations, performance), self.FLOORS
        )
        assert caps[1] >= self.FLOORS[1]

    def test_validation(self):
        with pytest.raises(ValueError, match="flat_threshold"):
            DemandCapEstimator(flat_threshold=1.5)
        with pytest.raises(ValueError, match="margin"):
            DemandCapEstimator(margin=0.5)
        with pytest.raises(ValueError, match="min_samples"):
            DemandCapEstimator(min_samples=1)
