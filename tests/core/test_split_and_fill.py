"""Properties of the two allocation kernels: the Eq. 13 split and the water-fill.

``proportional_split`` is the one copy of Eq. 13 (REF, credit, the
unfair Nash optimum, the coordinator's cell split); ``water_fill`` is the
one bounded projection (allocation floors, demand caps, exploration
renormalization, minimum grants).  Random inputs are checked against a
bisection on the water level; hand-picked floor and cap cases ride
along as extra inputs.
"""

import numpy as np
import pytest

from repro.core.mechanism import proportional_split, water_fill


def bisection_fill(x, target, lower, upper):
    """Reference: bisect on the water level of one column (x > 0)."""

    def total(level):
        return np.clip(level * x, lower, upper).sum()

    low, high = 0.0, 1.0
    while total(high) < target:
        high *= 2.0
    for _ in range(200):
        mid = 0.5 * (low + high)
        low, high = (mid, high) if total(mid) < target else (low, mid)
    return np.clip(high * x, lower, upper)


def random_fill_case(rng):
    """A feasible one- or two-sided case: sum(lower) < target < sum(upper)."""
    n, r = int(rng.integers(1, 30)), int(rng.integers(1, 4))
    x = rng.uniform(0.01, 10.0, (n, r)) ** rng.uniform(1.0, 3.0)
    target = x.sum(axis=0) * rng.uniform(0.5, 2.0, r)
    lower = np.zeros((n, r))
    upper = np.full((n, r), np.inf)
    kind = rng.integers(3)
    if kind in (0, 2):
        lower = target / n * rng.uniform(0.0, 1.6, (n, r))
        lower *= np.minimum(1.0, 0.95 * target / lower.sum(axis=0))
    if kind in (1, 2):
        upper = lower + target / n * rng.uniform(0.05, 3.0, (n, r))
        upper[rng.uniform(size=(n, r)) < 0.3] = np.inf
        short = upper.sum(axis=0) <= target
        upper[:, short] *= 1.05 * target[short] / upper[:, short].sum(axis=0)
    return x, target, lower, upper


# Hand-picked floor and cap cases, as (x, targets, lower, upper).
LEGACY_FILL_CASES = [
    # floors: a starved agent is lifted, the excess comes out of the rich one
    ([[23.9, 6.0], [0.1, 6.0]], [24.0, 12.0], [2.0, 1.0], np.inf),
    # floors: redistribution pushes mid agents below the floor in turn
    ([[90.0], [6.0], [2.0], [2.0]], [20.0], [3.0], np.inf),
    # floors: extremely skewed shares, never over-committed
    ([[23.7, 3.0], [0.1, 3.0], [0.1, 3.0], [0.1, 3.0]], [24.0, 12.0], [2.0, 1.0], np.inf),
    # caps: redistributing one agent's surplus pushes a second over its cap
    ([[12.0], [6.0], [6.0]], [24.0], 0.0, [[4.0], [7.0], [np.inf]]),
    # caps: the surplus flows to the free agent
    ([[16.0, 4096.0], [9.6, 4096.0]], [25.6, 8192.0], 0.0, [[10.0, np.inf], [np.inf, np.inf]]),
]


def _cases():
    rng = np.random.default_rng(2014)
    cases = [random_fill_case(rng) for _ in range(300)]
    for x, target, lower, upper in LEGACY_FILL_CASES:
        x = np.asarray(x, dtype=float)
        lower = np.broadcast_to(np.asarray(lower, dtype=float), x.shape)
        upper = np.broadcast_to(np.asarray(upper, dtype=float), x.shape)
        cases.append((x, np.asarray(target, dtype=float), lower, upper))
    return cases


FILL_CASES = _cases()


class TestWaterFill:
    def test_column_sums_are_exact(self):
        for x, target, lower, upper in FILL_CASES:
            y = water_fill(x, target, lower, upper)
            np.testing.assert_allclose(y.sum(axis=0), target, rtol=1e-12)

    def test_bounds_are_respected(self):
        for x, target, lower, upper in FILL_CASES:
            y = water_fill(x, target, lower, upper)
            assert np.all(y >= lower)
            assert np.all(y <= upper)

    def test_one_water_level_per_column(self):
        # Entries strictly inside their bounds all sit at the same
        # multiple of their weight: the column's water level.
        for x, target, lower, upper in FILL_CASES:
            y = water_fill(x, target, lower, upper)
            for r in range(x.shape[1]):
                free = (y[:, r] > lower[:, r]) & (y[:, r] < upper[:, r])
                if free.any():
                    levels = y[free, r] / x[free, r]
                    np.testing.assert_allclose(levels, levels[0], rtol=1e-12)

    def test_matches_the_bisection_reference(self):
        for x, target, lower, upper in FILL_CASES:
            y = water_fill(x, target, lower, upper)
            for r in range(x.shape[1]):
                expected = bisection_fill(x[:, r], target[r], lower[:, r], upper[:, r])
                np.testing.assert_allclose(y[:, r], expected, rtol=1e-9, atol=1e-12)

    def test_legacy_cases_keep_their_answers(self):
        lifted = water_fill([[23.9, 6.0], [0.1, 6.0]], [24.0, 12.0], lower=[2.0, 1.0])
        assert lifted[:, 0] == pytest.approx([22.0, 2.0])
        surplus = water_fill([[16.0], [9.6]], [25.6], upper=[[10.0], [np.inf]])
        assert surplus[:, 0] == pytest.approx([10.0, 15.6])

    def test_infeasible_floors_give_the_equal_split(self):
        # 3 agents, floor 2, capacity 5: the floors cannot all be met.
        y = water_fill([[3.0, 1.0], [1.0, 1.0], [1.0, 1.0]], [5.0, 3.0], lower=[2.0, 0.0])
        assert np.array_equal(y[:, 0], np.full(3, 5.0 / 3))
        np.testing.assert_allclose(y[:, 1], [1.0, 1.0, 1.0])
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(0.0, 5.0, (6, 2))
            floors = rng.uniform(1.0, 2.0, (6, 2))
            target = floors.sum(axis=0) * rng.uniform(0.5, 1.0, 2)
            y = water_fill(x, target, lower=floors)
            assert np.array_equal(y, np.broadcast_to(target / 6, y.shape))

    def test_every_entry_capped_gives_upper(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            x = rng.uniform(0.1, 5.0, (5, 2))
            caps = rng.uniform(0.5, 1.5, (5, 2))
            target = caps.sum(axis=0) * rng.uniform(1.0, 3.0, 2)
            assert np.array_equal(water_fill(x, target, upper=caps), caps)

    def test_non_positive_and_non_finite_weights_count_as_zero(self):
        x = np.array([[np.nan], [-1.0], [np.inf], [2.0], [2.0]])
        y = water_fill(x, [10.0], lower=[1.0])
        np.testing.assert_allclose(y[:, 0], [1.0, 1.0, 1.0, 3.5, 3.5])

    def test_free_entries_with_no_weight_share_the_budget_equally(self):
        # Agents 1 and 2 carry no weight; the capped agent's surplus is
        # theirs, split equally, rather than left unallocated.
        y = water_fill([[8.0], [0.0], [0.0]], [8.0], upper=[[2.0], [np.inf], [np.inf]])
        np.testing.assert_allclose(y[:, 0], [2.0, 3.0, 3.0])
        assert np.array_equal(water_fill(np.zeros((4, 1)), [8.0]), np.full((4, 1), 2.0))

    def test_stacked_call_equals_per_problem_calls(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n, r, s = int(rng.integers(1, 12)), int(rng.integers(1, 3)), 5
            x = rng.uniform(0.0, 4.0, (s, n, r)) * (rng.uniform(size=(s, n, r)) > 0.2)
            target = rng.uniform(5.0, 20.0, (s, r))
            lower = rng.uniform(0.0, 1.2, (s, 1, r)) * target[:, None, :] / n
            upper = lower + rng.uniform(0.1, 8.0, (s, n, r))
            upper[rng.uniform(size=(s, n, r)) < 0.5] = np.inf
            stacked = water_fill(x, target, lower, upper)
            for k in range(s):
                single = water_fill(x[k], target[k], lower[k], upper[k])
                assert np.array_equal(stacked[k], single)


class TestProportionalSplit:
    def test_is_eq_13(self):
        rng = np.random.default_rng(3)
        weights = rng.uniform(0.05, 1.0, (6, 2))
        caps = np.array([128.0, 96.0 * 1024])
        shares = proportional_split(weights, caps)
        assert np.array_equal(shares, weights / weights.sum(axis=0) * caps)
        np.testing.assert_allclose(shares.sum(axis=0), caps, rtol=1e-12)

    def test_degenerate_columns_follow_the_fallback(self):
        weights = np.array([[0.5, 0.0, np.nan], [0.5, 0.0, 1.0], [1.0, 0.0, 1.0]])
        caps = np.array([12.0, 9.0, 6.0])
        equal = proportional_split(weights, caps)
        assert np.array_equal(equal[:, 1], np.full(3, 9.0 / 3))
        assert np.array_equal(equal[:, 2], np.full(3, 6.0 / 3))
        assert np.array_equal(equal[:, 0], weights[:, 0] / 2.0 * 12.0)
        counts = np.array([[1.0], [2.0], [3.0]])
        by_count = proportional_split(weights, caps, fallback=counts)
        np.testing.assert_allclose(by_count[:, 1], [1.5, 3.0, 4.5])
        assert np.array_equal(by_count[:, 0], equal[:, 0])
        negative = proportional_split(np.array([[-1.0], [0.5]]), [4.0])
        assert np.array_equal(negative, np.full((2, 1), 2.0))

    def test_stacked_call_equals_per_problem_calls(self):
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.05, 1.0, (10, 4, 2))
        weights[3, :, 1] = np.nan  # a degenerate column inside the stack
        weights[6, :, 0] = 0.0
        caps = rng.uniform(1.0, 100.0, (10, 2))
        stacked = proportional_split(weights, caps)
        for k in range(10):
            assert np.array_equal(stacked[k], proportional_split(weights[k], caps[k]))
        fallback = rng.uniform(0.5, 2.0, (10, 4, 2))
        stacked = proportional_split(weights, caps, fallback=fallback)
        for k in range(10):
            single = proportional_split(weights[k], caps[k], fallback=fallback[k])
            assert np.array_equal(stacked[k], single)
        # One (R,) capacity vector is shared by every problem of a stack.
        shared = proportional_split(weights, caps[0])
        assert np.array_equal(shared[4], proportional_split(weights[4], caps[0]))
        with pytest.raises(ValueError):
            proportional_split(np.ones((2, 3, 2)), np.ones((5, 2)))
