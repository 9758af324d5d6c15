"""The agent table's history rings and the profiler's cached reports.

:class:`OnlineProfiler` keeps its accepted samples in its one-row
:class:`AgentTable`: a fixed-depth ring per row (a full bounded ring
overwrites its oldest sample; an unbounded one doubles).  These tests
drive it side by side with a list-based reference model of the
profiler's documented behaviour and require every observable to match
bit for bit.  The second half pins the memoized
:meth:`CobbDouglasUtility.rescaled` and the once-built naive prior.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitting import fit_cobb_douglas
from repro.core.utility import CobbDouglasUtility, rescale_elasticities
from repro.profiling.online import AgentTable, OnlineProfiler

TRUTH = CobbDouglasUtility((0.6, 0.3), scale=1.5)


class ListHistoryProfiler:
    """Reference model: the profiler with its history as Python lists."""

    def __init__(self, decay=1.0, weight_floor=1e-6, outlier_log_threshold=None,
                 max_condition=1e8, max_consecutive_outliers=3, n_resources=2):
        self.n_resources = n_resources
        self.min_samples = max(n_resources + 1, 4)
        self.decay = decay
        self.max_history = None
        if decay < 1.0:
            self.max_history = max(
                int(math.ceil(math.log(weight_floor) / math.log(decay))), self.min_samples
            )
        self.threshold = outlier_log_threshold
        self.max_condition = max_condition
        self.max_streak = max_consecutive_outliers
        self.rows, self.values = [], []
        self.fit, self.streak, self.dirty = None, 0, False
        self.last_condition_number = float("nan")
        self.counters = dict.fromkeys(
            ("rejected_non_positive", "rejected_outliers", "fit_fallbacks", "trimmed_samples"), 0
        )

    @property
    def n_samples(self):
        return len(self.values)

    @property
    def utility(self):
        if self.fit is None:
            return CobbDouglasUtility([1.0 / self.n_resources] * self.n_resources)
        return self.fit.utility

    def observe(self, allocation, performance, exploration=False):
        arr = np.asarray(allocation, dtype=float)
        if np.any(arr <= 0) or not np.all(np.isfinite(arr)) or not (
            np.isfinite(performance) and performance > 0
        ):
            self.counters["rejected_non_positive"] += 1
            return
        if not exploration and self._is_outlier(arr, float(performance)):
            self.counters["rejected_outliers"] += 1
            return
        self.streak = 0
        self.rows.append(arr.copy())
        self.values.append(float(performance))
        if self.max_history is not None and self.n_samples > self.max_history:
            excess = self.n_samples - self.max_history
            del self.rows[:excess], self.values[:excess]
            self.counters["trimmed_samples"] += excess
        self.dirty = True
        if self.needs_refit:
            self._refit()

    def _is_outlier(self, arr, performance):
        if self.threshold is None or self.fit is None:
            return False
        predicted = self.fit.utility.value(arr)
        if predicted <= 0 or not np.isfinite(predicted):
            return False
        if abs(math.log(performance) - math.log(predicted)) <= self.threshold:
            return False
        self.streak += 1
        if self.streak >= self.max_streak:
            self.streak = 0
            return False
        return True

    @property
    def needs_refit(self):
        return (
            self.dirty
            and self.n_samples >= self.min_samples
            and bool(np.all(np.ptp(np.vstack(self.rows), axis=0) > 0))
        )

    def samples(self):
        if not self.values:
            return None
        return np.vstack(self.rows), np.asarray(self.values, dtype=float)

    def fit_inputs(self):
        weights = None
        if self.decay != 1.0:
            ages = np.arange(self.n_samples - 1, -1, -1, dtype=float)
            weights = self.decay**ages
        return (*self.samples(), weights)

    def _refit(self):
        self.dirty = False
        allocations, performance, weights = self.fit_inputs()
        fit = fit_cobb_douglas(allocations, performance, weights=weights)
        self.last_condition_number = fit.condition_number
        if np.isfinite(fit.condition_number) and fit.condition_number <= self.max_condition:
            self.fit = fit
        else:
            self.counters["fit_fallbacks"] += 1


def _pair(**kwargs):
    return OnlineProfiler(**kwargs), ListHistoryProfiler(**kwargs)


def _assert_identical(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def assert_same(profiler, reference):
    """Every observable matches bit for bit; then scribble on the copies."""
    assert profiler.n_samples == reference.n_samples
    assert profiler.counters == reference.counters
    assert profiler.needs_refit == reference.needs_refit
    assert profiler.utility == reference.utility
    assert np.array_equal(
        profiler.last_condition_number, reference.last_condition_number, equal_nan=True
    )
    history, expected = profiler.samples(), reference.samples()
    assert (history is None) == (expected is None)
    if history is None:
        return
    for got, want in zip(history, expected):
        _assert_identical(got, want)
    weights = profiler.table.weights(0)
    expected_weights = reference.fit_inputs()[2]
    assert (weights is None) == (expected_weights is None)
    if weights is not None:
        _assert_identical(weights, expected_weights)
    # The arrays are copies: writing over them must not reach the
    # profiler (the next comparison would catch it).
    for array in (*history, weights):
        if array is not None:
            array.fill(-1.0)


def observe_both(profiler, reference, allocation, ipc, exploration=False):
    profiler.observe(allocation, ipc, exploration=exploration)
    reference.observe(allocation, ipc, exploration=exploration)


# One operation of a driven stream: a sample of some kind, or a burst
# of accepted samples (so short streams still wrap and grow the ring).
# Allocations come from a small grid of levels so repeated points (no
# variation on an axis) happen too.
_level = st.sampled_from([0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
_sample = st.tuples(
    st.just("sample"),
    st.sampled_from(["ok", "ok", "ok", "outlier", "non_positive", "non_finite"]),
    _level,
    _level,
    st.floats(0.8, 1.25),
    st.booleans(),
)
_burst = st.tuples(st.just("burst"), st.integers(1, 90), st.integers(0, 2**16))
_operation = st.one_of(_sample, _sample, _sample, _burst)


def _sample_values(kind, bandwidth, cache, noise):
    allocation = np.array([bandwidth, cache])
    ipc = TRUTH.value(allocation) * noise
    if kind == "outlier":
        ipc *= 1e3
    elif kind == "non_positive":
        ipc = -ipc if noise > 1.0 else 0.0
    elif kind == "non_finite":
        ipc = math.inf if noise > 1.0 else math.nan
    return allocation, ipc


class TestRingParity:
    @settings(max_examples=60, deadline=None)
    @given(
        decay=st.sampled_from([0.5, 0.85, 1.0]),
        weight_floor=st.sampled_from([1e-6, 0.05]),
        gated=st.booleans(),
        operations=st.lists(_operation, min_size=1, max_size=60),
    )
    def test_matches_list_history(self, decay, weight_floor, gated, operations):
        profiler, reference = _pair(
            decay=decay,
            weight_floor=weight_floor,
            outlier_log_threshold=1.0 if gated else None,
        )
        for operation in operations:
            if operation[0] == "burst":
                _, count, seed = operation
                rng = np.random.default_rng(seed)
                for _ in range(count):
                    allocation = rng.uniform(0.5, 20.0, size=2)
                    observe_both(profiler, reference, allocation, TRUTH.value(allocation))
                    assert_same(profiler, reference)
            else:
                _, kind, bandwidth, cache, noise, exploration = operation
                allocation, ipc = _sample_values(kind, bandwidth, cache, noise)
                observe_both(profiler, reference, allocation, ipc, exploration)
            assert_same(profiler, reference)

    @pytest.mark.parametrize("decay", [0.5, 0.85])
    def test_steady_state_ring_keeps_its_depth(self, decay):
        # A bounded history never needs more than its cap: the ring
        # keeps its depth and overwrites its oldest sample.
        profiler, reference = _pair(decay=decay)
        depth = int(profiler.table._depth[0])
        assert depth == profiler.max_history
        rng = np.random.default_rng(3)
        wraps = 0
        for _ in range(4 * depth):
            allocation = rng.uniform(0.5, 20.0, size=2)
            head = int(profiler.table._head[0])
            observe_both(profiler, reference, allocation, TRUTH.value(allocation))
            wraps += int(profiler.table._head[0]) < head
            assert_same(profiler, reference)
        assert profiler.n_samples == profiler.max_history
        assert profiler.table._depth[0] == depth
        assert len(profiler.table._perf) == depth
        assert wraps >= 3

    def test_unbounded_history_doubles(self):
        profiler, reference = _pair(decay=1.0)
        depth = int(profiler.table._depth[0])
        rng = np.random.default_rng(4)
        for _ in range(300):
            allocation = rng.uniform(0.5, 20.0, size=2)
            observe_both(profiler, reference, allocation, TRUTH.value(allocation))
            assert_same(profiler, reference)
        assert profiler.n_samples == 300
        assert profiler.table._depth[0] >= 300 > depth

    def test_growth_keeps_every_row(self):
        # Doubling one row's segment moves its samples, in order, and
        # leaves every other row where it was.
        table = AgentTable()
        for name in ("a", "b"):
            table.add(name)
        depth = int(table._depth[0])
        rng = np.random.default_rng(6)
        for step in range(depth + 3):
            table.observe(0, rng.uniform(0.5, 20.0, size=2), 1.0 + step)
            if step % 3 == 0:
                table.observe(1, rng.uniform(0.5, 20.0, size=2), 100.0 + step)
        assert table._depth.tolist() == [2 * depth, depth]
        assert table.samples(0)[1].tolist() == [1.0 + s for s in range(depth + 3)]
        assert table.samples(1)[1].tolist() == [
            100.0 + s for s in range(depth + 3) if s % 3 == 0
        ]

    def test_one_busy_row_does_not_deepen_the_others(self):
        # Unbounded histories cost the sum of their lengths: one busy
        # row among many idle ones must not give every row its depth.
        table = AgentTable()
        table.extend([f"a{i}" for i in range(64)])
        depth = int(table._depth[1])
        rng = np.random.default_rng(7)
        for row in range(1, 64):
            for k in range(3):
                table.observe(row, rng.uniform(0.5, 20.0, size=2), 100.0 * row + k)
        # The busy row's moves rebuild the arena under the idle rows.
        for step in range(5000):
            table.observe(0, rng.uniform(0.5, 20.0, size=2), 1.0 + step)
        assert table._depth[1:].tolist() == [depth] * 63
        assert table.samples(0)[1].tolist() == [1.0 + s for s in range(5000)]
        for row in range(1, 64):
            assert table.samples(row)[1].tolist() == [100.0 * row + k for k in range(3)]
        held = int(table.count.sum())
        assert len(table._perf) <= 4 * (held + 64 * depth)

    def test_churn_reclaims_removed_rows(self):
        # Rows that come and go leave no lasting garbage: rebuilding a
        # full arena packs the live segments.
        table = AgentTable(decay=0.85)
        table.extend(["keep0", "keep1"])
        rng = np.random.default_rng(8)
        for cycle in range(200):
            name = f"visitor{cycle}"
            row = table.add(name)
            table.observe(row, rng.uniform(0.5, 20.0, size=2), 1.0 + cycle)
            table.observe(0, rng.uniform(0.5, 20.0, size=2), 10.0 + cycle)
            table.remove(name)
        assert len(table) == 2
        assert len(table._perf) <= 4 * 3 * table.max_history
        assert table.samples(0)[1].tolist() == [
            10.0 + c for c in range(200 - table.max_history, 200)
        ]

    def test_observe_copies_the_caller_array(self):
        profiler = OnlineProfiler()
        allocation = np.array([2.0, 3.0])
        profiler.observe(allocation, 1.0)
        allocation[:] = 99.0
        assert profiler.samples()[0].tolist() == [[2.0, 3.0]]

    def test_variation_verdict_tracks_the_history(self):
        # The verdict must follow every append and every aged-out sample.
        table = AgentTable(decay=0.5, weight_floor=0.1)
        table.add("a")
        for _ in range(table.max_history):
            table.observe(0, (1.0, 1.0), 1.0)
        assert table.pending().size == 0
        table.observe(0, (2.0, 3.0), 2.0)
        assert table.pending().tolist() == [0]
        for _ in range(table.max_history - 1):
            table.observe(0, (1.0, 1.0), 1.0)
        assert table.pending().tolist() == [0]  # (2, 3) is still the oldest sample
        table.observe(0, (1.0, 1.0), 1.0)  # ...and now aged out
        assert table.pending().size == 0

    def test_fit_inputs_without_a_due_refit_raises(self):
        with pytest.raises(ValueError, match="no re-fit is due"):
            OnlineProfiler().fit_inputs()


class TestMemoizedReports:
    def test_rescaled_is_memoized(self):
        u = CobbDouglasUtility((0.6, 0.3), scale=2.0)
        assert u.rescaled() is u.rescaled()
        assert u.rescaled() == CobbDouglasUtility(rescale_elasticities(u.elasticities))

    def test_memo_leaves_identity_unchanged(self):
        memoized = CobbDouglasUtility((0.6, 0.3), scale=2.0)
        memoized.rescaled()
        fresh = CobbDouglasUtility((0.6, 0.3), scale=2.0)
        assert memoized == fresh
        assert hash(memoized) == hash(fresh)
        assert repr(memoized) == repr(fresh)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(memoized, protocol) == pickle.dumps(fresh, protocol)
        loaded = pickle.loads(pickle.dumps(memoized))
        assert loaded == memoized and vars(loaded) == vars(fresh)
        assert vars(copy.deepcopy(memoized)) == vars(fresh)
        assert loaded.rescaled() == memoized.rescaled()

    def test_reports_are_fresh_arrays(self):
        profiler = OnlineProfiler()
        report = profiler.report_elasticities()
        report[:] = 0.0
        assert profiler.report_elasticities().tolist() == [0.5, 0.5]

    def test_naive_prior_built_once(self):
        profiler = OnlineProfiler(n_resources=3)
        assert profiler.naive_utility is profiler.naive_utility
        assert profiler.utility is profiler.naive_utility
        assert profiler.naive_utility.rescaled() is profiler.utility.rescaled()
