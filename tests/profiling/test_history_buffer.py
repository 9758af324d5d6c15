"""The profiler's contiguous history buffers and its cached reports.

:class:`OnlineProfiler` keeps its accepted samples in two NumPy buffers
(trimming advances a start offset; the buffer compacts in place or
doubles when its end is reached) and caches its variation verdict until
the history next changes.  These tests drive it side by side with the
list-based history it replaced, kept here as a reference model, and
require every observable to match bit for bit.  The second half pins
the memoized :meth:`CobbDouglasUtility.rescaled` and the once-built
naive prior.
"""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import CobbDouglasUtility, rescale_elasticities
from repro.profiling.online import OnlineProfiler

TRUTH = CobbDouglasUtility((0.6, 0.3), scale=1.5)


class ListHistoryProfiler(OnlineProfiler):
    """Reference model: the history as Python lists, re-stacked per call."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._rows = []
        self._values = []

    @property
    def n_samples(self):
        return len(self._values)

    def _append(self, allocation, performance):
        self._rows.append(allocation.copy())
        self._values.append(performance)

    def _trim_history(self):
        if self.max_history is None:
            return
        excess = self.n_samples - self.max_history
        if excess > 0:
            del self._rows[:excess]
            del self._values[:excess]
            self._count("trimmed_samples", excess)

    def samples(self):
        if not self._values:
            return None
        return np.vstack(self._rows), np.asarray(self._values, dtype=float)

    def fit_inputs(self):
        weights = None
        if self.decay != 1.0:
            ages = np.arange(self.n_samples - 1, -1, -1, dtype=float)
            weights = self.decay**ages
        return np.vstack(self._rows), np.asarray(self._values), weights

    def _has_variation(self):
        return bool(np.all(np.ptp(np.vstack(self._rows), axis=0) > 0))


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
    history, expected = profiler.samples(), reference.samples()
    assert (history is None) == (expected is None)
    if history is None:
        return
    for got, want in zip(history, expected):
        _assert_identical(got, want)
    inputs, expected_inputs = profiler.fit_inputs(), reference.fit_inputs()
    for got, want in zip(inputs, expected_inputs):
        assert (got is None) == (want is None)
        if got is not None:
            _assert_identical(got, want)
    # The arrays are copies: writing over them must not reach the
    # profiler (the next comparison would catch it).
    for array in (*history, *inputs):
        if array is not None:
            array.fill(-1.0)


def observe_both(profiler, reference, allocation, ipc, exploration=False):
    profiler.observe(allocation, ipc, exploration=exploration)
    reference.observe(allocation, ipc, exploration=exploration)


def refit_both(profiler, reference):
    for p in (profiler, reference):
        if p.needs_refit:
            p.refit_now()


# One operation of a driven stream: a sample of some kind, a burst of
# accepted samples (so short streams still cross the buffer's
# compaction and growth boundaries), or the controller's batched re-fit
# pass.  Allocations come from a small grid of levels so repeated
# points (no variation on an axis) happen too.
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
_operation = st.one_of(_sample, _sample, _sample, _burst, st.just(("refit",)))


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


class TestBufferParity:
    @settings(max_examples=60, deadline=None)
    @given(
        decay=st.sampled_from([0.5, 0.85, 1.0]),
        weight_floor=st.sampled_from([1e-6, 0.05]),
        auto_refit=st.booleans(),
        gated=st.booleans(),
        operations=st.lists(_operation, min_size=1, max_size=60),
    )
    def test_matches_list_history(self, decay, weight_floor, auto_refit, gated, operations):
        profiler, reference = _pair(
            decay=decay,
            weight_floor=weight_floor,
            auto_refit=auto_refit,
            outlier_log_threshold=1.0 if gated else None,
        )
        for operation in operations:
            if operation[0] == "refit":
                refit_both(profiler, reference)
            elif operation[0] == "burst":
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
    def test_steady_state_compacts_in_place(self, decay):
        # A bounded history never needs more than twice its cap: the
        # buffer keeps its size and wraps its live rows to the front.
        profiler, reference = _pair(decay=decay, auto_refit=False)
        capacity = len(profiler._performance)
        rng = np.random.default_rng(3)
        compactions = 0
        for step in range(4 * capacity):
            allocation = rng.uniform(0.5, 20.0, size=2)
            start = profiler._start
            observe_both(profiler, reference, allocation, TRUTH.value(allocation))
            compactions += profiler._start < start
            if step % 7 == 0:
                refit_both(profiler, reference)
            assert_same(profiler, reference)
        assert profiler.n_samples == profiler.max_history
        assert len(profiler._performance) == capacity
        assert compactions >= 3

    def test_unbounded_history_doubles(self):
        profiler, reference = _pair(decay=1.0, auto_refit=False)
        capacity = len(profiler._performance)
        rng = np.random.default_rng(4)
        for step in range(300):
            allocation = rng.uniform(0.5, 20.0, size=2)
            observe_both(profiler, reference, allocation, TRUTH.value(allocation))
            if step % 11 == 0:
                refit_both(profiler, reference)
            assert_same(profiler, reference)
        assert profiler.n_samples == 300
        assert len(profiler._performance) >= 300 > capacity

    def test_observe_copies_the_caller_array(self):
        profiler = OnlineProfiler()
        allocation = np.array([2.0, 3.0])
        profiler.observe(allocation, 1.0)
        allocation[:] = 99.0
        assert profiler.samples()[0].tolist() == [[2.0, 3.0]]

    def test_variation_verdict_tracks_the_history(self):
        # The cached verdict must be dropped on every append and trim.
        profiler = OnlineProfiler(decay=0.5, weight_floor=0.1, auto_refit=False)
        for _ in range(profiler.max_history):
            profiler.observe((1.0, 1.0), 1.0)
        assert not profiler.needs_refit
        profiler.observe((2.0, 3.0), 2.0)
        assert profiler.needs_refit
        for _ in range(profiler.max_history - 1):
            profiler.observe((1.0, 1.0), 1.0)
        assert profiler.needs_refit  # (2, 3) is still the oldest sample
        profiler.observe((1.0, 1.0), 1.0)  # ...and now trimmed away
        assert not profiler.needs_refit

    def test_fit_inputs_on_empty_history_raises(self):
        with pytest.raises(ValueError, match="no accepted samples"):
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
