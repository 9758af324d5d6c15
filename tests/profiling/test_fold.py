"""The agent table's folded statistics against a recomputation from its rings.

:meth:`AgentTable.fold` keeps each row's weighted Gram matrix and moment
up to date from the samples stored since the last fold and the folded
samples a full ring overwrote.  Whatever the stream (rejections, trims,
ring growth, departures and arrivals, folds and re-fits at any point),
the statistics must equal the ones recomputed from ``samples()`` with
the ``decay ** age`` weights.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fitting import fit_cobb_douglas_batch
from repro.profiling.online import AgentTable, OnlineProfiler

RTOL = 1e-12


def recomputed(table, row, origin):
    """Row ``row``'s statistics about ``origin``, from its ring samples."""
    p = table.n_resources + 1
    history = table.samples(row)
    if history is None:
        return np.zeros((p, p)), np.zeros(p)
    allocations, performance = history
    weights = table.weights(row)
    weights = np.ones(len(performance)) if weights is None else weights
    design = np.column_stack([np.ones(len(performance)), np.log(allocations) - origin[:-1]])
    weighted = weights[:, None] * design
    return weighted.T @ design, weighted.T @ (np.log(performance) - origin[-1])


def assert_statistics_match(table):
    moments = table.fit_block(np.arange(len(table))).moments
    for row in range(len(table)):
        gram, moment = recomputed(table, row, moments.origin[row])
        scale = max(np.abs(gram).max(), 1e-300)
        assert np.abs(moments.gram[row] - gram).max() <= RTOL * scale, row
        assert np.abs(moments.moment[row] - moment).max() <= RTOL * max(
            np.abs(moment).max(), scale
        ), row


def refit(table):
    profiler = OnlineProfiler.over(table)
    if profiler.needs_refit:
        block = profiler.fit_inputs()
        fits = fit_cobb_douglas_batch(block.moments)
        if np.isnan(fits.scale).any():
            fits = table.refit_alone(block.rows, fits, fit_cobb_douglas_batch)
        profiler.apply_fit(fits)


def feed(table, row, n, rng):
    for _ in range(n):
        allocation = rng.uniform(0.5, 20.0, size=2)
        value = 1.3 * allocation[0] ** 0.6 * allocation[1] ** 0.3
        table.observe(row, allocation, value * np.exp(rng.normal(0, 0.05)))


#: One round of a stream: bursts of samples into rows, then one action.
ROUND = st.tuples(
    st.lists(st.tuples(st.integers(0, 7), st.integers(1, 60)), min_size=1, max_size=4),
    st.sampled_from(["fold", "refit", "remove", "add", "reject", "outlier", "none"]),
    st.integers(0, 7),
)


@settings(max_examples=100, deadline=None)
@given(
    decay=st.sampled_from([0.85, 0.97, 1.0]),
    rounds=st.lists(ROUND, min_size=1, max_size=12),
    seed=st.integers(0, 2**16),
)
def test_folded_statistics_equal_a_recomputation(decay, rounds, seed):
    # Rings of 29 (decay 0.85) and 152 (decay 0.97) samples; unbounded at 1.
    rng = np.random.default_rng(seed)
    table = AgentTable(decay=decay, weight_floor=1e-2, outlier_log_threshold=1.0)
    table.extend(["a", "b", "c"])
    added = 0
    for bursts, action, pick in rounds:
        for row, n in bursts:
            feed(table, row % len(table), n, rng)
        row = pick % len(table)
        if action == "fold":
            table.fold()
        elif action == "refit":
            refit(table)
        elif action == "remove" and len(table) > 1:
            table.remove(table.names[row])
        elif action == "add":
            table.add(f"n{added}")
            added += 1
        elif action == "reject":
            for bad in (0.0, -1.0, float("nan"), float("inf")):
                assert not table.observe(row, (bad, 4.0), 1.0)
                assert not table.observe(row, (2.0, 4.0), bad)
        elif action == "outlier":
            # Rejected once the row has a fit; a run of them is let in.
            for _ in range(3):
                table.observe(row, rng.uniform(0.5, 20.0, size=2), 1e4)
    assert_statistics_match(table)


def test_a_full_ring_folded_once_per_sample_and_once_per_burst_agree():
    # The same stream folded after every sample and only at the end:
    # both equal the recomputation (the old samples leave exactly).
    every, once = AgentTable(decay=0.85), AgentTable(decay=0.85)
    for table in (every, once):
        table.add("a")
    rng = np.random.default_rng(0)
    for _ in range(400):
        allocation = rng.uniform(0.5, 20.0, size=2)
        value = float(np.prod(allocation**0.4))
        every.observe(0, allocation, value)
        every.fold()
        once.observe(0, allocation, value)
    assert every.counters_of(0)["trimmed_samples"] == 400 - every.max_history
    assert_statistics_match(every)
    assert_statistics_match(once)
