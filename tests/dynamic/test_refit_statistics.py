"""The tick's re-fit from per-row statistics.

Each tick solves the due rows' normal equations from the agent table's
folded statistics; a row too ill-conditioned for them is re-fitted alone
from its ring samples by the SVD.  The fits must agree with the SVD on
the same samples, a degenerate row must still be rejected by
``max_condition``, and the re-fit's memory must not follow the longest
history.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.dynamic.controller as controller
from repro.core.fitting import FitMoments, fit_cobb_douglas
from repro.dynamic import DynamicAllocator
from repro.workloads import BENCHMARKS, get_workload

#: The tick's fits agree with the SVD on the same samples to these.
ALPHA_ATOL = 1e-9
SCALE_RTOL = 1e-9
CONDITION_RTOL = 1e-6


def allocator(n_agents, decay):
    names = sorted(BENCHMARKS)
    workloads = {
        f"{names[i % len(names)]}_{i}": get_workload(names[i % len(names)])
        for i in range(n_agents)
    }
    return DynamicAllocator(
        workloads, capacities=(6.4 * n_agents, 1024.0 * n_agents), decay=decay, seed=3
    )


def sample(rng, alpha=(0.3, 0.2)):
    bundle = rng.uniform((0.5, 100.0), (6.0, 1000.0))
    ipc = float(np.prod(bundle ** np.asarray(alpha))) * float(np.exp(rng.normal(0, 0.02)))
    return bundle.tolist(), ipc


def test_a_long_history_does_not_pad_the_refit():
    # Decay 1: one row holds 20 000 samples and every row is due.  A
    # padded re-fit allocated rows x longest history (74 MiB here).
    alloc = allocator(32, decay=1.0)
    rng = np.random.default_rng(0)
    names = alloc.agent_names
    for _ in range(20_000):
        alloc.observe_sample(names[0], *sample(rng))
    for name in names:
        for _ in range(8):
            alloc.observe_sample(name, *sample(rng))
    tracemalloc.start()
    try:
        alloc.step(0, measure=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alloc.table.fitted.all()
    assert peak <= 16 * 2**20, f"re-fit peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("decay", [0.85, 1.0])
def test_tick_fits_agree_with_the_svd_on_the_ring_samples(decay):
    alloc = allocator(12, decay=decay)
    table = alloc.table
    rng = np.random.default_rng(1)
    alphas = rng.uniform(0.1, 0.9, size=(12, 2))
    checked = 0
    for epoch in range(40):
        for _ in range(30):
            row = int(rng.integers(12))
            alloc.observe_sample(alloc.agent_names[row], *sample(rng, alphas[row]))
        alloc.step(epoch, measure=False)
        for row in np.flatnonzero(table.fitted & ~table.dirty):
            allocations, performance = table.samples(row)
            svd = fit_cobb_douglas(allocations, performance, weights=table.weights(row))
            assert table.alpha[row] == pytest.approx(svd.utility.alpha, abs=ALPHA_ATOL)
            assert table.scale[row] == pytest.approx(svd.utility.scale, rel=SCALE_RTOL)
            assert table.condition[row] == pytest.approx(svd.condition_number, rel=CONDITION_RTOL)
            checked += 1
    assert checked > 100


def test_collinear_rows_go_to_the_svd_and_are_rejected(monkeypatch):
    alloc = allocator(4, decay=0.85)
    table = alloc.table
    rng = np.random.default_rng(2)
    names = alloc.agent_names
    for row in (0, 1):
        # Every allocation on one ray: log cache = c + log bandwidth.
        for level in np.linspace(0.5, 6.0, 12):
            bundle = (float(level), float(150.0 * level))
            alloc.observe_sample(names[row], bundle, float(level**0.4))
    for row in (2, 3):
        for _ in range(12):
            alloc.observe_sample(names[row], *sample(rng))
    forms = []
    solve = controller.fit_cobb_douglas_batch

    def recorded(first, *args, **kwargs):
        forms.append("statistics" if isinstance(first, FitMoments) else len(first))
        return solve(first, *args, **kwargs)

    monkeypatch.setattr(controller, "fit_cobb_douglas_batch", recorded)
    alloc.step(0, measure=False)
    # One solve of the statistics, then each collinear row alone by the SVD.
    assert forms == ["statistics", 1, 1]
    assert alloc.metrics.get("repro_solver_batch_fit_fallbacks_total").value == 1
    assert table.fitted.tolist() == [False, False, True, True]
    for row in (0, 1):
        assert table.counters_of(row)["fit_fallbacks"] == 1
        assert not table.condition[row] <= table.max_condition
        assert table.report[row].tolist() == [0.5, 0.5]
