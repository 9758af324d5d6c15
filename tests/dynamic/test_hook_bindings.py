"""The trace hook's bindings stay on the tick path.

The open-loop benchmark's trace hook (``perfbench/tracehook/
sitecustomize.py``) replaces these names with timing wrappers once their
modules are imported, and derives per-layer metrics from the spans
(``enforce.floors_ms_per_step``, ``learning.caps_ms_per_step``, ...).
A tick that reached one of them through a reference taken earlier would
bypass its wrapper and silently drop that metric from traced runs.  So
the allocator is built first, the names are wrapped with call counters
afterwards, and each must run once per tick.
"""

from __future__ import annotations

import functools

import numpy as np

import repro.dynamic.controller as controller
from repro.core.registry import CreditMechanism
from repro.dynamic import DynamicAllocator
from repro.learning import DemandLearner
from repro.workloads import get_workload

AGENTS = ("canneal", "x264", "dedup", "swaptions")
TICKS = 4


def _counted(calls, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_every_hooked_binding_runs_once_per_tick(monkeypatch):
    allocator = DynamicAllocator(
        {name: get_workload(name) for name in AGENTS},
        capacities=(6.4 * len(AGENTS), 1024.0 * len(AGENTS)),
        mechanism="credit",
        learn_demands=True,
    )
    rng = np.random.default_rng(5)

    def feed(samples_per_agent):
        """Varied samples for every agent, so each tick has re-fits due."""
        for name in AGENTS:
            for _ in range(samples_per_agent):
                bundle = rng.uniform((0.5, 100.0), (6.0, 1000.0))
                allocator.observe_sample(name, bundle, float(bundle[0] ** 0.3 * bundle[1] ** 0.2))

    feed(allocator.table.min_samples)
    targets = [
        (controller, "apply_allocation_floors"),
        (controller, "fit_cobb_douglas_batch"),
        (DynamicAllocator, "_allocate"),
        (DemandLearner, "apply_caps"),
        (DemandLearner, "perturb"),
        (CreditMechanism, "observe"),
    ]
    calls = {attr: 0 for _, attr in targets}
    for owner, attr in targets:
        monkeypatch.setattr(owner, attr, _counted(calls, attr, getattr(owner, attr)))
    for epoch in range(TICKS):
        if epoch:
            feed(1)
        allocator.step(epoch, measure=False)
        assert calls == {attr: epoch + 1 for attr in calls}, epoch
