"""Telemetry stays bounded under churn: no series outlives its agent.

The churn cycle of ``make credit-smoke`` (``benchmarks/credit_smoke.py``):
a ``credit`` allocator with demand learning and 32 resident agents; each
cycle registers a profile-free agent, feeds it 8 exploration samples,
ticks, deregisters it and ticks again.  Departed agents must leave
nothing behind in the registry or the exposition.
"""

import importlib.util
import sys
from pathlib import Path

from repro.obs import to_prometheus

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "credit_smoke.py"
_SPEC = importlib.util.spec_from_file_location("credit_smoke", _PATH)
credit_smoke = sys.modules.setdefault("credit_smoke", importlib.util.module_from_spec(_SPEC))
_SPEC.loader.exec_module(credit_smoke)


def test_registry_and_exposition_do_not_grow_with_departures():
    allocator = credit_smoke.churn_allocator()
    credit_smoke.churn(allocator, 0, 300)
    children, size = len(allocator.metrics), len(to_prometheus(allocator.metrics))
    credit_smoke.churn(allocator, 300, 300)
    assert len(allocator.metrics) == children
    assert abs(len(to_prometheus(allocator.metrics)) - size) <= 0.05 * size
    assert not any("agent" in dict(child.labels) for child in allocator.metrics.metrics())
