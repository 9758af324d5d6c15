"""Golden tick test: 300 seeded epochs of the allocation service, pinned.

Three scenarios drive :class:`~repro.dynamic.DynamicAllocator` the way the
server does (``observe_sample`` then ``step``), with the fault injector
live and every third tick measuring on the built-in machine:

* ``decay-0.85`` — the default bounded history, the REF mechanism;
* ``decay-1.0`` — unbounded history (the buffers must grow);
* ``learn-credit`` — ``learn_demands=True`` under the credit mechanism,
  with a profile-free agent that only the external stream feeds.

The external stream mixes plausible samples with non-positive, zero-
allocation, non-finite, outlier and exploration-tagged ones, and each
scenario adds one agent and removes another midway.  Ground truth is a
closed-form Cobb-Douglas machine, so the run's time goes to the tick.

Two levels of checking, because LAPACK bits may differ between machines
(numpy is unpinned):

* where the numpy version and the BLAS build and core match the recorded
  fingerprint, a sha256 digest over every tick's raw bytes (shares,
  reports, condition numbers, events), the final histories, the
  aggregate elasticities and the mechanism state must match exactly,
  and so must a second digest over the non-timing Prometheus text (the
  telemetry can change while the tick's outputs stay the same);
* everywhere, per-tick checksums (a dot product with fixed positive
  weights) must match at ``CHECKSUM_RTOL``, and the event counters
  exactly.

Regenerate the recording after an intended output change with
``PYTHONPATH=src python tests/dynamic/test_tick_golden.py --record``.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.dynamic import DynamicAllocator, FaultSpec
from repro.obs import MetricsRegistry, to_prometheus
from repro.workloads import get_workload

RECORDING = Path(__file__).with_name("golden_tick.json")
#: Fixed before recording: per-tick checksums agree to this on any host.
CHECKSUM_RTOL = 1e-9
N_TICKS = 300
WORKLOADS = tuple(
    "barnes blackscholes bodytrack canneal cholesky dedup facesim ferret fft "
    "fluidanimate freqmine streamcluster swaptions x264".split()
)
SCENARIOS = {
    "decay-0.85": dict(decay=0.85, mechanism="ref", learn_demands=False, seed=11),
    "decay-1.0": dict(decay=1.0, mechanism="ref", learn_demands=False, seed=12),
    "learn-credit": dict(decay=0.85, mechanism="credit", learn_demands=True, seed=13),
}
FAULTS = FaultSpec(drop=0.05, non_positive=0.05, outlier=0.05, outlier_scale=60.0)
SAMPLE_KINDS = ("ok",) * 4 + (
    "exploration",
    "non_positive",
    "zero_allocation",
    "non_finite",
    "outlier",
)


class CobbDouglasMachine:
    """Ground truth ``ipc = s * bw**a * (cache / 1024)**b`` per workload."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.params = {
            name: (rng.uniform(0.05, 0.8), rng.uniform(0.05, 0.8), rng.uniform(0.5, 2.0))
            for name in WORKLOADS + ("canneal", "x264")
        }

    def ipc(self, spec, cache_kb: float, bandwidth: float) -> float:
        a, b, scale = self.params[spec.name]
        return scale * bandwidth**a * (cache_kb / 1024.0) ** b


#: OpenBLAS builds name their configuration getter differently.
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config")


def _blas_fingerprint() -> str:
    """The BLAS build and the kernel core it picked on this CPU, if known."""
    import ctypes

    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _CONFIG_SYMBOLS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_char_p
                return getter().decode()
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]
        return json.dumps(config.get("lapack", {}), sort_keys=True)
    except Exception:  # pragma: no cover - numpy without show_config dicts
        return "unknown"


def fingerprint() -> dict:
    return {
        "numpy": np.__version__,
        "blas": _blas_fingerprint(),
        "machine": platform.machine(),
    }


def _fold(values: np.ndarray) -> np.ndarray:
    """Condition numbers to finite, non-negative checksum terms."""
    values = np.asarray(values, dtype=float)
    out = np.where(np.isfinite(values), np.log10(np.maximum(values, 1.0)), 40.0)
    return np.where(np.isnan(values), 50.0, out)


def _checksum(values: np.ndarray) -> float:
    """Dot product with fixed positive weights (no cancellation)."""
    flat = np.ravel(np.asarray(values, dtype=float))
    weights = 1.0 + 0.5 * np.cos(0.7 * np.arange(flat.size) + 0.3)
    return float(flat @ weights)


def _final_history(allocator, name):
    """The agent's accepted ``(allocations, performance)``, oldest first."""
    table = getattr(allocator, "table", None)
    if table is not None:
        return table.samples(table.row(name))
    return allocator._profilers[name].samples()


def _non_timing_prometheus(registry: MetricsRegistry) -> str:
    lines = []
    for line in to_prometheus(registry).splitlines():
        metric = line.split()[2] if line.startswith("#") else line.split("{")[0].split()[0]
        if "_seconds" not in metric:
            lines.append(line)
    return "\n".join(lines)


def _external_samples(rng, allocator, machine, names, capacities):
    """One tick's external stream: plausible samples plus every fault kind."""
    per_agent_caps = np.asarray(capacities) / len(names)
    for _ in range(int(rng.integers(3, 9))):
        name = names[int(rng.integers(len(names)))]
        kind = SAMPLE_KINDS[int(rng.integers(len(SAMPLE_KINDS)))]
        bundle = per_agent_caps * np.exp(rng.uniform(-1.5, 1.0, size=2))
        workload = allocator.workloads[name]
        if workload is None:
            workload = get_workload("x264")
        ipc = float(machine.ipc(workload, float(bundle[1]), float(bundle[0])))
        ipc *= float(np.exp(rng.normal(0.0, 0.02)))
        if kind == "non_positive":
            ipc = -ipc if rng.random() < 0.5 else 0.0
        elif kind == "zero_allocation":
            bundle[int(rng.integers(2))] = 0.0
        elif kind == "non_finite":
            ipc = float("nan") if rng.random() < 0.5 else float("inf")
        elif kind == "outlier":
            ipc *= 200.0 if rng.random() < 0.5 else 1.0 / 200.0
        bundle = (float(bundle[0]), float(bundle[1]))
        allocator.observe_sample(name, bundle, ipc, exploration=kind == "exploration")


def run_scenario(name: str) -> dict:
    """Drive one scenario; returns its digest, checksums and counters."""
    config = SCENARIOS[name]
    workloads = {w: get_workload(w) for w in WORKLOADS}
    capacities = (6.4 * len(workloads), 1024.0 * len(workloads))
    machine = CobbDouglasMachine(config["seed"])
    allocator = DynamicAllocator(
        workloads,
        capacities=capacities,
        machine=machine,
        decay=config["decay"],
        seed=config["seed"],
        faults=FAULTS,
        metrics=MetricsRegistry(),
        mechanism=config["mechanism"],
        learn_demands=config["learn_demands"],
    )
    if config["learn_demands"]:
        allocator.add_agent("profile_free", None, workload_class="C")
    rng = np.random.default_rng(config["seed"] + 1000)
    digest = hashlib.sha256()
    checksums = []
    events = []
    for epoch in range(N_TICKS):
        if epoch == 100:
            allocator.add_agent("late", get_workload("canneal"))
        if epoch == 200:
            allocator.remove_agent("cholesky")
        names = list(allocator.agent_names)
        _external_samples(rng, allocator, machine, names, capacities)
        record = allocator.step(epoch, measure=epoch % 3 == 0)
        enforced = record.enforced.shares
        raw = record.allocation.shares
        reports = np.array([record.reported_alpha[n] for n in record.agents])
        conditions = np.array([record.fit_condition[n] for n in record.agents])
        measured = np.array([record.measured_ipc.get(n, -1.0) for n in record.agents])
        for array in (enforced, raw, reports, conditions, measured):
            digest.update(np.ascontiguousarray(array, dtype=float).tobytes())
        digest.update(repr([tuple(vars(e).values()) for e in record.events]).encode())
        tags = (record.agents, record.allocation.mechanism, record.enforced.mechanism)
        digest.update(repr(tags).encode())
        caps = np.asarray(capacities)
        checksums.append(
            _checksum(
                np.concatenate(
                    [
                        (enforced / caps).ravel(),
                        (raw / caps).ravel(),
                        reports.ravel(),
                        _fold(conditions),
                    ]
                )
            )
        )
        events.extend(record.events)
    history_terms = []
    for agent in allocator.agent_names:
        history = _final_history(allocator, agent)
        if history is None:
            digest.update(b"none")
            continue
        allocations, performance = history
        digest.update(np.ascontiguousarray(allocations).tobytes())
        digest.update(np.ascontiguousarray(performance).tobytes())
        history_terms.append(np.log(allocations).ravel())
        history_terms.append(np.log(performance))
    aggregate = allocator.aggregate_elasticities()
    digest.update(np.ascontiguousarray(aggregate).tobytes())
    digest.update(json.dumps(allocator.mechanism_state(), sort_keys=True).encode())
    metrics_digest = hashlib.sha256(_non_timing_prometheus(allocator.metrics).encode())
    totals = Counter()
    for metric in allocator.metrics.metrics():
        if metric.name.startswith("repro_online_") and metric.kind == "counter":
            reason = dict(metric.labels).get("reason", "")
            totals[f"{metric.name}{{{reason}}}" if reason else metric.name] += int(metric.value)
    return {
        "digest": digest.hexdigest(),
        "metrics_digest": metrics_digest.hexdigest(),
        "checksums": checksums,
        "final_checksums": [
            _checksum(np.abs(np.concatenate(history_terms))),
            _checksum(aggregate),
        ],
        "counters": dict(sorted(Counter(e.kind for e in events).items())),
        "profiler_totals": dict(sorted(totals.items())),
    }


def _recording() -> dict:
    return json.loads(RECORDING.read_text())


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_tick_outputs_match_recording(scenario):
    recording = _recording()
    expected = recording["scenarios"][scenario]
    got = run_scenario(scenario)
    assert got["counters"] == expected["counters"]
    assert got["profiler_totals"] == expected["profiler_totals"]
    for key in ("checksums", "final_checksums"):
        np.testing.assert_allclose(got[key], expected[key], rtol=CHECKSUM_RTOL, atol=0.0)
    if fingerprint() != recording["fingerprint"]:
        pytest.skip("numpy/BLAS differ from the recording: digests not comparable")
    assert got["digest"] == expected["digest"]
    assert got["metrics_digest"] == expected["metrics_digest"]


def test_scenarios_exercise_every_fault_path():
    scenarios = _recording()["scenarios"]
    events = ("measurement_retry", "sample_rejected_outlier", "floor_projection")
    totals = (
        "repro_online_samples_rejected_total{non_positive}",
        "repro_online_samples_rejected_total{outlier}",
        "repro_online_refits_total",
    )
    for name in SCENARIOS:
        for kind in events:
            assert scenarios[name]["counters"].get(kind, 0) > 0, (name, kind)
        for key in totals:
            assert scenarios[name]["profiler_totals"].get(key, 0) > 0, (name, key)
    assert scenarios["decay-0.85"]["profiler_totals"]["repro_online_samples_trimmed_total"] > 0
    assert scenarios["learn-credit"]["counters"].get("exploration_perturbed", 0) > 0


def main(argv) -> int:
    if "--record" not in argv:
        print("usage: test_tick_golden.py --record", file=sys.stderr)
        return 2
    payload = {
        "fingerprint": fingerprint(),
        "checksum_rtol": CHECKSUM_RTOL,
        "scenarios": {name: run_scenario(name) for name in sorted(SCENARIOS)},
    }
    RECORDING.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {RECORDING}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
