"""Solver/fit hot-path benchmark (the `make bench-solver` entry).

Measures the four legs of the batched solver work and hard-gates each:

1. **Batched fitting** — ``fit_cobb_douglas_batch`` over 64 ragged
   agents versus the per-agent ``fit_cobb_douglas`` loop; gates on
   bit-close parity (elasticities, scale, R²) and a speedup floor.
2. **Closed form vs SLSQP** — ``max_nash_welfare`` unconstrained via
   the Eq. 14 closed form versus the forced numeric path; gates on
   1e-6 share agreement and reports the (large) speedup.
3. **Controller tick** — a 64-agent ``DynamicAllocator`` (one batched
   refit per epoch) versus an eager reference fed the same samples: one
   per-sample-refitting ``OnlineProfiler`` per agent, then Eq. 13 and
   the floor projection each epoch; gates on identical final enforced
   shares and the acceptance speedup floor (>= 3x).
4. **Scenario batching** — ``solve_batch`` over 50 independent
   problems versus the scalar loop; gates on exact parity.
5. **Skewed history** — a 256-agent ``DynamicAllocator`` at decay 1
   whose one agent holds 20 000 samples, every row due, one tick;
   records the tick's time and tracemalloc peak and gates the peak at
   32 MiB (a re-fit padded to the longest history peaked near 590 MiB).

Run directly (``python benchmarks/bench_solver.py``) or via
``make bench-solver``; CI runs it as a smoke step and uploads the
``BENCH_solver.json`` artifact.  Exits non-zero if any parity or floor
gate fails.

Named outside the ``bench_*.py`` pattern on purpose: it is a timing
harness with a JSON artifact, not a pytest benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.fitting import fit_cobb_douglas, fit_cobb_douglas_batch
from repro.core.mechanism import (
    Agent,
    AllocationProblem,
    apply_allocation_floors,
    proportional_elasticity,
)
from repro.core.utility import CobbDouglasUtility
from repro.dynamic import DynamicAllocator
from repro.dynamic.controller import RESOURCE_NAMES
from repro.optimize import max_nash_welfare, solve_batch
from repro.profiling.online import OnlineProfiler
from repro.workloads import BENCHMARKS, get_workload

#: Acceptance floors from the issue: the batched controller tick must
#: beat the eager per-sample-refit tick by at least 3x at 64 agents.
MIN_TICK_SPEEDUP = 3.0
MIN_FIT_SPEEDUP = 2.0
FIT_PARITY_ATOL = 1e-9
AGREEMENT_ATOL = 1e-6
#: The skewed-history tick's tracemalloc peak must stay below this.
MAX_SKEWED_PEAK_MIB = 32.0


def best_of(repeats: int, run) -> float:
    """Minimum wall-clock over ``repeats`` runs (noise-robust timing)."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        timings.append(time.perf_counter() - start)
    return min(timings)


def synthetic_samples(n_agents: int, seed: int = 2014):
    """Ragged per-agent (allocations, performance, weights) triples."""
    rng = np.random.default_rng(seed)
    allocations, performance, weights = [], [], []
    for k in range(n_agents):
        m = int(rng.integers(12, 30))
        alloc = rng.uniform(0.05, 1.0, size=(m, 2))
        alpha = rng.uniform(0.1, 0.9, size=2)
        scale = rng.uniform(0.5, 2.0)
        noise = rng.normal(0.0, 0.02, size=m)
        perf = scale * np.prod(alloc**alpha, axis=1) * np.exp(noise)
        allocations.append(alloc)
        performance.append(perf)
        # Half the agents use decayed weights, like the online profiler.
        weights.append(0.9 ** np.arange(m)[::-1] if k % 2 == 0 else None)
    return allocations, performance, weights


def bench_batch_fit(n_agents: int, repeats: int) -> dict:
    allocations, performance, weights = synthetic_samples(n_agents)

    loop_fits = [
        fit_cobb_douglas(a, p, weights=w)
        for a, p, w in zip(allocations, performance, weights)
    ]
    batch_fits = fit_cobb_douglas_batch(allocations, performance, weights)
    parity = max(
        max(
            float(np.max(np.abs(lf.utility.alpha - bf.utility.alpha))),
            abs(lf.utility.scale - bf.utility.scale),
            abs(lf.r_squared - bf.r_squared),
        )
        for lf, bf in zip(loop_fits, batch_fits)
    )

    loop_s = best_of(
        repeats,
        lambda: [
            fit_cobb_douglas(a, p, weights=w)
            for a, p, w in zip(allocations, performance, weights)
        ],
    )
    batch_s = best_of(
        repeats, lambda: fit_cobb_douglas_batch(allocations, performance, weights)
    )
    return {
        "agents": n_agents,
        "parity_max_abs_diff": parity,
        "loop_seconds": round(loop_s, 6),
        "batch_seconds": round(batch_s, 6),
        "speedup": round(loop_s / batch_s, 2),
    }


def bench_agreement(n_agents: int, repeats: int) -> dict:
    rng = np.random.default_rng(7)
    agents = [
        Agent(f"t{i}", CobbDouglasUtility(rng.uniform(0.05, 1.0, size=2)))
        for i in range(n_agents)
    ]
    problem = AllocationProblem(agents, (128.0, 96.0 * 1024))

    closed = max_nash_welfare(problem, fair=False)
    numeric = max_nash_welfare(problem, fair=False, numeric=True)
    # Compare in capacity-normalized share space so both resources
    # contribute at the same scale.
    caps = problem.capacity_vector
    agreement = float(np.max(np.abs(closed.shares / caps - numeric.shares / caps)))

    closed_s = best_of(repeats, lambda: max_nash_welfare(problem, fair=False))
    numeric_s = best_of(
        repeats, lambda: max_nash_welfare(problem, fair=False, numeric=True)
    )
    return {
        "agents": n_agents,
        "max_share_diff": agreement,
        "closed_form_seconds": round(closed_s, 6),
        "slsqp_seconds": round(numeric_s, 6),
        "speedup": round(numeric_s / closed_s, 2),
    }


def _make_allocator(n_agents: int, decay: float = 0.85):
    names = sorted(BENCHMARKS)
    workloads = {
        f"{names[i % len(names)]}_{i}": get_workload(names[i % len(names)])
        for i in range(n_agents)
    }
    return DynamicAllocator(
        workloads,
        capacities=(6.4 * n_agents, 1024.0 * n_agents),
        decay=decay,
        seed=2014,
    )


def _eager_reference(allocator: DynamicAllocator, ticks) -> np.ndarray:
    """What re-fitting every agent on every sample enforces, run on
    ``ticks``: one ``OnlineProfiler`` per agent (configured as the
    allocator's table rows), then Eq. 13 and the floor projection per
    epoch.  Returns the last epoch's enforced shares."""
    table = allocator.table
    names = list(allocator.agent_names)
    profilers = [
        OnlineProfiler(
            n_resources=table.n_resources,
            decay=table.decay,
            max_condition=table.max_condition,
            outlier_log_threshold=table.outlier_log_threshold,
        )
        for _ in names
    ]
    for tick in ticks:
        for k, bundle, ipc in tick:
            profilers[k].observe(bundle, ipc)
        problem = AllocationProblem(
            [Agent(name, profiler.utility) for name, profiler in zip(names, profilers)],
            allocator.capacities,
            RESOURCE_NAMES,
        )
        enforced = apply_allocation_floors(proportional_elasticity(problem), allocator.floors)
    return enforced.shares


def _tick_samples(n_agents: int, epochs: int, samples_per_tick: int):
    """Pre-generated serve-style sample stream: ground-truth Cobb-Douglas
    agents measured at jittered bundles, identical for both arms."""
    rng = np.random.default_rng(2014)
    alpha = rng.uniform(0.1, 0.9, size=(n_agents, 2))
    scale = rng.uniform(0.5, 2.0, size=n_agents)
    base = np.array([6.4, 1024.0])
    ticks = []
    for _ in range(epochs):
        tick = []
        for k in range(n_agents):
            for _ in range(samples_per_tick):
                bundle = base * rng.uniform(0.6, 1.4, size=2)
                ipc = scale[k] * float(np.prod(bundle ** alpha[k]))
                ipc *= float(np.exp(rng.normal(0.0, 0.02)))
                tick.append((k, (float(bundle[0]), float(bundle[1])), ipc))
        ticks.append(tick)
    return ticks


def bench_tick(n_agents: int, epochs: int, samples_per_tick: int, repeats: int) -> dict:
    """Eager per-sample refits vs one batched refit per epoch.

    Mirrors the serve ingestion path: several externally measured
    samples per agent arrive between ticks (``observe_sample``), then
    the tick allocates and enforces (``step(measure=False)``).  The
    eager reference refits an agent's model on every accepted sample
    (``n_agents * samples_per_tick`` SVD solves per tick); the
    allocator defers to exactly one stacked fit per tick.  The fits are
    pure functions of the sample history, so both must land on
    identical shares.
    """
    ticks = _tick_samples(n_agents, epochs, samples_per_tick)
    final_shares = {}
    timings = {"eager": float("inf"), "batched": float("inf")}
    for _ in range(repeats):
        allocator = _make_allocator(n_agents)
        names = list(allocator.agent_names)
        start = time.perf_counter()
        final_shares["eager"] = _eager_reference(allocator, ticks)
        timings["eager"] = min(timings["eager"], time.perf_counter() - start)
        start = time.perf_counter()
        for epoch, tick in enumerate(ticks):
            for k, bundle, ipc in tick:
                allocator.observe_sample(names[k], bundle, ipc)
            record = allocator.step(epoch, measure=False)
        timings["batched"] = min(timings["batched"], time.perf_counter() - start)
        final_shares["batched"] = record.enforced.shares

    parity = float(np.max(np.abs(final_shares["eager"] - final_shares["batched"])))
    return {
        "agents": n_agents,
        "epochs": epochs,
        "samples_per_tick": samples_per_tick,
        "parity_max_abs_diff": parity,
        "eager_seconds": round(timings["eager"], 6),
        "batched_seconds": round(timings["batched"], 6),
        "speedup": round(timings["eager"] / timings["batched"], 2),
    }


def bench_skewed_refit(n_agents: int, long_history: int) -> dict:
    """One tick re-fitting every row at decay 1 while one row holds a long history.

    The re-fit's cost and memory should follow the rows and the samples
    that arrived, not rows x the longest history.
    """
    allocator = _make_allocator(n_agents, decay=1.0)
    names = list(allocator.agent_names)
    rng = np.random.default_rng(2014)

    def observe(name, count):
        bundles = rng.uniform((0.5, 100.0), (6.0, 1000.0), size=(count, 2))
        for bundle in bundles.tolist():
            allocator.observe_sample(name, bundle, bundle[0] ** 0.3 * bundle[1] ** 0.2)

    observe(names[0], long_history)
    for name in names:
        observe(name, 8)
    tracemalloc.start()
    start = time.perf_counter()
    allocator.step(0, measure=False)
    seconds = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {
        "agents": n_agents,
        "long_history": long_history,
        "step_seconds": round(seconds, 6),
        "peak_mib": round(peak / 2**20, 3),
        "fitted": int(allocator.table.fitted.sum()),
    }


def bench_solve_batch(n_scenarios: int, n_agents: int, repeats: int) -> dict:
    rng = np.random.default_rng(99)
    problems = []
    for _ in range(n_scenarios):
        agents = [
            Agent(f"t{i}", CobbDouglasUtility(rng.uniform(0.05, 1.0, size=2)))
            for i in range(n_agents)
        ]
        problems.append(AllocationProblem(agents, (128.0, 96.0 * 1024)))

    loop = [proportional_elasticity(p) for p in problems]
    batch = solve_batch(problems, mechanism="ref")
    parity = max(
        float(np.max(np.abs(a.shares - b.shares))) for a, b in zip(loop, batch)
    )

    loop_s = best_of(repeats, lambda: [proportional_elasticity(p) for p in problems])
    batch_s = best_of(repeats, lambda: solve_batch(problems, mechanism="ref"))
    return {
        "scenarios": n_scenarios,
        "agents": n_agents,
        "parity_max_abs_diff": parity,
        "loop_seconds": round(loop_s, 6),
        "batch_seconds": round(batch_s, 6),
        "speedup": round(loop_s / batch_s, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--agents", type=int, default=64)
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--samples-per-tick", type=int, default=4)
    parser.add_argument("--scenarios", type=int, default=50)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--output", default="BENCH_solver.json", help="where to write the JSON artifact"
    )
    parser.add_argument(
        "--min-tick-speedup", type=float, default=MIN_TICK_SPEEDUP,
        help=f"fail below this controller-tick speedup (default: {MIN_TICK_SPEEDUP})",
    )
    parser.add_argument(
        "--min-fit-speedup", type=float, default=MIN_FIT_SPEEDUP,
        help=f"fail below this batched-fit speedup (default: {MIN_FIT_SPEEDUP})",
    )
    args = parser.parse_args(argv)

    fit = bench_batch_fit(args.agents, args.repeats)
    agreement = bench_agreement(16, args.repeats)
    tick = bench_tick(args.agents, args.epochs, args.samples_per_tick, args.repeats)
    scenarios = bench_solve_batch(args.scenarios, 32, args.repeats)
    skewed = bench_skewed_refit(256, 20_000)

    payload = {
        "batch_fit": fit,
        "closed_form_vs_slsqp": agreement,
        "controller_tick": tick,
        "solve_batch": scenarios,
        "skewed_refit": skewed,
        "min_tick_speedup": args.min_tick_speedup,
        "min_fit_speedup": args.min_fit_speedup,
        "fit_parity_atol": FIT_PARITY_ATOL,
        "agreement_atol": AGREEMENT_ATOL,
        "max_skewed_peak_mib": MAX_SKEWED_PEAK_MIB,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")

    print(f"{'leg':<22} {'baseline s':>11} {'batched s':>10} {'speedup':>8} "
          f"{'parity':>10}")
    print(f"{'batch fit':<22} {fit['loop_seconds']:>11.4f} "
          f"{fit['batch_seconds']:>10.4f} {fit['speedup']:>7.2f}x "
          f"{fit['parity_max_abs_diff']:>10.2e}")
    print(f"{'closed form vs SLSQP':<22} {agreement['slsqp_seconds']:>11.4f} "
          f"{agreement['closed_form_seconds']:>10.4f} {agreement['speedup']:>7.2f}x "
          f"{agreement['max_share_diff']:>10.2e}")
    print(f"{'controller tick':<22} {tick['eager_seconds']:>11.4f} "
          f"{tick['batched_seconds']:>10.4f} {tick['speedup']:>7.2f}x "
          f"{tick['parity_max_abs_diff']:>10.2e}")
    print(f"{'solve_batch':<22} {scenarios['loop_seconds']:>11.4f} "
          f"{scenarios['batch_seconds']:>10.4f} {scenarios['speedup']:>7.2f}x "
          f"{scenarios['parity_max_abs_diff']:>10.2e}")
    print(f"skewed history ({skewed['agents']} agents, one at {skewed['long_history']} "
          f"samples, decay 1): tick {1e3 * skewed['step_seconds']:.1f} ms, "
          f"peak {skewed['peak_mib']:.1f} MiB")
    print(f"wrote {args.output}")

    failures = []
    if fit["parity_max_abs_diff"] > FIT_PARITY_ATOL:
        failures.append(
            f"batch fit parity {fit['parity_max_abs_diff']:.2e} > {FIT_PARITY_ATOL}"
        )
    if fit["speedup"] < args.min_fit_speedup:
        failures.append(
            f"batch fit speedup {fit['speedup']}x below floor {args.min_fit_speedup}x"
        )
    if agreement["max_share_diff"] > AGREEMENT_ATOL:
        failures.append(
            f"closed form vs SLSQP diff {agreement['max_share_diff']:.2e} "
            f"> {AGREEMENT_ATOL}"
        )
    if tick["parity_max_abs_diff"] > FIT_PARITY_ATOL:
        failures.append(
            f"tick parity {tick['parity_max_abs_diff']:.2e} > {FIT_PARITY_ATOL}"
        )
    if tick["speedup"] < args.min_tick_speedup:
        failures.append(
            f"tick speedup {tick['speedup']}x below floor {args.min_tick_speedup}x"
        )
    if scenarios["parity_max_abs_diff"] > 0.0:
        failures.append(
            f"solve_batch not bit-identical "
            f"({scenarios['parity_max_abs_diff']:.2e})"
        )
    if skewed["peak_mib"] > MAX_SKEWED_PEAK_MIB:
        failures.append(
            f"skewed-history tick peaked at {skewed['peak_mib']} MiB "
            f"> {MAX_SKEWED_PEAK_MIB} MiB"
        )
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
