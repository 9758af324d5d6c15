"""CI ``credit-smoke`` driver (also ``make credit-smoke``).

End-to-end exercise of the credit mechanism's temporal-fairness story:

1. **Service path**: ``repro dynamic --mechanism credit`` in-process for
   300 epochs of bursty churn (two agents join and leave mid-run),
   asserting the run stays feasible, the ``--metrics-out`` artifact
   covers every epoch, each ``repro_credit_balance`` histogram holds one
   balance per agent per epoch it was present and reads inside the bank
   bound (the export observes balances after the bank's clip, so this
   confirms the export, not the bound), and credit actually flowed
   (banked and spent counters are both positive).
2. **Horizon harness**: :func:`repro.experiments.credit_horizon
   .run_credit_horizon` on the bursty two-agent schedule, asserting the
   headline claim — per-epoch sharing incentives are violated while the
   windowed forms (SI and envy-freeness over tumbling windows) hold
   within the telescoping credit tolerance.
3. **Bounded telemetry**: a credit allocator with demand learning and
   32 resident agents churns 10 000 profile-free agents in process; its
   registry must hold as many series, and its exposition about as many
   bytes, as after 1 000 departures (the render time is printed, not
   gated).

Exits non-zero on the first violation; prints a greppable
``credit-smoke OK`` line on success.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

from repro.cli import main as repro_main
from repro.dynamic import DynamicAllocator
from repro.experiments.credit_horizon import bursty_pair, run_credit_horizon
from repro.obs import MetricsRegistry, to_prometheus
from repro.workloads import get_workload

EPOCHS = 300
MAX_BALANCE = 0.5  # CreditMechanism default bank bound
#: The service run's churn: (agent, workload, epoch it joins, epoch it leaves).
SERVICE_CHURN = (("late", "canneal", 60, 120), ("burst", "x264", 180, 240))
#: Churned agents at the reference point and at the end of the churn check.
CHURN_REFERENCE, CHURN_DEPARTURES = 1_000, 10_000
#: How far the exposition may grow in bytes (counter digits) between them.
EXPOSITION_SLACK = 0.05
RESIDENTS = ("freqmine", "dedup", "canneal", "x264", "streamcluster", "swaptions", "ferret", "fft")


def _check_dynamic_service() -> int:
    handle, metrics_path = tempfile.mkstemp(suffix=".json", prefix="credit-smoke-")
    os.close(handle)
    try:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = repro_main(
                [
                    "dynamic",
                    "--epochs", str(EPOCHS),
                    "--seed", "2014",
                    "--mechanism", "credit",
                    *(arg for name, workload, joins, leaves in SERVICE_CHURN
                      for arg in ("--churn", f"{joins}:add:{name}={workload}",
                                  "--churn", f"{leaves}:remove:{name}")),
                    "--metrics-out", metrics_path,
                    "--json",
                ]
            )
        if code != 0:
            print(f"FAIL: repro dynamic exited {code}", file=sys.stderr)
            return 1
        payload = json.loads(stdout.getvalue())
        if payload.get("feasible") is not True or payload.get("epochs") != EPOCHS:
            print(f"FAIL: bad dynamic summary {payload}", file=sys.stderr)
            return 1

        with open(metrics_path) as fh:
            registry = MetricsRegistry.from_dict(json.load(fh))
        epochs_total = registry.get("repro_dynamic_epochs_total")
        if epochs_total is None or epochs_total.value != EPOCHS:
            print(f"FAIL: epoch counter {epochs_total} != {EPOCHS}", file=sys.stderr)
            return 1
        # One histogram per resource holds every agent's balance after
        # every epoch it was present, so its min and max bound all of them.
        balances = [
            child for child in registry.metrics() if child.name == "repro_credit_balance"
        ]
        residents = len(payload["agents"]) - len(SERVICE_CHURN)
        agent_epochs = residents * EPOCHS + sum(
            leaves - joins for *_, joins, leaves in SERVICE_CHURN
        )
        counts = [child.count for child in balances]
        if counts != [agent_epochs] * 2:  # membw_gbps and cache_kb
            print(f"FAIL: repro_credit_balance holds {counts} balances per resource, "
                  f"not one per agent-epoch ({agent_epochs})", file=sys.stderr)
            return 1
        worst = max(max(-child.min, child.max) for child in balances)
        if worst > MAX_BALANCE + 1e-9:
            print(f"FAIL: |credit balance| {worst} > bank bound {MAX_BALANCE}",
                  file=sys.stderr)
            return 1
        for counter in ("repro_credit_banked_total", "repro_credit_spent_total"):
            flowed = registry.get(counter)
            if flowed is None or flowed.value <= 0:
                print(f"FAIL: {counter} never moved: no credit flowed", file=sys.stderr)
                return 1
        print(
            f"credit-smoke: dynamic service ran {EPOCHS} epochs with churn, "
            f"max |balance| {worst:.3f} <= {MAX_BALANCE} over {agent_epochs} agent-epochs"
        )
        return 0
    finally:
        os.unlink(metrics_path)


def _check_horizon_harness() -> int:
    report = run_credit_horizon(bursty_pair(), epochs=EPOCHS, window=50)
    if report.per_epoch_si_violations == 0:
        print("FAIL: credit never traded per-epoch SI (nothing to verify)",
              file=sys.stderr)
        return 1
    if not report.all_feasible:
        print("FAIL: credit produced an infeasible epoch", file=sys.stderr)
        return 1
    if not report.windowed_si_ok:
        print(f"FAIL: windowed SI margin {report.min_windowed_si_margin} < "
              f"-{report.si_window_tolerance}", file=sys.stderr)
        return 1
    if not report.windowed_ef_ok:
        print(f"FAIL: windowed envy {report.max_windowed_envy} too large",
              file=sys.stderr)
        return 1
    if report.max_abs_balance > MAX_BALANCE + 1e-9:
        print(f"FAIL: balance escaped the bank: {report.max_abs_balance}",
              file=sys.stderr)
        return 1
    print(
        f"credit-smoke: horizon harness traded {report.per_epoch_si_violations}"
        f"/{report.epochs} per-epoch SI violations for windowed SI margin "
        f"{report.min_windowed_si_margin:+.2e} (tol {report.si_window_tolerance:.0e})"
        f" and windowed envy {report.max_windowed_envy:.2e}"
    )
    return 0


def churn_allocator() -> DynamicAllocator:
    """A ``credit`` allocator with demand learning and 32 resident agents."""
    workloads = {
        f"{name}-{k}": get_workload(name) for k in range(4) for name in RESIDENTS
    }
    return DynamicAllocator(
        workloads,
        capacities=(6.4 * len(workloads), 1024.0 * len(workloads)),
        seed=7,
        metrics=MetricsRegistry(),
        mechanism="credit",
        learn_demands=True,
    )


def churn(allocator: DynamicAllocator, first: int, cycles: int) -> None:
    """Churn cycles ``first`` .. ``first + cycles - 1`` through ``allocator``.

    Each registers a profile-free agent, feeds it 8 exploration samples,
    ticks, deregisters it and ticks again.
    """
    rng = np.random.default_rng(first)
    for k in range(first, first + cycles):
        agent = f"churn-{k}"
        allocator.add_agent(agent, None, workload_class="C")
        for bandwidth, cache_kb in rng.uniform((0.5, 64.0), (12.0, 2048.0), size=(8, 2)):
            ipc = 0.8 * bandwidth**0.3 * (cache_kb / 1024.0) ** 0.2
            allocator.observe_sample(agent, (bandwidth, cache_kb), ipc, exploration=True)
        allocator.step(2 * k, measure=False)
        allocator.remove_agent(agent)
        allocator.step(2 * k + 1, measure=False)


def _check_bounded_telemetry() -> int:
    allocator = churn_allocator()
    churn(allocator, 0, CHURN_REFERENCE)
    children, size = len(allocator.metrics), len(to_prometheus(allocator.metrics))
    churn(allocator, CHURN_REFERENCE, CHURN_DEPARTURES - CHURN_REFERENCE)
    started = time.perf_counter()
    text = to_prometheus(allocator.metrics)
    render_ms = 1e3 * (time.perf_counter() - started)
    after = f"{len(allocator.metrics)} series and {len(text)} bytes"
    line = (f"after {CHURN_REFERENCE} departures {children} series and {size} bytes, "
            f"after {CHURN_DEPARTURES} {after}")
    if len(allocator.metrics) != children or len(text) > (1 + EXPOSITION_SLACK) * size:
        print(f"FAIL: telemetry grew with churn: {line}", file=sys.stderr)
        return 1
    print(f"credit-smoke: bounded telemetry: {line}; render {render_ms:.2f} ms (not gated)")
    return 0


def main() -> int:
    for check in (_check_dynamic_service, _check_horizon_harness, _check_bounded_telemetry):
        code = check()
        if code != 0:
            return code
    print(
        f"credit-smoke OK: {EPOCHS}-epoch bursty-churn service run feasible, "
        f"balances bounded, windowed SI/EF hold where per-epoch SI is traded, "
        f"telemetry bounded over {CHURN_DEPARTURES} departures"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
