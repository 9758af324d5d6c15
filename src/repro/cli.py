"""Command-line interface: the REF pipeline without writing Python.

Subcommands (``python -m repro <command> --help`` for details):

* ``profile``  — sweep one benchmark over the Table 1 grid; JSON out.
* ``fit``      — fit a Cobb-Douglas utility to a profile (file or
  benchmark name); reports elasticities and R².
* ``classify`` — the Fig. 9 table: re-scaled elasticities and C/M
  groups for all benchmarks.
* ``allocate`` — run a mechanism on a Table 2 mix (or ad-hoc benchmark
  list) and print the allocation plus its fairness report.
* ``evaluate`` — the four §5.5 mechanisms side by side on one mix
  (one Fig. 13/14 row).
* ``spl``      — the §4.3 strategic analysis for an N-agent population.
* ``fit-suite`` — fit all 28 benchmarks and save the suite as JSON
  (consumed by ``allocate --fits``).
* ``cosim``    — co-simulate a mix on the shared machine under enforced
  shares (choose the mechanism, DRAM policy and cache mode).
* ``dynamic`` — run the fault-tolerant closed-loop reallocation service
  (§4.4) with agent churn and injected measurement faults; prints the
  event log counters and the final enforced allocation.
* ``serve`` — run the asyncio HTTP allocation service (`repro.serve`):
  agents register, submit measured IPC samples (batched into one
  mechanism solve per epoch) and read back enforced allocations;
  ``/healthz`` and ``/metrics`` included.  Stops cleanly on SIGTERM.
* ``reproduce`` — regenerate any paper figure/table by id.
* ``metrics`` — render a ``--metrics-out`` JSON file (or the live
  registry) as a table, JSON, or Prometheus text exposition.

Every profiler-backed command and ``dynamic`` accept
``--metrics-out FILE`` to dump the run's collected metrics as JSON.

Everything heavy (NumPy, the workload tables, the profilers) imports
lazily: building the parser touches none of it, so ``repro --help`` and
worker spawns stay in the low tens of milliseconds, and each subcommand
pays only for what it runs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]

def _one_shot_mechanism_names():
    from .core.registry import cli_mechanism_names

    return cli_mechanism_names()


def _controller_mechanism_names():
    from .core.registry import controller_mechanism_names

    return controller_mechanism_names()


def _run_cli_mechanism(name: str, problem):
    """Resolve a CLI mechanism through the registry and run it once.

    The registry import is deferred: building the parser must not touch
    NumPy (the cold-start budget), and a one-shot solve carries no
    epoch state, so no context is passed.
    """
    from .core.registry import create_mechanism

    return create_mechanism(name).solve(problem)


class _LazyChoices:
    """An argparse ``choices`` container that resolves on first use.

    Building the parser must stay import-light (the ``--help``
    cold-start budget); only validating a value or rendering a
    subcommand's help touches the loader, which then imports the real
    table.  Implements the container protocol argparse relies on
    (membership, iteration, ``repr`` for error messages).
    """

    def __init__(self, loader):
        self._loader = loader
        self._values: Optional[tuple] = None

    def _resolve(self) -> tuple:
        if self._values is None:
            self._values = tuple(self._loader())
        return self._values

    def __contains__(self, value) -> bool:
        return value in self._resolve()

    def __iter__(self):
        return iter(self._resolve())

    def __len__(self) -> int:
        return len(self._resolve())

    def __repr__(self) -> str:
        return repr(list(self._resolve()))


def _benchmark_names() -> List[str]:
    from .workloads import BENCHMARKS

    return sorted(BENCHMARKS)


def _mix_names() -> List[str]:
    from .workloads import MIXES

    return sorted(MIXES)


_BENCHMARK_CHOICES = _LazyChoices(_benchmark_names)
_MIX_CHOICES = _LazyChoices(_mix_names)
#: Mechanism names accepted by ``allocate``/``cosim``: the registry's
#: one-shot listing, resolved lazily so the parser builds import-light.
CLI_MECHANISM_NAMES = _LazyChoices(_one_shot_mechanism_names)
#: Mechanisms the closed-loop ``dynamic``/``serve`` controller accepts.
CONTROLLER_MECHANISM_NAMES = _LazyChoices(_controller_mechanism_names)


def _add_pipeline_flags(parser: argparse.ArgumentParser) -> None:
    """Profiling-pipeline knobs shared by every profiler-backed command."""
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for profiling sweeps (default: 1, serial)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="on-disk profile cache directory (default: $REPRO_CACHE_DIR if set)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk profile cache",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the run's collected metrics as JSON to this path",
    )
    parser.add_argument(
        "--no-fast-kernel", action="store_true",
        help="trace-driven sweeps: use the per-access reference simulator "
        "instead of the stack-distance kernel (bit-identical, slower)",
    )


#: Prior policies for --prior.  Static strings, NOT imported from
#: repro.learning: the parser must build without touching NumPy (the
#: cold-start gate), and repro.learning imports it at module load.
#: tests/test_cli.py asserts this tuple matches learning.PRIOR_NAMES.
CLI_PRIOR_NAMES = ("equal", "centroid")


def _add_learning_flags(parser: argparse.ArgumentParser) -> None:
    """Demand-learning knobs shared by ``dynamic`` and ``serve``."""
    parser.add_argument(
        "--learn-demands", action="store_true",
        help=(
            "learn agent demands online (explore/exploit + demand caps); "
            "serve additionally accepts profile-free registers "
            "(profile: null)"
        ),
    )
    parser.add_argument(
        "--prior", choices=CLI_PRIOR_NAMES, default="equal", metavar="PRIOR",
        help=(
            "starting report for learning agents: equal (naive 1/R) or "
            "centroid (workload-class centroids of past fits)"
        ),
    )


def _resolve_cache_dir(args) -> Optional[str]:
    if args.no_cache:
        return None
    return args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or None


def _make_profiler(args):
    """Build the shared profiler from a command's pipeline flags.

    Profiler metrics land on the process-global registry, alongside the
    solver metrics, so one ``--metrics-out`` file captures the run.
    """
    from .obs import global_registry
    from .profiling import OfflineProfiler

    return OfflineProfiler(
        noise_sigma=getattr(args, "noise", 0.01),
        seed=getattr(args, "seed", 2014),
        use_trace_machine=getattr(args, "trace_machine", False),
        use_fast_kernel=not getattr(args, "no_fast_kernel", False),
        trace_instructions=getattr(args, "trace_instructions", 400_000),
        jobs=args.jobs,
        cache_dir=_resolve_cache_dir(args),
        metrics=global_registry(),
    )


def _export_metrics(args, *registries, spans=None) -> None:
    """Write the merged global + per-component registries to --metrics-out."""
    path = getattr(args, "metrics_out", None)
    if not path:
        return
    from .obs import MetricsRegistry, global_registry, write_json

    merged = MetricsRegistry()
    merged.merge(global_registry())
    for registry in registries:
        merged.merge(registry)
    write_json(merged, path, spans=spans)
    print(f"wrote metrics to {path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="REF: resource elasticity fairness (ASPLOS 2014) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    profile = sub.add_parser("profile", help="sweep a benchmark over the Table 1 grid")
    profile.add_argument("workload", choices=_BENCHMARK_CHOICES, metavar="WORKLOAD")
    profile.add_argument("--noise", type=float, default=0.01, help="log-space noise sigma")
    profile.add_argument("--seed", type=int, default=2014)
    profile.add_argument("--output", "-o", help="write profile JSON to this path")
    profile.add_argument(
        "--trace-machine", action="store_true",
        help="profile on the detailed trace-driven simulator (default: analytic)",
    )
    profile.add_argument(
        "--trace-instructions", type=int, default=400_000, metavar="N",
        help="instructions per trace-driven point (default: 400000)",
    )
    _add_pipeline_flags(profile)

    fit = sub.add_parser("fit", help="fit a Cobb-Douglas utility")
    source = fit.add_mutually_exclusive_group(required=True)
    source.add_argument("--workload", choices=_BENCHMARK_CHOICES)
    source.add_argument("--profile", help="path to a profile JSON")
    fit.add_argument("--json", action="store_true", help="machine-readable output")
    _add_pipeline_flags(fit)

    fit_suite = sub.add_parser(
        "fit-suite", help="fit every benchmark and save the suite to JSON"
    )
    fit_suite.add_argument("output", help="path for the fitted-suite JSON")
    fit_suite.add_argument("--noise", type=float, default=0.01)
    fit_suite.add_argument("--seed", type=int, default=2014)
    _add_pipeline_flags(fit_suite)

    classify = sub.add_parser("classify", help="Fig. 9 elasticity table for all benchmarks")
    classify.add_argument("--json", action="store_true")
    _add_pipeline_flags(classify)

    allocate = sub.add_parser("allocate", help="allocate a mix with one mechanism")
    target = allocate.add_mutually_exclusive_group(required=True)
    target.add_argument("--mix", choices=_MIX_CHOICES)
    target.add_argument("--workloads", help="comma-separated benchmark names")
    allocate.add_argument(
        "--mechanism", choices=CLI_MECHANISM_NAMES, default="ref",
        metavar="MECH",
        help="one-shot mechanism from the registry (default: ref)",
    )
    allocate.add_argument(
        "--capacities",
        help="bandwidth_gbps,cache_kb (default: scaled to the agent count)",
    )
    allocate.add_argument(
        "--fits", help="fitted-suite JSON from `fit-suite` (skips re-profiling)"
    )
    allocate.add_argument("--json", action="store_true")
    _add_pipeline_flags(allocate)

    evaluate = sub.add_parser("evaluate", help="compare the four mechanisms on a mix")
    evaluate.add_argument("mix", choices=_MIX_CHOICES, metavar="MIX")
    _add_pipeline_flags(evaluate)

    spl = sub.add_parser("spl", help="strategic (mis)reporting analysis")
    spl.add_argument("--agents", type=int, default=64)
    spl.add_argument("--strategic", type=int, default=4, help="agents to analyze")
    spl.add_argument("--seed", type=int, default=2014)

    cosim = sub.add_parser(
        "cosim", help="co-simulate a mix on the shared machine under enforced shares"
    )
    cosim.add_argument("mix", choices=_MIX_CHOICES, metavar="MIX")
    cosim.add_argument(
        "--mechanism", choices=CLI_MECHANISM_NAMES, default="ref",
        metavar="MECH",
        help="one-shot mechanism from the registry (default: ref)",
    )
    cosim.add_argument(
        "--policy", choices=["fcfs", "wfq", "stfm"], default="wfq",
        help="DRAM arbitration policy",
    )
    cosim.add_argument(
        "--cache-mode", choices=["partitioned", "shared"], default="partitioned",
        help="'shared' = unpartitioned LLC (the no-enforcement baseline)",
    )
    cosim.add_argument("--instructions", type=int, default=80_000)
    cosim.add_argument("--seed", type=int, default=99)

    dynamic = sub.add_parser(
        "dynamic",
        help="fault-tolerant closed-loop reallocation service (§4.4)",
    )
    dynamic.add_argument(
        "--workloads",
        default="freqmine,dedup",
        help="comma-separated benchmark names (repeats get numeric suffixes)",
    )
    dynamic.add_argument("--epochs", type=int, default=50)
    dynamic.add_argument(
        "--capacities",
        help="bandwidth_gbps,cache_kb (default: 6.4,1024 per agent)",
    )
    dynamic.add_argument("--decay", type=float, default=0.85)
    dynamic.add_argument("--exploration", type=int, default=2, metavar="N")
    dynamic.add_argument("--noise", type=float, default=0.01)
    dynamic.add_argument("--seed", type=int, default=0)
    dynamic.add_argument(
        "--mechanism", choices=CONTROLLER_MECHANISM_NAMES, default="ref",
        metavar="MECH",
        help="per-epoch controller mechanism from the registry "
        "(default: ref, closed form)",
    )
    dynamic.add_argument(
        "--fault-drop", type=float, default=0.0, metavar="P",
        help="probability a measurement is dropped (retried, then skipped)",
    )
    dynamic.add_argument(
        "--fault-non-positive", type=float, default=0.0, metavar="P",
        help="probability a measurement comes back non-positive",
    )
    dynamic.add_argument(
        "--fault-outlier", type=float, default=0.0, metavar="P",
        help="probability a measurement is wildly scaled",
    )
    dynamic.add_argument(
        "--outlier-scale", type=float, default=50.0,
        help="multiplicative distortion of outlier faults",
    )
    dynamic.add_argument(
        "--max-retries", type=int, default=3,
        help="retry budget per measurement for detectable faults",
    )
    dynamic.add_argument(
        "--churn", action="append", default=[], metavar="SPEC",
        help=(
            "membership change, repeatable: EPOCH:add:NAME=BENCHMARK or "
            "EPOCH:remove:NAME"
        ),
    )
    dynamic.add_argument(
        "--events", type=int, default=0, metavar="N",
        help="also print the last N event-log entries",
    )
    dynamic.add_argument("--json", action="store_true")
    dynamic.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the service's metrics (and epoch span trees) as JSON",
    )
    _add_learning_flags(dynamic)

    serve = sub.add_parser(
        "serve",
        help="run the asyncio HTTP allocation service (repro.serve)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787,
        help="listen port (0 binds an ephemeral port, printed on start)",
    )
    serve.add_argument(
        "--epoch-ms", type=float, default=50.0, metavar="MS",
        help="epoch period = max sample batching delay (default: 50ms)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="flush a sample batch early once it reaches N samples",
    )
    serve.add_argument(
        "--workloads",
        default="freqmine,dedup",
        help="initial agents, comma-separated benchmarks (repeats suffixed)",
    )
    serve.add_argument(
        "--agents",
        metavar="NAME=BENCH,...",
        help=(
            "explicitly named initial agents (overrides --workloads); "
            "used by the shard coordinator to seed cell workers"
        ),
    )
    serve.add_argument(
        "--capacities",
        help="bandwidth_gbps,cache_kb (default: 6.4,1024 per initial agent)",
    )
    serve.add_argument(
        "--cells", type=int, default=1, metavar="N",
        help=(
            "shard the service across N worker subprocesses behind a "
            "hierarchical coordinator (default: 1, a single flat server)"
        ),
    )
    serve.add_argument(
        "--grant-ms", type=float, default=None, metavar="MS",
        help="coordinator capacity-grant period (default: 4x --epoch-ms)",
    )
    serve.add_argument("--decay", type=float, default=0.85)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--mechanism", choices=CONTROLLER_MECHANISM_NAMES, default="ref",
        metavar="MECH",
        help="per-epoch controller mechanism from the registry "
        "(default: ref, closed form; --cells > 1 needs a hierarchical one)",
    )
    serve.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the service's metrics (and epoch span trees) on shutdown",
    )
    _add_learning_flags(serve)

    metrics = sub.add_parser(
        "metrics",
        help="render collected metrics as a table, JSON, or Prometheus text",
    )
    metrics.add_argument(
        "file",
        nargs="?",
        help="metrics JSON written by --metrics-out (default: live registry)",
    )
    metrics.add_argument(
        "--format",
        choices=["table", "json", "prometheus"],
        default="table",
        help="output format (default: table)",
    )

    reproduce = sub.add_parser(
        "reproduce", help="regenerate paper figures/tables (or list them)"
    )
    reproduce.add_argument(
        "artifact",
        nargs="*",
        help=(
            "experiment ids (e.g. fig13 table2); omit or pass 'list' to "
            "enumerate; 'all' runs everything"
        ),
    )
    _add_pipeline_flags(reproduce)

    return parser


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_profile(args) -> int:
    from . import io
    from .workloads import get_workload

    with _make_profiler(args) as profiler:
        profile = profiler.profile(get_workload(args.workload))
    if args.output:
        io.save_profile(profile, args.output)
        print(f"wrote {profile.n_samples}-point profile to {args.output}")
    else:
        print(json.dumps(profile.as_dict(), indent=2))
    _export_metrics(args)
    return 0


def _cmd_fit(args) -> int:
    from .profiling import Profile
    from .workloads import get_workload

    if args.profile:
        with open(args.profile) as handle:
            profile = Profile.from_dict(json.load(handle))
        name = profile.workload_name
    else:
        with _make_profiler(args) as profiler:
            profile = profiler.profile(get_workload(args.workload))
        name = args.workload
    fit = profile.fit()
    alpha = fit.rescaled_elasticities
    if args.json:
        print(
            json.dumps(
                {
                    "workload": name,
                    "scale": fit.utility.scale,
                    "elasticities": list(fit.elasticities),
                    "rescaled_elasticities": alpha.tolist(),
                    "r_squared": fit.r_squared,
                }
            )
        )
    else:
        print(
            f"{name}: u = {fit.utility.scale:.4f} * bw^{fit.elasticities[0]:.4f} "
            f"* cache^{fit.elasticities[1]:.4f}"
        )
        print(f"re-scaled: a_mem = {alpha[0]:.3f}, a_cache = {alpha[1]:.3f}")
        print(f"R^2 = {fit.r_squared:.3f} over {fit.n_samples} samples")
    _export_metrics(args)
    return 0


def _cmd_classify(args) -> int:
    from .core import classify_many

    with _make_profiler(args) as profiler:
        prefs = classify_many(profiler.fit_suite())
    _export_metrics(args)
    if args.json:
        print(
            json.dumps(
                {
                    name: {
                        "a_mem": pref.memory_elasticity,
                        "a_cache": pref.cache_elasticity,
                        "group": pref.group.value,
                    }
                    for name, pref in prefs.items()
                }
            )
        )
        return 0
    print(f"{'benchmark':<20} {'a_cache':>8} {'a_mem':>8} {'group':>6}")
    for name, pref in prefs.items():
        print(
            f"{name:<20} {pref.cache_elasticity:>8.3f} "
            f"{pref.memory_elasticity:>8.3f} {pref.group.value:>6}"
        )
    return 0


def _cmd_fit_suite(args) -> int:
    from . import io

    with _make_profiler(args) as profiler:
        fits = profiler.fit_suite()
    io.save_json(io.suite_to_dict(fits), args.output)
    print(f"wrote {len(fits)} fits to {args.output}")
    _export_metrics(args)
    return 0


def _build_problem(args) -> AllocationProblem:
    from .workloads import BENCHMARKS, get_mix, get_workload, problem_from_fits
    from .workloads.mixes import WorkloadMix

    # Checked before any profiling; None scales them to the mix.
    capacities = _checked_capacities(args.capacities) if args.capacities else None
    if args.mix:
        mix = get_mix(args.mix)
    else:
        members = tuple(name.strip() for name in args.workloads.split(",") if name.strip())
        for member in members:
            if member not in BENCHMARKS:
                raise SystemExit(f"unknown benchmark {member!r}")
        counts = "-".join(
            part
            for part in (
                f"{sum(1 for m in members if BENCHMARKS[m].expected_group == 'C')}C",
                f"{sum(1 for m in members if BENCHMARKS[m].expected_group == 'M')}M",
            )
            if not part.startswith("0")
        )
        mix = WorkloadMix("adhoc", members, counts or "0C")
    if getattr(args, "fits", None):
        from . import io

        suite = io.suite_from_dict(io.load_json(args.fits))
        missing = [m for m in set(mix.members) if m not in suite]
        if missing:
            raise SystemExit(f"fits file lacks entries for: {sorted(missing)}")
        fits = {m: suite[m] for m in set(mix.members)}
    else:
        with _make_profiler(args) as profiler:
            fits = profiler.fit_suite(get_workload(m) for m in set(mix.members))
    return problem_from_fits(mix, fits, capacities)


def _cmd_allocate(args) -> int:
    from .core import check_fairness, weighted_system_throughput
    from .workloads import RESOURCE_NAMES

    problem = _build_problem(args)
    allocation = _run_cli_mechanism(args.mechanism, problem)
    report = check_fairness(allocation, pe_rtol=1e-2)
    _export_metrics(args)
    if args.json:
        print(
            json.dumps(
                {
                    "mechanism": args.mechanism,
                    "capacities": dict(zip(RESOURCE_NAMES, problem.capacities)),
                    "allocation": allocation.as_dict(),
                    "weighted_system_throughput": weighted_system_throughput(allocation),
                    "sharing_incentives": report.sharing_incentives,
                    "envy_free": report.envy_free,
                    "pareto_efficient": report.pareto_efficient,
                }
            )
        )
        return 0
    print(allocation.summary())
    print()
    print(report.summary())
    print(f"\nweighted system throughput: {weighted_system_throughput(allocation):.4f}")
    return 0


def _cmd_evaluate(args) -> int:
    from .core import check_fairness, create_mechanism, weighted_system_throughput
    from .experiments.throughput import MECHANISM_ORDER
    from .workloads import get_mix, get_workload, problem_from_fits

    mix = get_mix(args.mix)
    with _make_profiler(args) as profiler:
        fits = profiler.fit_suite(get_workload(m) for m in set(mix.members))
    problem = problem_from_fits(mix, fits)
    print(f"{args.mix} ({mix.characterization}), {problem.n_agents} agents")
    for name in MECHANISM_ORDER:
        mechanism = create_mechanism(name)
        allocation = mechanism.solve(problem)
        report = check_fairness(allocation, pe_rtol=1e-2)
        print(
            f"{mechanism.label:<38} throughput {weighted_system_throughput(allocation):7.4f}  "
            f"SI={report.sharing_incentives} EF={report.envy_free}"
        )
    _export_metrics(args)
    return 0


def _cmd_spl(args) -> int:
    import numpy as np

    from .core.mechanism import Agent, AllocationProblem
    from .core.spl import best_response
    from .core.utility import CobbDouglasUtility

    rng = np.random.default_rng(args.seed)
    agents = [
        Agent(f"t{i}", CobbDouglasUtility(rng.uniform(0.05, 1.0, size=2)))
        for i in range(args.agents)
    ]
    problem = AllocationProblem(agents, (128.0, 96.0 * 1024))
    alpha = problem.rescaled_alpha_matrix()
    worst = 0.0
    for i in range(min(args.strategic, args.agents)):
        others = alpha.sum(axis=0) - alpha[i]
        response = best_response(alpha[i], others, problem.capacity_vector)
        worst = max(worst, response.gain)
        print(
            f"agent t{i}: true {np.round(alpha[i], 3).tolist()} "
            f"best report {np.round(response.reported_alpha, 3).tolist()} "
            f"gain {response.gain * 100:.4f}%"
        )
    print(f"worst manipulation gain across {min(args.strategic, args.agents)} agents: "
          f"{worst * 100:.4f}%")
    return 0


def _cmd_cosim(args) -> int:
    from .profiling import OfflineProfiler
    from .sched import build_agent_shares
    from .sim import CacheConfig, DramConfig, PlatformConfig, SharedMachine
    from .workloads import get_mix, get_workload, problem_from_fits

    profiler = OfflineProfiler()
    mix = get_mix(args.mix)
    fits = {m: profiler.fit(get_workload(m)) for m in set(mix.members)}
    problem = problem_from_fits(mix, fits)
    workload_of = dict(zip(mix.agent_names(), (get_workload(m) for m in mix.members)))

    # Size the shared machine to the mix: enough ways for everyone,
    # a channel matching the allocated aggregate bandwidth.
    ways = 16 if problem.n_agents <= 8 else 32
    platform = PlatformConfig(
        l2=CacheConfig(size_kb=int(problem.capacities[1]), ways=ways, latency_cycles=20),
        dram=DramConfig(
            bandwidth_gbps=problem.capacities[0], channel_gbps=problem.capacities[0]
        ),
    )
    allocation = _run_cli_mechanism(args.mechanism, problem)
    shares = build_agent_shares(allocation, platform.l2, workload_of)
    machine = SharedMachine(platform, n_instructions=args.instructions)
    result = machine.run(
        shares, seed=args.seed, policy=args.policy, cache_mode=args.cache_mode
    )
    alone = {s.name: machine.run_alone(s, seed=args.seed).ipc[s.name] for s in shares}
    slowdowns = result.slowdowns(alone)
    print(
        f"{args.mix} under {args.mechanism} shares, policy={args.policy}, "
        f"cache={args.cache_mode}"
    )
    print(
        f"{'agent':<20} {'IPC':>8} {'alone':>8} {'slowdown':>9} "
        f"{'latency ns':>11} {'GB/s':>7}"
    )
    for share in shares:
        name = share.name
        print(
            f"{name:<20} {result.ipc[name]:>8.3f} {alone[name]:>8.3f} "
            f"{slowdowns[name]:>9.2f} {result.mean_latency_ns[name]:>11.1f} "
            f"{result.achieved_bandwidth_gbps[name]:>7.2f}"
        )
    print(f"unfairness index (max/min slowdown): {result.unfairness_index(slowdowns):.3f}")
    return 0


def _parse_churn_specs(specs, lookup_workload):
    """Parse ``EPOCH:add:NAME=BENCH`` / ``EPOCH:remove:NAME`` flags."""
    from .dynamic import ChurnEvent, ChurnSchedule

    events = []
    for spec in specs:
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise SystemExit(
                f"bad --churn spec {spec!r}: expected EPOCH:add:NAME=BENCHMARK "
                f"or EPOCH:remove:NAME"
            )
        epoch_text, action, rest = parts
        try:
            epoch = int(epoch_text)
        except ValueError:
            raise SystemExit(f"bad --churn epoch {epoch_text!r}") from None
        if action == "add":
            if "=" not in rest:
                raise SystemExit(
                    f"bad --churn spec {spec!r}: add needs NAME=BENCHMARK"
                )
            name, benchmark = rest.split("=", 1)
            events.append(ChurnEvent(epoch, "add", name, lookup_workload(benchmark)))
        elif action == "remove":
            events.append(ChurnEvent(epoch, "remove", rest))
        else:
            raise SystemExit(f"bad --churn action {action!r}: expected add or remove")
    return ChurnSchedule(events)


def _lookup_benchmark(benchmark: str):
    from .workloads import BENCHMARKS, get_workload

    if benchmark not in BENCHMARKS:
        raise SystemExit(f"unknown benchmark {benchmark!r}")
    return get_workload(benchmark)


def _workload_agents(text: str) -> "dict[str, str]":
    """``--workloads`` value -> ``{agent_name: benchmark_name}``; a
    repeated benchmark's agents are suffixed ``_2``, ``_3``, ..."""
    from .workloads import BENCHMARKS

    members = [name.strip() for name in text.split(",") if name.strip()]
    if not members:
        raise SystemExit("--workloads needs at least one benchmark")
    agents: "dict[str, str]" = {}
    for member in members:
        if member not in BENCHMARKS:
            raise SystemExit(f"unknown benchmark {member!r}")
        name, suffix = member, 2
        while name in agents:
            name = f"{member}_{suffix}"
            suffix += 1
        agents[name] = member
    return agents


def _serve_agent_benchmarks(args) -> "dict[str, str]":
    """Initial agents for ``serve`` as ``{agent_name: benchmark_name}``.

    ``--agents name=bench,...`` wins (the shard coordinator uses it to
    seed cell workers with exact names); otherwise ``--workloads``.
    """
    from .workloads import BENCHMARKS

    agents: "dict[str, str]" = {}
    if args.agents:
        for spec in args.agents.split(","):
            spec = spec.strip()
            if not spec:
                continue
            name, sep, benchmark = spec.partition("=")
            if not sep or not name or not benchmark:
                raise SystemExit(f"--agents expects NAME=BENCHMARK, got {spec!r}")
            if name in agents:
                raise SystemExit(f"--agents names agent {name!r} twice")
            if benchmark not in BENCHMARKS:
                raise SystemExit(f"unknown benchmark {benchmark!r}")
            agents[name] = benchmark
        if not agents:
            raise SystemExit("--agents needs at least one NAME=BENCHMARK entry")
        return agents
    return _workload_agents(args.workloads)


def _checked_capacities(text: str):
    """``--capacities`` as a float pair, or a one-line usage error."""
    from .dynamic.controller import validate_capacities

    try:
        return validate_capacities(text.split(","))
    except ValueError:
        raise SystemExit(
            f"--capacities expects 'bandwidth_gbps,cache_kb', two positive "
            f"finite numbers; got {text!r}"
        ) from None


def _parse_capacities(text: Optional[str], n_agents: int):
    if not text:
        return (6.4 * n_agents, 1024.0 * n_agents)
    return _checked_capacities(text)


@contextlib.contextmanager
def _one_line_errors():
    """A ValueError from building a service object, as a one-line usage error."""
    try:
        yield
    except ValueError as error:
        raise SystemExit(str(error)) from None


def _cmd_dynamic(args) -> int:
    from .dynamic import DynamicAllocator, FaultSpec
    from .workloads import get_workload

    if args.epochs < 1:
        raise SystemExit("--epochs must be >= 1")
    benchmarks = _workload_agents(args.workloads)
    workloads = {name: get_workload(bench) for name, bench in benchmarks.items()}
    capacities = _parse_capacities(args.capacities, len(workloads))
    with _one_line_errors():
        faults = FaultSpec(
            drop=args.fault_drop,
            non_positive=args.fault_non_positive,
            outlier=args.fault_outlier,
            outlier_scale=args.outlier_scale,
            max_retries=args.max_retries,
        )
        allocator = DynamicAllocator(
            workloads,
            capacities=capacities,
            decay=args.decay,
            exploration_samples=args.exploration,
            noise_sigma=args.noise,
            seed=args.seed,
            faults=faults if faults.is_active else None,
            mechanism=args.mechanism,
            learn_demands=args.learn_demands,
            prior=args.prior,
        )
    churn = _parse_churn_specs(args.churn, _lookup_benchmark)
    result = allocator.run(args.epochs, churn=churn if churn.events else None)
    feasible = result.all_feasible()
    counters = result.counters
    _export_metrics(
        args, allocator.metrics, spans=allocator.tracer.spans_as_dicts()
    )
    if args.json:
        final = result.records[-1]
        print(
            json.dumps(
                {
                    "epochs": result.n_epochs,
                    "feasible": feasible,
                    "learn_demands": bool(args.learn_demands),
                    "agents": list(result.agent_names),
                    "counters": counters,
                    "final_allocation": final.enforced.as_dict(),
                }
            )
        )
    else:
        print(result.summary())
        print()
        print("final enforced allocation:")
        final = result.records[-1]
        print(final.enforced.summary())
        if args.events:
            print()
            print(f"last {min(args.events, len(result.events))} events:")
            for event in result.events[-args.events:]:
                print(f"  {event}")
        # Greppable health line for CI smoke jobs.
        rejected = counters.get("sample_rejected_non_positive", 0) + counters.get(
            "sample_rejected_outlier", 0
        )
        fallbacks = counters.get("fit_fallback", 0) + counters.get("allocation_fallback", 0)
        print(
            f"dynamic-service: epochs={result.n_epochs} feasible={feasible} "
            f"retries={counters.get('measurement_retry', 0)} "
            f"skipped={counters.get('measurement_skipped', 0)} "
            f"rejected={rejected} fallbacks={fallbacks}"
        )
    return 0 if feasible else 1


def _serve_event_loop(server, banner: str) -> None:
    """Run an HttpServerBase server until SIGINT/SIGTERM, printing ``banner``."""
    import asyncio
    import signal

    async def _run() -> None:
        loop = asyncio.get_running_loop()
        await server.start()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-unix event loops: rely on KeyboardInterrupt
        print(
            f"serve: listening on http://{server.host}:{server.port} {banner}",
            flush=True,
        )
        try:
            await server.wait_stopped()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - windows fallback
        pass


def _cmd_serve(args) -> int:
    if args.epoch_ms <= 0:
        raise SystemExit("--epoch-ms must be positive")
    if args.max_batch < 1:
        raise SystemExit("--max-batch must be >= 1")
    if args.cells < 1:
        raise SystemExit("--cells must be >= 1")
    benchmarks = _serve_agent_benchmarks(args)
    capacities = _parse_capacities(args.capacities, len(benchmarks))

    if args.cells > 1:
        # Sharded: a hierarchical coordinator over N worker subprocesses
        # (repro.serve.shard).  Capacity splits are Eq. 13 on aggregate
        # elasticities; the coordinator refuses a within-cell mechanism
        # that does not compose with that split, and a cell without a
        # seed agent.
        from .serve import ShardCoordinator

        with _one_line_errors():
            coordinator = ShardCoordinator(
                benchmarks,
                capacities=capacities,
                cells=args.cells,
                host=args.host,
                port=args.port,
                epoch_ms=args.epoch_ms,
                max_batch=args.max_batch,
                grant_ms=args.grant_ms,
                decay=args.decay,
                seed=args.seed,
                mechanism=args.mechanism,
                learn_demands=args.learn_demands,
                prior=args.prior,
            )
        _serve_event_loop(
            coordinator,
            f"cells={args.cells} epoch_ms={args.epoch_ms:g} "
            f"grant_ms={coordinator.grant_ms:g} agents={len(benchmarks)}",
        )
        _export_metrics(args, coordinator.metrics)
        summary = coordinator.summary_line()
        print(summary, flush=True)
        return 0 if "feasible=True" in summary else 1

    from .dynamic import DynamicAllocator
    from .serve import AllocationServer, BatchPolicy
    from .workloads import get_workload

    workloads = {name: get_workload(bench) for name, bench in benchmarks.items()}
    with _one_line_errors():
        allocator = DynamicAllocator(
            workloads,
            capacities=capacities,
            decay=args.decay,
            seed=args.seed,
            mechanism=args.mechanism,
            learn_demands=args.learn_demands,
            prior=args.prior,
        )
        policy = BatchPolicy(max_delay=args.epoch_ms / 1000.0, max_batch=args.max_batch)
    server = AllocationServer(allocator, policy=policy, host=args.host, port=args.port)
    _serve_event_loop(
        server,
        f"epoch_ms={args.epoch_ms:g} max_batch={args.max_batch} "
        f"agents={len(allocator.agent_names)}",
    )
    _export_metrics(args, allocator.metrics, spans=allocator.tracer.spans_as_dicts())
    summary = server.summary_line()
    print(summary, flush=True)
    return 0 if "feasible=True" in summary else 1


def _cmd_metrics(args) -> int:
    from .obs import (
        MetricsRegistry,
        global_registry,
        render_table,
        to_json,
        to_prometheus,
    )

    if args.file:
        with open(args.file) as handle:
            registry = MetricsRegistry.from_dict(json.load(handle))
    else:
        registry = global_registry()
        # Keep the no-file view non-empty (and scrapeable) even in a
        # fresh process: expose the package version as build info.
        from . import __version__

        registry.gauge(
            "repro_build_info", help="Package build metadata.", version=__version__
        ).set(1.0)
    if args.format == "json":
        print(to_json(registry))
    elif args.format == "prometheus":
        print(to_prometheus(registry), end="")
    else:
        print(render_table(registry))
    return 0


def _cmd_reproduce(args) -> int:
    from .experiments import list_experiments, run_experiment_batch

    artifacts = args.artifact or ["list"]
    if artifacts == ["list"]:
        print("available experiments:")
        for experiment_id in list_experiments():
            print(f"  {experiment_id}")
        return 0
    targets = list_experiments() if "all" in artifacts else artifacts
    with _make_profiler(args) as profiler:
        try:
            results = run_experiment_batch(targets, profiler=profiler)
        except KeyError as error:
            raise SystemExit(str(error)) from None
        for experiment_id in targets:
            print(results[experiment_id].text)
            print()
        # Greppable provenance line for CI cache assertions; stderr so
        # stdout stays byte-comparable across serial/parallel/warm runs.
        print(f"[profiler] {profiler.stats.summary()}", file=sys.stderr)
    _export_metrics(args)
    return 0


_COMMANDS = {
    "profile": _cmd_profile,
    "fit": _cmd_fit,
    "fit-suite": _cmd_fit_suite,
    "cosim": _cmd_cosim,
    "dynamic": _cmd_dynamic,
    "serve": _cmd_serve,
    "metrics": _cmd_metrics,
    "reproduce": _cmd_reproduce,
    "classify": _cmd_classify,
    "allocate": _cmd_allocate,
    "evaluate": _cmd_evaluate,
    "spl": _cmd_spl,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Piping into `head` closes stdout early; point the fd at
        # /dev/null so interpreter shutdown doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
