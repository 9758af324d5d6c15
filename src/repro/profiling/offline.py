"""Offline profiling: sweep the Table 1 grid and measure IPC (§4.4, §5.1).

The paper characterizes each application by simulating 25 architectures
(five cache sizes x five bandwidths).  :class:`OfflineProfiler` does the
same against either machine model:

* the fast analytic machine (default) — used for full-suite sweeps, and
* the trace-driven machine — the detailed path, for validation runs.

Real profiling is noisy (finite simulation windows, non-determinism);
the profiler therefore applies small multiplicative log-normal
measurement noise, seeded per workload for reproducibility.  This is
what gives the near-flat benchmarks (radiosity, string_match) their
paper-matching low R² — "negligible variance and no trend for
Cobb-Douglas to capture" — while leaving trendy workloads at high R².

Two accelerators wrap the sweep without changing its results:

* ``jobs=N`` fans (workload x grid-point) simulation tasks out over a
  process pool; noise is applied in the parent from the per-workload
  stream, so parallel profiles are bit-identical to serial ones;
* ``cache_dir=...`` memoizes finished profiles on disk, content-
  addressed by workload + platform + machine + noise configuration
  (:mod:`repro.profiling.cache`), so repeated runs skip simulation.

``profiler.stats`` counts simulated points and cache hits, which is how
tests (and the CI smoke job) verify that a warm run performs zero
simulator invocations.
"""

from __future__ import annotations

import zlib
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from ..core.fitting import CobbDouglasFit
from ..obs import MetricsRegistry, Series, timed
from ..sim.analytic import AnalyticMachine
from ..sim.machine import TraceMachine
from ..sim.platform import PlatformConfig
from ..workloads.spec import WorkloadSpec
from ..workloads.suites import BENCHMARKS
from .cache import ProfileCache, profile_cache_key
from .parallel import SweepTask, simulate_task, split_points
from .profile import Profile

__all__ = ["OfflineProfiler", "ProfilerStats"]

#: Default multiplicative measurement-noise sigma (log-space).  About 1%
#: run-to-run variation, typical of sampled cycle-accurate simulation.
DEFAULT_NOISE_SIGMA = 0.01

_CACHE_HITS = Series("counter", "repro_profiler_cache_hits_total", labels=("tier",))
_FASTCACHE_POINTS = Series("counter", "repro_profiler_fastcache_points_total", labels=("path",))


@dataclass
class ProfilerStats:
    """Where profiles came from: fresh simulation vs cache tiers.

    ``fastcache_points`` / ``fallback_points`` split the trace-machine
    share of ``simulated_points`` by simulation path (stack-distance
    kernel vs per-access reference); both stay zero on analytic sweeps
    and on warm cache runs.
    """

    simulated_points: int = 0
    simulated_workloads: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    fastcache_points: int = 0
    fallback_points: int = 0

    def summary(self) -> str:
        """One-line machine-greppable report (used by the CI smoke job).

        New fields append after ``disk_hits``: CI greps anchor on the
        prefix (``simulated_points=0 `` ... ``disk_hits=28``).
        """
        return (
            f"simulated_points={self.simulated_points} "
            f"simulated_workloads={self.simulated_workloads} "
            f"memory_hits={self.memory_hits} disk_hits={self.disk_hits} "
            f"fastcache_points={self.fastcache_points} "
            f"fallback_points={self.fallback_points}"
        )


class OfflineProfiler:
    """Profiles workloads over the platform's allocation grid.

    Parameters
    ----------
    platform:
        Platform whose sweep grids define the profile points.
    noise_sigma:
        Log-space standard deviation of multiplicative measurement
        noise; 0 disables noise entirely.
    seed:
        Base seed; each workload's noise stream is derived from it and
        the workload name, so profiles are reproducible per benchmark
        and independent across benchmarks.
    use_trace_machine:
        Profile on the detailed trace-driven simulator instead of the
        analytic model (slower; used by validation tests/examples).
    use_fast_kernel:
        Run trace-driven sweeps on the stack-distance kernel
        (:mod:`repro.sim.fastcache`), collapsing the grid to one cache
        pass per cache size plus cheap DRAM replays.  Bit-identical to
        the reference path (same cache keys on disk); disable via the
        ``--no-fast-kernel`` CLI flag to cross-check or measure the
        reference simulator.  No effect on analytic sweeps.
    jobs:
        Worker processes for sweeps.  1 (default) simulates inline;
        ``N > 1`` distributes (workload x grid-point) tasks over a
        process pool, producing bit-identical profiles.
    cache_dir:
        Root of the on-disk profile cache; ``None`` (default) disables
        disk caching.  Profiles are still memoized in memory either way.
    metrics:
        :class:`~repro.obs.MetricsRegistry` to mirror ``stats`` into
        (``repro_profiler_*`` counters plus a per-workload sweep-latency
        histogram).  ``None`` (default) creates a private registry,
        exposed as ``profiler.metrics``.
    """

    def __init__(
        self,
        platform: Optional[PlatformConfig] = None,
        noise_sigma: float = DEFAULT_NOISE_SIGMA,
        seed: int = 2014,
        use_trace_machine: bool = False,
        use_fast_kernel: bool = True,
        trace_instructions: int = 400_000,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if noise_sigma < 0:
            raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.platform = platform if platform is not None else PlatformConfig()
        self.noise_sigma = noise_sigma
        self.seed = seed
        self.use_trace_machine = use_trace_machine
        self.use_fast_kernel = bool(use_fast_kernel)
        self.jobs = int(jobs)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._analytic = AnalyticMachine(self.platform)
        self._trace = TraceMachine(
            self.platform,
            n_instructions=trace_instructions,
            use_fast_kernel=self.use_fast_kernel,
            metrics=self.metrics,
        )
        self._cache: Dict[str, Profile] = {}
        self.disk_cache = ProfileCache(cache_dir) if cache_dir is not None else None
        self.stats = ProfilerStats()
        self._executor: Optional[ProcessPoolExecutor] = None

    def _bump(self, stat: str, n: int = 1) -> None:
        """Increment one ProfilerStats field and its metric mirror together."""
        setattr(self.stats, stat, getattr(self.stats, stat) + n)
        self.metrics.child(*self._STAT_METRICS[stat]).inc(n)

    #: ProfilerStats field -> (series, label values) mirror map.
    _STAT_METRICS = {
        "simulated_points": (Series("counter", "repro_profiler_simulated_points_total"),),
        "simulated_workloads": (Series("counter", "repro_profiler_simulated_workloads_total"),),
        "memory_hits": (_CACHE_HITS, "memory"),
        "disk_hits": (_CACHE_HITS, "disk"),
        "fastcache_points": (_FASTCACHE_POINTS, "fast"),
        "fallback_points": (_FASTCACHE_POINTS, "fallback"),
    }

    def _bump_trace_path(self, n_points: int) -> None:
        """Attribute trace-machine points to the fast or fallback path."""
        if not self.use_trace_machine or n_points <= 0:
            return
        if not self.use_fast_kernel:
            return
        stat = "fastcache_points" if self._trace.kernel_active else "fallback_points"
        self._bump(stat, n_points)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the worker pool down (idempotent; pool restarts on demand)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "OfflineProfiler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.jobs)
        return self._executor

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    @property
    def _machine_kind(self) -> str:
        return "trace" if self.use_trace_machine else "analytic"

    def cache_key(self, workload: WorkloadSpec) -> str:
        """Content address of this workload's sweep under current settings."""
        return profile_cache_key(
            workload,
            self.platform,
            self._machine_kind,
            self.noise_sigma,
            self.seed,
            trace_instructions=self._trace.n_instructions,
        )

    def _lookup(self, workload: WorkloadSpec) -> Optional[Profile]:
        """Memory then disk; a disk hit is promoted into memory."""
        cached = self._cache.get(workload.name)
        if cached is not None:
            self._bump("memory_hits")
            return cached
        if self.disk_cache is not None:
            stored = self.disk_cache.get(self.cache_key(workload))
            if stored is not None:
                self._bump("disk_hits")
                self._cache[workload.name] = stored
                return stored
        return None

    def _workload_rng(self, name: str) -> np.random.Generator:
        """Deterministic per-workload noise stream."""
        return np.random.default_rng((self.seed, zlib.crc32(name.encode())))

    def _finalize(
        self, workload: WorkloadSpec, allocations: np.ndarray, ipc: np.ndarray
    ) -> Profile:
        """Apply the seeded noise stream, memoize, and persist."""
        if self.noise_sigma > 0:
            rng = self._workload_rng(workload.name)
            ipc = ipc * np.exp(rng.normal(0.0, self.noise_sigma, size=ipc.shape))
        profile = Profile(
            workload_name=workload.name,
            allocations=allocations,
            ipc=ipc,
            source=self._machine_kind,
        )
        self._cache[workload.name] = profile
        if self.disk_cache is not None:
            self.disk_cache.put(self.cache_key(workload), profile)
        return profile

    # ------------------------------------------------------------------
    # Simulation: serial and fanned-out paths
    # ------------------------------------------------------------------

    def _simulate_serial(self, workload: WorkloadSpec) -> Profile:
        with timed(
            self.metrics, "repro_profiler_sweep_seconds", workload=workload.name
        ):
            if self.use_trace_machine:
                points = self.platform.sweep_points()
                # One sweep call, not one simulate per point: the fast
                # kernel collapses the cache dimension to a single pass
                # per cache size and replays DRAM timing per bandwidth.
                results = self._trace.sweep(workload, points)
                ipc = np.array([result.ipc for result in results])
                allocations = np.asarray(points)
                self._bump_trace_path(len(points))
            else:
                sweep = self._analytic.sweep(workload)
                allocations, ipc = sweep.allocations, sweep.ipc
            self._bump("simulated_points", int(ipc.shape[0]))
            self._bump("simulated_workloads")
            return self._finalize(workload, allocations, ipc)

    def _simulate_parallel(self, pending: List[WorkloadSpec]) -> Dict[str, Profile]:
        """Fan (workload x grid-point) tasks over the pool; reassemble in order.

        With at least ``jobs`` workloads pending, one task per workload
        keeps per-task overhead low; with fewer, each workload's grid is
        split so every worker still gets a slice.
        """
        # Workloads interleave across the pool, so the batch is timed as
        # one sweep rather than attributing wall time per workload.
        with timed(
            self.metrics, "repro_profiler_sweep_seconds", workload="__parallel_batch__"
        ):
            points = self.platform.sweep_points()
            chunks = 1 if len(pending) >= self.jobs else -(-self.jobs // len(pending))
            tasks = [
                SweepTask(
                    workload=workload,
                    points=chunk,
                    offset=offset,
                    machine=self._machine_kind,
                    platform=self.platform,
                    trace_instructions=self._trace.n_instructions,
                    use_fast_kernel=self.use_fast_kernel,
                )
                for workload in pending
                for offset, chunk in split_points(points, chunks)
            ]
            raw_ipc = {workload.name: np.empty(len(points)) for workload in pending}
            futures = {self._pool().submit(simulate_task, task): task for task in tasks}
            done, _ = wait(futures, return_when=FIRST_EXCEPTION)
            for future in done:
                task = futures[future]
                values = future.result()  # re-raises worker exceptions
                raw_ipc[task.workload.name][task.offset : task.offset + len(values)] = (
                    values
                )
                self._bump("simulated_points", len(values))
                self._bump_trace_path(len(values))
            allocations = np.asarray(points)
            profiles = {}
            for workload in pending:
                self._bump("simulated_workloads")
                profiles[workload.name] = self._finalize(
                    workload, allocations, raw_ipc[workload.name]
                )
            return profiles

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def profile(self, workload: WorkloadSpec) -> Profile:
        """Measure IPC at every Table 1 sweep point (cached per workload)."""
        cached = self._lookup(workload)
        if cached is not None:
            return cached
        if self.jobs > 1:
            return self._simulate_parallel([workload])[workload.name]
        return self._simulate_serial(workload)

    def fit(self, workload: WorkloadSpec) -> CobbDouglasFit:
        """Profile then fit the workload's Cobb-Douglas utility."""
        return self.profile(workload).fit()

    def profile_suite(
        self, workloads: Optional[Iterable[WorkloadSpec]] = None
    ) -> Dict[str, Profile]:
        """Profiles for a set of workloads (default: all 28 benchmarks).

        This is the batch entry point: with ``jobs > 1`` every uncached
        workload's sweep is simulated concurrently in one fan-out.
        """
        if workloads is None:
            workloads = BENCHMARKS.values()
        workloads = list(workloads)
        profiles: Dict[str, Profile] = {}
        pending: List[WorkloadSpec] = []
        for workload in workloads:
            cached = self._lookup(workload)
            if cached is not None:
                profiles[workload.name] = cached
            elif not any(w.name == workload.name for w in pending):
                pending.append(workload)
        if pending:
            if self.jobs > 1:
                profiles.update(self._simulate_parallel(pending))
            else:
                for workload in pending:
                    profiles[workload.name] = self._simulate_serial(workload)
        return {workload.name: profiles[workload.name] for workload in workloads}

    def fit_suite(
        self, workloads: Optional[Iterable[WorkloadSpec]] = None
    ) -> Dict[str, CobbDouglasFit]:
        """Fitted utilities for a set of workloads (default: all 28)."""
        return {
            name: profile.fit()
            for name, profile in self.profile_suite(workloads).items()
        }
