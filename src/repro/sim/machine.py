"""Trace-driven machine: caches, DRAM channel and core coupled closed-loop.

This is the detailed counterpart of the analytic machine — the stand-in
for the MARSSx86 + DRAMSim2 stack of §5.1.  For one workload and one
(cache, bandwidth) allocation it:

1. synthesizes a reference trace from the workload's locality model,
2. runs it through the two-level set-associative LRU hierarchy,
3. replays execution on a closed-loop timing model: the core advances
   at its non-DRAM CPI between L2 misses, each miss is scheduled on the
   closed-page DRAM channel at the moment the core reaches it, and the
   core is charged the *measured* loaded latency amortized over its
   memory-level parallelism.

Because arrivals are paced by core progress, the loop is
self-stabilizing under bandwidth saturation: when the channel backs up,
the core slows, and the offered load settles at what the allocated
share can carry — the same operating point the analytic fixed point
finds.

Step 2 normally runs on the stack-distance kernel
(:mod:`repro.sim.fastcache`), which is bit-exact against the reference
hierarchy and lets :meth:`TraceMachine.sweep` collapse a whole
allocation grid: the cache dimension costs one kernel pass per distinct
cache size (the miss stream never depends on bandwidth), and each
bandwidth point only replays DRAM timing over that miss stream.
``use_fast_kernel=False`` — or a configuration the kernel cannot
express, such as next-line prefetch — falls back to the per-access
reference simulator, producing identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..obs import MetricsRegistry, Series, global_registry, timed
from .cache import CacheHierarchy
from .dram import DramChannel
from .fastcache import FastHierarchy
from .platform import PlatformConfig
from .trace import generate_trace

__all__ = ["TraceSimulationResult", "TraceMachine"]

_POINTS = Series(
    "counter", "repro_fastcache_points_total", "Trace grid points by simulation path", ("path",)
)


@dataclass(frozen=True)
class TraceSimulationResult:
    """Everything measured by one trace-driven simulation."""

    workload_name: str
    cache_kb: float
    bandwidth_gbps: float
    ipc: float
    l1_miss_ratio: float
    l2_miss_ratio_global: float
    mean_memory_latency_ns: float
    achieved_bandwidth_gbps: float
    n_instructions: int
    n_dram_requests: int
    dram_row_hit_rate: float = 0.0


class TraceMachine:
    """Detailed trace-driven simulator for one platform.

    Parameters
    ----------
    platform:
        Geometry and timing (Table 1 defaults).
    n_instructions:
        Simulated instruction count per run.  The paper simulates 100M
        instructions per configuration on a cycle-accurate simulator;
        our synthetic workloads reach steady state much sooner, so the
        default is sized for sub-second runs while keeping sampling
        noise small.
    warmup:
        Checkpoint-style warm-up: pre-load the steady-state working set
        (the most popular lines, up to L2 capacity) so a finite trace
        measures warm behaviour, as the paper's 100M-ROI simulations do.
    use_fast_kernel:
        Simulate the hierarchy on the vectorized stack-distance kernel
        (:mod:`repro.sim.fastcache`) instead of the per-access reference
        loop.  Results are bit-identical; disable to cross-check or to
        measure the reference path.
    next_line_prefetch:
        Enable the L2 next-line prefetcher of
        :class:`~repro.sim.cache.CacheHierarchy`.  Prefetch fills break
        the LRU inclusion property, so this configuration automatically
        falls back to the reference simulator even when
        ``use_fast_kernel`` is set.  (Prefetch fills perturb the demand
        miss stream but are not separately timed on the DRAM channel.)
    metrics:
        :class:`~repro.obs.MetricsRegistry` for the kernel's fast-path /
        fallback counters (``repro_fastcache_points_total{path=...}``)
        and kernel latency histogram
        (``repro_fastcache_kernel_seconds``).  Defaults to the
        process-global registry.
    """

    def __init__(
        self,
        platform: Optional[PlatformConfig] = None,
        n_instructions: int = 400_000,
        warmup: bool = True,
        use_fast_kernel: bool = True,
        next_line_prefetch: bool = False,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if n_instructions <= 0:
            raise ValueError(f"n_instructions must be positive, got {n_instructions}")
        self.platform = platform if platform is not None else PlatformConfig()
        self.n_instructions = n_instructions
        self.warmup = warmup
        self.use_fast_kernel = bool(use_fast_kernel)
        self.next_line_prefetch = bool(next_line_prefetch)
        self.metrics = metrics if metrics is not None else global_registry()

    @property
    def kernel_active(self) -> bool:
        """Whether sweeps run on the stack-distance fast path.

        False when the kernel is disabled *or* when the configuration
        cannot be expressed by it (next-line prefetch).
        """
        return self.use_fast_kernel and not self.next_line_prefetch

    def simulate(
        self,
        workload,
        cache_kb: float,
        bandwidth_gbps: float,
        seed: int = 12345,
    ) -> TraceSimulationResult:
        """Run one workload at one allocation; returns measured IPC etc."""
        if cache_kb <= 0 or bandwidth_gbps <= 0:
            raise ValueError(
                f"allocations must be positive, got cache={cache_kb} KB, "
                f"bandwidth={bandwidth_gbps} GB/s"
            )
        return self.sweep(workload, [(bandwidth_gbps, cache_kb)], seed=seed)[0]

    def sweep(
        self,
        workload,
        points: Sequence[Tuple[float, float]],
        seed: int = 12345,
    ) -> List[TraceSimulationResult]:
        """Simulate one workload at every ``(bandwidth_gbps, cache_kb)`` point.

        Returns one result per point, in input order, bit-identical to
        calling :meth:`simulate` per point.  On the fast path the grid
        collapses: the trace is generated once, each distinct cache size
        costs one stack-distance pass (warm-up included — the warm
        prefix scales with L2 capacity), and every bandwidth point
        reuses that size's DRAM miss stream for a cheap timing replay.
        """
        point_list = [(float(bw), float(kb)) for bw, kb in points]
        for bw, kb in point_list:
            if kb <= 0 or bw <= 0:
                raise ValueError(
                    f"allocations must be positive, got cache={kb} KB, "
                    f"bandwidth={bw} GB/s"
                )
        if not point_list:
            return []
        if not self.kernel_active:
            if self.use_fast_kernel:
                self.metrics.child(_POINTS, "fallback").inc(len(point_list))
            return [
                self._simulate_reference(workload, kb, bw, seed)
                for bw, kb in point_list
            ]

        n_accesses = max(int(self.n_instructions * workload.refs_per_instr), 1)
        trace = generate_trace(workload.locality, n_accesses, seed=seed)
        results = {}
        l1_memo = {}  # warm length -> shared L1 pass (filter is L2-independent)
        for kb in dict.fromkeys(kb for _, kb in point_list):
            platform_kb = self.platform.with_allocation(kb, self.platform.dram.bandwidth_gbps)
            warm = (
                workload.locality.top_lines(platform_kb.l2.n_lines)
                if self.warmup
                else None
            )
            hierarchy = FastHierarchy(platform_kb.l1, platform_kb.l2)
            with timed(
                self.metrics,
                "repro_fastcache_kernel_seconds",
                help="Stack-distance kernel pass latency (one cache size)",
            ):
                memo_key = warm.size if warm is not None else 0
                if memo_key not in l1_memo:
                    stream = np.concatenate((warm, trace)) if warm is not None else trace
                    l1_memo[memo_key] = hierarchy.l1_pass(stream)
                run = hierarchy.run(trace, warm=warm, l1_pass=l1_memo[memo_key])
            miss_indices = run.dram_request_indices()
            l1_stats = run.l1_stats
            l1_miss_ratio = l1_stats.miss_ratio
            global_miss_ratio = run.l2_stats().misses / max(l1_stats.accesses, 1)
            for bw in dict.fromkeys(bw for bw, kb2 in point_list if kb2 == kb):
                results[(bw, kb)] = self._replay(
                    workload,
                    self.platform.with_allocation(kb, bw),
                    kb,
                    bw,
                    trace,
                    miss_indices,
                    l1_miss_ratio,
                    global_miss_ratio,
                )
        self.metrics.child(_POINTS, "fast").inc(len(point_list))
        return [results[point] for point in point_list]

    def _simulate_reference(
        self, workload, cache_kb: float, bandwidth_gbps: float, seed: int
    ) -> TraceSimulationResult:
        """The per-access reference path (also the fallback target)."""
        platform = self.platform.with_allocation(cache_kb, bandwidth_gbps)
        n_accesses = max(int(self.n_instructions * workload.refs_per_instr), 1)
        trace = generate_trace(workload.locality, n_accesses, seed=seed)

        hierarchy = CacheHierarchy(
            platform.l1, platform.l2, next_line_prefetch=self.next_line_prefetch
        )
        if self.warmup:
            hierarchy.warm(workload.locality.top_lines(platform.l2.n_lines))
        miss_indices = hierarchy.dram_request_indices(trace)
        l1_stats = hierarchy.l1.stats
        l2_stats = hierarchy.l2.stats
        l1_miss_ratio = l1_stats.miss_ratio
        global_miss_ratio = l2_stats.misses / max(l1_stats.accesses, 1)
        return self._replay(
            workload,
            platform,
            cache_kb,
            bandwidth_gbps,
            trace,
            miss_indices,
            l1_miss_ratio,
            global_miss_ratio,
        )

    def _replay(
        self,
        workload,
        platform: PlatformConfig,
        cache_kb: float,
        bandwidth_gbps: float,
        trace: np.ndarray,
        miss_indices: np.ndarray,
        l1_miss_ratio: float,
        global_miss_ratio: float,
    ) -> TraceSimulationResult:
        """Closed-loop DRAM timing replay over one miss stream.

        Shared by the reference and fast paths: given identical miss
        indices and miss ratios, the replay — and hence the final
        result — is bit-identical.
        """
        # Non-DRAM CPI: core-limited base plus exposed L2-hit latency.
        core = platform.core
        l2_hits_per_instr = workload.refs_per_instr * l1_miss_ratio - (
            workload.refs_per_instr * global_miss_ratio
        )
        hit_cost_cpi = l2_hits_per_instr * platform.l2.latency_cycles * 0.3
        core_cpi = max(workload.base_cpi, 1.0 / core.issue_width) + hit_cost_cpi
        core_cpi_ns = core_cpi * core.cycle_ns

        # Closed-loop replay: walk the miss stream, advancing core time
        # by the instruction gap, issuing each miss when reached, and
        # charging measured latency amortized over MLP.
        channel = DramChannel(platform.dram)
        instr_of_miss = miss_indices / workload.refs_per_instr
        core_time_ns = 0.0
        instr_done = 0.0
        for access_index, instr_index in zip(miss_indices, instr_of_miss):
            core_time_ns += (instr_index - instr_done) * core_cpi_ns
            instr_done = instr_index
            done = channel.service(core_time_ns, int(trace[access_index]))
            core_time_ns += (done - core_time_ns) / workload.mlp
        core_time_ns += (self.n_instructions - instr_done) * core_cpi_ns

        total_cycles = core_time_ns * core.frequency_ghz
        ipc = self.n_instructions / total_cycles if total_cycles > 0 else 0.0

        return TraceSimulationResult(
            workload_name=workload.name,
            cache_kb=cache_kb,
            bandwidth_gbps=bandwidth_gbps,
            ipc=float(ipc),
            l1_miss_ratio=float(l1_miss_ratio),
            l2_miss_ratio_global=float(global_miss_ratio),
            mean_memory_latency_ns=float(channel.mean_latency_ns),
            achieved_bandwidth_gbps=float(channel.achieved_bandwidth_gbps),
            n_instructions=self.n_instructions,
            n_dram_requests=int(miss_indices.size),
            dram_row_hit_rate=(
                channel.row_hits / channel.n_requests if channel.n_requests else 0.0
            ),
        )
