"""Epoch-based dynamic reallocation: a fault-tolerant §4.4 service.

Implements the loop §4.4 sketches: "As the system allocates for this
utility, the user profiles software performance.  And as profiles are
accumulated for varied allocations, the user adapts its utility
function."

Every epoch the controller

1. collects each agent's currently reported elasticities (naive
   ``x^0.5 y^0.5`` until on-line profiling has enough samples),
2. computes the REF allocation for the reports (closed form, so the
   per-epoch control cost is negligible), falling back to an equal
   split if the mechanism cannot produce a valid allocation,
3. runs the allocation through the enforcement stages (floors, then
   demand caps and exploration when learning) — the *enforced*
   allocation is always capacity-feasible and keeps every agent inside
   the profiled operating regime,
4. lets each agent run one epoch at its enforced bundle — measured on
   the analytic machine with optional noise and optional injected
   measurement faults — plus a configurable number of log-uniform
   exploration measurements, retrying failed measurements with bounded
   backoff and skipping (and counting) samples whose retries exhaust,
5. feeds the observations back into the agents' rows of the agent
   table, which rejects non-positive samples and ill-conditioned fits.

Between epochs agents may arrive (:meth:`DynamicAllocator.add_agent`)
or depart (:meth:`DynamicAllocator.remove_agent`) — directly or through
a :class:`~repro.dynamic.phases.ChurnSchedule` passed to ``run`` — and
the allocation problem is rebuilt each step for whoever is present.

With per-sample weight decay the controller tracks *phase changes*
(:class:`~repro.dynamic.phases.PhasedWorkload`), re-converging to each
phase's fair allocation a few epochs after every switch.  Everything
that goes wrong along the way is recorded as structured
:class:`EpochEvent` entries and aggregated into counters on
:class:`ControllerResult`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.fitting import fit_cobb_douglas_batch
from ..core.mechanism import Allocation, AllocationProblem, apply_allocation_floors
from ..core.registry import SolveContext, controller_mechanism_names, create_mechanism
from ..learning import DemandLearner
from ..obs import MetricsRegistry, Series, Tracer, timed
from ..profiling.online import COUNTERS, AgentTable, OnlineProfiler
from ..sim.analytic import AnalyticMachine
from ..workloads.problems import RESOURCE_NAMES
from .faults import FaultInjector, FaultSpec
from .phases import ChurnSchedule

__all__ = [
    "EpochEvent",
    "EpochRecord",
    "StageRecord",
    "ControllerResult",
    "DynamicAllocator",
    "RESOURCE_NAMES",
    "validate_capacities",
]

#: Table counter column -> the event a rise in it logs on a measured epoch.
_COUNTER_EVENTS = {
    "rejected_non_positive": "sample_rejected_non_positive",
    "rejected_outliers": "sample_rejected_outlier",
    "fit_fallbacks": "fit_fallback",
}
_EVENT_COLUMNS = [COUNTERS.index(column) for column in _COUNTER_EVENTS]
_EVENT_KINDS = list(_COUNTER_EVENTS.values())

_EPOCHS = Series("counter", "repro_dynamic_epochs_total", "Epochs stepped by the controller.")
_AGENTS = Series("gauge", "repro_dynamic_agents", "Agents present in the last stepped epoch.")
_EVENTS = Series(
    "counter", "repro_dynamic_events_total", "Structured controller events by kind.", ("kind",)
)
_BATCH_FITS = Series(
    "counter", "repro_solver_batch_fits_total", "Stacked multi-agent re-fit calls."
)
_BATCH_FIT_AGENTS = Series(
    "histogram",
    "repro_solver_batch_fit_agents",
    "Agents re-fitted per stacked call.",
    buckets=(1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0),
)
_BATCH_FIT_FALLBACKS = Series(
    "counter",
    "repro_solver_batch_fit_fallbacks_total",
    "Stacked re-fit calls that fell back to per-agent fits.",
)


def validate_capacities(capacities: Iterable[float]) -> Tuple[float, ...]:
    """``capacities`` as floats, or ValueError unless it is one positive
    finite number per entry of :data:`RESOURCE_NAMES` (the rule for both
    the constructor and :meth:`DynamicAllocator.set_capacities`)."""
    try:
        values = tuple(float(c) for c in capacities)
    except (TypeError, ValueError):
        values = ()
    n_resources = len(RESOURCE_NAMES)
    if len(values) != n_resources or not all(math.isfinite(c) and c > 0 for c in values):
        raise ValueError(
            f"capacities must be {n_resources} positive finite numbers, got {capacities!r}"
        )
    return values


@dataclass(frozen=True)
class EpochEvent:
    """One structured entry in the service's per-epoch event log."""

    epoch: int
    kind: str
    agent: Optional[str] = None
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - display helper
        who = f" agent={self.agent}" if self.agent else ""
        what = f" ({self.detail})" if self.detail else ""
        return f"[epoch {self.epoch}] {self.kind}{who}{what}"


@dataclass(frozen=True)
class EpochRecord:
    """Everything observed during one epoch.

    ``allocation`` is the raw mechanism output for the epoch's reports;
    ``enforced`` is what the agents actually ran at, the shares after
    every enforcement stage (not only the floors) — always feasible,
    every share at or above the floors.  ``measured_ipc`` holds only the
    agents whose measurement succeeded this epoch (skipped measurements
    are recorded as events).
    """

    epoch: int
    reported_alpha: Dict[str, np.ndarray]
    allocation: Allocation
    measured_ipc: Dict[str, float]
    enforced: Allocation
    agents: Tuple[str, ...] = ()
    events: Tuple[EpochEvent, ...] = ()
    fit_condition: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class StageRecord:
    """The latest epoch's shares after the solve and after each enforcement stage.

    ``shares`` is an ``(S, N, R)`` stack, ``shares[k]`` the shares after
    stage ``stages[k]``: ``"solve"`` (``EpochRecord.allocation``) first,
    the enforced allocation (``EpochRecord.enforced``) last.  Rows
    follow ``agents``.
    """

    stages: Tuple[str, ...]
    agents: Tuple[str, ...]
    shares: np.ndarray


@dataclass(frozen=True)
class _Tick:
    """What an enforcement stage reads besides the shares it reshapes."""

    epoch: int
    problem: AllocationProblem
    reports: np.ndarray


@dataclass(frozen=True)
class ControllerResult:
    """The full run history plus the service's health telemetry."""

    records: Tuple[EpochRecord, ...] = field(repr=False)

    @property
    def n_epochs(self) -> int:
        return len(self.records)

    @property
    def events(self) -> Tuple[EpochEvent, ...]:
        """The structured event log, flattened across epochs."""
        return tuple(event for record in self.records for event in record.events)

    @property
    def counters(self) -> Dict[str, int]:
        """Event counts by kind (retries, rejections, fallbacks, churn...)."""
        return dict(Counter(event.kind for event in self.events))

    @property
    def agent_names(self) -> Tuple[str, ...]:
        """Every agent that participated in at least one epoch."""
        seen: Dict[str, None] = {}
        for record in self.records:
            for name in record.agents or record.reported_alpha:
                seen.setdefault(name, None)
        return tuple(seen)

    def all_feasible(self, tol: float = 1e-9) -> bool:
        """True when every epoch's enforced allocation is feasible."""
        return all(record.enforced.is_feasible(tol) for record in self.records)

    def reported_series(self, agent: str, resource: int = 1) -> np.ndarray:
        """One agent's reported elasticity for a resource, per epoch.

        Epochs the agent was absent from are NaN-filled.
        """
        return np.array(
            [
                record.reported_alpha[agent][resource]
                if agent in record.reported_alpha
                else np.nan
                for record in self.records
            ]
        )

    def allocation_series(self, agent: str, resource: int) -> np.ndarray:
        """One agent's allocated amount of a resource, per epoch (NaN when absent)."""
        return self._share_series(agent, resource, enforced=False)

    def enforced_series(self, agent: str, resource: int) -> np.ndarray:
        """One agent's *enforced* amount of a resource, per epoch (NaN when absent)."""
        return self._share_series(agent, resource, enforced=True)

    def _share_series(self, agent: str, resource: int, enforced: bool) -> np.ndarray:
        values = []
        for record in self.records:
            allocation = record.enforced if enforced else record.allocation
            try:
                values.append(allocation[agent][resource])
            except KeyError:
                values.append(np.nan)
        return np.array(values)

    def ipc_series(self, agent: str) -> np.ndarray:
        """Measured IPC per epoch; NaN when absent or measurement skipped."""
        return np.array(
            [record.measured_ipc.get(agent, np.nan) for record in self.records]
        )

    def condition_series(self, agent: str) -> np.ndarray:
        """The agent's most recent fit condition number, per epoch."""
        return np.array(
            [record.fit_condition.get(agent, np.nan) for record in self.records]
        )

    def summary(self) -> str:
        """Human-readable service health report."""
        lines = [
            f"epochs run:        {self.n_epochs}",
            f"agents seen:       {', '.join(self.agent_names)}",
            f"all feasible:      {self.all_feasible()}",
        ]
        counters = self.counters
        if counters:
            lines.append("event counters:")
            for kind in sorted(counters):
                lines.append(f"  {kind:<28} {counters[kind]}")
        else:
            lines.append("event counters:    (none — a clean run)")
        return "\n".join(lines)


class DynamicAllocator:
    """Closed-loop on-line profiling + REF reallocation, hardened.

    Parameters
    ----------
    workloads:
        Agent name -> workload; either a static
        :class:`~repro.workloads.spec.WorkloadSpec` or a
        :class:`~repro.dynamic.phases.PhasedWorkload`.
    capacities:
        (bandwidth GB/s, cache KB) shared by the agents: one positive,
        finite amount per entry of :data:`RESOURCE_NAMES`.
    decay:
        On-line profiling sample decay; < 1 makes the controller track
        phase changes (old evidence ages out) and bounds each agent's
        sample history.
    exploration_samples:
        Extra log-uniform measurements per agent per epoch; at least
        one is needed for the regression to stay identified.
    noise_sigma:
        Measurement noise applied to every IPC observation.
    machine:
        Performance model used as ground truth; defaults to the
        analytic machine.
    faults:
        Optional :class:`~repro.dynamic.faults.FaultSpec` describing an
        imperfect measurement pipeline.  Detectable faults (drops,
        non-positive readings) are retried with bounded backoff and
        skipped when retries exhaust; outlier faults are left to the
        agent table's outlier gate.
    outlier_log_threshold:
        The agent table's outlier gate; samples whose log-residual
        against the agent's current fit exceeds it are rejected (a
        sustained run is re-admitted as a phase change).  Defaults to
        on (2.5) when fault injection is active, off otherwise.
    max_condition:
        Fit condition-number bound; ill-conditioned re-fits are
        discarded and the last good utility kept.
    metrics:
        :class:`~repro.obs.MetricsRegistry` receiving the controller's
        telemetry (epoch latency histogram, per-kind event counters,
        per-agent on-line profiling counters).  ``None`` (default) creates a
        private registry, exposed as ``allocator.metrics``; its event
        counters therefore match ``ControllerResult.counters`` exactly.
    mechanism:
        Which allocation mechanism each epoch runs, resolved by name
        through the :mod:`repro.core.registry` (any registered
        controller-capable mechanism; ``MECHANISM_NAMES`` lists them).
        ``"ref"`` (the default, Eq. 13), ``"max-welfare-unfair"`` and
        ``"credit"`` are closed-form — the O(N·R) fast path, counted
        under ``repro_solver_fast_path_total``.  ``"max-welfare-fair"``
        and ``"equal-slowdown"`` run the SLSQP log-space program,
        warm-started from the previous epoch's enforced shares (the last
        slice of :attr:`stage_record`) whenever the agent set is
        unchanged (hits/misses counted under
        ``repro_solver_warm_starts_total``).  Stateful mechanisms
        (``"credit"``) observe every enforced allocation and carry
        per-agent state across epochs; snapshot/restore it through
        :meth:`mechanism_state` / :meth:`load_mechanism_state`.
    learn_demands:
        Enable the :mod:`repro.learning` explore/exploit layer: agents
        may be added with **no workload** (profile-free), the mechanism
        sees confidence-weighted prior/fit elasticity blends, enforced
        shares get bounded ε-greedy exploration perturbations (tagged
        so the outlier gate cannot reject them), and
        demand-saturated agents are capped so surplus flows to
        unsaturated ones.  Off (default), behaviour is bit-identical to
        earlier releases.
    prior:
        Prior policy for learning agents: ``"equal"`` (the §4.4 naive
        report) or ``"centroid"`` (workload-class centroids learned
        from past confident fits).  Only meaningful with
        ``learn_demands=True``.

    State
    -----
    Every agent is one row of :attr:`table`, an
    :class:`~repro.profiling.online.AgentTable` kept in membership order
    (``agent_names``).  Samples are validated once, when
    :meth:`observe_sample` (or an internal measurement) writes them into
    the agent's row; each tick re-fits every dirty row with one stacked
    :func:`~repro.core.fitting.fit_cobb_douglas_batch` call, gates the
    fits with array masks and hands the ``(N, R)`` report array to the
    mechanism.  The solve's shares then run through the enforcement
    stages — ``floors``, then ``caps`` and ``exploration`` when learning
    — and :attr:`stage_record` keeps the shares after each.
    """

    #: Lower bounds keeping every agent inside the profiled regime.
    MIN_BANDWIDTH_GBPS = 0.4
    MIN_CACHE_KB = 64.0

    #: Mechanisms the controller can run (registry-derived: every
    #: controller-capable registration is accepted automatically).
    MECHANISM_NAMES = controller_mechanism_names()

    def __init__(
        self,
        workloads: Dict[str, object],
        capacities: Sequence[float],
        decay: float = 0.85,
        exploration_samples: int = 2,
        noise_sigma: float = 0.01,
        machine: Optional[AnalyticMachine] = None,
        seed: int = 0,
        faults: Optional[FaultSpec] = None,
        outlier_log_threshold: Optional[float] = None,
        max_condition: Optional[float] = 1e8,
        metrics: Optional[MetricsRegistry] = None,
        mechanism: str = "ref",
        learn_demands: bool = False,
        prior: str = "equal",
    ):
        if not workloads:
            raise ValueError("at least one agent is required")
        if exploration_samples < 1:
            raise ValueError("exploration_samples must be >= 1 to keep fits identified")
        self.capacities = validate_capacities(capacities)
        if mechanism not in self.MECHANISM_NAMES:
            raise ValueError(
                f"unknown mechanism {mechanism!r}; expected one of "
                f"{sorted(self.MECHANISM_NAMES)}"
            )
        self.workloads = dict(workloads)
        self.floors = (self.MIN_BANDWIDTH_GBPS, self.MIN_CACHE_KB)
        self.exploration_samples = exploration_samples
        self.noise_sigma = noise_sigma
        self.machine = machine if machine is not None else AnalyticMachine()
        self.faults = faults
        if outlier_log_threshold is None and faults is not None and faults.is_active:
            outlier_log_threshold = 2.5
        self._rng = np.random.default_rng(seed)
        self._injector = (
            FaultInjector(faults, seed=seed) if faults is not None and faults.is_active else None
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = Tracer(metrics=self.metrics)
        self.mechanism = mechanism
        self._mechanism_impl = create_mechanism(mechanism)
        self._fallback_impl = create_mechanism("equal-split-fallback")
        self.learn_demands = bool(learn_demands)
        self.prior_policy = prior
        self.learner: Optional[DemandLearner] = (
            DemandLearner(
                prior=prior,
                n_resources=len(self.capacities),
                metrics=self.metrics,
                seed=seed,
            )
            if self.learn_demands
            else None
        )
        # The enforcement stages, in order.  They look their callees up
        # when called, never at import, so a wrapper installed later
        # (the open-loop benchmark's trace hook) still sees every tick.
        self._stages = {"floors": self._stage_floors}
        if self.learner is not None:
            self._stages.update(caps=self._stage_caps, exploration=self._stage_exploration)
        #: The latest epoch's :class:`StageRecord`; ``None`` before the
        #: first step and after a capacity change.
        self.stage_record: Optional[StageRecord] = None
        if not self.learn_demands and any(w is None for w in self.workloads.values()):
            raise ValueError("profile-free agents require learn_demands=True")
        self.table = AgentTable(
            n_resources=len(self.capacities),
            decay=decay,
            outlier_log_threshold=outlier_log_threshold,
            max_condition=max_condition,
            metrics=self.metrics,
        )
        self.table.extend(list(self.workloads), [{"agent": name} for name in self.workloads])
        if self.learner is not None:
            for name, workload in self.workloads.items():
                self.learner.register(name, cls=self._class_hint(workload))
        self._profiler = OnlineProfiler.over(self.table)
        self._next_epoch = 0

    @staticmethod
    def _class_hint(workload: object) -> Optional[str]:
        """Workload-class hint ("C"/"M") feeding centroid priors."""
        return getattr(workload, "expected_group", None)

    # ------------------------------------------------------------------
    # Agent churn

    def add_agent(
        self,
        name: str,
        workload: object = None,
        workload_class: Optional[str] = None,
    ) -> None:
        """Admit a new agent; it participates from the next stepped epoch.

        The arrival starts from the naive prior and profiles online like
        everyone else; the allocation problem is rebuilt each epoch, so
        no restart is needed.  With ``learn_demands=True`` the workload
        may be ``None`` — a *profile-free* agent whose demands are
        learned entirely from externally observed samples
        (:meth:`observe_sample`); ``workload_class`` optionally hints
        its class ("C"/"M") for centroid priors.
        """
        if name in self.workloads:
            raise ValueError(f"agent {name!r} already exists")
        if workload is None and self.learner is None:
            raise ValueError(
                f"agent {name!r} has no workload; profile-free agents "
                f"require learn_demands=True"
            )
        self.workloads[name] = workload
        self.table.add(name, labels={"agent": name})
        if self.learner is not None:
            self.learner.register(
                name, cls=workload_class or self._class_hint(workload)
            )

    def remove_agent(self, name: str) -> None:
        """Retire an agent; capacity is re-divided from the next epoch."""
        if name not in self.workloads:
            raise ValueError(f"no agent named {name!r}")
        if len(self.workloads) == 1:
            raise ValueError("cannot remove the last agent")
        del self.workloads[name]
        self.table.remove(name)
        if self.learner is not None:
            self.learner.forget(name)
        self._mechanism_impl.forget_agent(name)

    # ------------------------------------------------------------------
    # Mechanism state (checkpoint/restore for stateful mechanisms)

    def mechanism_state(self) -> Dict:
        """JSON-serializable snapshot of the mechanism's persistent state."""
        return self._mechanism_impl.state_dict()

    def load_mechanism_state(self, state: Dict) -> None:
        """Restore a snapshot produced by :meth:`mechanism_state`."""
        self._mechanism_impl.load_state_dict(state)

    @property
    def agent_names(self) -> Tuple[str, ...]:
        return tuple(self.workloads)

    @property
    def resource_names(self) -> Tuple[str, ...]:
        """Resource names in capacity order (matches Eq. 13 problems)."""
        return RESOURCE_NAMES

    # ------------------------------------------------------------------
    # Hierarchical (cell-local) capacity

    def set_capacities(self, capacities: Sequence[float]) -> None:
        """Replace the capacity vector between epochs (sharding grants).

        A shard coordinator re-slices the global capacity across cells
        each grant round; the cell's controller must accept the new
        vector mid-run.  Warm-start shares from the previous capacity
        regime are discarded — they may be infeasible under a shrunk
        grant, and a cold SLSQP start is cheaper than a bad one.
        """
        values = validate_capacities(capacities)
        if values != self.capacities:
            self.capacities = values
            self.stage_record = None

    def aggregate_elasticities(self) -> np.ndarray:
        """Per-resource sum of re-scaled agent elasticities, shape (R,).

        This is the quantity the Eq. 13 closed form needs from each cell
        to split capacity hierarchically: the flat share of agent *i* in
        resource *r* is ``a_ir / sum_j a_jr * C_r``, so a cell's fair
        slice of ``C_r`` is its agents' partial sum of the denominator.
        """
        return self.reports().sum(axis=0)

    def reports(self) -> np.ndarray:
        """The ``(N, R)`` elasticities the agents report, in agent order.

        The learner's confidence-weighted blends in learning mode, the
        table's (naive-until-fitted) re-scaled fits otherwise — so the
        shard coordinator aggregates learned elasticities exactly like
        fitted ones.
        """
        if self.learner is not None:
            return self.learner.report(self.table)
        return self.table.report.copy()

    def observe_sample(
        self,
        agent: str,
        bundle: Sequence[float],
        value: float,
        exploration: bool = False,
    ) -> bool:
        """Feed one *externally measured* IPC sample into an agent's row.

        This is the ingestion path used by the allocation server
        (:mod:`repro.serve`): instead of the controller measuring on its
        internal machine, independent clients run at their enforced
        bundles and report what they observed.  The sample goes through
        the same hardened :meth:`~repro.profiling.online.AgentTable.observe`
        pipeline as internal measurements — non-positive/non-finite
        readings and fit-relative outliers are rejected and counted
        rather than crashing the loop.

        Returns ``True`` when the sample was accepted into the agent's
        history, ``False`` when it was rejected.  Raises ``ValueError``
        for an unknown agent (a caller bug, not a measurement fault).
        ``exploration=True`` marks a sample the client took at a
        deliberately perturbed operating point; it bypasses the
        fit-relative outlier gate.
        """
        return self.table.observe(
            self.table.row(agent), bundle, float(value), exploration=exploration
        )

    def _record_events(self, events) -> None:
        """Mirror structured events into per-kind counters."""
        for event in events:
            self.metrics.child(_EVENTS, event.kind).inc()

    # ------------------------------------------------------------------
    # Measurement (with fault injection and bounded retry)

    def _spec_at(self, workload, epoch: int):
        """Resolve phased workloads to the epoch's active behaviour."""
        spec_at = getattr(workload, "spec_at", None)
        return spec_at(epoch) if callable(spec_at) else workload

    def _measure(self, spec, bundle: Sequence[float]) -> Optional[float]:
        """One measurement as delivered by the (possibly faulty) pipeline."""
        bandwidth, cache_kb = bundle
        ipc = self.machine.ipc(spec, cache_kb, bandwidth)
        if self.noise_sigma > 0:
            ipc *= float(np.exp(self._rng.normal(0.0, self.noise_sigma)))
        ipc = float(ipc)
        if self._injector is not None:
            return self._injector.corrupt(ipc)
        return ipc

    def _measure_with_retry(
        self,
        spec,
        bundle: Sequence[float],
        epoch: int,
        agent: str,
        events: List[EpochEvent],
    ) -> Optional[float]:
        """Measure, retrying detectable faults with bounded backoff.

        Returns ``None`` — and logs a ``measurement_skipped`` event —
        when the retry budget is exhausted; the caller then proceeds
        without this sample instead of crashing the loop.
        """
        max_retries = self.faults.max_retries if self.faults is not None else 0
        attempt = 0
        while True:
            value = self._measure(spec, bundle)
            if value is not None and np.isfinite(value) and value > 0:
                return value
            if attempt >= max_retries:
                events.append(
                    EpochEvent(
                        epoch,
                        "measurement_skipped",
                        agent,
                        f"retries exhausted after {attempt} attempt(s)",
                    )
                )
                return None
            backoff = self.faults.backoff(attempt)
            events.append(
                EpochEvent(
                    epoch,
                    "measurement_retry",
                    agent,
                    f"attempt {attempt + 1}, backoff {backoff:.2f}s",
                )
            )
            attempt += 1

    def _explore(self, spec, row: int, epoch: int, agent: str, events: List[EpochEvent]) -> None:
        lows = np.log(self.floors)
        highs = np.log(self.capacities)
        for _ in range(self.exploration_samples):
            bundle = tuple(
                float(np.exp(self._rng.uniform(low, high))) for low, high in zip(lows, highs)
            )
            value = self._measure_with_retry(spec, bundle, epoch, agent, events)
            if value is not None:
                # In learning mode these deliberate off-policy probes
                # are exploration-tagged so the outlier gate cannot
                # reject a phase-changed agent's evidence wholesale.
                self.table.observe(row, bundle, value, exploration=self.learner is not None)

    # ------------------------------------------------------------------
    # The epoch loop

    def _allocate(self, epoch: int, events: List[EpochEvent], reports: np.ndarray) -> Allocation:
        """Run the configured mechanism on the epoch's reports; equal split if it fails.

        The problem is built from the table's arrays: agent ``Agent``
        objects exist only if the mechanism asks for them (the SLSQP
        ones do).  Closed-form mechanisms (the default) are O(N·R) — no
        SLSQP process ever starts on the fast path — while warm-startable
        ones receive the previous epoch's enforced shares whenever the
        agent set is unchanged, collapsing the multi-start sweep to a
        single solver run on stable epochs.  Telemetry counting lives in
        :meth:`repro.core.registry.Mechanism.solve`.
        """
        names = tuple(self.table.names)
        if self.learner is not None:
            # The mechanism sees the confidence-weighted prior/fit
            # blend as a scale-1 utility, re-scaled once more for
            # Eq. 12; it is strictly positive by construction, so it is
            # a valid report.
            problem = AllocationProblem.from_arrays(
                names, reports, self.capacities, RESOURCE_NAMES
            )
        else:
            problem = AllocationProblem.from_arrays(
                names,
                self.table.alpha.copy(),
                self.capacities,
                RESOURCE_NAMES,
                scale=self.table.scale.copy(),
                rescaled=reports,
            )
        record = self.stage_record
        warm = None
        if self._mechanism_impl.warm_startable and record is not None and record.agents == names:
            warm = record.shares[-1]
        context = SolveContext(epoch=epoch, warm_shares=warm, metrics=self.metrics)
        try:
            return self._mechanism_impl.solve(problem, context)
        except (ValueError, FloatingPointError) as error:
            events.append(
                EpochEvent(epoch, "allocation_fallback", detail=str(error)[:80])
            )
            return self._fallback_impl.solve(problem, context)

    def _refit_pending(self) -> None:
        """Batched deferred re-fit: one stacked solve for every dirty row.

        Samples only mark their row dirty.  The fleet profiler's re-fit
        protocol gathers every row whose re-fit is due, one
        :func:`~repro.core.fitting.fit_cobb_douglas_batch` call solves
        them all, and the table's array masks gate the fits
        (condition-number rejection and fallback counting included).  If
        the stacked solve itself fails, each row falls back to a solve
        of its own — one bad agent must not starve the others of updates.
        """
        profiler = self._profiler
        if not profiler.needs_refit:
            return
        block = profiler.fit_inputs()
        with self.tracer.span("batch_refit", agents=len(block.rows)):
            try:
                fits = fit_cobb_douglas_batch(
                    block.allocations, block.performance, block.weights, counts=block.counts
                )
            except (ValueError, np.linalg.LinAlgError):
                self.metrics.child(_BATCH_FIT_FALLBACKS).inc()
                self.table.refit_alone(block.rows, fit_cobb_douglas_batch)
                return
            profiler.apply_fit(fits)
        self.metrics.child(_BATCH_FITS).inc()
        self.metrics.child(_BATCH_FIT_AGENTS).observe(len(block.rows))

    def step(self, epoch: int, measure: bool = True) -> EpochRecord:
        """Run one epoch: allocate on current reports, run the enforcement

        stages, measure under fault injection, and update the agent table.

        With ``measure=False`` the controller only allocates and
        enforces — no internal measurement or exploration happens.  This
        is the *service* epoch used by :mod:`repro.serve`, where the
        measurements arrive between ticks through
        :meth:`observe_sample` instead of from the built-in machine.
        """
        with timed(self.metrics, "repro_dynamic_epoch_latency_seconds"):
            with self.tracer.span("epoch", epoch=epoch):
                record = self._step(epoch, measure=measure)
        self.metrics.child(_EPOCHS).inc()
        self.metrics.child(_AGENTS).set(len(record.agents))
        self._record_events(record.events)
        return record

    def _step(self, epoch: int, measure: bool = True) -> EpochRecord:
        events: List[EpochEvent] = []
        table = self.table
        names = tuple(table.names)
        # Pick up samples fed externally (observe_sample) since the last
        # tick: one stacked re-fit covers every dirty row.
        self._refit_pending()
        reports = self.reports()
        with self.tracer.span("allocate"):
            allocation = self._allocate(epoch, events, reports)
        tick = _Tick(epoch, allocation.problem, reports)
        stack = [allocation.shares]
        with self.tracer.span("enforce"):
            for stage in self._stages.values():
                shares, stage_events = stage(stack[-1], tick)
                stack.append(shares)
                events.extend(stage_events)
        self.stage_record = StageRecord(("solve", *self._stages), names, np.stack(stack))
        # Every stage list starts with the floor projection, so the served
        # label is the one apply_allocation_floors gives (mechanism+floors).
        enforced = Allocation(allocation.problem, stack[-1], f"{allocation.mechanism}+floors")
        explored = {e.agent for e in events if e.kind == "exploration_perturbed"}

        if self._mechanism_impl.stateful:
            # Stateful mechanisms (credit) learn from what agents
            # actually ran at — the enforced allocation, whose columns
            # partition capacity exactly.
            for kind, agent, detail in self._mechanism_impl.observe(
                enforced, epoch=epoch, metrics=self.metrics
            ):
                events.append(EpochEvent(epoch, kind, agent, detail))

        measured: Dict[str, float] = {}
        before = table.counters[:, _EVENT_COLUMNS]
        with self.tracer.span("measure"):
            if measure:
                for row, name in enumerate(names):
                    workload = self.workloads[name]
                    if workload is None:
                        continue
                    spec = self._spec_at(workload, epoch)
                    bundle = enforced.shares[row]
                    value = self._measure_with_retry(spec, bundle, epoch, name, events)
                    if value is not None:
                        measured[name] = value
                        table.observe(row, bundle, value, exploration=name in explored)
                    self._explore(spec, row, epoch, name, events)
        if measure:
            # One stacked re-fit covers this epoch's measurements.
            self._refit_pending()
            delta = table.counters[:, _EVENT_COLUMNS] - before
            for row, column in zip(*np.nonzero(delta > 0)):
                events.append(
                    EpochEvent(
                        epoch,
                        _EVENT_KINDS[column],
                        names[row],
                        f"{int(delta[row, column])} this epoch",
                    )
                )
        if self.learner is not None:
            # A measuring epoch re-fitted above, so its reports are stale;
            # a service epoch's table is unchanged since they were taken.
            for name in self.learner.note_epoch(epoch, table, None if measure else reports):
                events.append(
                    EpochEvent(epoch, "report_converged", name, f"epoch {epoch}")
                )
        return EpochRecord(
            epoch=epoch,
            reported_alpha=dict(zip(names, reports.copy())),
            allocation=allocation,
            measured_ipc=measured,
            enforced=enforced,
            agents=names,
            events=tuple(events),
            fit_condition=dict(zip(names, table.condition.tolist())),
        )

    # ------------------------------------------------------------------
    # Enforcement stages: ``(shares, tick) -> (shares, events)``

    def _stage_floors(self, shares: np.ndarray, tick: _Tick):
        """Project onto the floor-constrained simplex.

        Transient mis-fits can starve an agent toward a zero share, and
        log-space leverage points there would poison the regression (a
        feedback spiral).  Projection takes the excess from richer
        agents, so — unlike a per-agent clamp — the enforced bundles
        never exceed capacity.
        """
        floored = apply_allocation_floors(Allocation(tick.problem, shares), self.floors).shares
        if np.allclose(floored, shares, rtol=1e-9, atol=1e-12):
            return floored, []
        lifted = int(np.sum(np.any(shares < floored - 1e-12, axis=1)))
        detail = f"{lifted} agent(s) lifted to the floor"
        return floored, [EpochEvent(tick.epoch, "floor_projection", detail=detail)]

    def _stage_caps(self, shares: np.ndarray, tick: _Tick):
        """Cap demand-saturated agents; the surplus goes to the others
        with exact column sums."""
        shares, capped = self.learner.apply_caps(shares, self.table, self.floors, tick.reports)
        detail = f"{capped} entr(ies) clipped"
        return shares, [EpochEvent(tick.epoch, "demand_capped", detail=detail)] if capped else []

    def _stage_exploration(self, shares: np.ndarray, tick: _Tick):
        """Bounded ε-greedy perturbations; column sums and floors kept."""
        shares, explored = self.learner.perturb(shares, tick.problem.names, self.floors)
        return shares, [EpochEvent(tick.epoch, "exploration_perturbed", name) for name in explored]

    def _apply_churn(
        self, schedule: ChurnSchedule, epoch: int, events: List[EpochEvent]
    ) -> None:
        for event in schedule.at(epoch):
            if event.action == "add":
                self.add_agent(event.agent, event.workload)
                events.append(EpochEvent(epoch, "agent_added", event.agent))
            else:
                self.remove_agent(event.agent)
                events.append(EpochEvent(epoch, "agent_removed", event.agent))

    def run(
        self, n_epochs: int, churn: Optional[ChurnSchedule] = None
    ) -> ControllerResult:
        """Run the closed loop for ``n_epochs``; returns the history.

        Repeated calls continue from where the previous run stopped, so
        a service can be driven in bursts.  ``churn`` events scheduled
        at epoch ``e`` are applied just before epoch ``e`` is stepped
        and logged into that epoch's record.
        """
        if n_epochs <= 0:
            raise ValueError(f"n_epochs must be positive, got {n_epochs}")
        records = []
        start = self._next_epoch
        for epoch in range(start, start + n_epochs):
            churn_events: List[EpochEvent] = []
            if churn is not None:
                self._apply_churn(churn, epoch, churn_events)
                self._record_events(churn_events)
            record = self.step(epoch)
            if churn_events:
                record = replace(record, events=tuple(churn_events) + record.events)
            records.append(record)
            self._next_epoch = epoch + 1
        return ControllerResult(records=tuple(records))
