"""Explore/exploit demand learning over the on-line profiling loop.

*Online Learning Demands in Max-min Fairness* (PAPERS.md) shows a
fair-division mechanism can start from a prior and converge to the
profiled allocation from live observations alone.  :class:`DemandLearner`
is that loop's brain, reading the fleet's
:class:`~repro.profiling.online.AgentTable` (one row per agent):

* **reports** — the mechanism sees a confidence-weighted blend
  ``(1 - c) * prior + c * fitted`` of the agent's prior (equal split or
  a :class:`~repro.learning.prior.PriorStore` class centroid) and its
  current fit, where ``c`` ramps with accepted sample count.  The blend
  is a convex combination of strictly-positive sum-to-one vectors, so
  it is always a valid Eq. 12 report;
* **exploration** — each epoch, every learning agent is perturbed with
  probability ``ε`` (ε-greedy, decaying per agent from ``epsilon0`` to
  ``epsilon_min``): its enforced shares are multiplied by bounded
  log-uniform factors, then every column is renormalized so the
  perturbation moves samples *around* the operating point without ever
  over-committing capacity.  Perturbed measurements are tagged
  ``exploration=True`` so the profiler's outlier gate cannot reject a
  genuinely phase-changed agent's evidence wholesale;
* **demand caps** — a :class:`~repro.learning.caps.DemandCapEstimator`
  detects flat response along a resource and caps the agent's share
  there; :func:`~repro.learning.caps.apply_demand_caps` hands the
  surplus to unsaturated agents with exact column sums;
* **convergence** — an agent whose blended report has drifted less than
  ``convergence_tol`` for ``convergence_window`` consecutive epochs is
  converged (exploration decays to the floor, the epoch is recorded in
  :class:`AgentLearnState`); a later large drift re-arms exploration —
  that is how a phase change restarts learning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.mechanism import water_fill
from ..obs import MetricsRegistry, Series
from ..profiling.online import AgentTable
from .caps import DemandCapEstimator, apply_demand_caps
from .prior import PriorStore

__all__ = ["LearnerConfig", "AgentLearnState", "DemandLearner"]


@dataclass(frozen=True)
class LearnerConfig:
    """Tuning knobs for the explore/exploit schedule (see docs/learning.md)."""

    #: Initial per-agent exploration probability.
    epsilon0: float = 0.9
    #: Exploration probability floor (never fully stop exploring).
    epsilon_min: float = 0.05
    #: Per-epoch multiplicative ε decay.
    epsilon_decay: float = 0.97
    #: Log-space half-width of a perturbation factor (``exp(±width)``).
    perturb_width: float = 0.25
    #: Accepted samples at which the fit is fully trusted (c = 1).
    confidence_samples: int = 12
    #: Report drift below this for ``convergence_window`` epochs = converged.
    convergence_tol: float = 0.02
    convergence_window: int = 5
    #: Drift above this re-arms exploration on a converged agent.
    rearm_drift: float = 0.15

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon_min <= self.epsilon0 <= 1:
            raise ValueError(
                f"need 0 <= epsilon_min <= epsilon0 <= 1, got "
                f"({self.epsilon_min}, {self.epsilon0})"
            )
        if not 0 < self.epsilon_decay <= 1:
            raise ValueError(f"epsilon_decay must be in (0, 1], got {self.epsilon_decay}")
        if not 0 < self.perturb_width < 1:
            raise ValueError(f"perturb_width must be in (0, 1), got {self.perturb_width}")
        if self.confidence_samples < 1:
            raise ValueError(
                f"confidence_samples must be >= 1, got {self.confidence_samples}"
            )
        if self.convergence_tol <= 0 or self.convergence_window < 1:
            raise ValueError("convergence_tol/window must be positive")
        if self.rearm_drift <= self.convergence_tol:
            raise ValueError("rearm_drift must exceed convergence_tol")


@dataclass
class AgentLearnState:
    """Mutable per-agent learning state (exposed for tests/diagnostics)."""

    prior: np.ndarray
    cls: Optional[str] = None
    epochs: int = 0
    epsilon: float = 0.9
    converged_epoch: Optional[int] = None
    last_report: Optional[np.ndarray] = None
    stable_epochs: int = 0
    prior_recorded: bool = False


class DemandLearner:
    """Per-allocator demand-learning state machine.

    One instance serves every learning agent of a
    :class:`~repro.dynamic.DynamicAllocator`; the allocator calls in at
    fixed points of its epoch (report, cap, perturb, note) and the
    learner owns all explore/exploit state and ``repro_learning_*``
    telemetry.
    """

    #: Every series the learner writes, each one fleet-wide.
    _METRICS = {
        "agents": Series("gauge", "repro_learning_agents", "Agents currently learning demands."),
        "caps": Series(
            "counter",
            "repro_learning_cap_events_total",
            "(agent, resource) entries clipped to a demand cap.",
        ),
        "explored": Series(
            "gauge",
            "repro_learning_exploration_fraction",
            "Fraction of learning agents perturbed in the last epoch.",
        ),
        "drift": Series(
            "gauge",
            "repro_learning_report_drift",
            "Largest abs per-epoch change of a learning agent's blended report.",
        ),
    }

    def __init__(
        self,
        prior: str = "equal",
        n_resources: int = 2,
        config: Optional[LearnerConfig] = None,
        estimator: Optional[DemandCapEstimator] = None,
        metrics: Optional[MetricsRegistry] = None,
        seed: int = 0,
    ):
        self.config = config if config is not None else LearnerConfig()
        self.priors = PriorStore(policy=prior, n_resources=n_resources)
        self.estimator = estimator if estimator is not None else DemandCapEstimator()
        self.n_resources = n_resources
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._rng = np.random.default_rng(seed)
        self._states: Dict[str, AgentLearnState] = {}

    def _metric(self, key: str):
        """The registry child of series ``key``."""
        return self.metrics.child(self._METRICS[key])

    # ------------------------------------------------------------------
    # Membership

    def register(self, name: str, cls: Optional[str] = None) -> None:
        """Start learning for an agent (idempotent on re-register)."""
        if name in self._states:
            return
        self._states[name] = AgentLearnState(
            prior=self.priors.prior_for(cls),
            cls=cls,
            epsilon=self.config.epsilon0,
        )
        self._metric("agents").set(len(self._states))

    def forget(self, name: str) -> None:
        """Drop an agent's learning state (no-op when unknown)."""
        if self._states.pop(name, None) is not None:
            self._metric("agents").set(len(self._states))

    def state(self, name: str) -> Optional[AgentLearnState]:
        return self._states.get(name)

    @property
    def agent_names(self) -> Tuple[str, ...]:
        return tuple(self._states)

    # ------------------------------------------------------------------
    # Reports

    def confidence(self, table: AgentTable) -> np.ndarray:
        """How much each row's fit is trusted over its prior, in [0, 1]."""
        ramp = np.minimum(1.0, table.count / self.config.confidence_samples)
        return np.where(table.fitted, ramp, 0.0)

    def report(self, table: AgentTable) -> np.ndarray:
        """``(N, R)`` confidence-weighted elasticity reports, in row order.

        A learning agent reports ``(1 - c) * prior + c * fitted``,
        normalized; its prior alone if that blend is degenerate.  Rows
        never registered with the learner (profiled agents sharing the
        machine with learning ones) report their fit unchanged.
        """
        fitted = table.report
        states = [self._states.get(name) for name in table.names]
        learning = np.array([state is not None for state in states], dtype=bool)
        if not learning.any():
            return fitted.copy()
        prior = np.array(
            [fit if state is None else state.prior for state, fit in zip(states, fitted)]
        )
        c = self.confidence(table)[:, None]
        blend = (1.0 - c) * prior + c * fitted
        total = blend.sum(axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            normalized = blend / total
        degenerate = ~np.isfinite(total) | (total <= 0) | np.any(blend <= 0, axis=1, keepdims=True)
        blended = np.where(degenerate, prior, normalized)
        return np.where(learning[:, None], blended, fitted)

    def note_fit(self, table: AgentTable, row: int) -> None:
        """Feed a now-confident fit into the prior store (once per agent)."""
        state = self._states.get(table.names[row])
        if state is None or state.prior_recorded:
            return
        if table.fitted[row] and table.count[row] >= self.config.confidence_samples:
            self.priors.update(table.report[row].copy(), cls=state.cls)
            state.prior_recorded = True

    # ------------------------------------------------------------------
    # Demand caps

    def caps_for(
        self,
        table: AgentTable,
        floors: Sequence[float],
        reports: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Stacked ``(N, R)`` cap matrix in row order.

        ``reports`` is :meth:`report` of ``table`` when the caller has
        it already; it is computed only if some agent needs a cap.
        """
        caps = np.full((len(table), self.n_resources), np.inf)
        confident = self.confidence(table) >= 1.0
        for i, name in enumerate(table.names):
            if name not in self._states or not confident[i]:
                continue
            if reports is None:
                reports = self.report(table)
            caps[i] = self.estimator.caps_for(reports[i], table.samples(i), floors)
        return caps

    def apply_caps(
        self,
        shares: np.ndarray,
        table: AgentTable,
        floors: Sequence[float],
        reports: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, int]:
        """Cap saturated agents, redistribute surplus; returns (shares, capped).

        ``reports`` as for :meth:`caps_for`.
        """
        caps = self.caps_for(table, floors, reports)
        if not np.isfinite(caps).any():
            return shares, 0
        result = apply_demand_caps(shares, caps)
        if result.capped_entries:
            self._metric("caps").inc(result.capped_entries)
        return result.shares, result.capped_entries

    # ------------------------------------------------------------------
    # Exploration

    def perturb(
        self,
        shares: np.ndarray,
        names: Sequence[str],
        floors: Sequence[float],
    ) -> Tuple[np.ndarray, Tuple[str, ...]]:
        """ε-greedy bounded perturbation of the enforced shares.

        Each learning agent is perturbed with its current probability
        ``ε``; chosen agents' entries are multiplied by log-uniform
        factors in ``exp(±perturb_width)``.  Columns are then
        water-filled (:func:`~repro.core.mechanism.water_fill`) back to
        their pre-perturbation sums with the floors as lower bounds, so
        the result allocates exactly what the input did and never
        leaves the profiled regime.

        Returns the perturbed matrix and the names actually explored
        this epoch (their measurements must be tagged
        ``exploration=True``).
        """
        shares = np.asarray(shares, dtype=float)
        explored: List[str] = []
        factors = np.ones_like(shares)
        for i, name in enumerate(names):
            state = self._states.get(name)
            if state is None:
                continue
            if self._rng.random() >= state.epsilon:
                continue
            explored.append(name)
            width = self.config.perturb_width
            factors[i] = np.exp(self._rng.uniform(-width, width, size=shares.shape[1]))
        total = len([n for n in names if n in self._states])
        self._metric("explored").set(len(explored) / total if total else 0.0)
        if not explored:
            return shares, ()
        out = water_fill(shares * factors, shares.sum(axis=0), lower=floors)
        return out, tuple(explored)

    # ------------------------------------------------------------------
    # Per-epoch bookkeeping

    def note_epoch(
        self, epoch: int, table: AgentTable, reports: Optional[np.ndarray] = None
    ) -> Tuple[str, ...]:
        """Advance ε schedules and convergence detection after an epoch.

        ``reports`` is :meth:`report` of ``table`` as it stands now, when
        the caller has it already (no re-fit since it was computed).
        Returns the agents that *newly* converged this epoch (for the
        caller's event log).
        """
        newly_converged: List[str] = []
        if reports is None:
            reports = self.report(table)
        confident = self.confidence(table) >= 1.0
        states = [self._states.get(name) for name in table.names]
        # One array pass gives every row with a previous report its
        # drift; only the ε/convergence state machine runs per agent.
        seen = [i for i, s in enumerate(states) if s is not None and s.last_report is not None]
        drifts = np.zeros(len(states))
        if seen:
            previous = np.array([states[i].last_report for i in seen])
            drifts[seen] = np.max(np.abs(reports[seen] - previous), axis=1)
        self._metric("drift").set(drifts[seen].max() if seen else 0.0)
        drifts = drifts.tolist()
        for i, (name, state) in enumerate(zip(table.names, states)):
            if state is None:
                continue
            self.note_fit(table, i)
            report = reports[i]
            if state.last_report is not None:
                drift = drifts[i]
                if state.converged_epoch is not None and drift > self.config.rearm_drift:
                    # A big jump after convergence is a phase change:
                    # re-arm exploration and start converging again.
                    state.converged_epoch = None
                    state.stable_epochs = 0
                    state.epsilon = self.config.epsilon0
                elif drift < self.config.convergence_tol:
                    state.stable_epochs += 1
                else:
                    state.stable_epochs = 0
                if (
                    state.converged_epoch is None
                    and state.stable_epochs >= self.config.convergence_window
                    and confident[i]
                ):
                    state.converged_epoch = epoch
                    newly_converged.append(name)
            state.last_report = report
            state.epochs += 1
            state.epsilon = max(
                self.config.epsilon_min, state.epsilon * self.config.epsilon_decay
            )
        return tuple(newly_converged)
