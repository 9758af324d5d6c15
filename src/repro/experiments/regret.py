"""Experiment: regret of profile-free learned allocations vs the oracle.

*Online Learning Demands in Max-min Fairness* frames profile-free
allocation as an online-learning problem: how much welfare does the
system give up, epoch by epoch, for not knowing the demands it is
allocating for?  This harness makes that number concrete for the
:mod:`repro.learning` controller:

* the **oracle** allocation is Eq. 13 run on *offline-profiled*
  utilities (the full sweep the learner is built to avoid).  For
  re-scaled Cobb-Douglas utilities the Eq. 13 closed form maximizes
  Nash welfare ``sum_i log u_i``, so it is the right yardstick: no
  feasible allocation scores higher;
* the **learned** trajectory is a ``DynamicAllocator(learn_demands=
  True)`` run — naive (or centroid) priors, ε-greedy exploration,
  demand caps — with optional mid-run churn (an agent arriving with no
  history is exactly the case the learner exists for);
* **per-epoch regret** is the mean oracle-minus-learned log-utility
  gap over the agents present that epoch, evaluated under the *oracle*
  utilities on the enforced (post-cap, post-perturbation) shares the
  learned run actually granted.  Both allocations go through the same
  floor projection, so the gap measures learning, not floors;
* **convergence epoch** is the first epoch whose trailing
  ``window``-epoch mean regret drops below ``threshold`` — the
  "converges within N epochs" acceptance bound the ``regret-smoke`` CI
  job gates on, together with the final-window regret itself.

Registered as experiment id ``"regret"`` (``repro reproduce regret``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.mechanism import (
    Agent,
    AllocationProblem,
    apply_allocation_floors,
    proportional_elasticity,
)
from ..core.utility import CobbDouglasUtility
from ..dynamic import ChurnEvent, ChurnSchedule, DynamicAllocator
from ..workloads import get_workload
from .base import ExperimentResult, experiment

__all__ = ["RegretReport", "run_regret", "regret"]

#: Default learned-run population (agent name -> benchmark).
DEFAULT_AGENTS: Dict[str, str] = {
    "stream": "streamcluster",
    "freq": "freqmine",
    "dedup": "dedup",
}

#: The churny arrival exercising cold-start learning mid-run.
CHURN_AGENT = ("newcomer", "x264")


@dataclass(frozen=True)
class RegretReport:
    """Per-epoch and cumulative regret of a learned run vs the oracle."""

    agents: Tuple[str, ...]
    epochs: int
    threshold: float
    window: int
    per_epoch: Tuple[float, ...]
    per_agent_final: Dict[str, float]
    convergence_epoch: Optional[int]

    @property
    def cumulative(self) -> Tuple[float, ...]:
        """Running sum of the per-epoch regret."""
        return tuple(np.cumsum(self.per_epoch))

    @property
    def cumulative_regret(self) -> float:
        """Total regret over the whole run."""
        return float(np.sum(self.per_epoch))

    @property
    def final_window_regret(self) -> float:
        """Mean regret over the last ``window`` epochs."""
        return float(np.mean(self.per_epoch[-self.window :]))

    def converged_within(self, n_epochs: int) -> bool:
        """True when the trailing-window bound was met by ``n_epochs``."""
        return self.convergence_epoch is not None and self.convergence_epoch <= n_epochs

    def as_dict(self) -> Dict:
        """JSON-ready payload (the regret-smoke artifact body)."""
        return {
            "agents": list(self.agents),
            "epochs": self.epochs,
            "threshold": self.threshold,
            "window": self.window,
            "per_epoch": [float(v) for v in self.per_epoch],
            "cumulative": [float(v) for v in self.cumulative],
            "cumulative_regret": self.cumulative_regret,
            "final_window_regret": self.final_window_regret,
            "convergence_epoch": self.convergence_epoch,
            "per_agent_final": {
                name: float(v) for name, v in sorted(self.per_agent_final.items())
            },
        }

    def summary(self) -> str:
        lines = [
            f"agents:               {', '.join(self.agents)}",
            f"epochs:               {self.epochs}",
            f"cumulative regret:    {self.cumulative_regret:.4f}",
            f"final-window regret:  {self.final_window_regret:.4f} "
            f"(window={self.window}, threshold={self.threshold})",
            f"convergence epoch:    {self.convergence_epoch}",
            "per-agent final-window regret:",
        ]
        for name, value in sorted(self.per_agent_final.items()):
            lines.append(f"  {name:<16} {value:.4f}")
        return "\n".join(lines)


def _oracle_utilities(
    benchmarks: Dict[str, str], profiler=None
) -> Dict[str, CobbDouglasUtility]:
    """Offline-profiled, re-scaled utility per agent (the oracle's view)."""
    from ..profiling import OfflineProfiler

    owns = profiler is None
    if owns:
        profiler = OfflineProfiler(noise_sigma=0.0)
    try:
        fits = {
            bench: profiler.fit(get_workload(bench)).utility.rescaled()
            for bench in sorted(set(benchmarks.values()))
        }
    finally:
        if owns:
            profiler.close()
    return {name: fits[bench] for name, bench in benchmarks.items()}


def run_regret(
    agents: Optional[Dict[str, str]] = None,
    epochs: int = 200,
    capacities: Optional[Tuple[float, float]] = None,
    churn: bool = True,
    prior: str = "equal",
    seed: int = 0,
    threshold: float = 0.05,
    window: int = 20,
    profiler=None,
) -> RegretReport:
    """Run the learned trajectory and score it against the oracle.

    Parameters mirror the ``regret-smoke`` knobs: ``agents`` maps agent
    names to benchmarks (the learned run still *measures* on these
    ground-truth workloads — it just never sees their profiles),
    ``churn=True`` adds :data:`CHURN_AGENT` a quarter of the way in and
    removes it at the three-quarter mark, and ``threshold``/``window``
    define the convergence bound recorded in the report.
    """
    if epochs < 2 * window:
        raise ValueError(f"epochs must be >= 2 * window, got {epochs} < {2 * window}")
    agents = dict(DEFAULT_AGENTS if agents is None else agents)
    if capacities is None:
        capacities = (6.4 * len(agents), 1024.0 * len(agents))
    oracle = _oracle_utilities(agents, profiler=profiler)
    name, bench = CHURN_AGENT
    schedule = None
    if churn:
        oracle.update(_oracle_utilities({name: bench}, profiler=profiler))
        schedule = ChurnSchedule(
            [
                ChurnEvent(epochs // 4, "add", name, get_workload(bench)),
                ChurnEvent((3 * epochs) // 4, "remove", name),
            ]
        )
    allocator = DynamicAllocator(
        {agent: get_workload(b) for agent, b in agents.items()},
        capacities=capacities,
        seed=seed,
        learn_demands=True,
        prior=prior,
    )
    result = allocator.run(epochs, churn=schedule)

    floors = (allocator.MIN_BANDWIDTH_GBPS, allocator.MIN_CACHE_KB)
    per_epoch = []
    per_agent: Dict[str, list] = {agent: [] for agent in oracle}
    for record in result.records:
        present = list(record.agents)
        problem = AllocationProblem(
            [Agent(a, oracle[a]) for a in present],
            capacities,
            allocator.resource_names,
        )
        ideal = apply_allocation_floors(proportional_elasticity(problem), floors)
        gaps = []
        for i, agent in enumerate(present):
            utility = oracle[agent]
            gap = float(
                np.log(utility.value(ideal.shares[i]))
                - np.log(utility.value(record.enforced[agent]))
            )
            gaps.append(gap)
            per_agent[agent].append(gap)
        per_epoch.append(float(np.mean(gaps)))

    series = np.asarray(per_epoch)
    convergence_epoch: Optional[int] = None
    if series.size >= window:
        trailing = np.convolve(series, np.ones(window) / window, mode="valid")
        hits = np.nonzero(trailing <= threshold)[0]
        if hits.size:
            # trailing[k] covers epochs [k, k + window): converged at the
            # window's *last* epoch — the bound is met by then.
            convergence_epoch = int(hits[0]) + window - 1

    per_agent_final = {
        agent: float(np.mean(values[-window:]))
        for agent, values in per_agent.items()
        if values
    }
    for agent, value in per_agent_final.items():
        allocator.metrics.gauge(
            "repro_learning_regret",
            help="Final-window mean regret vs the oracle allocation.",
            agent=agent,
        ).set(value)
    return RegretReport(
        agents=tuple(sorted(per_agent_final)),
        epochs=epochs,
        threshold=threshold,
        window=window,
        per_epoch=tuple(per_epoch),
        per_agent_final=per_agent_final,
        convergence_epoch=convergence_epoch,
    )


@experiment("regret")
def regret(profiler=None) -> ExperimentResult:
    """Regret of the profile-free learned allocation vs the oracle."""
    report = run_regret(profiler=profiler)
    return ExperimentResult(
        experiment_id="regret",
        title="Online demand learning: regret vs offline-profiled oracle",
        text=report.summary(),
        data=report.as_dict(),
    )
