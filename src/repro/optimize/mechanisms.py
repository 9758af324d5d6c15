"""The evaluation-section allocation mechanisms (§4.5, §5.5).

Four mechanisms are compared in Figs. 13-14:

* **Max Welfare w/o Fairness** — maximize Nash social welfare
  ``prod_i U_i`` subject only to capacity.  Solvable in closed form
  (proportional to *raw* elasticities); an empirical performance upper
  bound.
* **Equal Slowdown w/o Fairness** — maximize ``min_i U_i`` subject only
  to capacity: the architecture-community status quo of equalizing
  slowdowns (§4.5 "Unfair Allocation").
* **Max Welfare w/ Fairness** — maximize Nash welfare subject to SI, EF
  and PE (Eq. 11); requires convex optimization (the paper uses CVX
  geometric programming; we solve the equivalent log-space program).
* **Proportional Elasticity (REF)** — the paper's closed-form mechanism,
  :func:`repro.core.mechanism.proportional_elasticity`.

A best-effort **utilitarian** maximizer (``max sum_i U_i``) is included
for the §4.5 discussion; the exact problem is intractable (maximizing a
convex function), so it is multi-start local search and clearly labeled.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional

import numpy as np

from ..core.mechanism import (
    Allocation,
    AllocationProblem,
    proportional_elasticity,
    proportional_split,
)
from ..obs import global_registry
from . import logspace

__all__ = [
    "equal_slowdown",
    "max_nash_welfare",
    "utilitarian_welfare",
]


def _equal_split_fallback(problem: AllocationProblem, label: str, failures) -> Allocation:
    """The always-feasible last resort when every solver start fails."""
    global_registry().counter(
        "repro_mechanism_fallbacks_total",
        help="Numeric-mechanism solves that fell back to the equal split.",
        mechanism=label,
    ).inc()
    warnings.warn(
        f"{label} solver failed from every start ({failures}); "
        "falling back to the equal split",
        RuntimeWarning,
        stacklevel=3,
    )
    shares = np.tile(problem.equal_split, (problem.n_agents, 1))
    return Allocation(
        problem=problem, shares=shares, mechanism=f"{label}_equal_split_fallback"
    )


def _solve_with_restarts(
    problem: AllocationProblem,
    objective,
    extra_constraints,
    label: str,
    starts,
    extra_variables: int = 0,
    initial_extra_fn=None,
    initial_shares: Optional[np.ndarray] = None,
    stop_on_first_success: bool = False,
    metrics=None,
) -> Allocation:
    """Run SLSQP from several warm starts; keep the best converged solution.

    SLSQP occasionally reports "positive directional derivative" on
    tightly-constrained log-space programs; restarting from a different
    strictly feasible interior point almost always recovers.  When no
    start converges to a capacity-feasible solution, the equal split is
    returned (with a ``RuntimeWarning`` and a fallback counter) instead
    of propagating an infeasible iterate.

    ``initial_shares`` (e.g. the previous epoch's enforced allocation in
    the dynamic loop) is tried *first*; with ``stop_on_first_success``
    the scan ends at the first converged feasible solution, turning a
    good warm start into a single SLSQP run instead of a full restart
    sweep.
    """
    best: Optional[Allocation] = None
    best_value = -np.inf
    failures: List[str] = []
    all_starts = ([initial_shares] if initial_shares is not None else []) + list(starts)
    for start in all_starts:
        initial_extra = initial_extra_fn(start) if initial_extra_fn else None
        solution = logspace.solve(
            problem,
            objective,
            extra_constraints=extra_constraints,
            extra_variables=extra_variables,
            initial_extra=initial_extra,
            mechanism=label,
            initial_shares=start,
            metrics=metrics,
        )
        if solution.success and solution.objective_value > best_value:
            best, best_value = solution.allocation, solution.objective_value
            if stop_on_first_success:
                break
        elif not solution.success:
            failures.append(solution.message)
    if best is None:
        return _equal_split_fallback(problem, label, failures)
    return best


def _default_starts(problem: AllocationProblem, seed: int = 0) -> List[Optional[np.ndarray]]:
    """Warm starts: REF (feasible for every fairness constraint), the
    equal split, the unfair Nash optimum, and jittered variants.

    Degenerate problems (e.g. a zero elasticity column) can make a
    candidate start uncomputable; such starts are skipped rather than
    letting a warm-start heuristic kill the solve."""
    starts: List[Optional[np.ndarray]] = []
    try:
        starts.append(proportional_elasticity(problem).shares)
    except (ValueError, FloatingPointError):
        pass
    starts.append(None)  # the equal split
    try:
        starts.append(max_nash_welfare(problem, fair=False).shares)
    except (ValueError, FloatingPointError):
        pass
    rng = np.random.default_rng(seed)
    for base in [s for s in starts if s is not None]:
        noise = rng.uniform(0.8, 1.2, size=base.shape)
        starts.append(proportional_split(base * noise, problem.capacity_vector))
    return starts


def max_nash_welfare(
    problem: AllocationProblem,
    fair: bool = False,
    numeric: Optional[bool] = None,
    initial_shares: Optional[np.ndarray] = None,
    stop_on_first_success: bool = False,
    metrics=None,
) -> Allocation:
    """Maximize Nash social welfare ``prod_i U_i(x_i)``.

    Parameters
    ----------
    problem:
        The allocation instance.
    fair:
        When True, impose the SI, EF and PE constraints of Eq. 11
        ("Max Welfare w/ Fairness"); requires the numeric solver.
        When False, the unconstrained optimum has the closed form
        ``x_ir = a_ir / sum_j a_jr * C_r`` with **raw** elasticities
        (the Lagrangian of Eq. 14 without re-scaling).
    numeric:
        Force (True) or forbid (False) the numeric path for the unfair
        case; defaults to the closed form.  Used by tests to cross-check
        the two paths.
    initial_shares:
        Optional ``(N, R)`` warm start tried before the default restart
        sweep (the dynamic controller passes the previous epoch's
        enforced shares).  Ignored by the closed-form path.
    stop_on_first_success:
        Stop the restart sweep at the first converged feasible solution
        (one SLSQP run when the warm start is good).
    metrics:
        Optional registry for the underlying solver telemetry.

    Returns
    -------
    Allocation
    """
    if not fair and not numeric:
        shares = proportional_split(problem.raw_alpha_matrix(), problem.capacity_vector)
        return Allocation(problem=problem, shares=shares, mechanism="max_welfare_unfair")

    def objective(v: np.ndarray) -> float:
        return float(logspace.log_weighted_utilities(problem, v[: _nz(problem)]).sum())

    extra: List[Dict] = []
    label = "max_welfare_unfair_numeric"
    starts: List[Optional[np.ndarray]] = [None]
    if fair:
        extra = (
            logspace.sharing_incentive_constraints(problem)
            + logspace.envy_free_constraints(problem)
            + logspace.pareto_constraints(problem)
        )
        label = "max_welfare_fair"
        # REF satisfies every fairness constraint — the ideal warm start.
        starts = _default_starts(problem)
    return _solve_with_restarts(
        problem,
        objective,
        extra,
        label,
        starts,
        initial_shares=initial_shares,
        stop_on_first_success=stop_on_first_success,
        metrics=metrics,
    )


def equal_slowdown(
    problem: AllocationProblem,
    initial_shares: Optional[np.ndarray] = None,
    stop_on_first_success: bool = False,
    metrics=None,
) -> Allocation:
    """Maximize the minimum weighted utility (equal slowdown, §4.5).

    Solved as an epigraph program: maximize ``t`` subject to
    ``log U_i >= t`` for all agents plus capacity.  At the optimum every
    binding agent's slowdown equals ``exp(t)`` — the "equal slowdown"
    outcome prior work targets.  Provides neither SI nor EF in general
    (Figs. 11-12).  ``initial_shares`` / ``stop_on_first_success`` /
    ``metrics`` behave as in :func:`max_nash_welfare`.
    """
    nz = _nz(problem)

    def objective(v: np.ndarray) -> float:
        return float(v[nz])

    def make_epigraph(i: int):
        def fun(v: np.ndarray) -> float:
            return float(logspace.log_weighted_utilities(problem, v[:nz])[i] - v[nz])

        return fun

    epigraph = [{"type": "ineq", "fun": make_epigraph(i)} for i in range(problem.n_agents)]

    def initial_extra(start):
        if start is None:
            z0 = np.log(np.tile(problem.equal_split, (problem.n_agents, 1))).ravel()
        else:
            z0 = np.log(start).ravel()
        return [float(logspace.log_weighted_utilities(problem, z0).min()) - 0.05]

    return _solve_with_restarts(
        problem,
        objective,
        epigraph,
        "equal_slowdown",
        _default_starts(problem),
        extra_variables=1,
        initial_extra_fn=initial_extra,
        initial_shares=initial_shares,
        stop_on_first_success=stop_on_first_success,
        metrics=metrics,
    )


def utilitarian_welfare(
    problem: AllocationProblem, fair: bool = False, n_starts: int = 5, seed: int = 0
) -> Allocation:
    """Best-effort maximization of utilitarian welfare ``sum_i U_i``.

    The exact problem is intractable (§4.5): the objective is convex in
    log space, so maximizing it is non-convex.  We run multi-start local
    search (perturbed equal-split starting points) and return the best
    local optimum found; if every start fails, the equal split is
    returned (never an infeasible iterate).
    """
    nz = _nz(problem)
    rng = np.random.default_rng(seed)

    def objective(v: np.ndarray) -> float:
        return float(np.exp(logspace.log_weighted_utilities(problem, v[:nz])).sum())

    extra: List[Dict] = []
    label = "utilitarian_unfair"
    if fair:
        extra = (
            logspace.sharing_incentive_constraints(problem)
            + logspace.envy_free_constraints(problem)
            + logspace.pareto_constraints(problem)
        )
        label = "utilitarian_fair"

    best: Optional[Allocation] = None
    best_value = -np.inf
    shape = (problem.n_agents, problem.n_resources)
    starts: List[Optional[np.ndarray]] = [None]  # equal split first
    for _ in range(max(n_starts - 1, 0)):
        noise = rng.uniform(0.2, 1.0, size=shape)
        starts.append(proportional_split(noise, problem.capacity_vector))
    for start in starts:
        solution = logspace.solve(
            problem,
            objective,
            extra_constraints=extra,
            mechanism=label,
            initial_shares=start,
        )
        if solution.success and solution.objective_value > best_value:
            best, best_value = solution.allocation, solution.objective_value
    if best is None:
        return _equal_split_fallback(problem, label, "every starting point failed")
    return best


def _nz(problem: AllocationProblem) -> int:
    """Number of log-allocation variables."""
    return problem.n_agents * problem.n_resources
