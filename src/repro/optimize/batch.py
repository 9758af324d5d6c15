"""Vectorized solves across independent allocation problems.

Experiment sweeps (and a sharded service) solve *many independent*
allocation instances — one per scenario, epoch, or shard.  For the
closed-form mechanisms (Eq. 13 REF and the unfair Nash optimum) each
solve is a handful of tiny NumPy reductions, so a Python loop over
scenarios pays far more in interpreter and dispatch overhead than in
arithmetic.  :func:`solve_batch` stacks same-shaped instances into
``(S, N, R)`` tensors and performs the arithmetic once per *group*
instead of once per *problem*; constrained mechanisms that genuinely
need SLSQP fall back to the per-problem path, so one entry point serves
every mechanism.

Both paths run the same kernel,
:func:`~repro.core.mechanism.proportional_split`, whose stacked call
equals its per-problem calls bit for bit (degenerate-column equal split
included), so batched and looped results are bit-identical, not merely
close.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from ..core.mechanism import Allocation, AllocationProblem, proportional_split
from ..obs import MetricsRegistry, global_registry

__all__ = ["FAST_PATH_MECHANISMS", "solve_batch"]

#: Mechanisms `solve_batch` vectorizes; the rest loop over SLSQP solves.
FAST_PATH_MECHANISMS = ("ref", "max-welfare-unfair")

#: Batch-size buckets for the batch-solve histogram.
_SIZE_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)


def _group_key(problem: AllocationProblem):
    return (problem.n_agents, problem.n_resources)


def solve_batch(
    problems: Sequence[AllocationProblem],
    mechanism: str = "ref",
    metrics: Optional[MetricsRegistry] = None,
) -> List[Allocation]:
    """Solve many independent allocation problems, vectorizing when closed-form.

    Parameters
    ----------
    problems:
        The instances to solve; shapes may differ (problems are grouped
        by ``(n_agents, n_resources)`` and each group is stacked into
        one vectorized computation).
    mechanism:
        ``"ref"`` (Eq. 13) or ``"max-welfare-unfair"`` (closed-form
        Nash optimum) vectorize; ``"max-welfare-fair"`` and
        ``"equal-slowdown"`` require SLSQP and loop per problem.
    metrics:
        Registry for ``repro_solver_batch_*`` telemetry; defaults to
        the process-global registry.

    Returns
    -------
    list of Allocation
        In input order, with the same ``mechanism`` labels the scalar
        paths produce (``proportional_elasticity`` /
        ``max_welfare_unfair`` / ...).
    """
    registry = metrics if metrics is not None else global_registry()
    problems = list(problems)
    vectorized = mechanism in FAST_PATH_MECHANISMS
    start_time = time.perf_counter()
    if not problems:
        results: List[Allocation] = []
    elif vectorized:
        results = _solve_closed_form(problems, mechanism)
    else:
        results = _solve_loop(problems, mechanism, registry)
    wall_seconds = time.perf_counter() - start_time

    registry.counter(
        "repro_solver_batch_runs_total",
        help="solve_batch calls by mechanism and execution path.",
        mechanism=mechanism,
        path="vectorized" if vectorized else "loop",
    ).inc()
    registry.histogram(
        "repro_solver_batch_size",
        help="Problems per solve_batch call.",
        buckets=_SIZE_BUCKETS,
        mechanism=mechanism,
    ).observe(len(problems))
    registry.histogram(
        "repro_solver_batch_wall_seconds",
        help="solve_batch wall time per call.",
        mechanism=mechanism,
    ).observe(wall_seconds)
    return results


def _solve_closed_form(
    problems: List[AllocationProblem], mechanism: str
) -> List[Allocation]:
    """Group same-shaped problems and run the stacked closed form per group."""
    groups: dict = {}
    for index, problem in enumerate(problems):
        groups.setdefault(_group_key(problem), []).append(index)

    results: List[Optional[Allocation]] = [None] * len(problems)
    for indices in groups.values():
        caps = np.stack([problems[i].capacity_vector for i in indices])
        # Pull raw elasticities straight from the utility tuples: one
        # (S, N, R) array build instead of S * N per-agent numpy
        # round-trips (the per-problem ``rescaled_alpha_matrix`` loop
        # dominates the scalar path's cost at small N).
        raw = np.array(
            [
                [agent.utility.elasticities for agent in problems[i].agents]
                for i in indices
            ],
            dtype=float,
        )
        if mechanism == "ref":
            # Stacked Eq. 12 rescale: same per-row `alpha / alpha.sum()`
            # the scalar path computes, so results stay bit-identical.
            weights = raw / raw.sum(axis=2, keepdims=True)
            label = "proportional_elasticity"
        else:  # max-welfare-unfair: closed form on *raw* elasticities
            weights = raw
            label = "max_welfare_unfair"
        shares = proportional_split(weights, caps)
        for position, i in enumerate(indices):
            results[i] = Allocation(
                problem=problems[i], shares=shares[position], mechanism=label
            )
    return results  # type: ignore[return-value]


def _solve_loop(
    problems: List[AllocationProblem], mechanism: str, registry: MetricsRegistry
) -> List[Allocation]:
    """Per-problem SLSQP path for the constrained mechanisms."""
    from .mechanisms import equal_slowdown, max_nash_welfare

    if mechanism == "max-welfare-fair":
        return [
            max_nash_welfare(problem, fair=True, metrics=registry)
            for problem in problems
        ]
    if mechanism == "equal-slowdown":
        return [equal_slowdown(problem, metrics=registry) for problem in problems]
    raise ValueError(
        f"unknown mechanism {mechanism!r}; expected one of "
        f"{sorted(FAST_PATH_MECHANISMS + ('max-welfare-fair', 'equal-slowdown'))}"
    )
