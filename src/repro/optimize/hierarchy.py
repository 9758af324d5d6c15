"""Hierarchical Eq. 13: split capacity across agent cells, solve within.

The REF closed form composes.  Flat, agent *i*'s share of resource *r*
is ``x_ir = a_ir / sum_j a_jr * C_r`` (Eq. 13, re-scaled elasticities).
Partition the agents into cells and give cell *k* the *grant*

    G_kr = ( sum_{i in k} a_ir / sum_j a_jr ) * C_r

— its agents' partial sum of the flat denominator — then run Eq. 13
within the cell on ``G_kr``:

    x_ir = a_ir / sum_{i' in k} a_i'r * G_kr
         = a_ir / sum_j a_jr * C_r

i.e. exactly the flat share, up to floating-point rounding.  Degenerate
columns (every elasticity zero) compose too: the flat rule falls back to
an equal per-agent split, so the grant is made proportional to the
cell's *agent count* and the within-cell equal split reproduces
``C_r / N``.

This is the math behind the sharded allocation service
(:mod:`repro.serve.shard`): a coordinator needs only each cell's
aggregate elasticity vector — one number per resource per cell, not the
per-agent matrices — to re-slice global capacity each epoch while
preserving the paper's sharing-incentive properties at both levels.
:func:`hierarchical_parity_gap` is the CI gate that keeps the claim
honest.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.mechanism import Allocation, AllocationProblem, proportional_split, water_fill
from ..obs import MetricsRegistry
from .batch import solve_batch

__all__ = [
    "split_capacity",
    "solve_hierarchical",
    "hierarchical_parity_gap",
]

#: Grants are floored at this fraction of capacity so a zero-elasticity
#: cell still yields a valid (strictly positive capacity) sub-problem.
MIN_GRANT_FRACTION = 1e-12


def split_capacity(
    aggregates: np.ndarray,
    counts: Sequence[int],
    capacities: Sequence[float],
) -> np.ndarray:
    """Split a capacity vector across cells by aggregate elasticity.

    Parameters
    ----------
    aggregates:
        ``(K, R)`` matrix; row *k* is cell *k*'s per-resource sum of
        **re-scaled** (Eq. 12) agent elasticities.
    counts:
        Number of agents in each cell, shape ``(K,)`` — the fallback
        weights for degenerate columns, mirroring the flat mechanism's
        equal-split rule.
    capacities:
        Global capacity vector ``C``, shape ``(R,)``.

    Returns
    -------
    ``(K, R)`` grant matrix whose columns each sum exactly to ``C_r``.
    Grants are floored at ``MIN_GRANT_FRACTION * C_r`` per cell so
    downstream sub-problems keep strictly positive capacities, and the
    non-floored entries are renormalized after flooring so the floor
    never over-commits global capacity.
    """
    agg = np.asarray(aggregates, dtype=float)
    if agg.ndim != 2:
        raise ValueError(f"aggregates must be (K, R), got shape {agg.shape}")
    n_cells, n_resources = agg.shape
    weights = np.asarray(counts, dtype=float)
    if weights.shape != (n_cells,):
        raise ValueError(f"counts must have shape ({n_cells},), got {weights.shape}")
    if np.any(weights <= 0):
        raise ValueError(f"every cell must hold at least one agent, got {counts}")
    caps = np.asarray(capacities, dtype=float)
    if caps.shape != (n_resources,):
        raise ValueError(
            f"capacities must have shape ({n_resources},), got {caps.shape}"
        )
    if np.any(~np.isfinite(caps)) or np.any(caps <= 0):
        raise ValueError(f"capacities must be positive and finite, got {capacities}")

    # A non-positive or non-finite aggregate carries no information and
    # counts as zero; a column with no information left falls back to
    # agent counts, which reproduces the flat equal-per-agent split.
    agg = np.where(np.isfinite(agg) & (agg > 0.0), agg, 0.0)
    grants = proportional_split(agg, caps, fallback=weights[:, None])
    # Floor zero/tiny grants so every sub-problem keeps strictly
    # positive capacities, taking the floor out of the other cells so
    # each column still sums exactly to C_r (flooring alone would hand
    # workers C_r * (1 + F * MIN_GRANT_FRACTION)).
    return water_fill(grants, caps, lower=caps * MIN_GRANT_FRACTION)


def _partition(
    problem: AllocationProblem, cells: Sequence[Sequence[str]]
) -> List[List[int]]:
    """Validate that ``cells`` is a partition of the problem's agents."""
    index_of = {agent.name: i for i, agent in enumerate(problem.agents)}
    seen: set = set()
    partition: List[List[int]] = []
    for cell in cells:
        members = list(cell)
        if not members:
            raise ValueError("cells must be non-empty")
        rows = []
        for name in members:
            if name not in index_of:
                raise ValueError(f"cell names an unknown agent {name!r}")
            if name in seen:
                raise ValueError(f"agent {name!r} appears in two cells")
            seen.add(name)
            rows.append(index_of[name])
        partition.append(rows)
    if len(seen) != problem.n_agents:
        missing = sorted(set(index_of) - seen)
        raise ValueError(f"cells do not cover agents {missing}")
    return partition


def solve_hierarchical(
    problem: AllocationProblem,
    cells: Sequence[Sequence[str]],
    metrics: Optional[MetricsRegistry] = None,
) -> Tuple[Allocation, np.ndarray]:
    """Solve one problem as a coordinator would: split, then per-cell Eq. 13.

    Parameters
    ----------
    problem:
        The flat instance (the ground truth the hierarchy must match).
    cells:
        A partition of the problem's agent names into non-empty cells.
    metrics:
        Optional registry passed to the within-cell :func:`solve_batch`.

    Returns
    -------
    ``(allocation, grants)`` where ``allocation`` is assembled in the
    *flat* problem's agent order (mechanism tag
    ``"ref-hierarchical"``) and ``grants`` is the ``(K, R)`` capacity
    split that produced it.
    """
    partition = _partition(problem, cells)
    alpha = problem.rescaled_alpha_matrix()
    aggregates = np.stack([alpha[rows].sum(axis=0) for rows in partition])
    counts = [len(rows) for rows in partition]
    grants = split_capacity(aggregates, counts, problem.capacity_vector)

    subproblems = [
        AllocationProblem(
            tuple(problem.agents[i] for i in rows),
            tuple(grants[k]),
            problem.resource_names,
        )
        for k, rows in enumerate(partition)
    ]
    solutions = solve_batch(subproblems, mechanism="ref", metrics=metrics)

    shares = np.empty((problem.n_agents, problem.n_resources), dtype=float)
    for rows, solution in zip(partition, solutions):
        for local, flat_index in enumerate(rows):
            shares[flat_index] = solution.shares[local]
    return Allocation(problem, shares, mechanism="ref-hierarchical"), grants


def hierarchical_parity_gap(
    problem: AllocationProblem,
    cells: Sequence[Sequence[str]],
) -> float:
    """Max |hierarchical - flat| share over all agents and resources.

    The CI parity gate: the coordinator-split allocation must match the
    flat single-allocator Eq. 13 solve within 1e-6 (in practice it is
    ~1e-12, pure rounding).
    """
    flat = solve_batch([problem], mechanism="ref")[0]
    hierarchical, _grants = solve_hierarchical(problem, cells)
    return float(np.max(np.abs(hierarchical.shares - flat.shares)))
