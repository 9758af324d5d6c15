"""Numeric allocation mechanisms: log-space convex programs (§4.5, §5.5)."""

from .batch import FAST_PATH_MECHANISMS, solve_batch
from .logspace import (
    LogSpaceSolution,
    capacity_constraints,
    envy_free_constraints,
    log_weighted_utilities,
    pareto_constraints,
    sharing_incentive_constraints,
    solve,
)
from .hierarchy import (
    hierarchical_parity_gap,
    solve_hierarchical,
    split_capacity,
)
from .drf import (
    DrfAgent,
    DrfResult,
    demand_vector_from_elasticities,
    dominant_resource_fairness,
    drf_allocation,
)
from .mechanisms import equal_slowdown, max_nash_welfare, utilitarian_welfare

__all__ = [
    "FAST_PATH_MECHANISMS",
    "LogSpaceSolution",
    "DrfAgent",
    "DrfResult",
    "capacity_constraints",
    "envy_free_constraints",
    "demand_vector_from_elasticities",
    "dominant_resource_fairness",
    "drf_allocation",
    "equal_slowdown",
    "hierarchical_parity_gap",
    "log_weighted_utilities",
    "max_nash_welfare",
    "pareto_constraints",
    "sharing_incentive_constraints",
    "solve",
    "solve_batch",
    "solve_hierarchical",
    "split_capacity",
    "utilitarian_welfare",
]
