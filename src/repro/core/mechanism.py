"""The REF proportional-elasticity allocation mechanism (§4, Eqs. 12-13).

The mechanism's inputs are each agent's fitted Cobb-Douglas utility and
the total capacity of each shared resource.  Its output is a closed-form
allocation: re-scale each agent's elasticities so they sum to one
(Eq. 12) and give each agent a share of every resource proportional to
her re-scaled elasticity for it (Eq. 13):

    x_ir = ( a_ir / sum_j a_jr ) * C_r

This allocation coincides with the Nash bargaining solution and the
Competitive Equilibrium from Equal Incomes, and therefore provides
sharing incentives, envy-freeness and Pareto efficiency (§4.2), plus
strategy-proofness in the large (§4.3).

Two kernels here serve every allocation path in the package:
:func:`proportional_split` is Eq. 13 with its degenerate-column rule,
and :func:`water_fill` is the bounded projection behind allocation
floors, demand caps, exploration and the coordinator's minimum grants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .utility import CobbDouglasUtility

__all__ = [
    "Agent",
    "AllocationProblem",
    "Allocation",
    "proportional_elasticity",
    "proportional_split",
    "water_fill",
    "apply_allocation_floors",
]


@dataclass(frozen=True)
class Agent:
    """A user sharing the machine, identified by name, with fitted utility."""

    name: str
    utility: CobbDouglasUtility

    @property
    def rescaled_alpha(self) -> np.ndarray:
        """The agent's elasticities re-scaled to sum to one (Eq. 12)."""
        return self.utility.rescaled().alpha


class AllocationProblem:
    """An N-agent, R-resource fair-division instance.

    Parameters
    ----------
    agents:
        The users sharing the system, each with a Cobb-Douglas utility
        over the same ``R`` resources.
    capacities:
        Total capacity ``C_r`` of each resource (e.g. ``(24.0, 12.0)``
        for 24 GB/s of bandwidth and 12 MB of cache in the paper's
        recurring example).
    resource_names:
        Optional human-readable labels, defaulting to ``r0, r1, ...``.

    :meth:`from_arrays` builds the same instance from an ``(N, R)``
    elasticity array instead, as the epoch tick does: its ``Agent``
    objects are then built only when a consumer asks for :attr:`agents`.
    """

    def __init__(
        self,
        agents: Iterable[Agent],
        capacities: Iterable[float],
        resource_names: Optional[Iterable[str]] = None,
    ):
        agents = tuple(agents)
        capacities = _problem_capacities(capacities)
        if not agents:
            raise ValueError("an allocation problem needs at least one agent")
        for agent in agents:
            if agent.utility.n_resources != len(capacities):
                raise ValueError(
                    f"agent {agent.name!r} has a utility over "
                    f"{agent.utility.n_resources} resources but the problem "
                    f"has {len(capacities)}"
                )
        self._init(tuple(agent.name for agent in agents), capacities, resource_names)
        self._agents: Optional[Tuple[Agent, ...]] = agents
        self._alpha: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None
        self._rescaled: Optional[np.ndarray] = None

    @classmethod
    def from_arrays(
        cls,
        names: Sequence[str],
        alpha: np.ndarray,
        capacities: Iterable[float],
        resource_names: Optional[Iterable[str]] = None,
        scale: Optional[np.ndarray] = None,
        rescaled: Optional[np.ndarray] = None,
    ) -> "AllocationProblem":
        """An instance whose agent ``i`` has utility ``scale[i] * prod x**alpha[i]``.

        ``alpha`` is ``(N, R)``, strictly positive; ``scale`` defaults
        to ones.  ``rescaled``, when given, is the caller's Eq. 12
        re-scaling of ``alpha`` (rows summing to one), returned as is by
        :meth:`rescaled_alpha_matrix`.  The arrays are kept, not copied.
        """
        problem = cls.__new__(cls)
        alpha = np.asarray(alpha, dtype=float)
        capacities = _problem_capacities(capacities)
        if alpha.ndim != 2 or alpha.shape[0] != len(names) or alpha.shape[1] != len(capacities):
            raise ValueError(
                f"alpha must have shape ({len(names)}, {len(capacities)}), got {alpha.shape}"
            )
        if not names:
            raise ValueError("an allocation problem needs at least one agent")
        problem._init(tuple(names), capacities, resource_names)
        problem._agents = None
        problem._alpha = _frozen(alpha)
        problem._scale = _frozen(np.ones(len(names)) if scale is None else scale)
        problem._rescaled = None if rescaled is None else _frozen(rescaled)
        return problem

    def _init(self, names, capacities, resource_names) -> None:
        if len(set(names)) != len(names):
            raise ValueError(f"agent names must be unique, got {names}")
        if resource_names is None:
            resource_names = tuple(f"r{r}" for r in range(len(capacities)))
        else:
            resource_names = tuple(resource_names)
            if len(resource_names) != len(capacities):
                raise ValueError(
                    f"expected {len(capacities)} resource names, got {len(resource_names)}"
                )
        self.names: Tuple[str, ...] = names
        self.capacities: Tuple[float, ...] = capacities
        self.resource_names: Tuple[str, ...] = resource_names
        self._index: Optional[Dict[str, int]] = None

    def __repr__(self) -> str:
        return (
            f"AllocationProblem(agents={list(self.names)}, capacities={self.capacities}, "
            f"resource_names={self.resource_names})"
        )

    @property
    def agents(self) -> Tuple[Agent, ...]:
        """The agents, built from the arrays on first use."""
        if self._agents is None:
            self._agents = tuple(
                Agent(name, CobbDouglasUtility(alpha, scale=float(scale)))
                for name, alpha, scale in zip(self.names, self._alpha, self._scale)
            )
        return self._agents

    def index(self, name: str) -> int:
        """Agent ``name``'s row in every ``(N, R)`` array of the problem."""
        if self._index is None:
            self._index = {agent: i for i, agent in enumerate(self.names)}
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"no agent named {name!r}") from None

    @property
    def n_agents(self) -> int:
        return len(self.names)

    @property
    def n_resources(self) -> int:
        return len(self.capacities)

    @property
    def capacity_vector(self) -> np.ndarray:
        return np.asarray(self.capacities, dtype=float)

    @property
    def equal_split(self) -> np.ndarray:
        """The equal division ``C / N`` each agent compares against for SI."""
        return self.capacity_vector / self.n_agents

    def rescaled_alpha_matrix(self) -> np.ndarray:
        """``(N, R)`` matrix of re-scaled elasticities, one row per agent."""
        if self._rescaled is None:
            alpha = self.raw_alpha_matrix()
            self._rescaled = _frozen(alpha / alpha.sum(axis=1, keepdims=True))
        return self._rescaled

    def raw_alpha_matrix(self) -> np.ndarray:
        """``(N, R)`` matrix of raw (as-fitted) elasticities."""
        if self._alpha is None:
            self._alpha = _frozen(np.vstack([agent.utility.alpha for agent in self._agents]))
        return self._alpha


def _frozen(array) -> np.ndarray:
    """A read-only float view: a problem's arrays are shared, never mutated."""
    view = np.asarray(array, dtype=float).view()
    view.flags.writeable = False
    return view


def _problem_capacities(capacities: Iterable[float]) -> Tuple[float, ...]:
    capacities = tuple(float(c) for c in capacities)
    if not capacities:
        raise ValueError("an allocation problem needs at least one resource")
    if any(c <= 0 for c in capacities):
        raise ValueError(f"capacities must be strictly positive, got {capacities}")
    return capacities


@dataclass(frozen=True)
class Allocation:
    """A concrete division of the machine among the problem's agents.

    ``shares[i, r]`` is the amount of resource ``r`` given to agent ``i``
    (same agent order as ``problem.agents``).
    """

    problem: AllocationProblem
    shares: np.ndarray = field(repr=False)
    mechanism: str = "unspecified"

    def __post_init__(self) -> None:
        shares = np.asarray(self.shares, dtype=float)
        expected = (self.problem.n_agents, self.problem.n_resources)
        if shares.shape != expected:
            raise ValueError(f"shares must have shape {expected}, got {shares.shape}")
        if not np.all(np.isfinite(shares)):
            raise ValueError(
                "shares must be finite; a NaN/inf share means an upstream "
                "fit or mechanism produced a degenerate allocation"
            )
        if np.any(shares < -1e-12):
            raise ValueError("shares must be non-negative")
        object.__setattr__(self, "shares", shares)

    def __getitem__(self, agent_name: str) -> np.ndarray:
        """Allocation vector for the named agent."""
        return self.shares[self.problem.index(agent_name)]

    def utilities(self) -> np.ndarray:
        """Each agent's utility of her own bundle, in agent order."""
        return np.array(
            [agent.utility.value(self.shares[i]) for i, agent in enumerate(self.problem.agents)]
        )

    def fractions(self) -> np.ndarray:
        """Shares normalized by total capacity (rows of per-resource fractions)."""
        return self.shares / self.problem.capacity_vector

    def is_feasible(self, tol: float = 1e-9) -> bool:
        """True when per-resource totals do not exceed capacity."""
        totals = self.shares.sum(axis=0)
        return bool(np.all(totals <= self.problem.capacity_vector * (1 + tol)))

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Nested ``{agent: {resource: amount}}`` mapping for reporting."""
        resources = self.problem.resource_names
        return {
            agent: dict(zip(resources, row))
            for agent, row in zip(self.problem.names, self.shares.tolist())
        }

    def summary(self) -> str:
        """Human-readable allocation table (used by examples and benches)."""
        lines: List[str] = []
        header = f"{'agent':<20}" + "".join(
            f"{name:>14}" for name in self.problem.resource_names
        )
        lines.append(header)
        for i, name in enumerate(self.problem.names):
            row = f"{name:<20}" + "".join(
                f"{self.shares[i, r]:>14.4f}" for r in range(self.problem.n_resources)
            )
            lines.append(row)
        return "\n".join(lines)


def proportional_split(
    weights: np.ndarray,
    capacities: np.ndarray,
    fallback: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Eq. 13 along the agent axis: ``x_ir = w_ir / sum_j w_jr * C_r``.

    This is the one copy of the closed form every caller shares: REF
    itself, the credit mechanism's biased weights, the unfair Nash
    optimum's raw elasticities, the coordinator's split of capacity
    across cells and the rescale step of :func:`water_fill`.

    Parameters
    ----------
    weights:
        ``(N, R)`` per-agent weights, or an ``(S, N, R)`` stack of
        independent problems; the sum runs over the agent axis.
    capacities:
        ``(R,)`` capacities, or ``(S, R)`` for a stack (an ``(R,)``
        vector is shared by every problem of a stack).
    fallback:
        Weights, broadcastable to ``weights``, that split a
        *degenerate* column: one whose sum is non-finite or ``<= 0``,
        so its weights say nothing.  Must have a positive sum in every
        column it is used for.  The default is the equal split
        ``C_r / N``, the unique symmetric choice.

    Returns
    -------
    numpy.ndarray
        Shares with the shape of ``weights``.  A stacked call equals the
        per-problem calls bit for bit.
    """
    w = np.asarray(weights, dtype=float)
    caps = np.asarray(capacities, dtype=float)[..., None, :]
    denom = w.sum(axis=-2, keepdims=True)
    degenerate = ~np.isfinite(denom) | (denom <= 0.0)
    shares = w / np.where(degenerate, 1.0, denom) * caps
    if degenerate.any():
        if fallback is None:
            even = caps / w.shape[-2]
        else:
            fb = np.asarray(fallback, dtype=float)
            even = fb / fb.sum(axis=-2, keepdims=True) * caps
        shares = np.where(degenerate, even, shares)
    return shares


def water_fill(
    x: np.ndarray,
    targets: np.ndarray,
    lower=0.0,
    upper=np.inf,
) -> np.ndarray:
    """Bounded proportional projection, one water level per column.

    For every column returns ``y = clip(lam * x, lower, upper)`` with
    ``sum(y) == target``: entries keep the proportions of ``x`` except
    where a bound binds.  This is the feasible way to impose minimum
    allocations (floors take the excess from richer agents instead of
    over-committing the resource) and the limited-demands way to impose
    caps (a capped agent's surplus flows to the uncapped ones).

    Parameters
    ----------
    x:
        ``(N, R)`` (or ``(S, N, R)``) non-negative weights, usually a
        share matrix.  Non-positive or non-finite entries count as 0.
    targets:
        Per-column sums, ``(R,)`` (or ``(S, R)``).
    lower, upper:
        Per-entry bounds with ``lower <= upper``, broadcastable to
        ``x``; an ``(R,)`` vector is a per-resource floor or cap shared
        by every agent.

    Returns
    -------
    numpy.ndarray
        ``y`` with the shape of ``x``.  Two column rules take over where
        no water level exists: if ``sum(lower) >= target`` the column is
        the equal split ``target / N``; if ``sum(upper) <= target`` the
        column is ``upper``.  Free entries are rescaled through
        :func:`proportional_split`, so a column whose free entries all
        have zero weight splits its free budget equally.
    """
    x = np.asarray(x, dtype=float)
    x = np.where(np.isfinite(x) & (x > 0.0), x, 0.0)
    target = np.asarray(targets, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    free = np.ones(x.shape, dtype=bool)
    y = proportional_split(x, target, fallback=free)
    if not ((y < lo).any() or (y > hi).any()):
        return y  # no bound binds: one rescale is the whole answer

    # Pin-and-rescale.  Lower pins lower the water level, so they are
    # taken first, until none is left; an upper pin then raises the
    # level, which frees the lower pins of its column to be re-found.
    # Upper pins only grow and lower pins only grow between them, so
    # the loop is bounded.  Re-scaling a column whose pins did not
    # change reproduces it bit for bit.  (An entry whose lower bound
    # exceeds its upper one ends at the lower; the loop still ends.)
    n = x.shape[-2]
    t = target[..., None, :]
    floor_bound = _column_total(lo, x.shape) >= t
    cap_bound = _column_total(hi, x.shape) <= t
    active = ~(floor_bound | cap_bound)
    at_lo = np.zeros(x.shape, dtype=bool)
    at_hi = np.zeros(x.shape, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        while True:
            below = (y < lo) & active
            if below.any():
                at_lo |= below
            else:
                above = (y > hi) & active & ~at_hi
                if not above.any():
                    break
                at_hi |= above
                at_lo &= ~above.any(axis=-2, keepdims=True)
            free = ~(at_lo | at_hi)
            bounds = np.where(at_lo, lo, np.where(at_hi, hi, 0.0))
            budget = target - bounds.sum(axis=-2)
            rescaled = proportional_split(np.where(free, x, 0.0), budget, fallback=free)
            y = np.where(free, rescaled, bounds)
    y = np.where(cap_bound, hi, y)
    return np.where(floor_bound, t / n, y)


def _column_total(bound: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Per-column sum of a bound broadcast over ``shape``'s agent axis."""
    if bound.ndim < 2:  # one value per resource: N copies of it
        return shape[-2] * bound
    return np.broadcast_to(bound, shape).sum(axis=-2, keepdims=True)


def proportional_elasticity(
    problem: AllocationProblem, weights: Optional[Sequence[float]] = None
) -> Allocation:
    """Compute the REF allocation in closed form (Eq. 13).

    Each agent receives, for every resource, a share of total capacity
    proportional to her re-scaled elasticity for that resource:

        x_ir = ( a^_ir / sum_j a^_jr ) * C_r

    The computation is O(N * R) — the "computationally trivial" property
    the paper contrasts with geometric-programming alternatives (§5.5).

    Parameters
    ----------
    problem:
        The fair-division instance.
    weights:
        Optional strictly positive per-agent priorities.  Equal weights
        (the default) give CEEI / the paper's mechanism; unequal weights
        give the natural priority-class generalization — equivalent to
        a competitive equilibrium from *unequal* incomes, so PE is
        retained while SI/EF hold between equal-weight agents only.

    Returns
    -------
    Allocation
        With default weights: the fair allocation, provably satisfying
        SI, EF, PE and SPL for Cobb-Douglas agents.  A resource nobody
        reports a (finite, positive) elasticity for is split equally
        (:func:`proportional_split`'s degenerate-column rule).
    """
    alpha = problem.rescaled_alpha_matrix()
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (problem.n_agents,):
            raise ValueError(
                f"weights must have one entry per agent ({problem.n_agents}), "
                f"got shape {w.shape}"
            )
        if np.any(w <= 0):
            raise ValueError("weights must be strictly positive")
        alpha = alpha * w[:, None]
    shares = proportional_split(alpha, problem.capacity_vector)
    mechanism = "proportional_elasticity" if weights is None else "weighted_proportional_elasticity"
    return Allocation(problem=problem, shares=shares, mechanism=mechanism)


def apply_allocation_floors(
    allocation: Allocation, floors: Sequence[float]
) -> Allocation:
    """Return a feasible copy of an allocation with per-resource floors.

    Every column is water-filled (:func:`water_fill`) onto its capacity
    with ``floors[r]`` as the lower bound: agents whose proportional
    share falls below the floor are lifted to it and the excess comes
    out of the others, so the result always satisfies
    :meth:`Allocation.is_feasible`.  Infeasible floors
    (``N * floors[r] >= C_r``) degrade that column to the equal split.
    """
    mins = np.asarray(floors, dtype=float)
    n_resources = allocation.problem.n_resources
    if mins.shape != (n_resources,):
        raise ValueError(
            f"floors must have one entry per resource ({n_resources}), got {mins.shape}"
        )
    if np.any(mins < 0):
        raise ValueError(f"floors must be non-negative, got {mins.tolist()}")
    shares = water_fill(allocation.shares, allocation.problem.capacity_vector, lower=mins)
    return Allocation(
        problem=allocation.problem,
        shares=shares,
        mechanism=f"{allocation.mechanism}+floors",
    )
