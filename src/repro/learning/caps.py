"""Demand caps: saturated agents release surplus to unsaturated ones.

*Fair and Efficient Allocations with Limited Demands* (PAPERS.md)
observes that an agent whose utility has saturated along a resource —
more of it buys no performance — should not keep receiving its full
elasticity-proportional share; the surplus is worth strictly more to
agents that are still demand-elastic.

Two pieces implement that here:

* :class:`DemandCapEstimator` inspects an agent's learned utility and
  sample history and decides, per resource, whether the response looks
  *flat* (tiny re-scaled elasticity backed by enough evidence).  For a
  flat resource it derives a cap — a small margin above the cheapest
  allocation at which the agent already achieved near-best performance.
* :func:`apply_demand_caps` clips the allocation to those caps and
  redistributes the released surplus to the un-capped agents: each
  column is one bounded water-fill
  (:func:`~repro.core.mechanism.water_fill` with the caps as upper
  bounds), the standard tool of the limited-demands setting.  As long
  as one agent in a resource column is below its cap, the column sum
  is preserved **exactly**; only when every agent is capped is part of
  the column left on the table (a sum of caps below the column sum
  means nobody wants the rest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..core.mechanism import water_fill

__all__ = ["CapResult", "DemandCapEstimator", "apply_demand_caps"]


@dataclass(frozen=True)
class CapResult:
    """Outcome of one :func:`apply_demand_caps` pass."""

    shares: np.ndarray
    #: Number of (agent, resource) entries clipped to their cap.
    capped_entries: int
    #: Per-resource share released because *every* agent was capped.
    released: np.ndarray


def apply_demand_caps(shares: np.ndarray, caps: np.ndarray) -> CapResult:
    """Clip shares to per-agent demand caps, redistributing the surplus.

    Parameters
    ----------
    shares:
        ``(N, R)`` allocation whose columns sum to at most the
        capacities (the floor-enforced allocation).
    caps:
        ``(N, R)`` per-agent upper bounds; ``np.inf`` marks an
        un-capped entry.  Non-finite-but-not-inf or non-positive caps
        are treated as un-capped (a degenerate estimate must never
        zero an agent out).

    Returns
    -------
    :class:`CapResult` whose ``shares`` satisfy, per resource column:

    * no entry exceeds its cap (within fp tolerance),
    * if at least one agent is below its cap, the column sum equals
      the input column sum **exactly** (surplus fully redistributed),
    * otherwise the column sums to the total of the caps, and
      ``released`` reports what the input column sum exceeds that by.
    """
    shares = np.asarray(shares, dtype=float)
    if shares.ndim != 2:
        raise ValueError(f"shares must be (N, R), got shape {shares.shape}")
    n_resources = shares.shape[1]
    caps = np.asarray(caps, dtype=float)
    if caps.shape != shares.shape:
        raise ValueError(f"caps must have shape {shares.shape}, got {caps.shape}")
    # Degenerate caps (NaN, zero, negative) carry no information: treat
    # them as un-capped rather than starving the agent.
    caps = np.where(np.isnan(caps) | (caps <= 0.0), np.inf, caps)
    over = shares > caps
    if not over.any():
        return CapResult(shares.copy(), capped_entries=0, released=np.zeros(n_resources))
    # Only columns with an entry over its cap are filled; the others
    # stay exactly as they were.
    targets = shares.sum(axis=0)
    filled = water_fill(shares, targets, upper=caps)
    touched = over.any(axis=0)
    out = np.where(touched, filled, shares)
    capped_entries = int(np.count_nonzero(touched & (filled >= caps)))
    cap_total = caps.sum(axis=0)
    released = np.where(touched & (cap_total <= targets), targets - cap_total, 0.0)
    return CapResult(shares=out, capped_entries=capped_entries, released=released)


class DemandCapEstimator:
    """Detects utility saturation and derives per-resource demand caps.

    An agent is *saturated* in resource ``r`` when its learned response
    along that axis is flat: the re-scaled elasticity is below
    ``flat_threshold`` **and** the estimate is backed by at least
    ``min_samples`` accepted observations (a naive prior must never
    trigger a cap).  The cap is then ``margin`` times the smallest
    amount of ``r`` among the agent's samples that achieved at least
    ``(1 - flat_tolerance)`` of its best observed performance — the
    cheapest operating point known to be as good as any — floored at
    the controller's allocation floor so the cap can never push the
    agent out of the profiled regime.
    """

    def __init__(
        self,
        flat_threshold: float = 0.08,
        flat_tolerance: float = 0.05,
        margin: float = 1.25,
        min_samples: int = 8,
    ):
        if not 0 < flat_threshold < 1:
            raise ValueError(f"flat_threshold must be in (0, 1), got {flat_threshold}")
        if not 0 < flat_tolerance < 1:
            raise ValueError(f"flat_tolerance must be in (0, 1), got {flat_tolerance}")
        if margin < 1:
            raise ValueError(f"margin must be >= 1, got {margin}")
        if min_samples < 2:
            raise ValueError(f"min_samples must be >= 2, got {min_samples}")
        self.flat_threshold = flat_threshold
        self.flat_tolerance = flat_tolerance
        self.margin = margin
        self.min_samples = min_samples

    def caps_for(
        self,
        elasticities: Sequence[float],
        samples: Optional[Tuple[np.ndarray, np.ndarray]],
        floors: Sequence[float],
    ) -> np.ndarray:
        """Per-resource caps for one agent (``np.inf`` where unsaturated).

        Parameters
        ----------
        elasticities:
            The agent's current re-scaled (sum-to-one) elasticity
            report, shape ``(R,)``.
        samples:
            ``(allocations, performance)`` history the estimate rests
            on — ``(n, R)`` and ``(n,)`` arrays — or ``None`` when the
            agent has no accepted samples yet.
        floors:
            Controller allocation floors, shape ``(R,)``; caps never go
            below them.
        """
        alpha = np.asarray(elasticities, dtype=float)
        floors_arr = np.asarray(floors, dtype=float)
        caps = np.full(alpha.shape, np.inf)
        if samples is None:
            return caps
        allocations, performance = samples
        allocations = np.asarray(allocations, dtype=float)
        performance = np.asarray(performance, dtype=float)
        if performance.size < self.min_samples:
            return caps
        best = float(performance.max())
        if not np.isfinite(best) or best <= 0:
            return caps
        good = performance >= best * (1.0 - self.flat_tolerance)
        if not good.any():
            return caps
        for r in range(alpha.size):
            if alpha[r] > self.flat_threshold:
                continue
            cheapest = float(allocations[good, r].min())
            caps[r] = max(cheapest * self.margin, floors_arr[r])
        return caps
