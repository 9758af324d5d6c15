"""Game-theoretic property checkers: SI, EF, PE (§3, Eq. 11).

The paper defines a fair allocation by three properties:

* **Sharing incentives (SI)** — every agent weakly prefers her bundle to
  the equal split ``C / N`` (Eq. 3).
* **Envy-freeness (EF)** — no agent strictly prefers another agent's
  bundle to her own (§3.2).
* **Pareto efficiency (PE)** — no feasible reallocation makes someone
  strictly better off without making someone else worse off; for
  interior Cobb-Douglas allocations this is equivalent to all agents
  having equal marginal rates of substitution (§3.3, Eq. 10).

These checkers are used by the tests to certify REF allocations and by
the evaluation benches to demonstrate, as in Figs. 10-12, that the
equal-slowdown mechanism violates SI and EF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .mechanism import Allocation

__all__ = [
    "sharing_incentive_margins",
    "satisfies_sharing_incentives",
    "envy_matrix",
    "is_envy_free",
    "mrs_spread",
    "is_pareto_efficient",
    "unfairness_index",
    "FairnessReport",
    "check_fairness",
]

#: Default relative tolerance for property checks.  Property violations in
#: the paper's counterexamples are orders of magnitude larger than this.
DEFAULT_RTOL = 1e-6


def _log_utility_ratios(alpha: np.ndarray, bundles: np.ndarray, reference: np.ndarray):
    """``alpha_i . (log bundles_i - log reference)``: log of ``u_i(b_i) / u_i(ref)``.

    ``-inf`` where a bundle holds none of some resource (the scale
    ``a0`` cancels in every utility ratio).
    """
    return np.sum(alpha * (_log_shares(bundles) - np.log(reference)), axis=-1)


def _log_shares(shares: np.ndarray) -> np.ndarray:
    """``log x``, with a zero (or round-off negative) amount as ``-inf``."""
    with np.errstate(divide="ignore"):
        return np.log(np.maximum(shares, 0.0))


def sharing_incentive_margins(allocation: Allocation) -> np.ndarray:
    """Per-agent SI margin: ``u_i(x_i) / u_i(C/N) - 1``.

    Positive margins mean the agent strictly gains from sharing; a
    negative margin is an SI violation (the agent would rather take the
    equal split).  Computed for every agent at once in log space.
    """
    problem = allocation.problem
    alpha = problem.raw_alpha_matrix()
    return np.expm1(_log_utility_ratios(alpha, allocation.shares, problem.equal_split))


def satisfies_sharing_incentives(allocation: Allocation, rtol: float = DEFAULT_RTOL) -> bool:
    """True when every agent weakly prefers her bundle to ``C / N`` (Eq. 3)."""
    return bool(np.all(sharing_incentive_margins(allocation) >= -rtol))


def envy_matrix(allocation: Allocation) -> np.ndarray:
    """``(N, N)`` matrix ``E[i, j] = u_i(x_j) / u_i(x_i) - 1``.

    ``E[i, j] > 0`` means agent ``i`` envies agent ``j`` — she would be
    strictly happier with ``j``'s bundle.  The diagonal is zero.  An
    agent with zero utility of her own bundle envies (``inf``) every
    bundle she values, and no other.  Computed as
    ``exp(alpha . log x^T - own) - 1`` over all pairs at once.
    """
    alpha = allocation.problem.raw_alpha_matrix()
    # log u_i(x_j), up to agent i's scale (which cancels).
    cross = _pairwise_log_utilities(alpha, _log_shares(allocation.shares))
    own = np.diag(cross)[:, None]
    with np.errstate(invalid="ignore"):
        matrix = np.expm1(cross - own)
    # Zero own-utility: inf against a valued bundle, 0 against a worthless one.
    matrix = np.where(np.isneginf(own) & np.isneginf(cross), 0.0, matrix)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def _pairwise_log_utilities(alpha: np.ndarray, log_shares: np.ndarray) -> np.ndarray:
    """``cross[i, j] = alpha_i . log x_j``; ``-inf`` where ``x_j`` lacks a resource."""
    finite = np.where(np.isfinite(log_shares), log_shares, 0.0)
    cross = alpha @ finite.T
    missing = ~np.isfinite(log_shares)
    if missing.any():
        # alpha > 0, so any missing resource zeroes u_i(x_j).
        cross = np.where(missing.any(axis=1)[None, :], -np.inf, cross)
    return cross


def is_envy_free(allocation: Allocation, rtol: float = DEFAULT_RTOL) -> bool:
    """True when no agent strictly prefers another agent's bundle (§3.2)."""
    return bool(np.all(envy_matrix(allocation) <= rtol))


def mrs_spread(allocation: Allocation) -> float:
    """Maximum disagreement in marginal rates of substitution across agents.

    For each agent we form the normalized utility-gradient direction
    ``g_ir = a_ir / x_ir`` (the Cobb-Douglas gradient up to the positive
    factor ``u_i``); PE at an interior allocation requires all agents'
    directions to coincide (the tangency condition of Eq. 10).  Returns
    the maximum relative deviation of any agent's direction from the
    mean direction; zero (up to floating point) at PE allocations.

    Raises
    ------
    ValueError
        If any agent holds a zero amount of some resource (the gradient
        direction is undefined at the boundary).
    """
    if np.any(allocation.shares <= 0):
        raise ValueError(
            "MRS spread is only defined for interior allocations "
            "(all shares strictly positive)"
        )
    grad = allocation.problem.raw_alpha_matrix() / allocation.shares
    directions = grad / grad.sum(axis=1, keepdims=True)
    mean_dir = directions.mean(axis=0)
    return float(np.max(np.abs(directions - mean_dir) / mean_dir))


def is_pareto_efficient(allocation: Allocation, rtol: float = 1e-4) -> bool:
    """True when the interior allocation satisfies the PE tangency condition.

    Checks that every agent's marginal rate of substitution agrees for
    every pair of resources (Eq. 10).  The tolerance is looser than the
    SI/EF checks because numeric optimizers only equalize MRS values to
    their convergence tolerance.
    """
    if np.any(allocation.shares <= 0):
        # Boundary allocations can be PE (the Edgeworth-box origins) but
        # are never produced by the mechanisms we evaluate; report False
        # so callers treat them as needing manual analysis.
        return False
    return mrs_spread(allocation) <= rtol


def unfairness_index(allocation: Allocation) -> float:
    """Max-over-min weighted-utility ratio (the prior-work unfairness index).

    Prior memory-scheduling work considers an allocation fair when every
    agent suffers the same slowdown, i.e. when this index is 1.0 (§6).
    Uses weighted utility ``U_i = u_i(x_i) / u_i(C)`` as the slowdown
    proxy, exactly as §5.5 does.
    """
    problem = allocation.problem
    weighted = np.exp(
        _log_utility_ratios(
            problem.raw_alpha_matrix(), allocation.shares, problem.capacity_vector
        )
    )
    if np.any(weighted == 0):
        return float("inf")
    return float(weighted.max() / weighted.min())


@dataclass(frozen=True)
class FairnessReport:
    """Aggregate result of checking SI, EF and PE for one allocation."""

    sharing_incentives: bool
    envy_free: bool
    pareto_efficient: bool
    si_margins: np.ndarray
    envy: np.ndarray
    mrs_disagreement: Optional[float]

    @property
    def is_fair(self) -> bool:
        """Fair in the game-theoretic sense: EF and PE (§3) plus SI."""
        return self.sharing_incentives and self.envy_free and self.pareto_efficient

    def summary(self) -> str:
        """One-line-per-property report used by examples and benches."""
        lines: List[str] = [
            f"sharing incentives : {'PASS' if self.sharing_incentives else 'VIOLATED'}"
            f"  (worst margin {self.si_margins.min():+.4f})",
            f"envy-freeness      : {'PASS' if self.envy_free else 'VIOLATED'}"
            f"  (worst envy {np.max(self.envy):+.4f})",
        ]
        if self.mrs_disagreement is None:
            lines.append("pareto efficiency  : UNDEFINED (boundary allocation)")
        else:
            lines.append(
                f"pareto efficiency  : {'PASS' if self.pareto_efficient else 'VIOLATED'}"
                f"  (MRS spread {self.mrs_disagreement:.2e})"
            )
        return "\n".join(lines)


def check_fairness(
    allocation: Allocation,
    rtol: float = DEFAULT_RTOL,
    pe_rtol: float = 1e-4,
) -> FairnessReport:
    """Evaluate all three fairness properties for an allocation."""
    interior = bool(np.all(allocation.shares > 0))
    disagreement = mrs_spread(allocation) if interior else None
    return FairnessReport(
        sharing_incentives=satisfies_sharing_incentives(allocation, rtol),
        envy_free=is_envy_free(allocation, rtol),
        pareto_efficient=(disagreement is not None and disagreement <= pe_rtol),
        si_margins=sharing_incentive_margins(allocation),
        envy=envy_matrix(allocation),
        mrs_disagreement=disagreement,
    )
