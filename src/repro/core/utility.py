"""Utility functions over multi-resource hardware allocations.

This module implements the preference domains the paper reasons about:

* :class:`CobbDouglasUtility` — the paper's central modeling choice
  (Eq. 1): ``u(x) = a0 * prod_r x_r ** a_r``.  Elasticities ``a_r``
  capture diminishing marginal returns and substitution effects between
  hardware resources such as cache capacity and memory bandwidth.
* :class:`LeontiefUtility` — the perfect-complements domain used by prior
  work (Dominant Resource Fairness); included for the paper's
  Cobb-Douglas-versus-Leontief comparison (Figs. 3-4).

Both classes expose the preference relation of §3 (``prefers``,
``indifferent``, ``weakly_prefers``) and the marginal rate of substitution
(Eq. 9) where defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "Utility",
    "CobbDouglasUtility",
    "LeontiefUtility",
    "rescale_elasticities",
]

#: Tolerance used for indifference comparisons between utility values.
INDIFFERENCE_RTOL = 1e-9


def _as_allocation(x: Sequence[float], n_resources: int) -> np.ndarray:
    """Validate and convert an allocation vector to a numpy array."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"allocation must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] != n_resources:
        raise ValueError(
            f"allocation has {arr.shape[0]} entries but utility is defined "
            f"over {n_resources} resources"
        )
    if np.any(arr < 0):
        raise ValueError(f"allocation must be non-negative, got {arr.tolist()}")
    return arr


def rescale_elasticities(elasticities: Sequence[float]) -> np.ndarray:
    """Re-scale elasticities so they sum to one (paper Eq. 12).

    Re-scaling makes Cobb-Douglas utilities homogeneous of degree one,
    which is what lets the proportional-elasticity allocation coincide
    with the CEEI solution (§4.2).

    Parameters
    ----------
    elasticities:
        Raw per-resource elasticities, all strictly positive.

    Returns
    -------
    numpy.ndarray
        Elasticities scaled by ``1 / sum(elasticities)``.
    """
    alpha = np.asarray(elasticities, dtype=float)
    if alpha.ndim != 1 or alpha.size == 0:
        raise ValueError("elasticities must be a non-empty one-dimensional sequence")
    if np.any(alpha <= 0):
        raise ValueError(f"elasticities must be strictly positive, got {alpha.tolist()}")
    return alpha / alpha.sum()


class Utility:
    """Common preference-relation interface shared by utility families."""

    n_resources: int

    def value(self, x: Sequence[float]) -> float:
        """Utility of allocation ``x``."""
        raise NotImplementedError

    def __call__(self, x: Sequence[float]) -> float:
        return self.value(x)

    def prefers(self, x: Sequence[float], y: Sequence[float]) -> bool:
        """Strict preference ``x > y`` (§3: ``u(x) > u(y)``)."""
        return self.value(x) > self.value(y) and not self.indifferent(x, y)

    def indifferent(self, x: Sequence[float], y: Sequence[float]) -> bool:
        """Indifference ``x ~ y`` (§3: ``u(x) == u(y)`` up to tolerance)."""
        ux, uy = self.value(x), self.value(y)
        return math.isclose(ux, uy, rel_tol=INDIFFERENCE_RTOL, abs_tol=1e-12)

    def weakly_prefers(self, x: Sequence[float], y: Sequence[float]) -> bool:
        """Weak preference ``x >= y`` (§3: ``u(x) >= u(y)``)."""
        return self.value(x) >= self.value(y) or self.indifferent(x, y)


@dataclass(frozen=True)
class CobbDouglasUtility(Utility):
    """Cobb-Douglas utility ``u(x) = scale * prod_r x_r ** elasticities[r]``.

    Parameters
    ----------
    elasticities:
        Per-resource exponents ``(a_1, ..., a_R)``; each must be strictly
        positive.  Larger ``a_r`` means the agent benefits more from
        resource ``r``.
    scale:
        The multiplicative constant ``a_0`` (Eq. 1).  It never affects the
        preference ordering, only absolute utility values such as fitted
        IPC predictions.

    Examples
    --------
    The paper's recurring cache/bandwidth example (Eq. 2):

    >>> u1 = CobbDouglasUtility((0.6, 0.4))
    >>> u2 = CobbDouglasUtility((0.2, 0.8))
    >>> round(u1.value([18.0, 4.0]), 3)
    9.863
    """

    elasticities: Tuple[float, ...]
    scale: float = 1.0

    def __init__(self, elasticities: Iterable[float], scale: float = 1.0):
        elasticities = tuple(float(a) for a in elasticities)
        if not elasticities:
            raise ValueError("Cobb-Douglas utility requires at least one resource")
        if any(a <= 0 for a in elasticities):
            raise ValueError(
                f"Cobb-Douglas elasticities must be strictly positive, got {elasticities}"
            )
        if scale <= 0:
            raise ValueError(f"scale must be strictly positive, got {scale}")
        object.__setattr__(self, "elasticities", elasticities)
        object.__setattr__(self, "scale", float(scale))

    @property
    def n_resources(self) -> int:
        return len(self.elasticities)

    @property
    def alpha(self) -> np.ndarray:
        """Elasticities as a numpy vector."""
        return np.asarray(self.elasticities, dtype=float)

    def value(self, x: Sequence[float]) -> float:
        arr = _as_allocation(x, self.n_resources)
        return float(self.scale * np.prod(arr ** self.alpha))

    def log_value(self, x: Sequence[float]) -> float:
        """``log u(x)``; ``-inf`` when any resource allocation is zero.

        The log form is what the fitting procedure (Eq. 16) and the
        log-space convex solvers work with.
        """
        arr = _as_allocation(x, self.n_resources)
        if np.any(arr == 0):
            return float("-inf")
        return float(math.log(self.scale) + np.dot(self.alpha, np.log(arr)))

    def rescaled(self) -> "CobbDouglasUtility":
        """Return the re-scaled utility of §4.1: exponents sum to one, scale 1.

        Re-scaling preserves the preference ordering (it is a monotone
        transformation) while making the function homogeneous of degree
        one, the property the SI/EF/PE proofs rely on.  The result is
        memoized on the instance; the class is frozen, so the memo can
        never go stale.
        """
        memo = self.__dict__.get("_rescaled")
        if memo is None:
            memo = CobbDouglasUtility(rescale_elasticities(self.elasticities), scale=1.0)
            object.__setattr__(self, "_rescaled", memo)
        return memo

    def __getstate__(self) -> dict:
        # The memo is derived state: leave it out so pickles (and
        # copies) carry exactly the two fields.
        return {"elasticities": self.elasticities, "scale": self.scale}

    def is_rescaled(self, tol: float = 1e-9) -> bool:
        """True when elasticities already sum to one and scale is one."""
        return (
            math.isclose(sum(self.elasticities), 1.0, abs_tol=tol)
            and math.isclose(self.scale, 1.0, abs_tol=tol)
        )

    def marginal_rate_of_substitution(
        self, x: Sequence[float], r: int = 0, s: int = 1
    ) -> float:
        """Marginal rate of substitution between resources ``r`` and ``s``.

        Implements Eq. 9: ``MRS_{r,s} = (a_r / a_s) * (x_s / x_r)`` — the
        rate at which the agent will trade resource ``s`` for resource
        ``r`` while staying on the same indifference curve.
        """
        arr = _as_allocation(x, self.n_resources)
        if arr[r] == 0:
            raise ZeroDivisionError(
                f"MRS undefined: allocation of resource {r} is zero"
            )
        return (self.elasticities[r] / self.elasticities[s]) * (arr[s] / arr[r])

    def indifference_curve(
        self, utility_level: float, x_values: Sequence[float], r: int = 0, s: int = 1
    ) -> np.ndarray:
        """Resource-``s`` amounts tracing the ``u = utility_level`` curve.

        Only defined for two-resource utilities (used to regenerate the
        indifference-curve figures, Fig. 3).  Solves
        ``scale * x_r**a_r * x_s**a_s = utility_level`` for ``x_s``.
        """
        if self.n_resources != 2:
            raise ValueError("indifference_curve is only defined for two resources")
        if utility_level <= 0:
            raise ValueError("utility_level must be strictly positive")
        xs = np.asarray(x_values, dtype=float)
        if np.any(xs <= 0):
            raise ValueError("x_values must be strictly positive")
        a_r, a_s = self.elasticities[r], self.elasticities[s]
        return ((utility_level / self.scale) / xs ** a_r) ** (1.0 / a_s)


@dataclass(frozen=True)
class LeontiefUtility(Utility):
    """Leontief utility ``u(x) = min_r x_r / demands[r]`` (Eq. 8 analogue).

    Resources are perfect complements: extra amounts of a single resource
    beyond the demanded ratio are wasted, which is exactly why the paper
    argues Leontief is the wrong domain for microarchitectural resources.
    """

    demands: Tuple[float, ...]

    def __init__(self, demands: Iterable[float]):
        demands = tuple(float(d) for d in demands)
        if not demands:
            raise ValueError("Leontief utility requires at least one resource")
        if any(d <= 0 for d in demands):
            raise ValueError(f"Leontief demands must be strictly positive, got {demands}")
        object.__setattr__(self, "demands", demands)

    @property
    def n_resources(self) -> int:
        return len(self.demands)

    def value(self, x: Sequence[float]) -> float:
        arr = _as_allocation(x, self.n_resources)
        return float(np.min(arr / np.asarray(self.demands)))

    def marginal_rate_of_substitution(
        self, x: Sequence[float], r: int = 0, s: int = 1
    ) -> float:
        """MRS for Leontief preferences: zero, infinity, or undefined.

        Along the vertical leg of the L-shaped indifference curve the MRS
        is infinite; along the horizontal leg it is zero; at the kink it
        is undefined (we raise).  This is the paper's Fig. 4 contrast.
        """
        arr = _as_allocation(x, self.n_resources)
        ratio_r = arr[r] / self.demands[r]
        ratio_s = arr[s] / self.demands[s]
        if math.isclose(ratio_r, ratio_s, rel_tol=1e-12):
            raise ValueError("MRS undefined at the kink of a Leontief indifference curve")
        return float("inf") if ratio_r < ratio_s else 0.0
