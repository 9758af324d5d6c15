"""Priors for profile-free agents: equal split or learned centroids.

A profile-less agent must report *something* before its first fit.
The §4.4 naive report — every resource contributes equally — is always
safe, but when the service has already fitted agents of the same
workload class ("C"ache-sensitive vs "M"emory-bandwidth-sensitive, the
paper's Table 2 grouping), the class centroid of those past fits is a
strictly better starting point: the mechanism allocates sensibly from
epoch 0 and the regret trace starts lower.

:class:`PriorStore` keeps running per-class centroids of re-scaled
elasticities, updated from every confident fit the controller accepts,
plus a global centroid as the fallback for unknown classes.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["PRIOR_NAMES", "PriorStore", "validate_prior"]

#: Prior policies the CLI accepts (static strings: the parser stays
#: import-light, no registry or NumPy needed to build ``--prior``).
PRIOR_NAMES = ("equal", "centroid")


def validate_prior(policy: str) -> str:
    """``policy``, or ValueError unless it is one of :data:`PRIOR_NAMES`."""
    if policy not in PRIOR_NAMES:
        raise ValueError(f"unknown prior policy {policy!r}; expected one of {PRIOR_NAMES}")
    return policy


class PriorStore:
    """Running centroids of fitted elasticities, keyed by workload class.

    Parameters
    ----------
    policy:
        ``"equal"`` always returns the naive equal-elasticity prior;
        ``"centroid"`` returns the class centroid when one exists,
        falling back to the global centroid and then to equal.
    n_resources:
        Dimensionality of the elasticity vectors.
    """

    def __init__(self, policy: str = "equal", n_resources: int = 2):
        self.policy = validate_prior(policy)
        if n_resources < 1:
            raise ValueError(f"n_resources must be >= 1, got {n_resources}")
        self.n_resources = n_resources
        self._sums: Dict[str, np.ndarray] = {}
        self._counts: Dict[str, int] = {}

    @property
    def equal(self) -> np.ndarray:
        """The naive prior: all resources contribute equally (§4.4)."""
        return np.full(self.n_resources, 1.0 / self.n_resources)

    def update(self, rescaled_alpha: Sequence[float], cls: Optional[str] = None) -> None:
        """Fold one confident fit into the centroids.

        Non-finite or non-positive vectors are ignored — a degenerate
        fit must not poison the prior every future agent starts from.
        The fit always feeds the global centroid; ``cls`` additionally
        feeds that class's centroid.
        """
        alpha = np.asarray(rescaled_alpha, dtype=float)
        if alpha.shape != (self.n_resources,):
            raise ValueError(
                f"expected shape ({self.n_resources},), got {alpha.shape}"
            )
        if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0):
            return
        for key in ("*",) if cls is None else ("*", cls):
            self._sums[key] = self._sums.get(key, np.zeros(self.n_resources)) + alpha
            self._counts[key] = self._counts.get(key, 0) + 1

    def observations(self, cls: Optional[str] = None) -> int:
        """Fits folded into the class centroid (global when ``cls=None``)."""
        return self._counts.get(cls if cls is not None else "*", 0)

    def prior_for(self, cls: Optional[str] = None) -> np.ndarray:
        """The prior a new agent of workload class ``cls`` starts from.

        Always strictly positive and normalized to sum to one, so it is
        valid as a re-scaled (Eq. 12) elasticity report.
        """
        if self.policy == "equal":
            return self.equal
        for key in (cls, "*"):
            if key is not None and self._counts.get(key, 0) > 0:
                centroid = self._sums[key] / self._counts[key]
                total = centroid.sum()
                if total > 0 and np.all(np.isfinite(centroid)) and np.all(centroid > 0):
                    return centroid / total
        return self.equal
