"""Fitting Cobb-Douglas utilities to performance profiles (§4.4, Eq. 16).

The paper derives each agent's utility function from performance profiles:
measure IPC at several (cache size, memory bandwidth) allocations, apply a
log transformation to linearize ``u = a0 * prod_r x_r**a_r`` into

    log u = log a0 + sum_r a_r * log x_r

and estimate the elasticities ``a_r`` with ordinary least squares.  Fit
quality is summarized with the coefficient of determination (R²), which
the paper reports per benchmark in Fig. 8a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .utility import CobbDouglasUtility

__all__ = [
    "CobbDouglasFit",
    "FitMoments",
    "StackedFit",
    "fit_cobb_douglas",
    "fit_cobb_douglas_batch",
]

#: Elasticities fitted below this value are clamped to it so the resulting
#: utility stays inside the (strictly positive exponent) Cobb-Douglas domain.
#: Near-zero or slightly negative fitted elasticities arise for workloads
#: that are insensitive to a resource (the paper's "negligible variance"
#: cases such as radiosity).
MIN_ELASTICITY = 1e-6

#: Normal equations square the design's condition number, so a row of
#: :class:`FitMoments` whose weighted design (or whose shifted normal
#: equations) is conditioned worse than this is not solved from its
#: statistics: :func:`fit_cobb_douglas_batch` leaves it NaN, for a
#: re-fit from its samples by the SVD.
MAX_MOMENTS_CONDITION = 1e6


@dataclass(frozen=True)
class CobbDouglasFit:
    """Result of a least-squares Cobb-Douglas fit.

    Attributes
    ----------
    utility:
        The fitted :class:`~repro.core.utility.CobbDouglasUtility`
        (with the fitted ``scale = a0``).
    r_squared:
        Coefficient of determination of the *log-space* regression, the
        quantity Fig. 8a reports.  Approaches 1.0 as fit improves; near
        zero when the profile has negligible variance for the model to
        capture.
    r_squared_linear:
        R² computed in the original (IPC) space between measured and
        predicted performance; a secondary diagnostic.
    residuals:
        Log-space residuals, one per profile sample.
    n_samples:
        Number of profile points used for the fit.
    condition_number:
        Condition number of the (weighted) log-space design matrix.  A
        large value flags a nearly collinear sample set whose fitted
        elasticities are numerically meaningless; consumers such as the
        on-line profiler use it to reject degenerate fits.
    """

    utility: CobbDouglasUtility
    r_squared: float
    r_squared_linear: float
    residuals: np.ndarray = field(repr=False)
    n_samples: int
    condition_number: float = float("nan")

    @property
    def elasticities(self) -> Tuple[float, ...]:
        """Fitted raw (un-rescaled) elasticities."""
        return self.utility.elasticities

    @property
    def rescaled_elasticities(self) -> np.ndarray:
        """Elasticities re-scaled to sum to one (Eq. 12)."""
        return self.utility.rescaled().alpha

    def predict(self, allocations: Sequence[Sequence[float]]) -> np.ndarray:
        """Predicted performance for each allocation row."""
        return np.array([self.utility.value(row) for row in np.atleast_2d(allocations)])


def _r_squared(observed: np.ndarray, predicted: np.ndarray) -> float:
    """Coefficient of determination; 1.0 for a perfect fit.

    When the observed data has zero variance the usual definition is
    degenerate; we return 1.0 if the predictions are exact and 0.0
    otherwise, matching the paper's treatment of no-trend benchmarks.
    """
    ss_tot = float(np.sum((observed - observed.mean()) ** 2))
    ss_res = float(np.sum((observed - predicted) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def _validate_fit_inputs(
    allocations: Sequence[Sequence[float]],
    performance: Sequence[float],
    weights: Optional[Sequence[float]],
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Input validation for the single-agent fitter."""
    x = np.asarray(allocations, dtype=float)
    u = np.asarray(performance, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"allocations must be 2-D (samples x resources), got shape {x.shape}")
    n_samples, n_resources = x.shape
    if u.shape != (n_samples,):
        raise ValueError(
            f"performance must have one entry per allocation row: "
            f"expected {n_samples}, got {u.shape}"
        )
    if n_samples < n_resources + 1:
        raise ValueError(
            f"need at least n_resources + 1 = {n_resources + 1} samples to fit, "
            f"got {n_samples}"
        )
    if np.any(x <= 0):
        raise ValueError("allocations must be strictly positive for the log transform")
    if np.any(u <= 0):
        raise ValueError("performance must be strictly positive for the log transform")
    w: Optional[np.ndarray] = None
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n_samples,):
            raise ValueError(f"weights must have shape ({n_samples},), got {w.shape}")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
    return x, u, w


def fit_cobb_douglas(
    allocations: Sequence[Sequence[float]],
    performance: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> CobbDouglasFit:
    """Fit a Cobb-Douglas utility to a performance profile (Eq. 16).

    Parameters
    ----------
    allocations:
        An ``(n_samples, n_resources)`` array-like of strictly positive
        resource allocations — e.g. rows of (memory bandwidth GB/s,
        cache size MB) from the 5x5 sweep of Table 1.
    performance:
        Strictly positive measured performance (IPC) per allocation row.
    weights:
        Optional non-negative per-sample weights for weighted least
        squares (used by the online profiler to emphasize recent samples).

    Returns
    -------
    CobbDouglasFit
        Fitted utility plus goodness-of-fit diagnostics.

    Raises
    ------
    ValueError
        On shape mismatches, non-positive data, or fewer samples than
        parameters (``n_resources + 1``).
    """
    x, u, w = _validate_fit_inputs(allocations, performance, weights)
    n_samples = x.shape[0]

    # Standard linear model after the log transformation (Eq. 16):
    # columns are [1, log x_1, ..., log x_R].
    design = np.column_stack([np.ones(n_samples), np.log(x)])
    target = np.log(u)

    if w is not None:
        sqrt_w = np.sqrt(w)
        design = design * sqrt_w[:, None]
        target = target * sqrt_w

    coef, _, _, singular_values = np.linalg.lstsq(design, target, rcond=None)
    log_scale, alpha = coef[0], coef[1:]
    return _assemble_fit(x, u, log_scale, alpha, singular_values)


def _assemble_fit(
    x: np.ndarray,
    u: np.ndarray,
    log_scale: float,
    alpha: np.ndarray,
    singular_values: np.ndarray,
) -> CobbDouglasFit:
    """Clamp, diagnose and package one solved log-space regression."""
    n_samples = x.shape[0]
    smallest = float(singular_values.min()) if singular_values.size else 0.0
    condition = (
        float(singular_values.max()) / smallest if smallest > 0 else float("inf")
    )

    # Clamp into the Cobb-Douglas domain (strictly positive exponents).
    alpha = np.maximum(alpha, MIN_ELASTICITY)

    utility = CobbDouglasUtility(alpha, scale=float(np.exp(log_scale)))

    # Diagnostics are always computed on the unweighted data so that R²
    # is comparable across weighted and unweighted fits.
    plain_design = np.column_stack([np.ones(n_samples), np.log(x)])
    log_target = np.log(u)
    log_pred = plain_design @ np.concatenate([[log_scale], alpha])
    residuals = log_target - log_pred
    return CobbDouglasFit(
        utility=utility,
        r_squared=_r_squared(log_target, log_pred),
        r_squared_linear=_r_squared(u, np.exp(log_pred)),
        residuals=residuals,
        n_samples=n_samples,
        condition_number=condition,
    )


@dataclass(frozen=True)
class FitMoments:
    """Weighted sufficient statistics of ``A`` log-space regressions.

    Row ``k`` summarises samples ``j`` with weights ``w_j`` about its
    origin ``o = origin[k]`` (the log of one of its samples, allocation
    then performance): with the shifted design row
    ``d_j = [1, log x_j - o[:R]]`` and target ``t_j = log u_j - o[R]``,
    ``gram[k]`` is ``sum_j w_j d_j d_j^T`` and ``moment[k]`` is
    ``sum_j w_j t_j d_j``.  The origin keeps the normal equations well
    conditioned; it does not change the fit.  ``len()`` is ``A``.
    """

    #: ``(A, R + 1, R + 1)`` weighted Gram matrices of the shifted designs.
    gram: np.ndarray
    #: ``(A, R + 1)`` weighted moments of the shifted targets.
    moment: np.ndarray
    #: ``(A, R + 1)`` origins: log allocation, then log performance.
    origin: np.ndarray

    def __len__(self) -> int:
        return len(self.gram)


@dataclass(frozen=True)
class StackedFit:
    """Every row's fit from one solve of the normal equations, as arrays.

    A row whose statistics were too ill-conditioned to solve holds NaN
    ``alpha`` and ``scale`` (see :data:`MAX_MOMENTS_CONDITION`).
    """

    #: ``(A, R)`` fitted elasticities, clamped to :data:`MIN_ELASTICITY`.
    alpha: np.ndarray
    #: ``(A,)`` fitted scales ``a0``.
    scale: np.ndarray
    #: ``(A,)`` condition numbers of the weighted log-space designs.
    condition: np.ndarray


def fit_cobb_douglas_batch(allocations, performance=None, weights=None):
    """Fit every agent's Cobb-Douglas utility in one batched solve.

    Two input forms:

    * **ragged** (sample arrays): ``allocations`` holds one ``(n_k, R)``
      array-like per agent, ``performance`` one strictly positive
      ``(n_k,)`` array-like, ``weights`` optional per-agent vectors
      (entries may be ``None`` for unweighted agents).  The ``A``
      regressions are solved by *one* batched SVD over a zero-padded
      ``(A, max n_k, R + 1)`` design tensor; zero-padded rows add
      nothing to the normal equations, so each agent's coefficients,
      singular values and condition number match
      :func:`fit_cobb_douglas` up to floating-point noise.  Inputs are
      checked in one vectorised pass.  Returns a list of
      :class:`CobbDouglasFit`, one per agent in input order.
    * **statistics** (``allocations`` is a :class:`FitMoments`, the
      other arguments unused): each row's ``(R + 1)``-square normal
      equations are solved about its origin in one batched pass, and
      the intercept is moved back.  The condition number is the
      un-shifted weighted design's, from its Gram matrix's eigenvalues.
      A row beyond :data:`MAX_MOMENTS_CONDITION` is left NaN for a
      re-fit from its samples.  Returns a :class:`StackedFit`.  This is
      the epoch tick's form: its cost follows the rows, not their
      histories, and no R² or residuals are computed.

    Raises
    ------
    ValueError
        On any agent's invalid input (message prefixed with the agent
        index), mismatched outer lengths, or inconsistent resource
        counts across agents.
    """
    if isinstance(allocations, FitMoments):
        return _solve_moments(allocations)
    x, u, w, n = _pad_ragged(allocations, performance, weights)
    if x is None:
        return []
    return _solve_padded(x, u, w, n)


def _solve_moments(moments: FitMoments) -> StackedFit:
    """The statistics kernel: batched eigenvalues and one batched solve."""
    gram, moment, origin = moments.gram, moments.moment, moments.origin
    n_agents, p = moment.shape
    # The plain design row [1, log x] is `lift` times the shifted one.
    lift = np.tile(np.eye(p), (n_agents, 1, 1))
    lift[:, 1:, 0] = origin[:, :-1]
    plain = lift @ gram @ lift.transpose(0, 2, 1)
    spread = np.linalg.eigvalsh(plain)
    shifted = np.linalg.eigvalsh(gram)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = np.where(
            spread[:, 0] > 0, np.sqrt(spread[:, -1] / spread[:, 0]), np.inf
        )
    solvable = (condition <= MAX_MOMENTS_CONDITION) & (
        shifted[:, -1] <= MAX_MOMENTS_CONDITION * shifted[:, 0]
    )
    coef = np.full((n_agents, p), np.nan)
    coef[solvable] = np.linalg.solve(gram[solvable], moment[solvable, :, None])[:, :, 0]
    # Move the intercept back: log u = c + alpha . log x with
    # c = coef_0 + o_u - alpha . o_x (unclamped alpha, as solved).
    log_scale = coef[:, 0] + origin[:, -1] - np.einsum("ar,ar->a", coef[:, 1:], origin[:, :-1])
    return StackedFit(
        alpha=np.maximum(coef[:, 1:], MIN_ELASTICITY),
        scale=np.exp(log_scale),
        condition=condition,
    )


def _pad_ragged(allocations, performance, weights):
    """Stack per-agent samples into zero-padded blocks (one Python pass)."""
    n_agents = len(allocations)
    if len(performance) != n_agents:
        raise ValueError(
            f"need one performance vector per agent: "
            f"expected {n_agents}, got {len(performance)}"
        )
    if weights is not None and len(weights) != n_agents:
        raise ValueError(
            f"need one weight vector (or None) per agent: "
            f"expected {n_agents}, got {len(weights)}"
        )
    if n_agents == 0:
        return None, None, None, None
    xs = [np.asarray(a, dtype=float) for a in allocations]
    for k, x in enumerate(xs):
        if x.ndim != 2:
            raise ValueError(
                f"agent {k}: allocations must be 2-D (samples x resources), "
                f"got shape {x.shape}"
            )
        if x.shape[1] != xs[0].shape[1]:
            raise ValueError(
                f"agent {k}: every agent in a batch must share the resource "
                f"count; expected {xs[0].shape[1]}, got {x.shape[1]}"
            )
    counts = np.array([x.shape[0] for x in xs], dtype=np.intp)
    m_max = int(counts.max())
    x_block = np.zeros((n_agents, m_max, xs[0].shape[1]))
    u_block = np.zeros((n_agents, m_max))
    w_block = None
    if weights is not None and any(wk is not None for wk in weights):
        w_block = np.zeros((n_agents, m_max))
    for k, x in enumerate(xs):
        m = x.shape[0]
        u = np.asarray(performance[k], dtype=float)
        if u.shape != (m,):
            raise ValueError(
                f"agent {k}: performance must have one entry per allocation "
                f"row: expected {m}, got {u.shape}"
            )
        x_block[k, :m] = x
        u_block[k, :m] = u
        if w_block is not None:
            if weights[k] is None:
                # Weight one is exact: sqrt(1) * d == d bit for bit.
                w_block[k, :m] = 1.0
            else:
                wk = np.asarray(weights[k], dtype=float)
                if wk.shape != (m,):
                    raise ValueError(
                        f"agent {k}: weights must have shape ({m},), got {wk.shape}"
                    )
                w_block[k, :m] = wk
    _check_values(x_block, u_block, w_block, counts)
    return x_block, u_block, w_block, counts


def _check_values(x, u, w, counts) -> None:
    """`fit_cobb_douglas`'s value rules over every agent of a padded block."""
    n_resources = x.shape[2]
    mask = np.arange(x.shape[1]) < counts[:, None]
    checks = [
        (
            counts < n_resources + 1,
            f"need at least n_resources + 1 = {n_resources + 1} samples to fit",
        ),
        (
            np.any((x <= 0) & mask[:, :, None], axis=(1, 2)),
            "allocations must be strictly positive for the log transform",
        ),
        (
            np.any((u <= 0) & mask, axis=1),
            "performance must be strictly positive for the log transform",
        ),
    ]
    if w is not None:
        checks.append((np.any((w < 0) & mask, axis=1), "weights must be non-negative"))
    for bad, message in checks:
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"agent {k}: {message} (it has {int(counts[k])} sample(s))")


def _solve_padded(
    x: np.ndarray, u: np.ndarray, w: Optional[np.ndarray], counts: np.ndarray
) -> List[CobbDouglasFit]:
    """The ragged form's kernel: one batched SVD over the zero-padded designs.

    Only each agent's first ``counts[k]`` rows are read; the padded
    design, target and performance blocks are zero past them
    (``log 1 == 0`` pads the log blocks).
    """
    n_agents, m_max, n_resources = x.shape
    p = n_resources + 1
    mask = np.arange(m_max)[None, :] < counts[:, None]

    # `plain` keeps the unweighted design for diagnostics (R² must be
    # weight-invariant, as in the per-agent path).
    plain = np.empty((n_agents, m_max, p))
    plain[:, :, 0] = mask
    plain[:, :, 1:] = np.log(np.where(mask[:, :, None], x, 1.0))
    plain_target = np.log(np.where(mask, u, 1.0))
    u_padded = np.where(mask, u, 0.0)
    if w is None:
        design, target = plain, plain_target
    else:
        sqrt_w = np.sqrt(np.where(mask, w, 0.0))
        design = plain * sqrt_w[:, :, None]
        target = plain_target * sqrt_w

    # One batched SVD solves every regression at once.  The minimum-norm
    # least-squares solution with `lstsq`'s default cutoff (machine eps
    # times max(M, N), relative to the largest singular value) is
    # reproduced per agent using each agent's true sample count.
    u_basis, sigma, vt = np.linalg.svd(design, full_matrices=False)
    eps = np.finfo(design.dtype).eps
    cutoff = sigma[:, :1] * (np.maximum(counts, p) * eps)[:, None]
    keep = sigma > cutoff
    sigma_inv = np.where(keep, 1.0 / np.where(keep, sigma, 1.0), 0.0)
    projected = np.einsum("amk,am->ak", u_basis, target)
    coef = np.einsum("akp,ak->ap", vt, sigma_inv * projected)

    # Clamp and diagnose every agent in stacked form (matching
    # `_assemble_fit` exactly).
    log_scale = coef[:, 0]
    alpha = np.maximum(coef[:, 1:], MIN_ELASTICITY)
    smallest = sigma[:, -1]
    with np.errstate(divide="ignore"):
        condition = np.where(
            smallest > 0, sigma[:, 0] / np.where(smallest > 0, smallest, 1.0), np.inf
        )
    full_coef = np.concatenate([log_scale[:, None], alpha], axis=1)
    log_pred = np.einsum("amp,ap->am", plain, full_coef)

    # Masked, stacked R² in log and linear space (same degenerate-variance
    # semantics as `_r_squared`).  Padded rows carry zero design, target,
    # and performance, so they vanish under the mask.
    residuals = (plain_target - log_pred) * mask
    scale = np.exp(log_scale)
    r_squared = _r_squared_stacked(plain_target, log_pred, counts, mask)
    r_squared_linear = _r_squared_stacked(u_padded, np.exp(log_pred) * mask, counts, mask)
    return [
        CobbDouglasFit(
            utility=CobbDouglasUtility(alpha[k], scale=float(scale[k])),
            r_squared=float(r_squared[k]),
            r_squared_linear=float(r_squared_linear[k]),
            residuals=residuals[k, : int(m)],
            n_samples=int(m),
            condition_number=float(condition[k]),
        )
        for k, m in enumerate(counts)
    ]


def _r_squared_stacked(
    observed: np.ndarray,
    predicted: np.ndarray,
    counts: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Vectorized `_r_squared` over a zero-padded ``(A, m_max)`` stack."""
    means = observed.sum(axis=1) / counts
    ss_tot = np.sum(((observed - means[:, None]) * mask) ** 2, axis=1)
    ss_res = np.sum(((observed - predicted) * mask) ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = 1.0 - ss_res / ss_tot
    return np.where(ss_tot == 0.0, np.where(ss_res == 0.0, 1.0, 0.0), r2)
