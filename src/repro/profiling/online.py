"""On-line profiling: adapt a utility function while running (§4.4).

"Without prior knowledge, a user assumes all resources contribute
equally to performance.  Such a naive user reports utility
``u = x**0.5 * y**0.5``.  As the system allocates for this utility, the
user profiles software performance.  And as profiles are accumulated for
varied allocations, the user adapts its utility function."

:class:`OnlineProfiler` implements that loop: it starts from the naive
equal-elasticity report, records (allocation, IPC) observations, and
re-fits once enough linearly-independent samples accumulate, optionally
weighting recent samples more heavily (software phases change).

The profiler is built to survive a *long-running* closed loop fed by an
imperfect measurement pipeline:

* non-positive or non-finite samples are **rejected** (skipped and
  counted), never raised — one bad sensor reading must not kill the
  service;
* an optional outlier gate rejects samples wildly inconsistent with the
  current fit, while re-admitting a *run* of consistent "outliers"
  (a genuine phase change looks like one);
* with ``decay < 1`` the sample history is bounded: samples whose weight
  has decayed below ``weight_floor`` are dropped, so memory and re-fit
  cost stay O(1) over thousands of epochs;
* ill-conditioned or non-finite re-fits are discarded and the last good
  fit (or the naive prior) is kept — degenerate fits are counted, not
  propagated.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Sequence

import numpy as np

from ..core.fitting import CobbDouglasFit, fit_cobb_douglas
from ..core.utility import CobbDouglasUtility
from ..obs import MetricsRegistry

__all__ = ["OnlineProfiler"]


class OnlineProfiler:
    """Incrementally learns a workload's Cobb-Douglas utility.

    Parameters
    ----------
    n_resources:
        Number of shared resources.
    min_samples:
        Observations required before the first re-fit; until then the
        naive equal-elasticity utility is reported.  Must be at least
        ``n_resources + 1`` (the regression's parameter count).
    decay:
        Per-step multiplicative weight decay in (0, 1]; 1.0 weights all
        history equally, smaller values emphasize recent samples.
    weight_floor:
        With ``decay < 1``, samples whose weight has decayed below this
        threshold are dropped from the history (bounding its length at
        ``log(weight_floor) / log(decay)`` samples).  Ignored when
        ``decay == 1``.
    max_condition:
        Re-fits whose design-matrix condition number exceeds this bound
        are considered degenerate and discarded (the previous fit is
        kept).  ``None`` disables the check.
    outlier_log_threshold:
        When set, a sample whose log-space residual against the current
        fit exceeds this value is rejected as an outlier.  After
        ``max_consecutive_outliers`` rejections in a row the gate yields
        and accepts the sample — a sustained shift is a phase change,
        not a fault.  ``None`` (the default) disables the gate.
    max_consecutive_outliers:
        See ``outlier_log_threshold``.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; when given, the
        rejection/fallback counters are mirrored into it
        (``repro_online_*`` metrics) and every attempted re-fit's
        condition number is exposed as a gauge.  ``None`` (default)
        keeps the profiler metric-free.
    metric_labels:
        Labels attached to every mirrored metric (e.g.
        ``{"agent": name}`` when one registry serves many profilers).
    auto_refit:
        When True (default) every accepted observation re-fits
        immediately, preserving the historical per-observe behaviour.
        When False the profiler only *marks itself dirty*; an external
        driver (the dynamic controller) batches dirty profilers through
        :func:`~repro.core.fitting.fit_cobb_douglas_batch` once per
        epoch and feeds results back via :meth:`apply_fit`.  The fit is
        a pure function of the sample history, so deferring it changes
        when — not what — the profiler learns.
    """

    #: Mirror key -> (registry method, metric name, extra labels).
    _METRICS = {
        "rejected_non_positive": (
            "counter",
            "repro_online_samples_rejected_total",
            {"reason": "non_positive"},
        ),
        "rejected_outliers": (
            "counter",
            "repro_online_samples_rejected_total",
            {"reason": "outlier"},
        ),
        "fit_fallbacks": ("counter", "repro_online_fit_fallbacks_total", {}),
        "trimmed_samples": ("counter", "repro_online_samples_trimmed_total", {}),
        "refits": ("counter", "repro_online_refits_total", {}),
        "condition": ("gauge", "repro_online_fit_condition_number", {}),
    }

    def __init__(
        self,
        n_resources: int = 2,
        min_samples: Optional[int] = None,
        decay: float = 1.0,
        weight_floor: float = 1e-6,
        max_condition: Optional[float] = 1e8,
        outlier_log_threshold: Optional[float] = None,
        max_consecutive_outliers: int = 3,
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Mapping[str, str]] = None,
        auto_refit: bool = True,
    ):
        if n_resources < 1:
            raise ValueError(f"n_resources must be >= 1, got {n_resources}")
        if not 0 < decay <= 1:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        minimum_viable = n_resources + 1
        if min_samples is None:
            min_samples = max(minimum_viable, 4)
        if min_samples < minimum_viable:
            raise ValueError(
                f"min_samples must be >= n_resources + 1 = {minimum_viable}, got {min_samples}"
            )
        if not 0 < weight_floor < 1:
            raise ValueError(f"weight_floor must be in (0, 1), got {weight_floor}")
        if max_condition is not None and max_condition <= 1:
            raise ValueError(f"max_condition must exceed 1, got {max_condition}")
        if outlier_log_threshold is not None and outlier_log_threshold <= 0:
            raise ValueError(
                f"outlier_log_threshold must be positive, got {outlier_log_threshold}"
            )
        if max_consecutive_outliers < 1:
            raise ValueError(
                f"max_consecutive_outliers must be >= 1, got {max_consecutive_outliers}"
            )
        self.n_resources = n_resources
        self.min_samples = min_samples
        self.decay = decay
        self.weight_floor = weight_floor
        self.max_condition = max_condition
        self.outlier_log_threshold = outlier_log_threshold
        self.max_consecutive_outliers = max_consecutive_outliers
        # The fit keeps at least min_samples even if decay would age
        # them all out; identification beats forgetting.
        if decay < 1.0:
            self.max_history = max(
                int(math.ceil(math.log(weight_floor) / math.log(decay))), min_samples
            )
        else:
            self.max_history = None
        self.auto_refit = auto_refit
        # The accepted history, oldest first, lives in rows
        # [_start, _end) of two contiguous buffers.  Trimming advances
        # _start; an append at the end of the buffer moves the live rows
        # to the front, or doubles the buffer when more than half of it
        # is live, so each sample costs O(1) amortised.
        capacity = 2 * (self.max_history or min_samples)
        self._allocations = np.empty((capacity, n_resources))
        self._performance = np.empty(capacity)
        self._start = 0
        self._end = 0
        # _has_variation's verdict, cached until the history next changes.
        self._variation: Optional[bool] = None
        # decay ** age for ages max_history - 1 .. 0: a history of n
        # samples is weighted by the last n entries.
        self._weights = (
            decay ** np.arange(self.max_history - 1, -1, -1, dtype=float) if decay < 1.0 else None
        )
        self._naive = CobbDouglasUtility([1.0 / n_resources] * n_resources)
        self._fit: Optional[CobbDouglasFit] = None
        self._dirty = False
        self._last_condition = float("nan")
        self._consecutive_outliers = 0
        self._metrics = metrics
        self._metric_labels = dict(metric_labels or {})
        self._handles: Dict[str, object] = {}
        self._counters: Dict[str, int] = {
            "rejected_non_positive": 0,
            "rejected_outliers": 0,
            "fit_fallbacks": 0,
            "trimmed_samples": 0,
        }

    def _metric(self, key: str):
        """The registry child mirroring ``key``, looked up at first use.

        Held afterwards, so a hot path pays no locked registry lookup,
        while a series still appears only once it is first touched.
        """
        handle = self._handles.get(key)
        if handle is None:
            kind, name, extra = self._METRICS[key]
            handle = getattr(self._metrics, kind)(name, **{**self._metric_labels, **extra})
            self._handles[key] = handle
        return handle

    def _count(self, key: str, n: int = 1) -> None:
        """Bump an internal counter and its metric mirror (if any)."""
        self._counters[key] += n
        if self._metrics is not None:
            self._metric(key).inc(n)

    @property
    def n_samples(self) -> int:
        return self._end - self._start

    @property
    def counters(self) -> Dict[str, int]:
        """Fault-handling counters accumulated over the profiler's life."""
        return dict(self._counters)

    @property
    def last_condition_number(self) -> float:
        """Condition number of the most recent *attempted* re-fit."""
        return self._last_condition

    @property
    def naive_utility(self) -> CobbDouglasUtility:
        """The §4.4 prior: all resources contribute equally."""
        return self._naive

    @property
    def utility(self) -> CobbDouglasUtility:
        """Current best utility estimate (naive until enough samples)."""
        if self._fit is None:
            return self.naive_utility
        return self._fit.utility

    @property
    def last_fit(self) -> Optional[CobbDouglasFit]:
        """Diagnostics of the most recent *accepted* re-fit, or None."""
        return self._fit

    def report_elasticities(self) -> np.ndarray:
        """Re-scaled elasticities the agent would report to the mechanism."""
        return self.utility.rescaled().alpha

    def samples(self) -> Optional[tuple]:
        """Accepted ``(allocations, performance)`` history as arrays.

        ``None`` until at least one sample was accepted.  Consumers
        (the demand-cap estimator) read the evidence behind the current
        fit; the arrays are copies, mutating them cannot corrupt the
        profiler.
        """
        if self._end == self._start:
            return None
        return (
            self._allocations[self._start : self._end].copy(),
            self._performance[self._start : self._end].copy(),
        )

    def observe(
        self,
        allocation: Sequence[float],
        performance: float,
        exploration: bool = False,
    ) -> CobbDouglasUtility:
        """Record one (allocation, measured IPC) sample and maybe re-fit.

        Returns the (possibly updated) utility estimate.  Samples with
        non-positive or non-finite entries are rejected — skipped and
        counted under ``counters["rejected_non_positive"]`` — because the
        log transform needs strictly positive data and a long-running
        loop must survive a bad measurement.  Only a wrong *shape* (a
        caller bug, not a measurement fault) still raises.

        ``exploration=True`` marks the sample as deliberately taken at a
        perturbed operating point by a demand-learning controller.  Such
        samples bypass the fit-relative outlier gate entirely: they are
        *expected* to disagree with the current fit (that is the point of
        exploring), and a stream of exploration samples from a
        phase-changed agent would otherwise be rejected wholesale before
        the consecutive-run escape could fire.
        """
        arr = np.asarray(allocation, dtype=float)
        if arr.shape != (self.n_resources,):
            raise ValueError(
                f"allocation must have shape ({self.n_resources},), got {arr.shape}"
            )
        if (
            np.any(arr <= 0)
            or not np.all(np.isfinite(arr))
            or not np.isfinite(performance)
            or performance <= 0
        ):
            self._count("rejected_non_positive")
            return self.utility
        if not exploration and self._is_outlier(arr, float(performance)):
            self._count("rejected_outliers")
            return self.utility
        self._consecutive_outliers = 0
        self._append(arr, float(performance))
        self._trim_history()
        self._variation = None
        self._dirty = True
        if (
            self.auto_refit
            and self.n_samples >= self.min_samples
            and self._has_variation()
        ):
            self._refit()
        return self.utility

    # ------------------------------------------------------------------

    def _is_outlier(self, allocation: np.ndarray, performance: float) -> bool:
        """Fit-relative outlier gate with a consecutive-run escape hatch."""
        if self.outlier_log_threshold is None or self._fit is None:
            return False
        predicted = self._fit.utility.value(allocation)
        if predicted <= 0 or not np.isfinite(predicted):
            return False
        residual = abs(math.log(performance) - math.log(predicted))
        if residual <= self.outlier_log_threshold:
            return False
        self._consecutive_outliers += 1
        if self._consecutive_outliers >= self.max_consecutive_outliers:
            # A run of consistent "outliers" is a regime change: yield.
            self._consecutive_outliers = 0
            return False
        return True

    def _append(self, allocation: np.ndarray, performance: float) -> None:
        if self._end == len(self._performance):
            live = self.n_samples
            allocations, performances = self._allocations, self._performance
            if 2 * live > len(performances):
                allocations = np.empty((2 * len(performances), self.n_resources))
                performances = np.empty(2 * len(performances))
            allocations[:live] = self._allocations[self._start : self._end]
            performances[:live] = self._performance[self._start : self._end]
            self._allocations, self._performance = allocations, performances
            self._start, self._end = 0, live
        self._allocations[self._end] = allocation
        self._performance[self._end] = performance
        self._end += 1

    def _trim_history(self) -> None:
        if self.max_history is None:
            return
        excess = self.n_samples - self.max_history
        if excess > 0:
            self._start += excess
            self._count("trimmed_samples", excess)

    @property
    def needs_refit(self) -> bool:
        """True when deferred samples await a re-fit that could succeed.

        Used by batched drivers: a profiler is worth including in the
        epoch's :func:`~repro.core.fitting.fit_cobb_douglas_batch` call
        only when it has unfitted samples, enough of them, and a
        full-rank design.
        """
        return (
            self._dirty
            and self.n_samples >= self.min_samples
            and self._has_variation()
        )

    def fit_inputs(self) -> tuple:
        """The ``(allocations, performance, weights)`` the next re-fit uses.

        Exactly what :meth:`refit_now` would pass to
        :func:`~repro.core.fitting.fit_cobb_douglas`; batched drivers
        collect these across agents for one stacked solve.
        """
        history = self.samples()
        if history is None:
            raise ValueError("no accepted samples to fit")
        weights = None
        if self._weights is not None:
            weights = self._weights[len(self._weights) - self.n_samples :].copy()
        return (*history, weights)

    def apply_fit(self, fit: Optional[CobbDouglasFit]) -> None:
        """Accept or reject an externally computed re-fit.

        ``fit=None`` signals that the solve itself failed (the batched
        equivalent of ``fit_cobb_douglas`` raising); otherwise the fit
        goes through the same acceptance gate as the per-observe path —
        finite parameters and a condition number within
        ``max_condition`` — and a degenerate fit is counted and
        discarded while the previous fit (or the naive prior) is kept.
        """
        self._dirty = False
        if fit is None:
            self._last_condition = float("inf")
            self._count("fit_fallbacks")
            self._record_condition()
            return
        self._last_condition = fit.condition_number
        self._record_condition()
        alpha_ok = np.all(np.isfinite(fit.utility.alpha)) and np.isfinite(
            fit.utility.scale
        )
        condition_ok = self.max_condition is None or (
            np.isfinite(fit.condition_number)
            and fit.condition_number <= self.max_condition
        )
        if alpha_ok and condition_ok:
            self._fit = fit
            if self._metrics is not None:
                self._metric("refits").inc()
        else:
            self._count("fit_fallbacks")

    def refit_now(self) -> None:
        """Re-fit immediately from the accumulated history.

        The per-agent fallback when a batched solve rejects the whole
        stack; equivalent to the re-fit an ``auto_refit`` profiler runs
        on every accepted observation.
        """
        allocations, performance, weights = self.fit_inputs()
        try:
            fit: Optional[CobbDouglasFit] = fit_cobb_douglas(
                allocations, performance, weights=weights
            )
        except (ValueError, np.linalg.LinAlgError):
            fit = None
        self.apply_fit(fit)

    def _refit(self) -> None:
        """Attempt a re-fit; keep the previous fit if the new one is degenerate."""
        self.refit_now()

    def _record_condition(self) -> None:
        if self._metrics is not None:
            self._metric("condition").set(self._last_condition)

    def _has_variation(self) -> bool:
        """True when every resource axis has been sampled at >= 2 levels.

        With all samples at a single allocation the design matrix is
        rank-deficient and the fit would be meaningless.
        """
        if self._variation is None:
            live = self._allocations[self._start : self._end]
            self._variation = bool(np.all(np.ptp(live, axis=0) > 0))
        return self._variation
