"""On-line profiling: adapt a utility function while running (§4.4).

"Without prior knowledge, a user assumes all resources contribute
equally to performance.  Such a naive user reports utility
``u = x**0.5 * y**0.5``.  As the system allocates for this utility, the
user profiles software performance.  And as profiles are accumulated for
varied allocations, the user adapts its utility function."

:class:`AgentTable` holds that loop's state for a whole fleet in
columns: one row per agent, in membership order.  Each row starts from
the naive equal-elasticity report, records (allocation, IPC)
observations in a fixed-depth ring, and is re-fitted once enough
linearly-independent samples accumulate, optionally weighting recent
samples more heavily (software phases change).  Each row also keeps the
weighted sufficient statistics of its log-space regression, so the
dynamic controller re-fits every due row with one batched solve of
their normal equations per epoch tick; :class:`OnlineProfiler` is the
single-agent API, a one-row view over the same table code that re-fits
from the samples on every accepted observation.

The table is built to survive a *long-running* closed loop fed by an
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
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.fitting import CobbDouglasFit, FitMoments, StackedFit, fit_cobb_douglas
from ..core.utility import CobbDouglasUtility, rescale_elasticities
from ..obs import MetricsRegistry, Series

__all__ = ["AgentTable", "FitBlock", "OnlineProfiler", "validate_decay"]


def validate_decay(decay: float) -> float:
    """``decay``, or ValueError unless it is in (0, 1] (the rule of :class:`AgentTable`)."""
    if not 0 < decay <= 1:
        raise ValueError(f"decay must be in (0, 1], got {decay}")
    return decay


class FitBlock(NamedTuple):
    """Rows due for a re-fit and their statistics, as one batched-fit input.

    ``moments`` holds row ``rows[k]``'s statistics in its row ``k``: the
    :class:`~repro.core.fitting.FitMoments` that
    :func:`~repro.core.fitting.fit_cobb_douglas_batch` solves.
    """

    rows: np.ndarray
    moments: FitMoments


#: Counter columns of :attr:`AgentTable.counters`, in event order.
COUNTERS = ("rejected_non_positive", "rejected_outliers", "fit_fallbacks", "trimmed_samples")
_NON_POSITIVE, _OUTLIER, _FALLBACK, _TRIMMED = range(len(COUNTERS))

_REJECTED = Series("counter", "repro_online_samples_rejected_total", labels=("reason",))


class AgentTable:
    """Columnar on-line profiling state: one row per agent.

    Parameters
    ----------
    n_resources:
        Number of shared resources ``R``.
    min_samples:
        Observations required before a row's first re-fit; until then
        the naive equal-elasticity utility is reported.  Must be at
        least ``n_resources + 1`` (the regression's parameter count).
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
        When set, a sample whose log-space residual against the row's
        current fit exceeds this value is rejected as an outlier.  After
        ``max_consecutive_outliers`` rejections in a row the gate yields
        and accepts the sample — a sustained shift is a phase change,
        not a fault.  ``None`` (the default) disables the gate.
    max_consecutive_outliers:
        See ``outlier_log_threshold``.
    metrics:
        Optional :class:`~repro.obs.MetricsRegistry`; when given, the
        rejection/fallback counters are mirrored into it as fleet
        totals (``repro_online_*`` counters, summed over rows) and the
        largest condition number of the last re-fit is exposed as a
        gauge.  Per-row values stay in :attr:`counters` and
        :attr:`condition`.

    Columns
    -------
    Every per-row array has the agent axis first, in :attr:`names`
    order: ``count`` (live samples), ``dirty`` (samples since the last
    re-fit), ``fitted``, ``alpha`` and ``scale`` (the accepted fit, the
    naive prior until one exists), ``report`` (the Eq. 12 re-scaled
    elasticities the agent reports), ``condition`` (the last attempted
    re-fit's condition number) and ``counters`` (one column per entry of
    :data:`COUNTERS`).

    Statistics
    ----------
    Each row keeps its ring's weighted Gram matrix and moment
    (:class:`~repro.core.fitting.FitMoments`) about an origin, the log of
    its first stored sample; the weights are ``decay ** age``, age 0 for
    the newest sample (all one at decay 1, where no sample is ever
    overwritten).  :meth:`observe` only counts the samples a row stored
    since the last :meth:`fold`, and logs an already-folded sample before
    a full bounded ring overwrites it.  The fold (run by :meth:`pending`,
    so once per tick, and by :meth:`remove` before rows renumber) is
    exact algebra over those weights: after ``q`` new samples the old
    statistics scale by ``decay ** q``, the ``i``-th new sample
    (``i = 0`` oldest) enters with weight ``decay ** (q - 1 - i)``, a
    logged sample whose age at the last fold was ``a`` leaves with
    weight ``decay ** (a + q)``, and a new sample overwritten before the
    fold never enters.  Its cost follows the samples since the last
    fold, not the histories.  The ring stays the only store of samples.

    The histories share one allocation arena ``(C, R)`` and one
    performance arena ``(C,)``: row ``i`` owns a ring segment of
    ``_depth[i]`` slots from ``_start[i]``.  With ``decay < 1`` every
    segment is the history bound deep, so the arena is the fleet's
    ``(N, H, R)`` ring laid end to end; with ``decay == 1`` a row whose
    segment fills moves to one twice as deep at the arena's end, so
    each row's memory follows its own history, not the busiest row's.
    Membership changes touch only the per-row columns; a full arena is
    rebuilt with the live segments packed, which reclaims the segments
    of removed and moved rows.
    """

    #: Mirror key -> (fleet series, its label values).
    _METRICS = {
        "rejected_non_positive": (_REJECTED, "non_positive"),
        "rejected_outliers": (_REJECTED, "outlier"),
        "fit_fallbacks": (Series("counter", "repro_online_fit_fallbacks_total"),),
        "trimmed_samples": (Series("counter", "repro_online_samples_trimmed_total"),),
        "refits": (Series("counter", "repro_online_refits_total"),),
        "condition": (
            Series(
                "gauge",
                "repro_online_fit_condition_number",
                "Largest condition number of the last re-fit (inf when its solve failed).",
            ),
        ),
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
    ):
        if n_resources < 1:
            raise ValueError(f"n_resources must be >= 1, got {n_resources}")
        validate_decay(decay)
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
        self.max_history: Optional[int] = None
        if decay < 1.0:
            self.max_history = max(
                int(math.ceil(math.log(weight_floor) / math.log(decay))), min_samples
            )
        self._naive = np.full(n_resources, 1.0 / n_resources)
        self._naive_report = rescale_elasticities(self._naive)
        self._metrics = metrics
        self.names: List[str] = []
        self._rows: Dict[str, int] = {}
        self._first_depth = self.max_history or 2 * min_samples
        # Row i's live samples, oldest first, are arena slots
        # _start[i] + (_head[i] - count[i] + j) % _depth[i] for j < count[i];
        # slots from _used on are free.
        self._alloc = np.empty((0, n_resources))
        self._perf = np.empty(0)
        self._used = 0
        # Folded samples a full ring overwrote since the last fold:
        # (row, age at the last fold, *allocation, performance).
        self._evicted: List[tuple] = []
        p = n_resources + 1
        # Every per-row array, as the one row a new agent starts from;
        # they grow and shrink together on membership changes.
        self._fresh = {
            "_start": np.zeros(1, dtype=np.intp),
            "_depth": np.full(1, self._first_depth, dtype=np.intp),
            "_head": np.zeros(1, dtype=np.intp),
            "_streak": np.zeros(1, dtype=np.intp),
            # Samples stored since the last fold, the origin, and the
            # weighted second moments of z = [1, log x - o_x, log u - o_u]:
            # the Gram matrix and, in its last column, the moment.
            "_new": np.zeros(1, dtype=np.intp),
            "_origin": np.zeros((1, p)),
            "_stats": np.zeros((1, p + 1, p + 1)),
            # The every-axis-varied verdict, kept until the history changes.
            "_varied": np.zeros(1, dtype=bool),
            "_stale": np.ones(1, dtype=bool),
            "count": np.zeros(1, dtype=np.intp),
            "dirty": np.zeros(1, dtype=bool),
            "fitted": np.zeros(1, dtype=bool),
            "alpha": self._naive[None, :],
            "scale": np.ones(1),
            "report": self._naive_report[None, :],
            "condition": np.full(1, np.nan),
            "counters": np.zeros((1, len(COUNTERS)), dtype=np.int64),
        }
        for column, value in self._fresh.items():
            setattr(self, column, value[:0].copy())

    # ------------------------------------------------------------------
    # Membership

    def __len__(self) -> int:
        return len(self.names)

    def row(self, name: str) -> int:
        """The row index of agent ``name``."""
        try:
            return self._rows[name]
        except KeyError:
            raise ValueError(f"no agent named {name!r}") from None

    def add(self, name: str) -> int:
        """Append a naive row for ``name``; returns its index."""
        self.extend([name])
        return self._rows[name]

    def extend(self, names: Sequence[str]) -> None:
        """Append naive rows for ``names`` at once."""
        for name in names:
            if name in self._rows:
                raise ValueError(f"agent {name!r} already exists")
        if len(set(names)) != len(names):
            raise ValueError(f"agent names must be unique, got {list(names)}")
        k, depth = len(names), self._first_depth
        start = self._reserve(k * depth)
        for column, value in self._fresh.items():
            setattr(self, column, np.concatenate([getattr(self, column), value.repeat(k, axis=0)]))
        self._start[len(self._start) - k :] = start + depth * np.arange(k)
        for name in names:
            self._rows[name] = len(self.names)
            self.names.append(name)

    def remove(self, name: str) -> None:
        """Drop agent ``name``'s row; later rows move up one, in order.

        The statistics are folded first: the eviction log names rows by
        index.  The row's arena segment is reclaimed when the arena is
        next rebuilt.
        """
        row = self.row(name)
        self.fold()
        keep = np.arange(len(self.names) - 1)
        keep[row:] += 1
        for column in self._fresh:
            setattr(self, column, getattr(self, column)[keep])
        del self.names[row]
        self._rows = {agent: i for i, agent in enumerate(self.names)}

    # ------------------------------------------------------------------
    # Metrics

    def _metric(self, key: str):
        """The registry child mirroring ``key`` for the whole fleet."""
        series, *values = self._METRICS[key]
        return self._metrics.child(series, *values)

    def _count(self, row: int, column: int) -> None:
        """Bump a row's counter and its fleet mirror (if any)."""
        self.counters[row, column] += 1
        if self._metrics is not None:
            self._metric(COUNTERS[column]).inc()

    def counters_of(self, row: int) -> Dict[str, int]:
        """Row ``row``'s fault-handling counters by name."""
        return dict(zip(COUNTERS, self.counters[row].tolist()))

    # ------------------------------------------------------------------
    # Ingest

    def observe(
        self,
        row: int,
        allocation: Sequence[float],
        performance: float,
        exploration: bool = False,
    ) -> bool:
        """Validate one (allocation, measured IPC) sample and store it.

        Returns True when the sample joined the row's history.  Samples
        with non-positive or non-finite entries are rejected — skipped
        and counted under ``rejected_non_positive`` — because the log
        transform needs strictly positive data and a long-running loop
        must survive a bad measurement.  Only a wrong *shape* (a caller
        bug, not a measurement fault) raises.

        ``exploration=True`` marks the sample as deliberately taken at a
        perturbed operating point by a demand-learning controller.  Such
        samples bypass the fit-relative outlier gate entirely: they are
        *expected* to disagree with the current fit (that is the point of
        exploring), and a stream of exploration samples from a
        phase-changed agent would otherwise be rejected wholesale before
        the consecutive-run escape could fire.

        This is the only place a sample is checked: the stacked re-fit
        reads the ring as stored.
        """
        arr = np.asarray(allocation, dtype=float)
        if arr.shape != (self.n_resources,):
            raise ValueError(
                f"allocation must have shape ({self.n_resources},), got {arr.shape}"
            )
        performance = float(performance)
        if not (
            0.0 < performance < math.inf and all(0.0 < v < math.inf for v in arr.tolist())
        ):
            self._count(row, _NON_POSITIVE)
            return False
        if not exploration and self._is_outlier(row, arr, performance):
            self._count(row, _OUTLIER)
            return False
        self._streak[row] = 0
        n, depth, new = int(self.count[row]), int(self._depth[row]), int(self._new[row])
        if n == depth and self.max_history is None:
            depth *= 2
            self._move(row, depth)
        slot = int(self._head[row])
        at = int(self._start[row]) + slot
        if n == 0:
            self._origin[row, :-1] = np.log(arr)
            self._origin[row, -1] = math.log(performance)
        elif n == depth and new < depth:
            # The oldest sample, folded at age depth - 1 - new, is overwritten.
            self._evicted.append(
                (row, depth - 1 - new, *self._alloc[at].tolist(), float(self._perf[at]))
            )
        self._new[row] = new + 1
        self._alloc[at] = arr
        self._perf[at] = performance
        self._head[row] = (slot + 1) % depth
        if n < depth:
            self.count[row] = n + 1
        else:  # a full bounded ring: the oldest sample ages out
            self._count(row, _TRIMMED)
        self.dirty[row] = True
        self._stale[row] = True
        return True

    def _is_outlier(self, row: int, allocation: np.ndarray, performance: float) -> bool:
        """Fit-relative outlier gate with a consecutive-run escape hatch."""
        if self.outlier_log_threshold is None or not self.fitted[row]:
            return False
        predicted = float(self.scale[row] * np.prod(allocation ** self.alpha[row]))
        if predicted <= 0 or not np.isfinite(predicted):
            return False
        residual = abs(math.log(performance) - math.log(predicted))
        if residual <= self.outlier_log_threshold:
            return False
        self._streak[row] += 1
        if self._streak[row] >= self.max_consecutive_outliers:
            # A run of consistent "outliers" is a regime change: yield.
            self._streak[row] = 0
            return False
        return True

    # ------------------------------------------------------------------
    # The arena

    def _reserve(self, size: int) -> int:
        """The first of ``size`` free arena slots, now taken.

        A full arena is rebuilt with every row's segment packed in row
        order (dropping the segments of removed and moved rows) and
        room for as many slots again, so rebuilds are amortized O(1)
        per reserved slot.
        """
        if self._used + size > len(self._perf):
            live = int(self._depth.sum())
            starts = np.cumsum(self._depth) - self._depth
            moved = np.repeat(self._start - starts, self._depth) + np.arange(live)
            alloc = np.empty((2 * live + size, self.n_resources))
            perf = np.empty(2 * live + size)
            alloc[:live] = self._alloc[moved]
            perf[:live] = self._perf[moved]
            self._alloc, self._perf, self._start, self._used = alloc, perf, starts, live
        start = self._used
        self._used += size
        return start

    def _move(self, row: int, depth: int) -> None:
        """Give ``row`` a fresh ``depth``-slot segment, its samples oldest first."""
        start = self._reserve(depth)
        n = int(self.count[row])
        held = self._slots(np.array([row]), n)[0]
        self._alloc[start : start + n] = self._alloc[held]
        self._perf[start : start + n] = self._perf[held]
        self._start[row], self._depth[row], self._head[row] = start, depth, n % depth

    def _slots(self, rows: np.ndarray, width: int) -> np.ndarray:
        """Arena slots of ``rows``' first ``width`` samples, oldest first.

        Past a row's count the slots wrap within its own segment, so a
        padded gather never leaves it.
        """
        offsets = (self._head[rows] - self.count[rows])[:, None] + np.arange(width)
        return self._start[rows][:, None] + offsets % self._depth[rows][:, None]

    # ------------------------------------------------------------------
    # Re-fit

    def samples(self, row: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Row ``row``'s accepted ``(allocations, performance)``, oldest first.

        ``None`` until a sample was accepted.  The arrays are copies:
        mutating them cannot corrupt the table.
        """
        n = int(self.count[row])
        if n == 0:
            return None
        slots = self._slots(np.array([row]), n)[0]
        return self._alloc[slots], self._perf[slots]

    def weights(self, row: int) -> Optional[np.ndarray]:
        """Row ``row``'s sample weights ``decay ** age``, oldest first (None at decay 1)."""
        if self.max_history is None:
            return None
        return self.decay ** np.arange(int(self.count[row]) - 1, -1, -1, dtype=float)

    def pending(self) -> np.ndarray:
        """Rows whose re-fit is due and could succeed, in row order.

        A row qualifies when it has unfitted samples, at least
        ``min_samples`` of them, and a full-rank design: every resource
        sampled at two or more levels.  The statistics are folded first,
        so a tick keeps them current whether or not a row is due.
        """
        self.fold()
        rows = np.flatnonzero(self.dirty & (self.count >= self.min_samples))
        stale = rows[self._stale[rows]]
        if stale.size:
            self._varied[stale] = self._has_variation(stale)
            self._stale[stale] = False
        return rows[self._varied[rows]]

    def _has_variation(self, rows: np.ndarray) -> np.ndarray:
        """Per row: every resource sampled at two or more levels."""
        # Each row's live samples back to back, read once (a range
        # ignores order); every row here holds at least min_samples.
        counts = self.count[rows]
        firsts = np.cumsum(counts) - counts
        offsets = np.arange(int(counts.sum())) + np.repeat(
            self._head[rows] - counts - firsts, counts
        )
        samples = self._alloc[
            np.repeat(self._start[rows], counts) + offsets % np.repeat(self._depth[rows], counts)
        ]
        high = np.maximum.reduceat(samples, firsts, axis=0)
        return np.all(high > np.minimum.reduceat(samples, firsts, axis=0), axis=1)

    def fold(self) -> None:
        """Bring every row's statistics up to date with its ring.

        See the class notes for the algebra; a fold with no sample
        stored since the last one does nothing.
        """
        rows = np.flatnonzero(self._new)
        if not rows.size:
            return
        new = self._new[rows]
        # The new samples still in each ring, oldest first, and their ages.
        kept = np.minimum(new, self.count[rows])
        owner = np.repeat(rows, kept)
        ages = np.repeat(np.cumsum(kept), kept) - 1 - np.arange(len(owner))
        slots = self._start[owner] + (self._head[owner] - 1 - ages) % self._depth[owner]
        samples = np.column_stack([self._alloc[slots], self._perf[slots]])
        weights = self.decay ** ages.astype(float)
        if self._evicted:
            log = np.array(self._evicted)
            self._evicted.clear()
            gone = log[:, 0].astype(np.intp)
            owner = np.concatenate([owner, gone])
            samples = np.concatenate([samples, log[:, 2:]])
            weights = np.concatenate([weights, -(self.decay ** (log[:, 1] + self._new[gone]))])
        if self.max_history is not None:
            self._stats[rows] *= (self.decay ** new.astype(float))[:, None, None]
        z = np.empty((len(owner), self.n_resources + 2))
        z[:, 0] = 1.0
        z[:, 1:] = np.log(samples) - self._origin[owner]
        np.add.at(self._stats, owner, (weights[:, None] * z)[:, :, None] * z[:, None, :])
        self._new[rows] = 0

    def fit_block(self, rows: np.ndarray) -> FitBlock:
        """``rows``' statistics, folded up to date, as one :class:`FitBlock`."""
        self.fold()
        p = self.n_resources + 1
        stats = self._stats[rows]
        return FitBlock(rows, FitMoments(stats[:, :p, :p], stats[:, :p, p], self._origin[rows]))

    def apply_fits(
        self,
        rows: np.ndarray,
        alpha: np.ndarray,
        scale: np.ndarray,
        condition: np.ndarray,
    ) -> np.ndarray:
        """Gate computed re-fits of ``rows``; returns the accepted mask.

        A fit is accepted when its parameters are finite and its
        condition number is within ``max_condition``; a degenerate fit
        is counted under ``fit_fallbacks`` and discarded, and the row
        keeps its previous fit (or the naive prior).
        """
        self.dirty[rows] = False
        self.condition[rows] = condition
        accepted = np.all(np.isfinite(alpha), axis=1) & np.isfinite(scale)
        if self.max_condition is not None:
            accepted &= np.isfinite(condition) & (condition <= self.max_condition)
        taken = rows[accepted]
        if taken.size:
            kept = alpha[accepted]
            self.alpha[taken] = kept
            self.scale[taken] = scale[accepted]
            self.fitted[taken] = True
            self.report[taken] = kept / kept.sum(axis=1, keepdims=True)
        self.counters[rows[~accepted], _FALLBACK] += 1
        if self._metrics is not None and rows.size:
            self._metric("condition").set(condition.max())
            refits = int(accepted.sum())
            for key, n in (("refits", refits), ("fit_fallbacks", rows.size - refits)):
                if n:
                    self._metric(key).inc(n)
        return accepted

    def reject_fits(self, rows: np.ndarray) -> None:
        """Record that ``rows``' re-fit could not be solved at all."""
        self.dirty[rows] = False
        self.condition[rows] = np.inf
        self.counters[rows, _FALLBACK] += 1
        if self._metrics is not None and rows.size:
            self._metric("condition").set(math.inf)
            self._metric("fit_fallbacks").inc(rows.size)

    def refit_alone(self, rows: np.ndarray, fit: StackedFit, fit_batch: Callable) -> StackedFit:
        """``fit`` of ``rows``, with each row it left unsolved re-fitted by the SVD.

        A row the statistics could not solve (NaN scale) is re-fitted
        from its ring samples by the ragged form of ``fit_batch``
        (:func:`~repro.core.fitting.fit_cobb_douglas_batch`), one row
        per call, so rows are never padded together.  A row whose own
        solve fails gets NaN parameters and an infinite condition
        number, which :meth:`apply_fits` counts as a fit fallback.
        """
        alpha, scale, condition = fit.alpha.copy(), fit.scale.copy(), fit.condition.copy()
        for k in np.flatnonzero(np.isnan(scale)):
            allocations, performance = self.samples(rows[k])
            try:
                (alone,) = fit_batch([allocations], [performance], [self.weights(rows[k])])
            except (ValueError, np.linalg.LinAlgError):
                condition[k] = np.inf
                continue
            alpha[k], scale[k] = alone.utility.alpha, alone.utility.scale
            condition[k] = alone.condition_number
        return StackedFit(alpha, scale, condition)


def _table_setting(name: str) -> property:
    """A read-only profiler attribute reading the table's setting ``name``."""
    return property(
        lambda profiler: getattr(profiler.table, name), doc=f"The table's ``{name}``."
    )


class OnlineProfiler:
    """Learns Cobb-Douglas utilities on line: the profiling API over a table.

    Constructed with the table's parameters, a profiler owns a one-row
    :class:`AgentTable` and is the
    single-agent API: :meth:`observe` ingests through the table and
    re-fits at once with :func:`~repro.core.fitting.fit_cobb_douglas`,
    and ``utility``, ``last_fit``, ``counters`` and friends read the
    row.  Ingest, the outlier gate, trimming, the acceptance gate and
    the counters are all the table's.

    The deferred re-fit protocol covers every row of the profiler's
    table: :attr:`needs_refit`, then :meth:`fit_inputs` (the due rows'
    statistics as one :class:`FitBlock`), then :meth:`apply_fit` with
    the fit of that block.  :meth:`over` binds a profiler to an existing
    table; the dynamic controller runs the protocol over its whole fleet
    this way, once per epoch tick.
    """

    n_resources = _table_setting("n_resources")
    min_samples = _table_setting("min_samples")
    decay = _table_setting("decay")
    weight_floor = _table_setting("weight_floor")
    max_condition = _table_setting("max_condition")
    outlier_log_threshold = _table_setting("outlier_log_threshold")
    max_consecutive_outliers = _table_setting("max_consecutive_outliers")
    max_history = _table_setting("max_history")

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
    ):
        table = AgentTable(
            n_resources=n_resources,
            min_samples=min_samples,
            decay=decay,
            weight_floor=weight_floor,
            max_condition=max_condition,
            outlier_log_threshold=outlier_log_threshold,
            max_consecutive_outliers=max_consecutive_outliers,
            metrics=metrics,
        )
        table.add("profiler")
        self._bind(table)

    @classmethod
    def over(cls, table: AgentTable) -> "OnlineProfiler":
        """A profiler whose re-fit protocol covers every row of ``table``."""
        profiler = cls.__new__(cls)
        profiler._bind(table)
        return profiler

    def _bind(self, table: AgentTable) -> None:
        self.table = table
        self._naive = CobbDouglasUtility([1.0 / table.n_resources] * table.n_resources)
        self._fit = None
        # What apply_fit gates when fit_inputs gathered nothing: a
        # single agent's row, never a guess across a fleet.
        self._single = np.arange(len(table)) if len(table) == 1 else np.zeros(0, np.intp)
        self._due = self._single

    # ------------------------------------------------------------------
    # The deferred re-fit protocol (every row of the table)

    @property
    def needs_refit(self) -> bool:
        """True when some row's unfitted samples await a re-fit that could succeed."""
        return self.table.pending().size > 0

    def fit_inputs(self) -> FitBlock:
        """The rows whose re-fit is due and their statistics, as one :class:`FitBlock`.

        :meth:`apply_fit` gates the fit of exactly these rows.
        """
        rows = self.table.pending()
        if rows.size == 0:
            raise ValueError("no re-fit is due: no row has enough varied, unfitted samples")
        self._due = rows
        return self.table.fit_block(rows)

    def apply_fit(self, fit) -> None:
        """Accept or reject the re-fit of the rows :meth:`fit_inputs` gathered.

        ``fit`` is the :class:`~repro.core.fitting.StackedFit` of those
        rows (for a single row, a
        :class:`~repro.core.fitting.CobbDouglasFit` too; a row left NaN
        is a degenerate fit), or ``None`` when the solve itself failed.
        Each row's fit passes the table's gate: finite parameters and a
        condition number within ``max_condition``; a degenerate fit is
        counted and discarded and the row keeps its previous fit (or the
        naive prior).
        ``last_fit`` becomes ``fit`` when every row accepted it.  A
        single-agent profiler gates its row even without a gather.
        """
        rows, self._due = self._due, self._single
        if fit is None:
            self.table.reject_fits(rows)
            return
        if isinstance(fit, CobbDouglasFit):
            alpha = fit.utility.alpha[None, :]
            scale, condition = np.array([fit.utility.scale]), np.array([fit.condition_number])
        else:
            alpha, scale, condition = fit.alpha, fit.scale, fit.condition
        if self.table.apply_fits(rows, alpha, scale, condition).all():
            self._fit = fit

    def refit_now(self) -> None:
        """Re-fit the single row now from its samples with
        :func:`~repro.core.fitting.fit_cobb_douglas`: the SVD reference the
        statistics are checked against, with R² in ``last_fit``."""
        self.fit_inputs()
        allocations, performance = self.table.samples(0)
        try:
            fit: Optional[CobbDouglasFit] = fit_cobb_douglas(
                allocations, performance, weights=self.table.weights(0)
            )
        except (ValueError, np.linalg.LinAlgError):
            fit = None
        self.apply_fit(fit)

    # ------------------------------------------------------------------
    # The single-agent API (row 0)

    @property
    def n_samples(self) -> int:
        return int(self.table.count[0])

    @property
    def counters(self) -> Dict[str, int]:
        """Fault-handling counters accumulated over the profiler's life."""
        return self.table.counters_of(0)

    @property
    def last_condition_number(self) -> float:
        """Condition number of the most recent *attempted* re-fit."""
        return float(self.table.condition[0])

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
    def last_fit(self):
        """The most recent re-fit every row accepted, or None."""
        return self._fit

    def report_elasticities(self) -> np.ndarray:
        """Re-scaled elasticities the agent would report to the mechanism."""
        return self.table.report[0].copy()

    def samples(self) -> Optional[tuple]:
        """Accepted ``(allocations, performance)`` history as array copies."""
        return self.table.samples(0)

    def observe(
        self,
        allocation: Sequence[float],
        performance: float,
        exploration: bool = False,
    ) -> CobbDouglasUtility:
        """Record one (allocation, measured IPC) sample and maybe re-fit.

        Returns the (possibly updated) utility estimate.  See
        :meth:`AgentTable.observe` for the rejection rules and the
        ``exploration`` flag.
        """
        if self.table.observe(0, allocation, performance, exploration) and self.needs_refit:
            self.refit_now()
        return self.utility
