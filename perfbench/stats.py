"""Order statistics shared by the load report and the traced breakdown."""

from __future__ import annotations

import math
from typing import Sequence

#: Candidate tail percentiles, highest first.  p99 is the ceiling: a
#: stream with at least 1000 samples reports p99.
TAIL_LADDER = (0.99, 0.98, 0.975, 0.95, 0.9, 0.8, 0.75, 0.5)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def tail_quantile(count: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it.

    ``count`` is the stream's fixed sample count (rate x run length),
    not the number that happened to complete, so a workload always
    reports the same percentile.
    """
    for q in TAIL_LADDER:
        if count - _rank(q, count) >= MIN_BEYOND:
            return q
    raise ValueError(
        f"{count} samples cannot support a tail percentile "
        f"(need at least {2 * MIN_BEYOND})"
    )


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with a share >= q at or below it."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    return ordered[max(1, _rank(q, len(ordered))) - 1]


def _rank(q: float, count: int) -> int:
    # The epsilon keeps 0.99 * 1000 at rank 990 despite binary rounding.
    return math.ceil(q * count - 1e-9)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def trimmed_mean(values: Sequence[float], cut: float) -> float:
    """Mean of ``values`` without the lowest and highest ``cut`` share."""
    if not values:
        raise ValueError("mean of an empty sample")
    ordered = sorted(values)
    k = int(cut * len(ordered))
    kept = ordered[k:len(ordered) - k] or ordered
    return sum(kept) / len(kept)


def percentile_label(q: float) -> str:
    """``0.975`` -> ``"p97.5"``."""
    return f"p{100 * q:g}"
