"""Order statistics used by every workload of the benchmark."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.  The ladder stops at p99 so
#: the reported tail cannot jump to p99.9 when a fast host fits more
#: samples into the same run.
TAIL_LADDER: Tuple[float, ...] = (0.99, 0.95, 0.90, 0.75, 0.50)

#: A percentile is only reported when at least this many samples lie
#: strictly beyond it.
MIN_BEYOND = 10


def rank_index(n: int, q: float) -> int:
    """Nearest-rank index (0-based) of the ``q`` quantile of ``n`` samples."""
    if n <= 0:
        raise ValueError("no samples")
    return min(n - 1, max(0, math.ceil(q * n) - 1))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the ``q`` quantile's rank."""
    return n - 1 - rank_index(n, q)


def tail_quantile(n: int) -> Optional[float]:
    """The highest ladder quantile with ``MIN_BEYOND`` samples beyond it.

    Returns ``None`` when ``n`` is too small for even the median.
    """
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of ``values``."""
    ordered = sorted(values)
    return ordered[rank_index(len(ordered), q)]
