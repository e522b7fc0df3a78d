"""The benchmark's own arithmetic: quantiles, ratios, growth and self time.

Everything here is pure and takes plain numbers, so the self-tests in
``perfbench/tests`` check it on synthetic inputs without forking.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence, Tuple

#: The tail is reported at the highest percentile that still has this many
#: samples beyond it, and never above p99.
TAIL_MIN_BEYOND = 10
TAIL_MAX_Q = 0.99


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated sample quantile (``q`` in [0, 1]).

    Matches ``numpy.percentile``'s default ("linear") rule.  An empty
    sample has no quantile and raises ``ValueError``.
    """
    if not samples:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def tail_q(count: int) -> float:
    """The highest quantile with at least ``TAIL_MIN_BEYOND`` samples
    beyond it, capped at p99; the median when the sample is too small to
    say anything about a tail."""
    if count <= 0:
        raise ValueError("no samples")
    return max(0.5, min(TAIL_MAX_Q, 1.0 - TAIL_MIN_BEYOND / count))


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)``: the tail percentile :func:`tail_q` allows, and its
    value."""
    q = tail_q(len(samples))
    return q, quantile(samples, q)


def failed_ratio(attempted: int, failed: int) -> float:
    """Failed blocks over attempted blocks (0 when nothing was tried)."""
    if failed < 0 or attempted < 0 or failed > attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted}")
    return failed / attempted if attempted else 0.0


def pi_measured(sequential_s: Sequence[float],
                concurrent_s: Sequence[float]) -> float:
    """The paper's PI by wall clock: mean sequential block time over mean
    concurrent block time on the same blocks."""
    if len(sequential_s) != len(concurrent_s) or not sequential_s:
        raise ValueError("PI needs the same non-empty set of blocks twice")
    return (sum(sequential_s) / len(sequential_s)) / (
        sum(concurrent_s) / len(concurrent_s)
    )


def per_kblock(before: float, after: float, blocks: int) -> float:
    """Growth of a gauge per 1,000 blocks between two samples."""
    if blocks <= 0:
        return 0.0
    return (after - before) * 1000.0 / blocks


def covered(intervals: Iterable[Tuple[float, float]],
            low: float, high: float) -> float:
    """Length of ``[low, high]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, low), min(end, high))
        for start, end in intervals
        if end > low and start < high
    )
    total = 0.0
    run_start: Optional[float] = None
    run_end = low
    for start, end in clipped:
        if run_start is None or start > run_end:
            if run_start is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_start is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float,
              children: Iterable[Tuple[float, float]]) -> float:
    """A span's duration minus the part its child spans cover."""
    return (end - start) - covered(children, start, end)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for an empty sequence (a layer never called)."""
    return sum(values) / len(values) if values else 0.0
