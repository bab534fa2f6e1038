"""Order statistics for per-replication timings."""

from __future__ import annotations

TAIL_MIN_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_MIN_BEYOND samples beyond it.

    Percentile p of n sorted samples is the k-th smallest, k = ceil(p n / 100)
    (nearest rank), and n - k samples lie beyond it. The highest level that
    leaves TAIL_MIN_BEYOND beyond is k = n - TAIL_MIN_BEYOND, p = 100 k / n.
    Returns (level in percent, value, samples beyond).
    """
    n = len(samples)
    k = n - TAIL_MIN_BEYOND
    if k < 1:
        raise ValueError(
            f"need more than {TAIL_MIN_BEYOND} samples for a tail, got {n}"
        )
    return 100.0 * k / n, sorted(samples)[k - 1], n - k
