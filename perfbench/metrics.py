"""Arithmetic of the benchmark: medians, the tail-percentile rule, span self
time and the failure share.

Pure functions on plain numbers, so test_metrics.py can check them on
synthetic inputs without running the pipeline.
"""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it;
# with fewer, one slow sample decides the value.
MIN_SAMPLES_BEYOND = 10


def median(values) -> float:
    return statistics.median(values)


def percentile(values, q: float):
    """Nearest-rank q-th percentile, or None when fewer than
    MIN_SAMPLES_BEYOND samples lie beyond it (p99 needs n >= 1000)."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the (start, end) intervals."""
    total = 0.0
    run_start = run_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans) -> list:
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover.

    A span is a sequence (name, start, end, parent index or -1, ...).
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        kids = [(spans[j][1], spans[j][2]) for j in children[i]]
        out.append((end - start) - covered(kids, start, end))
    return out


def failed_frac(failed: int, attempted: int) -> float:
    """Failed operations over operations attempted."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted
