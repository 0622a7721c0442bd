"""The benchmark's own arithmetic: percentiles, self time, lateness.

Kept apart from ``repro.telemetry.stats`` on purpose: a change to the
program must never change how the benchmark measures it.
"""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation between
    closest ranks (NumPy's default method). Empty input is an error: a
    metric with no samples has no value."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def beyond(values, q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile — the
    guide's rule is to report the highest percentile with at least ten."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def lateness(due: list[float], sent: list[float]) -> list[float]:
    """How late each open-loop send was against its schedule, in seconds.
    A send ahead of schedule counts as 0 (the generator never sends early
    on purpose; clock granularity can make it look so)."""
    if len(due) != len(sent):
        raise ValueError("due and sent lengths differ")
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children) -> float:
    """A span's duration minus the part of ``[start, end)`` its child
    spans cover (children are clipped to the parent's interval)."""
    clipped = [
        (max(start, cs), min(end, ce)) for cs, ce in children
    ]
    return (end - start) - covered(clipped)


def windows(values, size: int) -> list[list]:
    """Consecutive chunks of ``size`` values; a short tail joins the last
    chunk, and fewer than ``size`` values make one chunk."""
    values = list(values)
    chunks = [values[i:i + size] for i in range(0, len(values), size)]
    if len(chunks) > 1 and len(chunks[-1]) < size:
        chunks[-2].extend(chunks.pop())
    return chunks


def windowed_percentile(values, q: float, size: int) -> float:
    """The median over consecutive windows of ``size`` samples of each
    window's ``q``-th percentile: one stall moves one window, not the
    figure."""
    return median([percentile(w, q) for w in windows(values, size)])
