"""Order statistics and span arithmetic for the benchmark report.

Everything here is pure Python over plain lists so the rules can be unit
tested without running the codec.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

# tail percentiles considered, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample such that at least
    ``q`` percent of all samples are less than or equal to it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered) - 1e-9))
    return ordered[rank - 1]


def beyond(values: Sequence[float], q: float) -> int:
    """Number of samples strictly above the q-th percentile."""
    p = percentile(values, q)
    return sum(1 for v in values if v > p)


def tail(values: Sequence[float], min_beyond: int = MIN_BEYOND) -> Optional[tuple]:
    """(q, value) for the highest percentile in ``TAIL_PERCENTILES`` with at
    least ``min_beyond`` samples beyond it, or None if the sample is too
    small to support any of them."""
    for q in TAIL_PERCENTILES:
        if values and beyond(values, q) >= min_beyond:
            return q, percentile(values, q)
    return None


def summarize(values: Sequence[float]) -> dict:
    """Median, sample count, and the supported tail percentile if any."""
    out = {"n": len(values), "p50": statistics.median(values) if values else None}
    t = tail(values)
    if t is not None:
        q, v = t
        out[f"p{q:g}"] = v
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them (the rule the steadiness check uses)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ---------------------------------------------------------------------------
# spans


@dataclass(frozen=True)
class Span:
    """One timed call at a layer boundary. ``parent`` is the index of the
    enclosing span in the same list, ``op`` the closed-loop operation the
    call belongs to (None outside any operation)."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list:
    """Per span: its duration minus the part of its interval that its
    direct child spans cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _covered(children.get(i, []), s.start, s.end) for i, s in enumerate(spans)]


def nesting_errors(spans: Sequence[Span]) -> list:
    """Descriptions of spans that do not nest: a child outside its parent's
    interval, in another operation than its parent, or pointing at a span
    recorded after it. Empty when the span tree is well formed."""
    errors = []
    for i, s in enumerate(spans):
        if s.end < s.start:
            errors.append(f"span {i} '{s.name}' ends before it starts")
        if s.parent is None:
            continue
        if not 0 <= s.parent < i:
            errors.append(f"span {i} '{s.name}' has parent {s.parent} not recorded before it")
            continue
        p = spans[s.parent]
        if s.start < p.start or s.end > p.end:
            errors.append(f"span {i} '{s.name}' lies outside its parent '{p.name}'")
        if s.op != p.op:
            errors.append(f"span {i} '{s.name}' is in op {s.op}, its parent '{p.name}' in op {p.op}")
    return errors


def self_time_per_op(spans: Sequence[Span], n_ops: int) -> dict:
    """Total self time (seconds) per span name over spans inside an
    operation, divided by the number of operations."""
    totals: dict = {}
    for s, t in zip(spans, self_times(spans)):
        if s.op is not None:
            totals[s.name] = totals.get(s.name, 0.0) + t
    return {k: v / n_ops for k, v in totals.items()} if n_ops else {}
