"""The benchmark's own arithmetic: percentiles, growth ratio, self time.

Pure functions over plain numbers, so the tests in ``test_perfbench.py``
can pin them on synthetic inputs.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile (0 < q <= 1) and the sample count.

    The count travels with the value so a reader can tell a p99 over
    thousands of samples from the maximum of twenty.  No samples gives
    ``(0.0, 0)``.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    n = len(samples)
    if n == 0:
        return 0.0, 0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * n) - 1)], n


def cost_growth(durations: Sequence[float]) -> float:
    """Mean of the last quarter of ``durations`` over the mean of the first.

    1.0 means the per-request cost does not grow with the run's history.
    """
    quarter = len(durations) // 4
    if quarter == 0:
        raise ValueError("cost_growth needs at least 4 durations")
    first = sum(durations[:quarter]) / quarter
    last = sum(durations[-quarter:]) / quarter
    if first <= 0.0:
        raise ValueError("first-quarter mean must be positive")
    return last / first


def union_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Tuple]) -> List[float]:
    """Self time of each span: its duration minus the part of its interval
    that its children cover.

    ``spans`` holds ``(name, start, end, parent, ...)`` with ``parent``
    the index of the parent span or -1; extra fields are ignored.
    Children may nest or overlap each other (concurrent requests);
    overlapping children are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(children.get(i, ()), start, end)
        for i, (name, start, end, parent, *_) in enumerate(spans)
    ]


def totals_by_name(spans: Sequence[Tuple], own: Sequence[float]) -> Dict[str, Tuple[int, float]]:
    """name -> (call count, summed self time), given each span's self time."""
    out: Dict[str, Tuple[int, float]] = {}
    for (name, *_), own in zip(spans, own):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + own)
    return out
