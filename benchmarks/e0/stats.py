"""Robust location of a small timing sample: median, quartiles, tail."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

__all__ = ["median", "quartiles", "tail"]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return (float(values[0]),) * 3 if values else (0.0, 0.0, 0.0)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the max below 21 samples)."""
    ordered = sorted(values)
    return float(ordered[-11] if len(ordered) > 20 else ordered[-1]) if ordered else 0.0
