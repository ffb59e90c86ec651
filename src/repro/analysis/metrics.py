"""Metrics used by the experiment harnesses and tests."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

__all__ = [
    "throughput_bytes_per_second",
    "jain_fairness",
    "mean",
    "relative_difference",
    "series_mean",
    "series_max",
    "oscillation_count",
]


def throughput_bytes_per_second(nbytes: int, elapsed: float) -> float:
    """Goodput for ``nbytes`` delivered over ``elapsed`` seconds."""
    if elapsed <= 0:
        return 0.0
    return nbytes / elapsed


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n maximally unfair."""
    shares = [s for s in shares if s >= 0]
    if not shares:
        return 0.0
    total = sum(shares)
    if total == 0:
        return 1.0
    squares = sum(s * s for s in shares)
    if squares == 0.0:
        # All shares are so small that their squares underflow to zero;
        # they are indistinguishable, i.e. perfectly fair.
        return 1.0
    return (total * total) / (len(shares) * squares)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (0.0 for an empty iterable)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def relative_difference(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude (0 when both are 0)."""
    denom = max(abs(a), abs(b))
    if denom == 0:
        return 0.0
    return abs(a - b) / denom


def series_mean(series: Sequence[Tuple[float, float]]) -> float:
    """Mean of the value column of a ``(time, value)`` series."""
    return mean(v for _t, v in series)


def series_max(series: Sequence[Tuple[float, float]]) -> float:
    """Maximum of the value column of a ``(time, value)`` series."""
    values = [v for _t, v in series]
    return max(values) if values else 0.0


def oscillation_count(values: Sequence[float]) -> int:
    """Number of times a discrete-valued series changes value.

    Used to compare how often the ALF-mode layered application switches
    layers versus the rate-callback mode (Figures 8 vs 9: the ALF sender is
    "more responsive to smaller changes", i.e. it oscillates more).
    """
    changes = 0
    previous = None
    for value in values:
        if previous is not None and value != previous:
            changes += 1
        previous = value
    return changes
