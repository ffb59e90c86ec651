"""Rate tracing helper (a thin facade over ``repro.telemetry``).

Experiments in the paper's evaluation (Figures 8-10) plot transmission rate
over time; :class:`RateTracker` produces exactly that kind of binned
time-series from per-packet events.  It *is a*
:class:`~repro.telemetry.recorders.FixedBinAccumulator` — sparse binning
with a hard cap on distinct bins (overflow is folded into the edge bins and
counted, never silently dropped, never unbounded).
"""

from __future__ import annotations

from typing import List, Tuple

from ..telemetry.recorders import FixedBinAccumulator

__all__ = ["RateTracker"]

#: Default bound on RateTracker bins; at the default 0.5 s bin width this
#: covers over nine simulated hours, far past any experiment's horizon, so
#: existing series are bit-identical to the unbounded implementation.
DEFAULT_RATE_BINS = 65_536


class RateTracker(FixedBinAccumulator):
    """Bin byte counts into fixed-width intervals and report rates.

    Used to reproduce the "Transmission Rate" and "Rate reported by CM"
    series in Figures 8-10.  A thin facade over
    :class:`~repro.telemetry.recorders.FixedBinAccumulator`: same sparse
    binning as the original implementation, but bounded at ``max_bins``
    distinct bins.
    """

    def __init__(self, bin_width: float = 0.5, max_bins: int = DEFAULT_RATE_BINS):
        super().__init__(bin_width=bin_width, max_bins=max_bins)

    def record(self, time: float, nbytes: int) -> None:
        """Account ``nbytes`` transmitted/observed at simulated ``time``."""
        self.add(time, nbytes)

    def series(self) -> List[Tuple[float, float]]:
        """Return ``(bin_start_time, rate_bytes_per_second)`` points, sorted by time.

        Empty bins between the first and last observation are reported as
        zero so plots show stalls rather than interpolating over them.
        """
        width = self.bin_width
        return [(start, total / width) for start, total in self.bin_series()]

    def mean_rate(self) -> float:
        """Average rate in bytes/second over the observed span."""
        points = self.series()
        if not points:
            return 0.0
        return sum(rate for _t, rate in points) / len(points)
