"""Shared round-trip-time estimation.

The CM computes the smoothed RTT (srtt) and RTT deviation per *macroflow*,
combining samples from every constituent flow to the same receiver — the
paper points out this gives TCP a better average than each connection could
compute alone.  The estimator follows the standard Jacobson/Karels EWMA
filters (RFC 6298 constants), with the RTO clamped to the era-appropriate
bounds in :mod:`repro.core.constants`.
"""

from __future__ import annotations

from .constants import DEFAULT_RTT_SECONDS, MAX_RTO_SECONDS, MIN_RTO_SECONDS

__all__ = ["RttEstimator"]

# Jacobson/Karels filter gains.
_SRTT_GAIN = 1.0 / 8.0
_RTTVAR_GAIN = 1.0 / 4.0


class RttEstimator:
    """EWMA smoothed RTT / deviation / retransmission timeout estimator."""

    def __init__(self, initial_rtt: float = DEFAULT_RTT_SECONDS):
        self._initial_rtt = initial_rtt
        self.srtt: float = 0.0
        self.rttvar: float = 0.0
        self.samples: int = 0
        self.last_sample: float = 0.0

    @property
    def has_samples(self) -> bool:
        """True once at least one valid RTT sample has been folded in."""
        return self.samples > 0

    def sample(self, rtt: float) -> None:
        """Fold one RTT measurement (seconds) into the smoothed estimates.

        Non-positive samples are ignored: they arise from clients that have
        no measurement for a particular update (the paper's API allows
        passing zero).
        """
        if rtt <= 0:
            return
        self.last_sample = rtt
        if self.samples == 0:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            err = rtt - self.srtt
            self.srtt += _SRTT_GAIN * err
            self.rttvar += _RTTVAR_GAIN * (abs(err) - self.rttvar)
        self.samples += 1

    def smoothed_rtt(self) -> float:
        """Best current RTT estimate (falls back to the configured initial RTT)."""
        return self.srtt if self.samples > 0 else self._initial_rtt

    def deviation(self) -> float:
        """Current RTT deviation estimate."""
        return self.rttvar if self.samples > 0 else self._initial_rtt / 2.0

    def rto(self) -> float:
        """Retransmission timeout: ``srtt + 4 * rttvar``, clamped."""
        if self.samples > 0:
            value = self.srtt + 4.0 * self.rttvar
        else:
            value = self._initial_rtt + 4.0 * (self._initial_rtt / 2.0)
        return min(MAX_RTO_SECONDS, max(MIN_RTO_SECONDS, value))

    def reset(self) -> None:
        """Discard all samples (used when a macroflow is split)."""
        self.srtt = 0.0
        self.rttvar = 0.0
        self.samples = 0
        self.last_sample = 0.0
