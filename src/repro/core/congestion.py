"""Congestion controllers used by the Congestion Manager.

The paper's CM uses a window-based additive-increase / multiplicative-
decrease (AIMD) controller with slow start that "mimics TCP" so that a
macroflow is TCP-compatible, but the CM's modularity "encourages
experimentation with other non-AIMD schemes".  Accordingly this module
provides:

* :class:`AimdWindowController` — the default; byte-counting AIMD with slow
  start, an initial window of one MTU, and distinct reactions to transient
  congestion (halve), persistent congestion (collapse to one MTU and
  re-enter slow start) and ECN marks (halve, no loss implied).  Byte
  counting and the 1-MTU initial window are the two algorithmic differences
  from the Linux TCP of the paper's era that the evaluation calls out.
* :class:`RateAimdController` — a simple rate-based AIMD alternative used in
  the ablation benchmarks.

All window quantities are in **bytes**.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from operator import attrgetter
from typing import Optional

from .constants import (
    CM_ECN_CONGESTION,
    CM_NO_CONGESTION,
    CM_PERSISTENT_CONGESTION,
    CM_TRANSIENT_CONGESTION,
    DEFAULT_RTT_SECONDS,
)

__all__ = ["CongestionController", "AimdWindowController", "RateAimdController"]


class CongestionController(ABC):
    """Interface every CM congestion controller implements.

    The macroflow drives the controller with acknowledgement and congestion
    events extracted from ``cm_update`` calls, and asks it how large the
    congestion window currently is (:attr:`cwnd`) and what sustainable rate
    that corresponds to (:meth:`rate_estimate`).
    """

    #: Human-readable name used in experiment reports.
    name = "base"

    def __init__(self, mtu: int):
        if mtu <= 0:
            raise ValueError("mtu must be positive")
        self.mtu = mtu

    # --------------------------------------------------------------- signals
    @abstractmethod
    def on_ack(self, nbytes: int) -> None:
        """``nbytes`` were reported successfully received (window may grow)."""

    @abstractmethod
    def on_congestion(self, mode: str) -> None:
        """React to a congestion signal (one of the ``CM_*_CONGESTION`` modes)."""

    @abstractmethod
    def on_idle_restart(self) -> None:
        """The macroflow has been idle; reset any probing state conservatively."""

    # ---------------------------------------------------------------- queries
    @property
    @abstractmethod
    def cwnd(self) -> float:
        """Current congestion window in bytes."""

    @abstractmethod
    def rate_estimate(self, srtt: float) -> float:
        """Sustainable sending rate in bytes/second given the smoothed RTT."""

    def dispatch_update(self, nrecd: int, lossmode: str) -> None:
        """Convenience: route one ``cm_update`` report into ack/congestion calls.

        A congestion report may still acknowledge bytes (e.g. TCP's triple
        duplicate ACK tells us three later segments arrived); the congestion
        reaction is applied first so the acknowledgement growth starts from
        the reduced window, which keeps the response conservative.
        """
        if lossmode != CM_NO_CONGESTION:
            self.on_congestion(lossmode)
        if nrecd > 0 and lossmode == CM_NO_CONGESTION:
            self.on_ack(nrecd)


class AimdWindowController(CongestionController):
    """TCP-compatible window AIMD with slow start and byte counting.

    Parameters
    ----------
    mtu:
        Maximum transmission unit; the window is expressed in bytes but
        grows/shrinks in MTU-derived quanta like TCP does.
    initial_window_mtus:
        Initial congestion window in MTUs.  The paper's CM uses 1 (versus
        Linux's 2), which is why TCP/CM pays one extra RTT on short
        transfers (Figures 4 and 7).
    max_window_bytes:
        Optional cap on the window, modelling the receiver's advertised
        window / socket buffer.
    ssthresh_bytes:
        Initial slow-start threshold (effectively unbounded by default).
    """

    name = "aimd-window"

    def __init__(
        self,
        mtu: int,
        initial_window_mtus: int = 1,
        max_window_bytes: Optional[float] = None,
        ssthresh_bytes: float = float("inf"),
    ):
        super().__init__(mtu)
        if initial_window_mtus < 1:
            raise ValueError("initial window must be at least 1 MTU")
        self.initial_window_bytes = float(initial_window_mtus * mtu)
        self.max_window_bytes = max_window_bytes
        self._cwnd = self.initial_window_bytes
        self.ssthresh = float(ssthresh_bytes)
        self.transient_events = 0
        self.persistent_events = 0
        self.ecn_events = 0

    # --------------------------------------------------------------- signals
    def on_ack(self, nbytes: int) -> None:
        if nbytes <= 0:
            return
        if self._cwnd < self.ssthresh:
            # Slow start: grow by the bytes acknowledged (byte counting),
            # bounded per ack so a huge cumulative report cannot explode the
            # window past doubling-per-RTT behaviour.
            self._cwnd += min(nbytes, self._cwnd)
        else:
            # Congestion avoidance: one MTU per window's worth of data, in
            # byte-counted increments.
            self._cwnd += self.mtu * (float(nbytes) / self._cwnd)
        self._clamp()

    def on_congestion(self, mode: str) -> None:
        if mode == CM_TRANSIENT_CONGESTION:
            self.transient_events += 1
            self.ssthresh = max(self._cwnd / 2.0, 2.0 * self.mtu)
            self._cwnd = self.ssthresh
        elif mode == CM_PERSISTENT_CONGESTION:
            self.persistent_events += 1
            self.ssthresh = max(self._cwnd / 2.0, 2.0 * self.mtu)
            self._cwnd = float(self.mtu)
        elif mode == CM_ECN_CONGESTION:
            self.ecn_events += 1
            self.ssthresh = max(self._cwnd / 2.0, 2.0 * self.mtu)
            self._cwnd = self.ssthresh
        elif mode == CM_NO_CONGESTION:
            return
        else:
            raise ValueError(f"unknown congestion mode: {mode!r}")
        self._clamp()

    def on_idle_restart(self) -> None:
        """After a long idle period, restart probing from slow start.

        The window itself is retained (this is precisely the state-sharing
        benefit of the macroflow), but ssthresh is set to the old window so
        that growth resumes cautiously.
        """
        self.ssthresh = max(self._cwnd, 2.0 * self.mtu)

    # ---------------------------------------------------------------- queries
    #: Read on every grant decision and every feedback report, so the getter
    #: is a C-level ``attrgetter`` over the stored window, not a Python frame.
    cwnd = property(attrgetter("_cwnd"), doc="Current congestion window in bytes.")

    def rate_estimate(self, srtt: float) -> float:
        srtt = srtt if srtt > 0 else DEFAULT_RTT_SECONDS
        return self._cwnd / srtt

    def in_slow_start(self) -> bool:
        """True while the window is below the slow-start threshold."""
        return self._cwnd < self.ssthresh

    # -------------------------------------------------------------- internals
    def _clamp(self) -> None:
        if self.max_window_bytes is not None:
            self._cwnd = min(self._cwnd, float(self.max_window_bytes))
        self._cwnd = max(self._cwnd, float(self.mtu))


class RateAimdController(CongestionController):
    """A simple rate-based AIMD controller (non-window alternative).

    The controller maintains a target rate directly: additive increase of
    one MTU per RTT's worth of acknowledged data, multiplicative decrease on
    congestion.  It exists to exercise the CM's controller-pluggability (the
    ablation benchmark compares it with the default window controller);
    it is intentionally simpler than TFRC.
    """

    name = "aimd-rate"

    def __init__(self, mtu: int, initial_rate_bps: float = 64_000.0, min_rate_bps: float = 8_000.0):
        super().__init__(mtu)
        self._rate_bytes = initial_rate_bps / 8.0
        self._min_rate_bytes = min_rate_bps / 8.0
        self._acked_since_increase = 0
        self._assumed_rtt = DEFAULT_RTT_SECONDS

    def on_ack(self, nbytes: int) -> None:
        if nbytes <= 0:
            return
        self._acked_since_increase += nbytes
        window_equivalent = max(self._rate_bytes * self._assumed_rtt, self.mtu)
        while self._acked_since_increase >= window_equivalent:
            self._acked_since_increase -= window_equivalent
            self._rate_bytes += self.mtu / self._assumed_rtt

    def on_congestion(self, mode: str) -> None:
        if mode == CM_NO_CONGESTION:
            return
        if mode == CM_PERSISTENT_CONGESTION:
            self._rate_bytes = max(self._min_rate_bytes, self._rate_bytes / 4.0)
        else:
            self._rate_bytes = max(self._min_rate_bytes, self._rate_bytes / 2.0)
        self._acked_since_increase = 0

    def on_idle_restart(self) -> None:
        self._acked_since_increase = 0

    def observe_rtt(self, srtt: float) -> None:
        """Give the controller an RTT estimate for its rate<->window conversion."""
        if srtt > 0:
            self._assumed_rtt = srtt

    @property
    def cwnd(self) -> float:
        # Expose the window-equivalent so the macroflow's outstanding-bytes
        # admission check keeps working with a rate-based controller.
        return max(self._rate_bytes * self._assumed_rtt, float(self.mtu))

    def rate_estimate(self, srtt: float) -> float:
        if srtt > 0:
            self.observe_rtt(srtt)
        return self._rate_bytes
