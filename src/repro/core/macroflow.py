"""Macroflows: the CM's unit of congestion-state aggregation.

A macroflow is "a group of flows that share the same congestion state,
control algorithms, and state information in the CM".  By default every
flow to the same destination host joins the same macroflow; applications
can split a flow out into its own macroflow or merge flows explicitly when
the default aggregation is unsuitable (for example under differentiated
services, §5 of the paper).

The macroflow owns:

* the congestion controller (window / rate),
* the scheduler that apportions the window among constituent flows,
* the shared RTT estimator,
* the outstanding/reserved byte accounting used to decide when the window
  is "open".
"""

from __future__ import annotations

from typing import Dict, Optional

from .congestion import CongestionController
from .constants import CM_NO_CONGESTION
from .flow import Flow
from .query import QueryResult
from .rtt import RttEstimator
from .scheduler import Scheduler

__all__ = ["Macroflow"]

#: Smoothing gain for the loss-rate EWMA.
_LOSS_EWMA_GAIN = 0.25

#: Congestion-window validation: the window only grows while the macroflow is
#: using at least this fraction of it.  The value bounds how far the CM's
#: rate estimate can exceed what an application-limited (self-clocked) sender
#: actually uses — a factor of four of headroom, enough for a layered client
#: to discover that the next (double-rate) layer would fit.
_WINDOW_VALIDATION_FRACTION = 0.25


class Macroflow:
    """Shared congestion state for all flows to one destination."""

    def __init__(
        self,
        macroflow_id: int,
        key,
        mtu: int,
        controller: CongestionController,
        scheduler: Scheduler,
    ):
        self.macroflow_id = macroflow_id
        #: Aggregation key — the destination address for default macroflows,
        #: or ``None`` for private macroflows created by ``cm_split``.
        self.key = key
        self.mtu = mtu
        self.controller = controller
        #: Rate-based controllers take the shared srtt for their rate<->window
        #: conversion; window controllers have no such hook (None).
        self._observe_rtt = getattr(controller, "observe_rtt", None)
        self.scheduler = scheduler
        self.rtt = RttEstimator()
        self.flows: Dict[int, Flow] = {}
        #: How many of ``flows`` may be owed a rate callback
        #: (:attr:`Flow.may_receive_updates`).  Kept by ``add_flow``,
        #: ``remove_flow`` and ``cm_register_update``, the only places the
        #: answer can change; while zero, feedback skips the callback walk.
        self.update_listeners = 0
        #: Feedback watchdog timer, bound by the manager when enabled.
        self.watchdog = None

        #: Bytes transmitted (per cm_notify) and not yet covered by feedback.
        self.outstanding_bytes: float = 0.0
        #: Bytes' worth of grants issued but not yet notified/declined.
        self.reserved_bytes: float = 0.0
        self.loss_rate: float = 0.0

        self.bytes_sent_total: int = 0
        self.bytes_acked_total: int = 0
        self.updates_received: int = 0
        self.last_feedback_time: Optional[float] = None
        self.last_activity_time: Optional[float] = None
        #: When the controller last reacted to a congestion signal.  Several
        #: flows of one macroflow typically observe the *same* congestion
        #: event (one queue overflow drops packets from many of them within
        #: one RTT); reacting once per RTT keeps the ensemble's response
        #: equivalent to a single TCP connection's instead of halving once
        #: per constituent flow.
        self.last_congestion_reaction_time: Optional[float] = None
        self.congestion_reactions: int = 0
        self.suppressed_congestion_reports: int = 0
        # Telemetry probe slot (bound by CongestionManager.attach_telemetry);
        # None is the compiled no-op.
        self._probe_congestion = None

    # -------------------------------------------------------------- membership
    def add_flow(self, flow: Flow) -> None:
        """Attach a flow to this macroflow."""
        self.flows[flow.flow_id] = flow
        flow.macroflow = self
        if flow.may_receive_updates:
            self.update_listeners += 1

    def remove_flow(self, flow: Flow) -> None:
        """Detach a flow; its in-flight bytes are forgotten (they will never
        be acknowledged through the CM once the client is gone)."""
        if self.flows.pop(flow.flow_id, None) is not None and flow.may_receive_updates:
            self.update_listeners -= 1
        self.scheduler.remove_flow(flow.flow_id)
        self.outstanding_bytes = max(0.0, self.outstanding_bytes - flow.outstanding_bytes)
        self.reserved_bytes = max(0.0, self.reserved_bytes - flow.granted_unnotified * self.mtu)
        flow.outstanding_bytes = 0
        flow.granted_unnotified = 0
        if flow.macroflow is self:
            flow.macroflow = None

    @property
    def is_empty(self) -> bool:
        """True when no flows are attached (state may still be retained)."""
        return not self.flows

    # ------------------------------------------------------------- accounting
    def available_window(self) -> float:
        """Bytes of congestion window not yet committed to in-flight data or grants."""
        return self.controller.cwnd - self.outstanding_bytes - self.reserved_bytes

    def window_open(self) -> bool:
        """True when another grant may be issued.

        The normal rule is that a full MTU of window must be free, which is
        what gives the CM its 1-MTU initial window for full-sized senders
        like TCP.  Flows sending small datagrams (vat's 172-byte audio
        frames) would be throttled to one packet per RTT by that rule even
        though they use only a sliver of the window, so a grant is also
        allowed whenever less than half the window is committed.
        """
        if self.available_window() >= self.mtu:
            return True
        return (self.outstanding_bytes + self.reserved_bytes) < 0.5 * self.controller.cwnd

    def grant_allowance(self, cap: int) -> int:
        """How many MTU grants :meth:`window_open` permits back-to-back, up to ``cap``.

        This replays the per-grant window check the one-at-a-time grant loop
        performed (each grant commits another MTU of reservation), so the
        batched dispatcher in the manager admits exactly as many grants as
        ``cap`` successive ``window_open()``/grant iterations would have.
        """
        cwnd = self.controller.cwnd
        mtu = self.mtu
        committed = self.outstanding_bytes + self.reserved_bytes
        half = 0.5 * cwnd
        window_floor = cwnd - mtu
        n = 0
        while n < cap and (committed <= window_floor or committed < half):
            committed += mtu
            n += 1
        return n

    def charge_transmission(self, flow: Flow, nbytes: int, now: float) -> None:
        """Account a transmission reported via ``cm_notify``."""
        if flow.granted_unnotified > 0:
            flow.granted_unnotified -= 1
            reserved = self.reserved_bytes - self.mtu
            self.reserved_bytes = reserved if reserved > 0.0 else 0.0
        if nbytes > 0:
            self.outstanding_bytes += nbytes
            flow.outstanding_bytes += nbytes
            self.bytes_sent_total += nbytes
            flow.stats.bytes_sent += nbytes
        self.last_activity_time = now
        flow.stats.notifies += 1

    def apply_feedback(
        self, flow: Flow, nsent: int, nrecd: int, lossmode: str, rtt: float, now: float
    ) -> None:
        """Fold one ``cm_update`` report into the shared congestion state."""
        self.updates_received += 1
        flow.stats.updates += 1
        # Congestion-window validation (RFC 2861 spirit): the window may only
        # grow when the macroflow was actually using a substantial part of it
        # when this feedback was generated.  Without this, a self-clocked
        # client sending well below the window (e.g. the rate-callback
        # streaming application) would let the window — and therefore the
        # rate the CM reports — grow without bound on an uncongested path.
        window_limited = (
            self.outstanding_bytes + self.reserved_bytes + float(nsent)
            >= _WINDOW_VALIDATION_FRACTION * self.controller.cwnd
        )
        if rtt > 0:
            self.rtt.sample(rtt)
            if self._observe_rtt is not None:
                self._observe_rtt(self.rtt.smoothed_rtt())
        if nsent > 0:
            released = min(float(nsent), self.outstanding_bytes)
            self.outstanding_bytes -= released
            flow.outstanding_bytes = max(0, flow.outstanding_bytes - nsent)
            instantaneous_loss = max(0.0, 1.0 - float(nrecd) / float(nsent))
            self.loss_rate += _LOSS_EWMA_GAIN * (instantaneous_loss - self.loss_rate)
        if nrecd > 0:
            self.bytes_acked_total += nrecd
            flow.stats.bytes_acked += nrecd
        if lossmode == CM_NO_CONGESTION:
            if nrecd > 0 and window_limited:
                self.controller.on_ack(nrecd)
        elif self._should_react_to_congestion(now):
            self.controller.dispatch_update(nrecd, lossmode)
            self.last_congestion_reaction_time = now
            self.congestion_reactions += 1
            probe = self._probe_congestion
            if probe is not None:
                probe(now, {"macroflow": self.macroflow_id, "lossmode": lossmode,
                            "cwnd": self.controller.cwnd})
        else:
            # Another flow already reported this congestion epoch; count the
            # report but do not halve the shared window again.
            self.suppressed_congestion_reports += 1
        self.last_feedback_time = now
        self.last_activity_time = now

    def _should_react_to_congestion(self, now: float) -> bool:
        if self.last_congestion_reaction_time is None:
            return True
        return now - self.last_congestion_reaction_time >= self.rtt.smoothed_rtt()

    def clear_in_flight(self) -> None:
        """Forget all in-flight accounting (watchdog recovery after lost feedback)."""
        self.outstanding_bytes = 0.0
        self.reserved_bytes = 0.0
        for flow in self.flows.values():
            flow.outstanding_bytes = 0
            flow.granted_unnotified = 0

    # ---------------------------------------------------------------- queries
    def rate(self) -> float:
        """Current sustainable rate estimate in bytes/second."""
        return self.controller.rate_estimate(self.rtt.smoothed_rtt())

    def status(self) -> QueryResult:
        """Snapshot of the shared network-state estimate for this macroflow."""
        rtt = self.rtt
        srtt = rtt.smoothed_rtt()
        # Field order: rate, srtt, rttvar, loss_rate, cwnd_bytes, mtu.
        return QueryResult(self.controller.rate_estimate(srtt), srtt, rtt.deviation(),
                           self.loss_rate, self.controller.cwnd, self.mtu)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Macroflow {self.macroflow_id} key={self.key} flows={len(self.flows)} "
            f"cwnd={self.controller.cwnd:.0f} out={self.outstanding_bytes:.0f}>"
        )
