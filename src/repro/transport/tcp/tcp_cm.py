"""TCP/CM: TCP with congestion control offloaded to the Congestion Manager.

This follows §3.2 of the paper closely:

* **Connection creation** — ``cm_open`` associates the connection with a CM
  flow (joining the per-destination macroflow); from then on the pacing of
  outgoing data is controlled by the CM.
* **Transmission** — when data is queued the sender calls ``cm_request``;
  the CM's ``cmapp_send`` callback then transmits up to one MSS of new
  data (or declines the grant when there is none).  Loss recovery does not
  wait for a grant: the segment at ``snd_una`` is resent at once by
  ``_fast_retransmit_head``, because its bytes were already reported
  resolved to the CM.  The IP output routine's ``cm_notify`` hook charges
  every transmission to the macroflow automatically.
* **Feedback** — new cumulative ACKs become ``cm_update`` reports of
  successfully received bytes (with the RTT sample); the third duplicate
  ACK reports transient congestion; later duplicate ACKs report a segment
  having left the network; an RTO reports persistent congestion
  (``CM_LOST_FEEDBACK``).
* **Shared RTT** — the retransmission timeout uses the macroflow's smoothed
  RTT via ``cm_query``, so a brand-new connection benefits from samples
  gathered by earlier connections to the same receiver.

Being an in-kernel client, TCP/CM uses direct function-call callbacks; the
only extra per-packet cost relative to native TCP is the CM's own kernel
bookkeeping, which is what Figure 5 measures.
"""

from __future__ import annotations

from typing import Optional

from ...core.constants import (
    CM_ECN_CONGESTION,
    CM_NO_CONGESTION,
    CM_PERSISTENT_CONGESTION,
    CM_TRANSIENT_CONGESTION,
)
from ...core.errors import FlowClosedError, UnknownFlowError
from ...netsim.node import Host
from ...netsim.packet import DEFAULT_MSS, PROTO_TCP
from .sender import DEFAULT_RECEIVE_WINDOW, MAX_BACKOFF, TCPSenderBase

__all__ = ["CMTCPSender"]

#: Upper bound on cm_request calls left unanswered at any time.  TCP tops the
#: pool back up after every grant and every ACK, so this only bounds how deep
#: the CM scheduler queue can get for a bulk sender, not throughput.
MAX_PENDING_REQUESTS = 64


class CMTCPSender(TCPSenderBase):
    """TCP sender whose congestion control lives in the host's CM."""

    variant = "tcp-cm"

    def __init__(
        self,
        host: Host,
        dst: str,
        dport: int,
        sport: Optional[int] = None,
        mss: int = DEFAULT_MSS,
        receive_window: int = DEFAULT_RECEIVE_WINDOW,
        ecn: bool = False,
    ):
        if host.cm is None:
            raise RuntimeError("CMTCPSender requires a Congestion Manager on the host")
        super().__init__(host, dst, dport, sport=sport, mss=mss,
                         receive_window=receive_window, ecn=ecn)
        self.cm = host.cm
        # Associate the connection with a CM flow immediately: the SYN and
        # all data share the same 5-tuple, so the IP output hook can charge
        # every transmission to the right macroflow.
        self.flow_id = self.cm.cm_open(host.addr, dst, self.sport, dport, PROTO_TCP)
        self.cm.cm_register_send(self.flow_id, self._cmapp_send)

        #: Requests issued to the CM that have not yet produced a callback.
        self._requests_outstanding = 0
        #: Bytes already reported to the CM through duplicate-ACK updates and
        #: not yet covered by a cumulative ACK; the next cumulative report is
        #: reduced by this amount so the same bytes are never counted twice.
        self._dupack_reported_bytes = 0
        self.in_recovery = False
        self._recover_point = 0
        self._ecn_reported_point = 0
        self.fast_retransmits = 0
        self.declined_grants = 0

    # ====================================================================== #
    # Hooks from the base sender                                             #
    # ====================================================================== #
    def _on_send_opportunity(self) -> None:
        if not self.connected or self.closed:
            return
        self._request_transmissions()

    def _on_new_ack(self, bytes_acked: int, rtt_sample: float, ecn_echo: bool) -> None:
        lossmode = CM_NO_CONGESTION
        if ecn_echo and self.snd_una >= self._ecn_reported_point:
            lossmode = CM_ECN_CONGESTION
            self._ecn_reported_point = self.snd_nxt
        # Bytes already reported through duplicate-ACK updates must not be
        # reported again when the cumulative ACK finally covers them.  During
        # recovery, however, each cumulative ACK confirms that the freshly
        # retransmitted segment left the network, so always report at least
        # one MSS — otherwise the CM would never open the window enough to
        # grant the next retransmission and recovery would stall into an RTO.
        floor = min(self.mss, bytes_acked) if self.in_recovery else 0
        consumed = min(self._dupack_reported_bytes, max(0, bytes_acked - floor))
        report = bytes_acked - consumed
        self._dupack_reported_bytes -= consumed
        if report > 0 or lossmode != CM_NO_CONGESTION:
            self.cm.cm_update(self.flow_id, report, report, lossmode, rtt_sample)
        elif rtt_sample > 0:
            self.cm.cm_update(self.flow_id, 0, 0, CM_NO_CONGESTION, rtt_sample)
        if self.in_recovery:
            if self.snd_una >= self._recover_point:
                self.in_recovery = False
            else:
                # Partial ACK (NewReno): the next hole also needs
                # retransmitting, and like the initial fast retransmit it
                # replaces a segment already reported resolved, so it goes
                # out immediately.
                self._fast_retransmit_head()

    def _on_dupack(self, count: int, ecn_echo: bool) -> None:
        if count == 3 and not self.in_recovery:
            # A single segment was lost somewhere in the window: transient
            # congestion.
            self.fast_retransmits += 1
            self.in_recovery = True
            self._recover_point = self.snd_nxt
            self.cm.cm_update(self.flow_id, self.mss, 0, CM_TRANSIENT_CONGESTION, 0.0)
            self._dupack_reported_bytes += self.mss
            # Fast retransmit.  The lost segment's bytes were just reported
            # resolved to the CM, so resending them does not increase the
            # data outstanding in the network; following Reno's
            # conservation-of-packets reasoning the retransmission is sent
            # immediately instead of waiting for a grant that the freshly
            # halved window may not produce until half a window of duplicate
            # ACKs has drained the pipe (which would frequently push
            # recovery into a retransmission timeout the paper's TCP/CM does
            # not exhibit).  New data during recovery still waits for grants.
            self._fast_retransmit_head()
            self._request_transmissions()
        elif count > 3:
            # Each additional duplicate ACK means another segment reached the
            # receiver and left the network.
            self.cm.cm_update(self.flow_id, self.mss, self.mss, CM_NO_CONGESTION, 0.0)
            self._dupack_reported_bytes += self.mss
            self._request_transmissions()
        if ecn_echo and self.snd_una >= self._ecn_reported_point:
            self.cm.cm_update(self.flow_id, 0, 0, CM_ECN_CONGESTION, 0.0)
            self._ecn_reported_point = self.snd_nxt

    def _on_timeout(self) -> None:
        # A retransmission timeout signals persistent congestion; everything
        # in flight is presumed lost (CM_LOST_FEEDBACK in the paper's API).
        flight = self.flight_size
        report = max(0, flight - self._dupack_reported_bytes)
        self.cm.cm_update(self.flow_id, report, 0, CM_PERSISTENT_CONGESTION, 0.0)
        # Everything in flight is being rewound; the sequence space will be
        # re-sent and re-reported, so forget the duplicate-ACK compensation.
        self._dupack_reported_bytes = 0
        self.in_recovery = False

    def _on_close(self) -> None:
        try:
            self.cm.cm_close(self.flow_id)
        except (UnknownFlowError, FlowClosedError):
            # The flow may already have been closed by an explicit caller.
            pass

    def _current_rto(self) -> float:
        """Use the macroflow's shared smoothed RTT for loss recovery (§3.2)."""
        try:
            status = self.cm.cm_query(self.flow_id)
        except (UnknownFlowError, FlowClosedError):
            # A segment can be timed after close() retired the flow; fall
            # back on the connection's own estimate.
            return super()._current_rto()
        shared_rto = max(status.rto, 0.2)
        local_rto = self.rtt.rto() if self.rtt.samples > 0 else shared_rto
        return min(MAX_BACKOFF * 60.0, max(shared_rto, local_rto) * self._backoff)

    # ====================================================================== #
    # CM interaction                                                         #
    # ====================================================================== #
    def _request_transmissions(self) -> None:
        """Keep one ``cm_request`` pending per MSS of new data sendable now.

        That is the buffered data the peer's receive window permits, in
        segments (rounded up), capped at ``MAX_PENDING_REQUESTS``.
        """
        snd_nxt = self.snd_nxt
        sendable = self.app_limit - snd_nxt
        window = self.snd_una + self.receive_window - snd_nxt
        if window < sendable:
            sendable = window
        if sendable <= 0:
            return
        wanted = -(-sendable // self.mss)  # ceil division
        if wanted > MAX_PENDING_REQUESTS:
            wanted = MAX_PENDING_REQUESTS
        needed = wanted - self._requests_outstanding
        if needed > 0:
            cm_request = self.cm.cm_request
            flow_id = self.flow_id
            for _ in range(needed):
                self._requests_outstanding += 1
                cm_request(flow_id)

    def _fast_retransmit_head(self) -> None:
        """Immediately resend the segment at ``snd_una`` (loss recovery)."""
        length = min(self.mss, self.app_limit - self.snd_una)
        if length > 0:
            self._transmit_segment(self.snd_una, length, retransmission=True)

    def _decline_grant(self, flow_id: int) -> None:
        """Give an unusable grant back so sibling flows are not starved.

        A grant can arrive *after* ``close()``: the CM defers ``cmapp_send``
        callbacks (call-soon queue), so one may already be in flight when
        ``cm_close`` retires the flow.  The CM reclaims the closed flow's
        reserved window itself in that case, so the decline is simply
        dropped instead of crashing on the unknown flow id.
        """
        self.declined_grants += 1
        try:
            self.cm.cm_notify(flow_id, 0)
        except (UnknownFlowError, FlowClosedError):
            # Only the after-close race is tolerable; other CM errors on a
            # live flow must keep propagating.
            pass

    def _cmapp_send(self, flow_id: int) -> None:
        """CM grant: transmit up to one MSS of new data, or give it back.

        Retransmissions never come through here — loss recovery resends the
        head segment directly (:meth:`_fast_retransmit_head`) and a timeout
        rewinds ``snd_nxt``, after which the rewound bytes are new data again.
        """
        if self._requests_outstanding > 0:
            self._requests_outstanding -= 1
        if self.closed or not self.connected:
            self._decline_grant(flow_id)
            return
        length = self._next_new_segment_length()
        if length > 0:
            self._transmit_segment(self.snd_nxt, length, False)
            self.snd_nxt += length
            self._request_transmissions()
            return
        # Nothing to send after all: give the grant back so other flows on
        # the macroflow are not starved (paper §2.1.3).
        self._decline_grant(flow_id)
