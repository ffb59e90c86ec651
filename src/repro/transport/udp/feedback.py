"""Application-level acknowledgements for UDP-based CM clients.

Because the CM evaluated in the paper makes **no changes to the receiver's
protocol stack**, every UDP application that wants congestion control must
arrange its own feedback: the receiver echoes acknowledgements in
application payloads, and the sender converts them into ``cm_update``
reports (bytes resolved, bytes received, loss mode, RTT sample).

Two pieces are provided:

* :class:`AckReflector` — the receiver-side application: acknowledges each
  datagram (or batches acknowledgements, for the delayed-feedback study of
  Figure 10) by echoing the sequence number, the sender's timestamp and the
  cumulative receive count.
* :class:`AppFeedbackTracker` — the sender-side bookkeeping that turns ACK
  arrivals into the ``(nsent, nrecd, lossmode, rtt)`` tuples ``cm_update``
  expects, detecting losses from sequence-number gaps.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ...core.constants import CM_NO_CONGESTION, CM_PERSISTENT_CONGESTION, CM_TRANSIENT_CONGESTION
from ...netsim.engine import Timer
from ...netsim.node import Host
from ...netsim.packet import Packet
from .socket import UDPSocket

__all__ = ["AckReflector", "AppFeedbackTracker", "FeedbackReport"]

#: Size of an application-level ACK payload (sequence number, timestamp echo,
#: cumulative counters — comparable to an RTP receiver report).
ACK_PAYLOAD_BYTES = 24


class AckReflector:
    """Receiver application that acknowledges incoming datagrams.

    Parameters
    ----------
    host, port:
        Where to listen.
    ack_every_packets:
        Send one acknowledgement per ``N`` received datagrams.  ``1`` gives
        per-packet feedback (the common case); larger values model
        receivers that batch feedback.
    ack_delay:
        Maximum time feedback may be withheld; with batching enabled an
        acknowledgement is sent when either the packet count or this delay
        is reached — Figure 10 uses ``min(500 packets, 2 seconds)``.
    on_data:
        Optional observer called with ``(packet, now)`` for every arrival
        (used by streaming clients to measure received layers).
    """

    def __init__(
        self,
        host: Host,
        port: int,
        ack_every_packets: int = 1,
        ack_delay: Optional[float] = None,
        on_data: Optional[Callable[[Packet, float], None]] = None,
        charge_costs: bool = False,
    ):
        if ack_every_packets < 1:
            raise ValueError("ack_every_packets must be >= 1")
        self.host = host
        self.sim = host.sim
        self.ack_every_packets = ack_every_packets
        self.ack_delay = ack_delay
        self.on_data = on_data
        self.socket = UDPSocket(host, local_port=port, charge_costs=charge_costs)
        self.socket.on_receive = self._handle_packet

        self.packets_received = 0
        self.bytes_received = 0
        self.acks_sent = 0
        self._unacked_packets = 0
        self._unacked_bytes = 0
        self._last_seq: Optional[int] = None
        self._last_ts: Optional[float] = None
        self._last_src: Optional[Tuple[str, int]] = None
        self._delay_timer = Timer(self.sim, self._flush)

    def close(self) -> None:
        """Stop listening."""
        self._delay_timer.cancel()
        self.socket.close()

    # -------------------------------------------------------------- internals
    def _handle_packet(self, packet: Packet) -> None:
        self.packets_received += 1
        self.bytes_received += packet.payload_bytes
        self._unacked_packets += 1
        self._unacked_bytes += packet.payload_bytes
        # Typed accessors on the UDPHeader record; a datagram without the
        # field leaves the last-seen value in place.
        seq = packet.headers.seq
        if seq is not None:
            self._last_seq = seq
        ts = packet.headers.ts
        if ts is not None:
            self._last_ts = ts
        self._last_src = (packet.src, packet.sport)
        if self.on_data is not None:
            self.on_data(packet, self.sim.now)

        if self._unacked_packets >= self.ack_every_packets:
            self._flush()
        elif self.ack_delay is not None and not self._delay_timer.pending:
            self._delay_timer.start(self.ack_delay)
        elif self.ack_delay is None and self.ack_every_packets == 1:
            # Defensive: per-packet mode always flushed above.
            self._flush()

    def _flush(self) -> None:
        self._delay_timer.cancel()
        if self._unacked_packets == 0 or self._last_src is None:
            return
        addr, port = self._last_src
        self.socket.sendto(
            ACK_PAYLOAD_BYTES,
            addr,
            port,
            headers={
                "ack_seq": self._last_seq,
                "ts_echo": self._last_ts,
                "acked_packets": self._unacked_packets,
                "acked_bytes": self._unacked_bytes,
                "total_received": self.packets_received,
            },
        )
        self.acks_sent += 1
        self._unacked_packets = 0
        self._unacked_bytes = 0


class FeedbackReport(NamedTuple):
    """``(nsent, nrecd, lossmode, rtt)`` — exactly the cm_update arguments."""

    nsent: int
    nrecd: int
    lossmode: str
    rtt: float


class AppFeedbackTracker:
    """Sender-side translation of application ACKs into ``cm_update`` reports.

    The sender registers every transmission with :meth:`on_sent` and feeds
    every acknowledgement packet to :meth:`on_ack`, which returns the
    :class:`FeedbackReport` to pass to ``cm_update`` (or ``None`` if the
    acknowledgement carried no new information).  Sequence numbers are
    assumed monotonically increasing per flow; a gap between the highest
    acknowledged sequence and the sequences recorded as sent is interpreted
    as loss (transient for isolated gaps, persistent when more than half of
    an acknowledgement batch is missing).
    """

    def __init__(self) -> None:
        #: Outstanding transmissions: seq -> payload bytes.
        self._in_flight: Dict[int, int] = {}
        #: True while ``_in_flight`` (insertion-ordered) is also in sequence
        #: order, which spares the per-ACK sort; ``_newest_seq`` is its maximum.
        self._ascending = True
        self._newest_seq = 0
        self._highest_acked_seq: Optional[int] = None
        self.bytes_reported_sent = 0
        self.bytes_reported_received = 0
        self.loss_events = 0

    @property
    def in_flight_packets(self) -> int:
        """Transmissions not yet resolved by feedback."""
        return len(self._in_flight)

    def on_sent(self, seq: int, nbytes: int) -> None:
        """Record a transmission awaiting acknowledgement."""
        in_flight = self._in_flight
        if not in_flight:
            self._ascending, self._newest_seq = True, seq
        elif seq > self._newest_seq:
            self._newest_seq = seq
        elif seq not in in_flight:
            self._ascending = False
        in_flight[seq] = nbytes

    def _resolve_through(self, limit: Optional[int]) -> List[Tuple[int, int]]:
        """Remove and return, in sequence order, the ``(seq, nbytes)`` in
        flight numbered up to ``limit`` (all of them for ``None``)."""
        in_flight = self._in_flight
        resolved = []
        for seq in (in_flight if self._ascending else sorted(in_flight)):
            if limit is not None and seq > limit:
                break
            resolved.append((seq, in_flight[seq]))
        for seq, _nbytes in resolved:
            del in_flight[seq]
        return resolved

    def on_ack(self, ack_seq: int, ts_echo: Optional[float], now: float) -> Optional[FeedbackReport]:
        """Process an acknowledgement for ``ack_seq`` (and everything below it).

        Returns the report for ``cm_update`` or ``None`` for stale ACKs.
        """
        if ack_seq is None:
            return None
        if self._highest_acked_seq is not None and ack_seq <= self._highest_acked_seq:
            return None
        self._highest_acked_seq = ack_seq

        received_bytes = 0
        lost_bytes = 0
        lost_packets = 0
        received_packets = 0
        for seq, nbytes in self._resolve_through(ack_seq):
            if seq == ack_seq:
                received_bytes += nbytes
                received_packets += 1
            else:
                lost_bytes += nbytes
                lost_packets += 1
        if received_bytes == 0 and lost_bytes == 0:
            return None

        rtt = 0.0
        if ts_echo is not None:
            rtt = max(0.0, now - ts_echo)

        if lost_packets == 0:
            lossmode = CM_NO_CONGESTION
        elif lost_packets > max(1, received_packets):
            lossmode = CM_PERSISTENT_CONGESTION
            self.loss_events += 1
        else:
            lossmode = CM_TRANSIENT_CONGESTION
            self.loss_events += 1

        nsent = received_bytes + lost_bytes
        self.bytes_reported_sent += nsent
        self.bytes_reported_received += received_bytes
        return FeedbackReport(nsent, received_bytes, lossmode, rtt)

    def on_cumulative_ack(
        self,
        acked_packets: int,
        acked_bytes: int,
        ts_echo: Optional[float],
        now: float,
        highest_seq: Optional[int] = None,
    ) -> Optional[FeedbackReport]:
        """Process a batched acknowledgement covering ``acked_packets`` datagrams.

        Used with :class:`AckReflector` batching (Figure 10): the report
        resolves the oldest in-flight datagrams up to ``highest_seq`` and
        treats the difference between what was sent and what the receiver
        counted as loss.
        """
        if acked_packets <= 0:
            return None
        resolved = self._resolve_through(highest_seq)
        if not resolved:
            return None
        resolved_packets = len(resolved)
        resolved_bytes = 0
        for _seq, nbytes in resolved:
            resolved_bytes += nbytes
        received_bytes = min(acked_bytes, resolved_bytes)
        lost_packets = max(0, resolved_packets - acked_packets)
        rtt = max(0.0, now - ts_echo) if ts_echo is not None else 0.0
        if lost_packets == 0:
            lossmode = CM_NO_CONGESTION
        elif lost_packets > max(1, acked_packets):
            lossmode = CM_PERSISTENT_CONGESTION
            self.loss_events += 1
        else:
            lossmode = CM_TRANSIENT_CONGESTION
            self.loss_events += 1
        self.bytes_reported_sent += resolved_bytes
        self.bytes_reported_received += received_bytes
        return FeedbackReport(resolved_bytes, received_bytes, lossmode, rtt)
