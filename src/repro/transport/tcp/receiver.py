"""TCP receiver side: listener, per-connection reassembly and ACK generation.

The CM architecture evaluated in the paper requires **no changes at the
receiver**: a completely standard TCP receiver provides the cumulative,
duplicate and (optionally) delayed acknowledgements that the sending side —
whether native Linux-style TCP or TCP/CM — feeds back into its congestion
control.  This module is therefore shared by both sender variants.

:class:`TCPListener` accepts connections on a port and demultiplexes
segments to per-connection :class:`TCPReceiverConnection` objects keyed by
the remote ``(address, port)`` pair, the way a kernel's PCB lookup does.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ...netsim.engine import Simulator, Timer
from ...netsim.node import Host
from ...netsim.packet import PROTO_TCP, Packet, pool_for
from .segments import ack_segment, synack_segment

__all__ = ["TCPListener", "TCPReceiverConnection"]

#: Standard delayed-ACK holdover used when only one segment is pending.
DELAYED_ACK_TIMEOUT = 0.1


class TCPReceiverConnection:
    """Reassembly and acknowledgement state for one inbound connection."""

    def __init__(
        self,
        host: Host,
        local_port: int,
        peer_addr: str,
        peer_port: int,
        delayed_acks: bool = True,
        on_data: Optional[Callable[[int, float], None]] = None,
    ):
        self.host = host
        self.sim: Simulator = host.sim
        self.local_port = local_port
        self.peer_addr = peer_addr
        self.peer_port = peer_port
        self.delayed_acks = delayed_acks
        self.on_data = on_data

        #: Next in-order byte expected from the peer.
        self.rcv_nxt = 0
        #: Out-of-order segments buffered until the gap fills: seq -> length.
        self._out_of_order: Dict[int, int] = {}
        self._segments_since_ack = 0
        self._last_ts: Optional[float] = None
        self._delack_timer = Timer(self.sim, self._delayed_ack_expired)
        self._pool = pool_for(self.sim)
        #: "Quick ACK" counter: the first few in-order segments of a
        #: connection are acknowledged immediately (as Linux does) so that a
        #: sender starting from a one-segment initial window is not stalled
        #: by the delayed-ACK timer.
        self._quickack_remaining = 4

        self.bytes_received = 0
        self.acks_sent = 0
        self.dup_acks_sent = 0
        self.fin_received = False

    # ------------------------------------------------------------------ input
    def handle_segment(self, packet: Packet) -> None:
        """Process one arriving segment (data or FIN) and generate ACKs."""
        headers = packet.headers
        if headers.fin:
            self.fin_received = True
            self._send_ack(packet.ecn_marked)
            return
        seq = headers.seq
        length = headers.len
        if seq is None or length <= 0:
            return

        if seq == self.rcv_nxt:
            # In-order arrival: deliver it and anything contiguous behind it.
            self._deliver(length)
            self._last_ts = headers.ts
            out_of_order = self._out_of_order
            if out_of_order:
                while self.rcv_nxt in out_of_order:
                    self._deliver(out_of_order.pop(self.rcv_nxt))
            self._segments_since_ack += 1
            must_ack_now = (
                not self.delayed_acks
                or self._segments_since_ack >= 2
                or bool(out_of_order)
                or packet.ecn_marked
                or self._quickack_remaining > 0
            )
            if self._quickack_remaining > 0:
                self._quickack_remaining -= 1
            if must_ack_now:
                self._send_ack(packet.ecn_marked)
            else:
                # Per-segment refresh; the deadline always moves later, so
                # the coalescing Timer makes this free of heap operations.
                self._delack_timer.restart(DELAYED_ACK_TIMEOUT)
        elif seq < self.rcv_nxt:
            # Duplicate of already-delivered data (a spurious retransmission);
            # re-acknowledge so the sender can move on.
            self._send_ack(packet.ecn_marked)
        else:
            # A hole: buffer the segment and emit an immediate duplicate ACK.
            self._out_of_order[seq] = length
            self.dup_acks_sent += 1
            self._send_ack(packet.ecn_marked)

    def _deliver(self, length: int) -> None:
        self.rcv_nxt += length
        self.bytes_received += length
        if self.on_data is not None:
            self.on_data(length, self.sim.now)

    # ------------------------------------------------------------------- acks
    def _delayed_ack_expired(self) -> None:
        if self._segments_since_ack > 0:
            self._send_ack()

    def _send_ack(self, ecn_echo: bool = False) -> None:
        """Acknowledge everything below ``rcv_nxt`` now (never deferred)."""
        self._delack_timer.cancel()
        self._segments_since_ack = 0
        host = self.host
        self.acks_sent += 1
        host.ip.send(ack_segment(host.addr, self.peer_addr, self.local_port, self.peer_port,
                                 self.rcv_nxt, self._last_ts, ecn_echo, self._pool))


class TCPListener:
    """Passive endpoint accepting TCP connections on one port."""

    def __init__(
        self,
        host: Host,
        port: int,
        delayed_acks: bool = True,
        on_data: Optional[Callable[[int, float], None]] = None,
        on_connection: Optional[Callable[[TCPReceiverConnection], None]] = None,
    ):
        self.host = host
        self.port = port
        self.delayed_acks = delayed_acks
        self.on_data = on_data
        self.on_connection = on_connection
        self.connections: Dict[Tuple[str, int], TCPReceiverConnection] = {}
        self._pool = pool_for(host.sim)
        host.ip.register_handler(PROTO_TCP, port, self._handle_packet)

    def close(self) -> None:
        """Stop accepting segments on this port."""
        self.host.ip.unregister_handler(PROTO_TCP, self.port)

    def connection_for(self, peer_addr: str, peer_port: int) -> Optional[TCPReceiverConnection]:
        """Look up the connection state for a remote endpoint."""
        return self.connections.get((peer_addr, peer_port))

    @property
    def total_bytes_received(self) -> int:
        """Bytes received in order across all connections ever accepted."""
        return sum(conn.bytes_received for conn in self.connections.values())

    # -------------------------------------------------------------- internals
    def _handle_packet(self, packet: Packet) -> None:
        key = (packet.src, packet.sport)
        if packet.headers.syn:
            connection = self.connections.get(key)
            if connection is None:
                connection = TCPReceiverConnection(
                    host=self.host,
                    local_port=self.port,
                    peer_addr=packet.src,
                    peer_port=packet.sport,
                    delayed_acks=self.delayed_acks,
                    on_data=self.on_data,
                )
                self.connections[key] = connection
                if self.host.costs is not None:
                    self.host.costs.charge_operation("connection_setup", category="tcp")
                if self.on_connection is not None:
                    self.on_connection(connection)
            # (Re)send the SYN-ACK; duplicate SYNs just elicit another one.
            reply = synack_segment(
                src=self.host.addr,
                dst=packet.src,
                sport=self.port,
                dport=packet.sport,
                ts_echo=packet.headers.ts,
                pool=self._pool,
            )
            self.host.ip.send(reply)
            return
        connection = self.connections.get(key)
        if connection is None:
            # Data for a connection we never saw a SYN for; ignore it (the
            # sender's RTO will recover once the SYN retransmission arrives).
            return
        connection.handle_segment(packet)
