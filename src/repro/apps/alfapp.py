"""API-overhead test applications (Figure 6 and Table 1).

The paper quantifies what the user-space adaptation API costs by running
small test programs that send packets of a given size and process the
acknowledgements for them, under each API:

* **ALF** — request/callback over a *connected* UDP socket: one
  ``cm_request`` ioctl per packet plus the extra control socket in the
  application's select set;
* **ALF/noconnect** — the same over an *unconnected* UDP socket, which adds
  an explicit ``cm_notify`` ioctl per packet because the kernel cannot match
  the transmission to the flow itself;
* **Buffered** — the congestion-controlled (CM-paced) UDP socket: the
  application just writes datagrams, but still processes its own
  acknowledgements in user space (a ``recv`` plus two ``gettimeofday`` calls
  per packet) and reports them with ``cm_update``;
* **TCP/CM** and **TCP/Linux** — webserver-like TCP senders (with and
  without delayed ACKs at the receiver) used as the baseline.

Each run reports per-packet CPU cost on the sending host, broken down by
ledger category, plus the wire time — which is what the experiment harness
turns into the Figure 6 curves and the Table 1 operation counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..core.libcm import LibCM
from ..netsim.engine import Simulator
from ..netsim.node import Host
from ..netsim.packet import IP_HEADER_BYTES, TCP_HEADER_BYTES, UDP_HEADER_BYTES, Packet
from ..transport.tcp import CMTCPSender, RenoTCPSender, TCPListener
from ..transport.udp.feedback import AppFeedbackTracker
from ..transport.udp.socket import UDPSocket
from ..transport.udp.udpcc import CMUDPSocket

__all__ = ["ApiOverheadResult", "UDPApiTestApp", "TCPApiTestApp", "UDP_VARIANTS", "TCP_VARIANTS"]

UDP_VARIANTS = ("alf", "alf_noconnect", "buffered")
TCP_VARIANTS = ("tcp_cm", "tcp_cm_nodelay", "tcp_linux")


@dataclass
class ApiOverheadResult:
    """Per-run measurements for one API variant and packet size."""

    variant: str
    packet_size: int
    packets_sent: int
    duration: float
    cpu_us_total: float
    operation_counts: Dict[str, int] = field(default_factory=dict)
    wire_us_per_packet: float = 0.0
    completed: bool = True

    @property
    def cpu_us_per_packet(self) -> float:
        """Sender-host CPU microseconds charged per data packet."""
        if self.packets_sent == 0:
            return 0.0
        return self.cpu_us_total / self.packets_sent

    @property
    def us_per_packet(self) -> float:
        """Per-packet cost combining CPU work and wire time.

        The paper's Figure 6 reports wall-clock microseconds per packet on an
        otherwise idle 100 Mbps path; in this reproduction the equivalent is
        the serialised cost of preparing, transmitting and accounting one
        packet.
        """
        return self.cpu_us_per_packet + self.wire_us_per_packet

    def ops_per_packet(self, operation: str) -> float:
        """Average count of a ledger operation per data packet (Table 1)."""
        if self.packets_sent == 0:
            return 0.0
        return self.operation_counts.get(operation, 0) / self.packets_sent


def _wire_us(payload: int, header: int, rate_bps: float) -> float:
    return (payload + header) * 8.0 / rate_bps * 1e6


class UDPApiTestApp:
    """Sender exercising one of the UDP-based CM APIs against an AckReflector."""

    def __init__(
        self,
        host: Host,
        server_addr: str,
        server_port: int,
        variant: str,
        packet_size: int,
        npackets: int,
        pipeline: int = 8,
    ):
        if variant not in UDP_VARIANTS:
            raise ValueError(f"unknown UDP API variant {variant!r}")
        if host.cm is None:
            raise RuntimeError("API test applications require a CM on the sending host")
        self.host = host
        self.sim = host.sim
        self.variant = variant
        self.packet_size = packet_size
        self.npackets = npackets
        self.pipeline = pipeline
        self.server_addr = server_addr
        self.server_port = server_port

        self.tracker = AppFeedbackTracker()
        self._seq = 0
        self.packets_acked = 0
        self._requests_outstanding = 0

        self.libcm = LibCM(host)
        if variant == "buffered":
            self.socket: UDPSocket = CMUDPSocket(host, max_queue_packets=pipeline * 4)
            self.socket.connect(server_addr, server_port)
            self.flow_id = self.socket.flow_id
        else:
            self.socket = UDPSocket(host)
            if variant == "alf":
                self.socket.connect(server_addr, server_port)
            self.flow_id = self.libcm.cm_open(
                host.addr,
                server_addr,
                self.socket.local_port,
                server_port,
                "udp",
            )
            self.libcm.cm_register_send(self.flow_id, self._cmapp_send)
        self.socket.on_receive = self._handle_ack

    # ------------------------------------------------------------------ drive
    def start(self) -> None:
        """Kick off the transfer."""
        if self.variant == "buffered":
            self._fill_buffered_pipeline()
        else:
            self._top_up_requests()

    @property
    def packets_sent(self) -> int:
        """Data packets handed to the socket so far."""
        return self._seq

    @property
    def done(self) -> bool:
        """True once every packet has been sent and acknowledged or resolved."""
        return self._seq >= self.npackets and self.tracker.in_flight_packets == 0

    # --------------------------------------------------------- ALF send paths
    def _top_up_requests(self) -> None:
        while (
            self._requests_outstanding < self.pipeline
            and self._seq + self._requests_outstanding < self.npackets
        ):
            self._requests_outstanding += 1
            self.libcm.cm_request(self.flow_id)

    def _cmapp_send(self, flow_id: int) -> None:
        self._requests_outstanding = max(0, self._requests_outstanding - 1)
        if self._seq >= self.npackets:
            self.libcm.cm_notify(flow_id, 0)
            return
        seq = self._seq
        self._seq += 1
        headers = {"seq": seq, "ts": self.sim.now}
        if self.variant == "alf":
            self.socket.send(self.packet_size, headers=headers)
        else:
            # Unconnected socket: the kernel cannot charge the flow itself,
            # so the application must notify explicitly (an extra ioctl).
            self.socket.sendto(self.packet_size, self.server_addr, self.server_port, headers=headers)
            self.libcm.cm_notify(self.flow_id, self.packet_size)
        self.tracker.on_sent(seq, self.packet_size)
        self._top_up_requests()

    # ----------------------------------------------------- buffered send path
    def _fill_buffered_pipeline(self) -> None:
        while self.tracker.in_flight_packets < self.pipeline and self._seq < self.npackets:
            seq = self._seq
            self._seq += 1
            self.socket.sendto(
                self.packet_size,
                self.server_addr,
                self.server_port,
                headers={"seq": seq, "ts": self.sim.now},
            )
            self.tracker.on_sent(seq, self.packet_size)

    # --------------------------------------------------------------- feedback
    def _handle_ack(self, packet: Packet) -> None:
        headers = packet.headers
        if self.host.costs is not None:
            # RTT computation on the application side: one gettimeofday at
            # send time and one when the acknowledgement is processed.
            self.host.costs.charge_operation("gettimeofday", count=2, category="app")
        report = self.tracker.on_ack(headers.get("ack_seq"), headers.get("ts_echo"), self.sim.now)
        if report is None:
            return
        self.packets_acked += 1
        self.libcm.cm_update(self.flow_id, report.nsent, report.nrecd, report.lossmode, report.rtt)
        if self.variant == "buffered":
            self._fill_buffered_pipeline()
        else:
            self._top_up_requests()

    # ------------------------------------------------------------------ runner
    def run(self, sim: Simulator, link_rate_bps: float, timeout: float = 300.0) -> ApiOverheadResult:
        """Drive the transfer to completion and collect the measurements."""
        costs = self.host.costs
        base_total = costs.total_us if costs is not None else 0.0
        base_ops = dict(costs.ledger.operation_counts) if costs is not None else {}
        start = sim.now
        self.start()
        deadline = start + timeout
        while sim.now < deadline and not self.done:
            if sim.peek() is None:
                break
            sim.run(until=min(deadline, sim.now + 1.0))
        duration = max(sim.now - start, 1e-9)
        ops = {}
        cpu = 0.0
        if costs is not None:
            cpu = costs.total_us - base_total
            for op, count in costs.ledger.operation_counts.items():
                delta = count - base_ops.get(op, 0)
                if delta:
                    ops[op] = delta
        return ApiOverheadResult(
            variant=self.variant,
            packet_size=self.packet_size,
            packets_sent=self._seq,
            duration=duration,
            cpu_us_total=cpu,
            operation_counts=ops,
            wire_us_per_packet=_wire_us(self.packet_size, IP_HEADER_BYTES + UDP_HEADER_BYTES, link_rate_bps),
            completed=self.done,
        )


class TCPApiTestApp:
    """Webserver-like TCP sender used as the Figure 6 baseline."""

    def __init__(
        self,
        sender_host: Host,
        receiver_host: Host,
        variant: str,
        packet_size: int,
        npackets: int,
        port: int = 6001,
        receive_window: int = 64 * 1024,
    ):
        if variant not in TCP_VARIANTS:
            raise ValueError(f"unknown TCP API variant {variant!r}")
        self.sender_host = sender_host
        self.variant = variant
        self.packet_size = packet_size
        self.npackets = npackets
        delayed_acks = variant != "tcp_cm_nodelay"
        self.listener = TCPListener(receiver_host, port, delayed_acks=delayed_acks)
        if variant == "tcp_linux":
            self.sender = RenoTCPSender(
                sender_host, receiver_host.addr, port, mss=packet_size, receive_window=receive_window
            )
        else:
            self.sender = CMTCPSender(
                sender_host, receiver_host.addr, port, mss=packet_size, receive_window=receive_window
            )
        # "performed a select() on its socket to determine if the server has
        # sent any data back": one select per acknowledgement processed.
        if sender_host.costs is not None:
            self.sender.on_progress = lambda _total: sender_host.costs.charge_operation(
                "select_call", category="app"
            )

    def run(self, sim: Simulator, link_rate_bps: float, timeout: float = 300.0) -> ApiOverheadResult:
        """Drive the transfer to completion and collect the measurements."""
        costs = self.sender_host.costs
        base_total = costs.total_us if costs is not None else 0.0
        base_ops = dict(costs.ledger.operation_counts) if costs is not None else {}
        start = sim.now
        # The application writes one packet-sized buffer per send call.
        for _ in range(self.npackets):
            if costs is not None:
                costs.syscall_copy("send_call", self.packet_size, "app")
            self.sender.send(self.packet_size)
        sim.run(until=start + timeout)
        duration = max((self.sender.complete_time or sim.now) - start, 1e-9)
        ops = {}
        cpu = 0.0
        if costs is not None:
            cpu = costs.total_us - base_total
            for op, count in costs.ledger.operation_counts.items():
                delta = count - base_ops.get(op, 0)
                if delta:
                    ops[op] = delta
        return ApiOverheadResult(
            variant=self.variant,
            packet_size=self.packet_size,
            packets_sent=self.sender.data_packets_sent,
            duration=duration,
            cpu_us_total=cpu,
            operation_counts=ops,
            wire_us_per_packet=_wire_us(self.packet_size, IP_HEADER_BYTES + TCP_HEADER_BYTES, link_rate_bps),
            completed=self.sender.done,
        )

    def close(self) -> None:
        """Release both endpoints."""
        self.sender.close()
        self.listener.close()
