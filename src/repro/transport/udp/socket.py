"""Plain UDP sockets.

These model Berkeley UDP sockets on the simulated host, including the
user/kernel costs of ``sendto``/``recvfrom`` that the paper's API-overhead
study depends on: every datagram an application sends or receives pays a
system call plus a copy across the user/kernel boundary.

A socket may be *connected* (a fixed remote address/port) or unconnected.
The distinction matters for the CM: packets from a connected socket can be
matched to their CM flow by the kernel's IP output hook, whereas an
unconnected socket's application must call ``cm_notify`` itself — that is
exactly the difference between the paper's "ALF" and "ALF/noconnect" API
variants in Figure 6 and Table 1.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...netsim.node import Host
from ...netsim.packet import PROTO_UDP, Packet, UDPHeader

__all__ = ["UDPSocket"]


class UDPSocket:
    """A datagram socket bound to a local port on a host."""

    def __init__(
        self,
        host: Host,
        local_port: Optional[int] = None,
        charge_costs: bool = True,
    ):
        self.host = host
        self.sim = host.sim
        self.local_port = local_port if local_port is not None else host.allocate_port()
        #: Where sendto/recvfrom crossings are charged; None (a compiled
        #: no-op) for ``charge_costs=False`` and on hosts without CPU accounting.
        self._costs = host.costs if charge_costs else None
        self.remote_addr: Optional[str] = None
        self.remote_port: Optional[int] = None
        self.on_receive: Optional[Callable[[Packet], None]] = None

        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_received = 0
        self.bytes_received = 0
        self.closed = False

        host.ip.register_handler(PROTO_UDP, self.local_port, self._deliver)

    # ------------------------------------------------------------------ setup
    def connect(self, remote_addr: str, remote_port: int) -> None:
        """Fix the remote endpoint (enables kernel flow matching for the CM)."""
        self.remote_addr = remote_addr
        self.remote_port = remote_port

    @property
    def is_connected(self) -> bool:
        """True when a remote endpoint has been set with :meth:`connect`."""
        return self.remote_addr is not None

    def close(self) -> None:
        """Release the port; further sends raise."""
        if self.closed:
            return
        self.closed = True
        self.host.ip.unregister_handler(PROTO_UDP, self.local_port)

    # ------------------------------------------------------------------- send
    def send(self, payload_bytes: int, headers: Optional[dict] = None) -> Packet:
        """Send a datagram to the connected remote endpoint."""
        if not self.is_connected:
            raise RuntimeError("send() on an unconnected UDP socket; use sendto()")
        return self.sendto(payload_bytes, self.remote_addr, self.remote_port, headers)

    def sendto(self, payload_bytes: int, addr: str, port: int, headers: Optional[dict] = None) -> Packet:
        """Send a datagram to an explicit destination."""
        if self.closed:
            raise RuntimeError("socket is closed")
        if payload_bytes < 0:
            raise ValueError("payload size cannot be negative")
        costs = self._costs
        if costs is not None:
            costs.syscall_copy("send_call", payload_bytes, "app")
        packet = Packet(
            src=self.host.addr,
            dst=addr,
            sport=self.local_port,
            dport=port,
            protocol=PROTO_UDP,
            payload_bytes=payload_bytes,
            # The typed UDP header record copies the caller's dict: datagrams
            # are returned to (and may be retained by) the application, so
            # they are never pooled and each needs its own record.
            headers=UDPHeader(headers) if headers else UDPHeader(),
            # Only connected sockets can be matched to their CM flow by the
            # kernel; unconnected senders must cm_notify themselves.
            cm_matchable=self.remote_addr is not None,
        )
        self.host.ip.send(packet)
        self.packets_sent += 1
        self.bytes_sent += payload_bytes
        return packet

    # ---------------------------------------------------------------- receive
    def _deliver(self, packet: Packet) -> None:
        if self.closed:
            return
        self.packets_received += 1
        self.bytes_received += packet.payload_bytes
        costs = self._costs
        if costs is not None:
            costs.syscall_copy("recv_call", packet.payload_bytes, "app")
        if self.on_receive is not None:
            self.on_receive(packet)
