"""Congestion-controlled UDP sockets (the CM's buffered-send API).

§3.3 of the paper: "They provide the same functionality as standard
Berkeley UDP sockets, but instead of immediately sending the data from the
kernel packet queue to lower layers for transmission, the buffered socket
implementation schedules its packet output via CM callbacks."

The implementation here mirrors that structure:

* ``send``/``sendto`` behave like a normal UDP socket from the
  application's point of view (same system-call and copy costs), but the
  datagram lands in an in-kernel packet queue;
* the kernel calls ``cm_request`` on the socket's flow for each queued
  datagram;
* when the CM grants, ``udp_ccappsend`` transmits one datagram from the
  queue (no extra data copies — the queue holds the already-copied kernel
  buffer).

The application's only remaining responsibility is feedback: it must report
its receiver's acknowledgements with ``cm_update`` (usually through
:class:`~repro.transport.udp.feedback.AppFeedbackTracker`).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

from ...netsim.node import Host
from ...netsim.packet import PROTO_UDP, Packet, UDPHeader
from .socket import UDPSocket

__all__ = ["CMUDPSocket"]


class CMUDPSocket(UDPSocket):
    """A UDP socket whose transmissions are paced by the Congestion Manager.

    The socket must be :meth:`connect`-ed before sending so the kernel can
    bind it to a CM flow (this is the ``setsockopt(..., CM_BUF)`` step in
    the paper's usage sketch).
    """

    def __init__(
        self,
        host: Host,
        local_port: Optional[int] = None,
        charge_costs: bool = True,
        max_queue_packets: int = 1000,
    ):
        if host.cm is None:
            raise RuntimeError("CMUDPSocket requires a Congestion Manager on the host")
        super().__init__(host, local_port=local_port, charge_costs=charge_costs)
        self.cm = host.cm
        self.max_queue_packets = max_queue_packets
        self.flow_id: Optional[int] = None
        #: The in-kernel packet queue: (payload_bytes, dst, dport, headers).
        self._queue: Deque[Tuple[int, str, int, dict]] = deque()
        self.queue_drops = 0
        self.cm_transmissions = 0

    # ------------------------------------------------------------------ setup
    def connect(self, remote_addr: str, remote_port: int) -> None:
        super().connect(remote_addr, remote_port)
        if self.flow_id is None:
            self.flow_id = self.cm.cm_open(
                self.host.addr, remote_addr, self.local_port, remote_port, PROTO_UDP
            )
            self.cm.cm_register_send(self.flow_id, self._udp_ccappsend)

    def close(self) -> None:
        if self.flow_id is not None:
            try:
                self.cm.cm_close(self.flow_id)
            except Exception:
                pass
            self.flow_id = None
        super().close()

    @property
    def queued_packets(self) -> int:
        """Datagrams waiting in the kernel queue for a CM grant."""
        return len(self._queue)

    # ------------------------------------------------------------------- send
    def sendto(
        self, payload_bytes: int, addr: str, port: int, headers: Optional[dict] = None
    ) -> Optional[Packet]:
        """Queue a datagram for CM-paced transmission.

        Returns ``None`` because the packet is not built until the CM grant
        arrives; if the kernel queue is full the datagram is dropped (the
        same back-pressure a full socket buffer gives a real application).
        """
        if self.closed:
            raise RuntimeError("socket is closed")
        if self.flow_id is None:
            raise RuntimeError("CMUDPSocket must be connected before sending")
        if addr != self.remote_addr or port != self.remote_port:
            raise ValueError("CM UDP sockets can only send to their connected destination")
        costs = self._costs
        if costs is not None:
            costs.syscall_copy("send_call", payload_bytes, "app")
        if len(self._queue) >= self.max_queue_packets:
            self.queue_drops += 1
            return None
        self._queue.append(
            (payload_bytes, addr, port, UDPHeader(headers) if headers else UDPHeader())
        )
        self.cm.cm_request(self.flow_id)
        return None

    # --------------------------------------------------------------- CM grant
    def _udp_ccappsend(self, flow_id: int) -> None:
        """Transmit one MTU's worth (one datagram) from the kernel queue."""
        if self.closed or not self._queue:
            self.cm.cm_notify(flow_id, 0)
            return
        payload_bytes, addr, port, headers = self._queue.popleft()
        packet = Packet(
            src=self.host.addr,
            dst=addr,
            sport=self.local_port,
            dport=port,
            protocol=PROTO_UDP,
            payload_bytes=payload_bytes,
            headers=headers,
        )
        self.host.ip.send(packet)
        self.packets_sent += 1
        self.bytes_sent += payload_bytes
        self.cm_transmissions += 1
