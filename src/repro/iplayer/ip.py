"""The IP layer of a simulated host.

Two behaviours in the paper live exactly here:

* **cm_notify hook** — "we modify the IP output routine to call
  ``cm_notify(cm_flowid, nsent)`` on each transmission" (§2.1.3).  The
  :meth:`IPLayer.send` path looks the outgoing packet's flow up in the
  host's Congestion Manager and notifies it of the bytes charged, so CM
  clients never have to report their own transmissions.
* **Protocol demultiplexing** — packets arriving for this host are handed
  to the transport handler registered for ``(protocol, local port)``,
  mirroring the in-kernel TCP/UDP input paths.

Routers reuse the same class with :attr:`forwarding` enabled.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from ..netsim.packet import Packet

__all__ = ["IPLayer", "NoRouteError"]


class NoRouteError(RuntimeError):
    """Raised when a host has no route (and no default route) to a destination."""


class IPLayer:
    """Per-host IP send/receive/forward logic.

    Parameters
    ----------
    host:
        The owning :class:`~repro.netsim.node.Host` (provides the simulator,
        address, routing table, cost ledger and optional CM).
    """

    def __init__(self, host) -> None:
        self.host = host
        #: The host's CPU cost facade, or None (a compiled no-op) on hosts
        #: built without CPU accounting.
        self._costs = host.costs
        #: Transport handlers keyed by ``(protocol, local_port)``; port 0 is
        #: a wildcard matched when no exact entry exists.
        self._handlers: Dict[Tuple[str, int], Callable[[Packet], None]] = {}
        self.packets_sent = 0
        self.packets_received = 0
        self.packets_forwarded = 0
        self.packets_no_handler = 0
        self.send_failures = 0
        self.forward_drops = 0

    # ------------------------------------------------------------ demux setup
    def register_handler(self, protocol: str, port: int, handler: Callable[[Packet], None]) -> None:
        """Register ``handler(packet)`` for packets to ``(protocol, port)``."""
        key = (protocol, port)
        if key in self._handlers:
            raise ValueError(f"handler already registered for {key}")
        self._handlers[key] = handler

    def unregister_handler(self, protocol: str, port: int) -> None:
        """Remove a previously registered transport handler (no-op if absent)."""
        self._handlers.pop((protocol, port), None)

    # ----------------------------------------------------------------- output
    def send(self, packet: Packet) -> bool:
        """Transmit ``packet`` towards its destination.

        Charges the in-kernel transmit cost, performs the ``cm_notify`` hook
        for CM-managed flows, resolves the route, and hands the packet to
        the outgoing link.  Returns ``True`` if the link accepted it.

        One frame per packet: the id stamp, the CM hook and the route lookup
        are written out here rather than called.
        """
        host = self.host
        sim = host.sim
        packet.created_at = sim._now
        # Stamp a per-simulator id: construction-time ids come from a
        # process-global counter (so unsent packets still get unique ids),
        # but anything that reaches the wire must carry an id that is
        # reproducible run-to-run regardless of process history.
        packet_id = sim._packet_seq + 1
        sim._packet_seq = packet_id
        packet.packet_id = packet_id
        costs = self._costs
        if costs is not None:
            costs.kernel_tx(packet.size)

        # The cm_notify hook.  The kernel looks up the CM flow from the
        # packet's addressing tuple (the "well-defined CM interface that
        # takes the flow parameters as arguments" in the paper); unconnected
        # sockets whose packets cannot be matched are the clients that must
        # call ``cm_notify`` explicitly.
        cm = host.cm
        if cm is not None and packet.cm_matchable:
            flow_id = cm.lookup_flow(packet.src, packet.dst, packet.sport, packet.dport,
                                     packet.protocol)
            if flow_id is not None:
                packet.flow_id = flow_id
                cm.cm_notify(flow_id, packet.payload_bytes)

        link = host._routes.get(packet.dst, host._default_route)
        if link is None:
            raise NoRouteError(f"{host.name}: no route to {packet.dst}")
        if link.send(packet):
            self.packets_sent += 1
            return True
        self.send_failures += 1
        return False

    # ------------------------------------------------------------------ input
    def receive(self, packet: Packet) -> None:
        """Handle a packet delivered by an attached link.

        This is where a pooled TCP segment's life ends: once the transport
        handler returns (or the packet turns out to be undeliverable) the
        segment goes back to the simulator's packet pool.  Unmanaged packets
        make the release a no-op, and forwarded packets stay live — the
        router path is a relay, not a terminus.
        """
        host = self.host
        if packet.dst != host.addr:
            if host.forwarding:
                self._forward(packet)
            elif packet._pool_state == 1:
                # Mis-delivered packet; drop silently (matches real IP
                # behaviour) and recycle it.
                host.sim.packet_pool.release(packet)
            return
        costs = self._costs
        if costs is not None:
            costs.kernel_rx(packet.size)
        self.packets_received += 1
        handler = self._handlers.get((packet.protocol, packet.dport))
        if handler is None:
            handler = self._handlers.get((packet.protocol, 0))
        if handler is None:
            self.packets_no_handler += 1
        else:
            handler(packet)
        if packet._pool_state == 1:
            host.sim.packet_pool.release(packet)

    def _forward(self, packet: Packet) -> None:
        """Router path: look up the next hop and retransmit unchanged."""
        host = self.host
        link = host._routes.get(packet.dst, host._default_route)
        if link is None:
            # Routers drop unroutable packets rather than raising: end hosts
            # probing a dead path should see loss, not a simulator crash.
            # The counter is the debugging handle for mis-routed graphs.
            self.forward_drops += 1
            if packet._pool_state == 1:
                host.sim.packet_pool.release(packet)
            return
        self.packets_forwarded += 1
        link.send(packet)
