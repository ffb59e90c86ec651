"""Packet model shared by the IP layer, transports, links and traces.

A :class:`Packet` is deliberately protocol-agnostic: transport protocols put
their header fields in :attr:`Packet.headers` and the simulator only cares
about sizes, addressing and ECN bits.  This mirrors the way the paper's CM
treats transmissions: it charges bytes to macroflows without interpreting
transport headers.

The representation is tuned for the per-packet hot path (see
``docs/packet_path.md``):

* ``Packet`` is a plain ``__slots__`` class — no dataclass machinery, no
  per-instance ``__dict__``.
* TCP segments carry a :class:`TCPHeader` record (one slotted object with a
  fixed field set) instead of a per-packet dict; UDP datagrams carry a
  :class:`UDPHeader`, a dict subclass that names the feedback vocabulary
  the CM applications use.
* TCP segments are recycled through a per-:class:`~repro.netsim.engine.Simulator`
  :class:`PacketPool`: the segment builders acquire, the IP input path and
  the link drop paths release, and a free packet keeps its ``TCPHeader``
  record, so a pooled transmission allocates no objects at all.

Packets compare by identity (the dataclass value-``__eq__`` was never used
on distinct instances) — a pooled object's field values are transient.
"""

from __future__ import annotations

import itertools
from operator import attrgetter, methodcaller
from typing import Any, Dict, List, Optional

__all__ = [
    "Packet",
    "TCPHeader",
    "UDPHeader",
    "PacketPool",
    "pool_for",
    "PROTO_TCP",
    "PROTO_UDP",
    "IP_HEADER_BYTES",
    "TCP_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "DEFAULT_MTU",
    "DEFAULT_MSS",
]

#: Protocol identifiers used for IP demultiplexing.
PROTO_TCP = "tcp"
PROTO_UDP = "udp"

#: Fixed header sizes, matching the classic IPv4/TCP/UDP wire sizes the
#: paper's 1448-byte Ethernet payloads imply (1500 MTU - 20 IP - 32 TCP+opts).
IP_HEADER_BYTES = 20
TCP_HEADER_BYTES = 32  # 20 bytes base + 12 bytes of RFC 1323 timestamp options
UDP_HEADER_BYTES = 8
_TCP_WIRE_HEADER_BYTES = IP_HEADER_BYTES + TCP_HEADER_BYTES
_UDP_WIRE_HEADER_BYTES = IP_HEADER_BYTES + UDP_HEADER_BYTES

#: Default link MTU (Ethernet) and the TCP MSS it yields.
DEFAULT_MTU = 1500
DEFAULT_MSS = DEFAULT_MTU - IP_HEADER_BYTES - TCP_HEADER_BYTES

_packet_ids = itertools.count(1)

#: Pool membership states (:attr:`Packet._pool_state`).  Packets built
#: directly (tests, UDP datagrams an application may retain) are unmanaged
#: and ignored by :meth:`PacketPool.release`.
_POOL_UNMANAGED = 0
_POOL_LIVE = 1
_POOL_FREE = 2


class TCPHeader:
    """The TCP header fields this reproduction models, as one slotted record.

    One record per (pooled) segment, reused across the packet's lifetimes:
    replacing the per-segment header dict removes an allocation and a hash
    lookup per field from the busiest path in the simulator.  Readers use
    plain attributes; flag-ness is encoded in the defaults (``ack is None``
    means "no acknowledgement field", matching the old ``"ack" in headers``
    test — a SYN-ACK carries ``ack == 0``, which is present-but-zero).

    The segment builders in :mod:`repro.transport.tcp.segments` must assign
    **every** field: a pooled header still holds the previous segment's
    values when it is re-acquired.
    """

    __slots__ = ("seq", "len", "ts", "retransmission", "ack", "ts_echo",
                 "ecn_echo", "syn", "fin")

    def __init__(self):
        self.seq: Optional[int] = None
        self.len = 0
        self.ts: Optional[float] = None
        self.retransmission = False
        self.ack: Optional[int] = None
        self.ts_echo: Optional[float] = None
        self.ecn_echo = False
        self.syn = False
        self.fin = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ((name, getattr(self, name)) for name in self.__slots__)
        shown = ", ".join(f"{name}={value!r}" for name, value in fields
                          if value not in (None, False))
        return f"<TCPHeader {shown}>"


class UDPHeader(dict):
    """Typed view of the application-level UDP header vocabulary.

    UDP "headers" in this model are application payload fields (the CM makes
    no changes at the receiver, so feedback rides in application data).  The
    record stays a dict — applications attach free-form fields like
    ``layer`` or ``request_id`` — but the fields the CM feedback machinery
    (:mod:`repro.transport.udp.feedback`) depends on are declared here as
    named accessors, so readers on the feedback path don't do string-keyed
    lookups and the vocabulary is documented in one place.
    """

    __slots__ = ()

    #: Data direction: per-datagram sequence number and send timestamp.
    seq = property(methodcaller("get", "seq"))
    ts = property(methodcaller("get", "ts"))
    #: Feedback direction: the echoed acknowledgement fields.
    ack_seq = property(methodcaller("get", "ack_seq"))
    ts_echo = property(methodcaller("get", "ts_echo"))
    acked_packets = property(methodcaller("get", "acked_packets"))
    acked_bytes = property(methodcaller("get", "acked_bytes"))
    total_received = property(methodcaller("get", "total_received"))


class Packet:
    """A simulated datagram.

    Attributes
    ----------
    src, dst:
        End-host addresses (opaque strings, e.g. ``"10.0.0.1"``).
    sport, dport:
        Transport port numbers.
    protocol:
        ``"tcp"`` or ``"udp"``; used by the IP layer for demultiplexing.
    payload_bytes:
        Number of application bytes carried (may be zero for pure ACKs).
    headers:
        Transport- and application-level header fields: a :class:`TCPHeader`
        record on TCP segments, a :class:`UDPHeader` (or plain dict) on UDP
        datagrams.
    ecn_capable / ecn_marked:
        Explicit Congestion Notification support and congestion-experienced
        marking applied by a router/link.
    flow_id:
        Annotation filled in by the sending host's IP layer so that the
        Congestion Manager can be notified (``cm_notify``) of transmissions
        belonging to CM-managed flows.
    """

    __slots__ = ("src", "dst", "sport", "dport", "protocol", "_payload_bytes",
                 "size", "headers", "ecn_capable", "ecn_marked", "flow_id",
                 "cm_matchable", "created_at", "packet_id", "_pool_state")

    def __init__(
        self,
        src: str,
        dst: str,
        sport: int,
        dport: int,
        protocol: str,
        payload_bytes: int = 0,
        headers: Optional[Dict[str, Any]] = None,
        ecn_capable: bool = False,
        ecn_marked: bool = False,
        flow_id: Optional[int] = None,
        cm_matchable: bool = True,
        created_at: float = 0.0,
        packet_id: Optional[int] = None,
    ):
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.protocol = protocol
        self._payload_bytes = payload_bytes
        #: Total on-the-wire size in bytes (headers plus payload).  Stored,
        #: not computed: both hosts' kernel paths and every link hop read it.
        #: ``payload_bytes`` is the only thing it can change with, and its
        #: setter keeps the two in step.
        self.size = payload_bytes + (
            _TCP_WIRE_HEADER_BYTES if protocol == PROTO_TCP else _UDP_WIRE_HEADER_BYTES)
        #: A fresh dict per packet when none is supplied (pinned by tests:
        #: mutating one packet's default headers must not leak to another).
        self.headers = headers if headers is not None else {}
        self.ecn_capable = ecn_capable
        self.ecn_marked = ecn_marked
        self.flow_id = flow_id
        #: Whether the sending kernel can match this packet to a CM flow on
        #: its own.  True for TCP and for connected UDP sockets; False for
        #: unconnected UDP sockets, whose applications must call
        #: ``cm_notify`` explicitly (the paper's "ALF/noconnect" case).
        self.cm_matchable = cm_matchable
        self.created_at = created_at
        #: Unique id.  At construction this comes from a process-global
        #: counter (cheap uniqueness for standalone packets); the IP output
        #: path re-stamps it from the owning simulator's counter so traces
        #: are independent of how many simulations ran earlier in the
        #: process.
        self.packet_id = packet_id if packet_id is not None else next(_packet_ids)
        self._pool_state = _POOL_UNMANAGED

    @property
    def header_bytes(self) -> int:
        """Total network + transport header bytes for this packet."""
        return _TCP_WIRE_HEADER_BYTES if self.protocol == PROTO_TCP else _UDP_WIRE_HEADER_BYTES

    def _set_payload_bytes(self, payload_bytes: int) -> None:
        self._payload_bytes = payload_bytes
        self.size = self.header_bytes + payload_bytes

    payload_bytes = property(
        attrgetter("_payload_bytes"), _set_payload_bytes,
        doc="Application bytes carried; assigning it re-derives :attr:`size`.")

    @property
    def flow_key(self) -> tuple:
        """5-tuple identifying the flow this packet belongs to."""
        return (self.src, self.dst, self.sport, self.dport, self.protocol)

    def reply_template(self) -> "Packet":
        """Build an empty packet addressed back to this packet's sender.

        Used by receivers (TCP ACKs, UDP application-level acknowledgements)
        so that the reverse-path addressing is always consistent.
        """
        return Packet(
            src=self.dst,
            dst=self.src,
            sport=self.dport,
            dport=self.sport,
            protocol=self.protocol,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.protocol} {self.src}:{self.sport}->"
            f"{self.dst}:{self.dport} {self.payload_bytes}B {self.headers}>"
        )


class PacketPool:
    """Free-list recycler for the TCP segments a simulation churns through.

    The contract (enforced by :attr:`Packet._pool_state`, a tiny int state
    machine):

    * :meth:`acquire` hands out a **live** packet — either recycled from the
      free list (keeping its :class:`TCPHeader` record: zero allocations) or
      freshly created on first use.
    * :meth:`release` returns a live packet to the free list.  Releasing an
      *unmanaged* packet (anything built directly via :class:`Packet`) is a
      deliberate no-op, so the IP input path can release unconditionally;
      releasing the same pooled packet twice raises, because the second
      releaser is about to alias whoever re-acquired it.
    * A released packet must never be touched again by the releaser — its
      fields are overwritten by the next acquire.

    Only TCP segments are pooled: their lifecycle ends inside the stack (the
    IP input path or a link drop), whereas ``UDPSocket.sendto`` returns the
    datagram to the application, which may retain it indefinitely.

    Pools are per-:class:`~repro.netsim.engine.Simulator` (see
    :func:`pool_for`) so recycling order — and therefore every field of
    every reused packet — is a function of the simulation alone, preserving
    run-to-run byte identity.
    """

    __slots__ = ("_free", "created", "reused", "released")

    def __init__(self):
        self._free: List[Packet] = []
        #: Packets ever created by this pool (the pool's footprint).
        self.created = 0
        #: Acquires served from the free list.
        self.reused = 0
        #: Successful releases (unmanaged no-ops are not counted).
        self.released = 0

    @property
    def free_count(self) -> int:
        """Packets currently parked on the free list."""
        return len(self._free)

    @property
    def live_count(self) -> int:
        """Pool-created packets currently out in the simulation.

        Zero after a simulation drains: every acquired segment must have
        been delivered (released by the IP input path) or dropped (released
        by the link/forwarding drop paths).  The leak test pins this.
        """
        return self.created - len(self._free)

    def acquire(
        self,
        src: str,
        dst: str,
        sport: int,
        dport: int,
        payload_bytes: int = 0,
        ecn_capable: bool = False,
    ) -> Packet:
        """Check a TCP segment out of the pool, resetting its packet fields.

        Header fields are **not** reset — the segment builders assign every
        :class:`TCPHeader` field themselves, so clearing here would be
        duplicated work.
        """
        free = self._free
        if free:
            packet = free.pop()
            self.reused += 1
            packet._pool_state = _POOL_LIVE
            packet.src = src
            packet.dst = dst
            packet.sport = sport
            packet.dport = dport
            packet._payload_bytes = payload_bytes
            packet.size = _TCP_WIRE_HEADER_BYTES + payload_bytes
            packet.ecn_capable = ecn_capable
            packet.ecn_marked = False
            packet.flow_id = None
            packet.cm_matchable = True
            packet.created_at = 0.0
            return packet
        self.created += 1
        packet = Packet(
            src=src,
            dst=dst,
            sport=sport,
            dport=dport,
            protocol=PROTO_TCP,
            payload_bytes=payload_bytes,
            headers=TCPHeader(),
            ecn_capable=ecn_capable,
        )
        packet._pool_state = _POOL_LIVE
        return packet

    def release(self, packet: Packet) -> None:
        """Return a packet to the free list (no-op for unmanaged packets)."""
        state = packet._pool_state
        if state == _POOL_UNMANAGED:
            return
        if state == _POOL_FREE:
            raise RuntimeError(
                f"packet #{packet.packet_id} released twice: a second release "
                "would alias the next acquirer's live packet"
            )
        packet._pool_state = _POOL_FREE
        self.released += 1
        self._free.append(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<PacketPool created={self.created} free={self.free_count} "
                f"live={self.live_count}>")


def pool_for(sim) -> PacketPool:
    """Return ``sim``'s packet pool, attaching one on first use.

    The pool hangs off the simulator (not a process global) so that
    back-to-back simulations recycle packets in identical order.
    """
    pool = sim.packet_pool
    if pool is None:
        pool = sim.packet_pool = PacketPool()
    return pool
