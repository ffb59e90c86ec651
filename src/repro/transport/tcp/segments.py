"""TCP segment construction helpers.

Segments are ordinary :class:`~repro.netsim.packet.Packet` objects whose
``headers`` record is a :class:`~repro.netsim.packet.TCPHeader` carrying the
TCP fields this reproduction needs: byte sequence/acknowledgement numbers,
SYN/FIN flags, and RFC 1323-style timestamp / timestamp-echo values used for
RTT measurement.

Each builder takes an optional :class:`~repro.netsim.packet.PacketPool`;
when given, the segment is checked out of the pool (recycling both the
packet and its header record — the allocation-free fast path) and will be
returned to it by the IP input path or a link drop.  Because pooled headers
still hold the previous segment's values, **every builder assigns every
header field**, including the ones it semantically lacks.
"""

from __future__ import annotations

from typing import Optional

from ...netsim.packet import PROTO_TCP, Packet, PacketPool, TCPHeader

__all__ = ["data_segment", "ack_segment", "syn_segment", "synack_segment", "fin_segment"]


def _blank_segment(
    src: str, dst: str, sport: int, dport: int,
    payload_bytes: int, ecn_capable: bool, pool: Optional[PacketPool],
) -> Packet:
    if pool is not None:
        return pool.acquire(src, dst, sport, dport, payload_bytes, ecn_capable)
    return Packet(
        src=src,
        dst=dst,
        sport=sport,
        dport=dport,
        protocol=PROTO_TCP,
        payload_bytes=payload_bytes,
        headers=TCPHeader(),
        ecn_capable=ecn_capable,
    )


def data_segment(
    src: str,
    dst: str,
    sport: int,
    dport: int,
    seq: int,
    length: int,
    timestamp: float,
    retransmission: bool = False,
    ecn_capable: bool = False,
    pool: Optional[PacketPool] = None,
) -> Packet:
    """Build a data-bearing segment starting at byte ``seq``."""
    # The two per-packet builders acquire from the pool themselves: one
    # frame fewer than going through ``_blank_segment``.
    if pool is not None:
        packet = pool.acquire(src, dst, sport, dport, length, ecn_capable)
    else:
        packet = _blank_segment(src, dst, sport, dport, length, ecn_capable, None)
    header = packet.headers
    header.seq = seq
    header.len = length
    header.ts = timestamp
    header.retransmission = retransmission
    header.ack = None
    header.ts_echo = None
    header.ecn_echo = False
    header.syn = False
    header.fin = False
    return packet


def ack_segment(
    src: str,
    dst: str,
    sport: int,
    dport: int,
    ack: int,
    ts_echo: Optional[float],
    ecn_echo: bool = False,
    pool: Optional[PacketPool] = None,
) -> Packet:
    """Build a pure acknowledgement for all bytes below ``ack``."""
    if pool is not None:
        packet = pool.acquire(src, dst, sport, dport, 0, False)
    else:
        packet = _blank_segment(src, dst, sport, dport, 0, False, None)
    header = packet.headers
    header.seq = None
    header.len = 0
    header.ts = None
    header.retransmission = False
    header.ack = ack
    header.ts_echo = ts_echo
    header.ecn_echo = ecn_echo
    header.syn = False
    header.fin = False
    return packet


def syn_segment(
    src: str, dst: str, sport: int, dport: int, timestamp: float,
    pool: Optional[PacketPool] = None,
) -> Packet:
    """Connection-request segment (consumes no sequence space in this model)."""
    packet = _blank_segment(src, dst, sport, dport, 0, False, pool)
    header = packet.headers
    header.seq = None
    header.len = 0
    header.ts = timestamp
    header.retransmission = False
    header.ack = None
    header.ts_echo = None
    header.ecn_echo = False
    header.syn = True
    header.fin = False
    return packet


def synack_segment(
    src: str, dst: str, sport: int, dport: int, ts_echo: float,
    pool: Optional[PacketPool] = None,
) -> Packet:
    """Listener's reply completing the (simplified two-way) handshake.

    Carries ``ack == 0`` — present-but-zero, the way the old header dict
    distinguished "has an ack field" from its value.
    """
    packet = _blank_segment(src, dst, sport, dport, 0, False, pool)
    header = packet.headers
    header.seq = None
    header.len = 0
    header.ts = None
    header.retransmission = False
    header.ack = 0
    header.ts_echo = ts_echo
    header.ecn_echo = False
    header.syn = True
    header.fin = False
    return packet


def fin_segment(
    src: str, dst: str, sport: int, dport: int, seq: int,
    pool: Optional[PacketPool] = None,
) -> Packet:
    """Half-close marker sent after the last data byte."""
    packet = _blank_segment(src, dst, sport, dport, 0, False, pool)
    header = packet.headers
    header.seq = seq
    header.len = 0
    header.ts = None
    header.retransmission = False
    header.ack = None
    header.ts_echo = None
    header.ecn_echo = False
    header.syn = False
    header.fin = True
    return packet
