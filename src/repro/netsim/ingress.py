"""Per-node ingress sequencing for graph topologies.

Two packets arriving at one node at the same simulated instant are a real
tie: a link model that delivers each in its own queue event lets event
*scheduling history* (sequence numbers) decide which one the node processes
first — an order a sharded run cannot reproduce, because packets injected
across a shard boundary are scheduled at the barrier, not at their original
send time.  One swapped ACK pair is enough to steer a TCP sender onto a
different trajectory and break the byte-for-byte determinism contract of
:mod:`repro.netsim.parallel`.

An :class:`IngressSequencer` removes scheduling history from the tie
entirely.  Deliveries to a node buffer per timestamp instead of invoking the
IP layer directly, and a single end-of-timestamp *drain* — scheduled with
:meth:`~repro.netsim.engine.Simulator.push_late`, so it runs after every
normal event at that instant — hands them to the node in **content-defined
order**: ascending ``(global directed link index, per-link arrival seq)``.
Both the single-process graph build and every shard apply the same rule, so
they agree on tie order by construction.

Why this is safe and exact:

* A link never schedules a delivery event of its own.  When a transmission
  finishes it hands the packet straight to the destination's sequencer,
  keyed by its arrival time (:meth:`IngressSequencer.inject` — the same
  call a shard boundary makes for a packet that crossed a pipe), and the
  drain counts the delivery and fires the link's ``packet.deliver`` probe
  just before the node receives the packet.  The event this replaces only
  ever buffered into the sequencer: its own ``(time, seq)`` slot decided
  nothing the ``(link, seq)`` sort did not decide again.
* The drain is a late entry, so every same-instant arrival — handed over at
  its transmission end, at or before the arrival instant — is buffered
  before the drain runs, in either execution mode, zero-delay links
  included.
* The drain's queue position ``(t, LATE + node_rank)`` depends only on the
  node's global declaration index — partition-independent.
* Same-instant drains of *different* nodes commute: each touches only its
  own node's state, and anything a drained packet sends toward another node
  rides a link, which re-sequences it there.
* Per-link arrival order is FIFO (link serialisation is a chain and the
  no-overtake clamp keeps arrival times monotone), so the per-link counter
  assigns the same seq to the same packet in every mode.

Dumbbell/channel builds do not use sequencers — their topologies are fixed
two-host affairs with no sharded counterpart, and their goldens predate
this module.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

__all__ = ["IngressSequencer"]


class IngressSequencer:
    """Order same-timestamp deliveries to one node by (link, arrival seq)."""

    __slots__ = ("sim", "rank", "receiver", "_buffers")

    def __init__(self, sim, rank: int, receiver: Callable) -> None:
        self.sim = sim
        #: Global node declaration index — the drain's tie-break rank among
        #: same-instant drains of other nodes.
        self.rank = rank
        #: The node's real ``ip.receive``.
        self.receiver = receiver
        #: arrival time → [(global directed link index, per-link seq, packet,
        #: delivering link or None)]; a time has a drain scheduled exactly
        #: while it has a buffer.
        self._buffers: Dict[float, List[Tuple[int, int, object, object]]] = {}

    def inject(self, time: float, link_rank: int, seq: int, packet, link=None) -> None:
        """Buffer a delivery for ``time`` (now or a future instant).

        ``link`` is the local :class:`~repro.netsim.link.Link` the packet is
        propagating on, whose delivery the drain accounts for; a cross-shard
        delivery passes none (the sending shard's boundary link counted it)
        and ``seq`` is then that link's emission counter — the same number
        the local link's arrival counter would have assigned, since link
        emission and delivery are both FIFO.
        """
        buffer = self._buffers.get(time)
        if buffer is None:
            self._buffers[time] = [(link_rank, seq, packet, link)]
            self.sim.push_late(time, self.rank, self._drain, (time,))
        else:
            buffer.append((link_rank, seq, packet, link))

    def buffered(self, link) -> List:
        """The packets still propagating on ``link``, in arrival order."""
        return [entry[2] for time in sorted(self._buffers)
                for entry in self._buffers[time] if entry[3] is link]

    def _drain(self, time: float) -> None:
        entries = self._buffers.pop(time)
        if len(entries) > 1:
            entries.sort(key=_order)
        receiver = self.receiver
        for _link_rank, _seq, packet, link in entries:
            if link is not None:
                stats = link.stats
                stats.delivered_packets += 1
                stats.delivered_bytes += packet.size
                probe = link._probe_deliver
                if probe is not None:
                    probe(time, {"link": link.name, "size": packet.size})
            receiver(packet)


def _order(entry: Tuple[int, int, object, object]) -> Tuple[int, int]:
    # Never compare the packet slot: (link, seq) is already a total order.
    return (entry[0], entry[1])
