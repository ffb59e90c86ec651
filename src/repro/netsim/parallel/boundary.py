"""Source-shard half of a cut link.

The sending shard owns the *entire* link model for a cut edge — queueing,
serialization, random loss, ECN marking, busy time — so every ``LinkStats``
field is computed by exactly one shard with exactly the single-process event
order.  Only the propagation-delay leg leaves the process: instead of
scheduling a local ``_deliver``, :class:`BoundaryLink` emits
``(deliver_ts, link_index, seq, wire_tuple)`` into the shard's outbox, and
the coordinator injects it into the destination shard at the next barrier
(conservatively safe because ``deliver_ts > barrier`` by the lookahead
contract).
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

from ..link import Link
from .wire import encode_packet

__all__ = ["BoundaryLink"]


def _no_local_receiver(_packet) -> None:  # pragma: no cover - guard only
    raise RuntimeError("BoundaryLink delivers remotely; local receiver must never fire")


class BoundaryLink(Link):
    """A :class:`Link` whose delivery end lives on another shard."""

    def __init__(self, sim, outbox: List[Tuple], link_index: int, **kwargs):
        super().__init__(sim, **kwargs)
        self._outbox = outbox
        self._link_index = link_index
        #: Per-link emission sequence — with (deliver_ts, link_index) it
        #: gives the coordinator a total injection order independent of
        #: arrival interleaving on the pipe.
        self._emit_seq = 0
        #: (deliver_ts, size) of recent emissions, for the end-of-run stats
        #: correction in :meth:`finalize`.
        self._emitted = deque()
        # Satisfy Link.send()'s attached-receiver check; never called.
        self.attach(_no_local_receiver)

    def _finish_transmission(self) -> None:
        sim = self.sim
        packet = self._tx_packet
        deliver_ts = sim._now + self.delay
        # Same no-overtake clamp as Link._finish_transmission: a lowered
        # delay applies only to packets entering propagation afterwards.
        if deliver_ts < self._last_deliver_ts:
            deliver_ts = self._last_deliver_ts
        self._last_deliver_ts = deliver_ts
        # Count delivery here (the destination shard never sees this Link
        # object); finalize() backs out emissions still in flight at the end
        # of the run, restoring delivered-at-or-before-horizon semantics.
        stats = self.stats
        stats.delivered_packets += 1
        stats.delivered_bytes += packet.size
        emitted = self._emitted
        now = sim._now
        while emitted and emitted[0][0] <= now:
            emitted.popleft()
        emitted.append((deliver_ts, packet.size))
        self._outbox.append(
            (deliver_ts, self._link_index, self._emit_seq, encode_packet(packet)))
        self._emit_seq += 1
        # The packet's lifetime ends at the shard boundary: a serialized copy
        # crosses, so a pooled segment goes straight back to the pool (the
        # destination-side receiver releases its own decoded copy's no-op).
        if packet._pool_state == 1:
            sim.packet_pool.release(packet)
        if self._queue:
            self._start_next()
        else:
            self._busy = False

    def finalize(self, end_time: float) -> None:
        """Back out emissions whose delivery time lies beyond ``end_time``.

        The single-process run only counts a packet as delivered once its
        deliver event actually executes (deliver_ts <= horizon); packets in
        flight at the end of the run are not delivered.  Emission-time
        counting would overcount exactly those, so the coordinator calls
        this once, after the final barrier, before stats collection.
        """
        for deliver_ts, size in self._emitted:
            if deliver_ts > end_time:
                self.stats.delivered_packets -= 1
                self.stats.delivered_bytes -= size
        self._emitted.clear()
