"""Unidirectional links with finite queues, loss and ECN marking.

A :class:`Link` models the three things congestion control reacts to:

* serialisation delay (``size * 8 / rate_bps``),
* propagation delay,
* a finite FIFO queue with drop-tail behaviour (the de-facto router default
  the paper discusses), optional random loss (the Dummynet configuration the
  paper used for Figure 3), and optional ECN marking above a queue
  threshold.

Statistics are kept per link so experiments can report drops, utilisation
and queueing delay.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from .engine import Simulator
from .ingress import IngressSequencer
from .packet import Packet

__all__ = [
    "GilbertElliottLoss",
    "Link",
    "LinkStats",
    "RedQueue",
    "make_aqm",
    "make_loss_model",
]


@dataclass
class LinkStats:
    """Counters maintained by a :class:`Link`."""

    enqueued_packets: int = 0
    #: Packets pulled off the queue and serialised (the queue-delay sample
    #: count: ``queue_delay_total`` accumulates at transmission start, so a
    #: matching start-side denominator is the only one that cannot drift
    #: when packets are still in flight — or lost to a detached receiver —
    #: at simulation end).
    dequeued_packets: int = 0
    delivered_packets: int = 0
    delivered_bytes: int = 0
    dropped_overflow: int = 0
    dropped_random: int = 0
    ecn_marked: int = 0
    busy_time: float = 0.0
    queue_delay_total: float = 0.0

    @property
    def dropped_packets(self) -> int:
        """Total packets lost on this link for any reason."""
        return self.dropped_overflow + self.dropped_random

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the link spent transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def mean_queue_delay(self) -> float:
        """Average time a transmitted packet spent queued before serialisation."""
        if self.dequeued_packets == 0:
            return 0.0
        return self.queue_delay_total / self.dequeued_packets


class GilbertElliottLoss:
    """Two-state Markov (Gilbert–Elliott) burst-loss model.

    The channel alternates between a *good* and a *bad* state; each arriving
    packet first advances the state (transition probabilities
    ``p_good_bad`` / ``p_bad_good``), then is dropped with the loss
    probability of the state it landed in.  With ``loss_good=0`` and
    ``loss_bad=1`` this is the classic on/off wireless fade: mean burst
    length ``1/p_bad_good`` packets, long-run loss rate
    ``p_good_bad / (p_good_bad + p_bad_good)``.

    The model is stateful per direction and draws from the owning link's
    private generator, so a given seed reproduces the same fade pattern.
    """

    kind = "gilbert_elliott"

    def __init__(self, p_good_bad: float, p_bad_good: float,
                 loss_good: float = 0.0, loss_bad: float = 1.0):
        if not 0.0 < p_good_bad <= 1.0:
            raise ValueError("p_good_bad must be in (0, 1]")
        if not 0.0 < p_bad_good <= 1.0:
            raise ValueError("p_bad_good must be in (0, 1]")
        if not 0.0 <= loss_good < 1.0:
            raise ValueError("loss_good must be in [0, 1)")
        if not 0.0 <= loss_bad <= 1.0:
            raise ValueError("loss_bad must be in [0, 1]")
        self.p_good_bad = float(p_good_bad)
        self.p_bad_good = float(p_bad_good)
        self.loss_good = float(loss_good)
        self.loss_bad = float(loss_bad)
        self._bad = False

    def should_drop(self, rng: random.Random) -> bool:
        """Advance the channel state for one arrival and decide its fate."""
        if self._bad:
            if rng.random() < self.p_bad_good:
                self._bad = False
        elif rng.random() < self.p_good_bad:
            self._bad = True
        loss = self.loss_bad if self._bad else self.loss_good
        return loss > 0.0 and rng.random() < loss


class RedQueue:
    """Random Early Detection with the classic mark-or-drop gate.

    Keeps an EWMA (``w_q``) of the instantaneous queue occupancy.  Below
    ``min_th`` every packet is accepted; between the thresholds packets are
    marked-or-dropped with probability ramping to ``max_p`` (using the
    count-based correction from Floyd & Jacobson so gaps between marks are
    roughly uniform); at or above ``max_th`` every packet is gated.  A gated
    packet is ECN-marked when it is ECN-capable and dropped otherwise —
    exactly the router behaviour the CM's ECN path is designed for.

    While the link sits idle the average decays as if ``m`` small packets
    (``mean_packet_bytes`` each) had drained during the idle period.
    """

    kind = "red"

    def __init__(self, min_th: int, max_th: int, max_p: float = 0.1,
                 w_q: float = 0.002, mean_packet_bytes: int = 1000):
        if min_th < 1:
            raise ValueError("min_th must be >= 1")
        if max_th <= min_th:
            raise ValueError("max_th must be > min_th")
        if not 0.0 < max_p <= 1.0:
            raise ValueError("max_p must be in (0, 1]")
        if not 0.0 < w_q <= 1.0:
            raise ValueError("w_q must be in (0, 1]")
        if mean_packet_bytes < 1:
            raise ValueError("mean_packet_bytes must be >= 1")
        self.min_th = int(min_th)
        self.max_th = int(max_th)
        self.max_p = float(max_p)
        self.w_q = float(w_q)
        self.mean_packet_bytes = int(mean_packet_bytes)
        self.avg = 0.0
        self._count = -1
        self._last_arrival = 0.0

    def should_gate(self, rng: random.Random, occupancy: int, now: float,
                    rate_bps: float) -> bool:
        """Update the average for one arrival; ``True`` means mark-or-drop."""
        if occupancy == 0:
            # Idle decay: shrink the average as if one mean-sized packet
            # had drained per transmission slot since the last arrival.
            slot = self.mean_packet_bytes * 8.0 / rate_bps
            if slot > 0.0 and self.avg > 0.0:
                self.avg *= (1.0 - self.w_q) ** ((now - self._last_arrival) / slot)
        else:
            self.avg += self.w_q * (occupancy - self.avg)
        self._last_arrival = now
        avg = self.avg
        if avg < self.min_th:
            self._count = -1
            return False
        if avg >= self.max_th:
            self._count = 0
            return True
        self._count += 1
        p_b = self.max_p * (avg - self.min_th) / (self.max_th - self.min_th)
        denom = 1.0 - self._count * p_b
        if denom <= 0.0 or rng.random() < p_b / denom:
            self._count = 0
            return True
        return False


def make_loss_model(config: Mapping) -> GilbertElliottLoss:
    """Build a loss model from a validated spec-style ``{"kind": ...}`` block."""
    params = dict(config)
    kind = params.pop("kind", None)
    if kind != "gilbert_elliott":
        raise ValueError(f"unknown loss model kind: {kind!r}")
    return GilbertElliottLoss(**params)


def make_aqm(config: Mapping) -> RedQueue:
    """Build an AQM from a validated spec-style ``{"kind": ...}`` block."""
    params = dict(config)
    kind = params.pop("kind", None)
    if kind != "red":
        raise ValueError(f"unknown aqm kind: {kind!r}")
    return RedQueue(**params)


#: Drain ranks of standalone links' own sequencers (see :meth:`Link.attach`).
_STANDALONE_RANKS = itertools.count(-1, -1)


class Link:
    """A unidirectional, rate-limited, store-and-forward link.

    Parameters
    ----------
    sim:
        The simulation clock.
    rate_bps:
        Transmission rate in bits per second.
    delay:
        One-way propagation delay in seconds.
    queue_limit:
        Maximum number of packets that may wait for transmission (the packet
        currently being serialised does not count).  ``None`` means
        unbounded.
    loss_rate:
        Independent per-packet random drop probability, applied before
        queueing (this is how Dummynet injects loss).
    ecn_threshold:
        If set, packets that arrive when the queue already holds at least
        this many packets are ECN-marked instead of dropped, provided the
        packet is ECN-capable; non-ECN-capable packets are unaffected.
    seed:
        Seed for the private random generator used for loss decisions, so a
        given experiment is reproducible.  The generator is built at the
        first draw (at construction if the link is lossy from the start):
        nothing draws before then, so its state equals one seeded here, and
        a link that never draws never pays for one.
    loss_model:
        Optional stateful burst-loss model — a :class:`GilbertElliottLoss`
        instance or its ``{"kind": "gilbert_elliott", ...}`` config mapping
        (a fresh instance is built per link, so directions never share
        fade state).  Applied after the Bernoulli ``loss_rate`` draw.
    aqm:
        Optional active queue management — a :class:`RedQueue` instance or
        its ``{"kind": "red", ...}`` config mapping.  A gated packet is
        ECN-marked when capable, dropped otherwise; mutually exclusive
        with ``ecn_threshold`` at the spec layer.
    name:
        Optional label used in traces and ``repr``.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay: float,
        queue_limit: Optional[int] = 100,
        loss_rate: float = 0.0,
        ecn_threshold: Optional[int] = None,
        seed: int = 0,
        loss_model=None,
        aqm=None,
        name: str = "link",
    ):
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("link delay must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue_limit = queue_limit
        self.loss_rate = float(loss_rate)
        self.ecn_threshold = ecn_threshold
        if isinstance(loss_model, Mapping):
            loss_model = make_loss_model(loss_model)
        if isinstance(aqm, Mapping):
            aqm = make_aqm(aqm)
        self.loss_model = loss_model
        self.aqm = aqm
        self.name = name
        self.stats = LinkStats()
        self._seed = seed
        lossy = self.loss_rate > 0.0 or loss_model is not None or aqm is not None
        self._rng: Optional[random.Random] = random.Random(seed) if lossy else None
        self._queue: Deque[tuple] = deque()  # (packet, enqueue_time)
        self._busy = False
        #: The packet currently being serialised: it rides here instead of
        #: in the argument-free transmission-end event, so nothing per hop
        #: is allocated beyond the queue entry itself.  Propagating packets
        #: wait in the far end's sequencer (see :meth:`propagating`).
        self._tx_packet: Optional[Packet] = None
        #: Latest delivery timestamp handed out so far.  ``delay`` may be
        #: lowered mid-run (the service's ``PATCH .../links``); clamping
        #: each new delivery to this floor keeps the propagation pipeline
        #: strictly FIFO — packets on a wire cannot overtake, so the
        #: per-link arrival counter stays in arrival order.  With a
        #: constant delay the clamp never engages.
        self._last_deliver_ts = 0.0
        self._finish_cb = self._finish_transmission
        #: The far end's :class:`~repro.netsim.ingress.IngressSequencer`
        #: (see :meth:`attach_sequencer`), this link's directed index among
        #: the links it serves and its per-link arrival counter.
        self._sequencer = None
        self._link_rank = 0
        self._arrival_seq = 0
        self._drop_hook: Optional[Callable[[Packet, str], None]] = None
        # Telemetry probe slots (see repro.telemetry.probes): None is the
        # compiled no-op — the hot paths below pay one identity test each.
        self._probe_enqueue = None
        self._probe_drop = None
        self._probe_deliver = None

    # ------------------------------------------------------------- attachment
    def attach(self, receiver: Callable[[Packet], None]) -> None:
        """Deliver into ``receiver`` through a sequencer of this link's own.

        Each call draws a fresh, process-unique negative drain rank (graph
        nodes rank ``0..N-1``), so the end-of-timestamp drains of two
        standalone links never tie in the event queue.
        """
        self.attach_sequencer(IngressSequencer(self.sim, next(_STANDALONE_RANKS), receiver), 0)

    def attach_sequencer(self, sequencer, link_rank: int) -> None:
        """Deliver into the far end's ingress sequencer.

        The sequencer re-orders same-instant arrivals by content
        ``(link_rank, arrival seq)`` and runs them from an end-of-timestamp
        drain, so a link schedules no delivery event of its own: a finished
        transmission is handed straight to the sequencer, keyed by its
        arrival time, and the drain counts the delivery and fires the
        ``packet.deliver`` probe just before the node receives the packet.
        """
        self._sequencer = sequencer
        self._link_rank = link_rank

    def attach_telemetry(self, hub) -> None:
        """Bind this link's packet probes to a :class:`~repro.telemetry.TelemetryHub`.

        Probes without a subscribed recorder stay ``None``, keeping the
        corresponding path exactly as cheap as an un-instrumented link.
        """
        self._probe_enqueue = hub.probe("packet.enqueue")
        self._probe_drop = hub.probe("packet.drop")
        self._probe_deliver = hub.probe("packet.deliver")

    def on_drop(self, hook: Callable[[Packet, str], None]) -> None:
        """Register an observer invoked with ``(packet, reason)`` on every drop."""
        self._drop_hook = hook

    # ------------------------------------------------------------------ state
    @property
    def queue_length(self) -> int:
        """Number of packets waiting (not counting the one in transmission)."""
        return len(self._queue)

    def propagating(self) -> List[Packet]:
        """Packets past serialisation that have not reached the far end yet."""
        return self._sequencer.buffered(self)

    def _first_draw_rng(self) -> random.Random:
        """Seed the private generator on its first draw (see ``seed``)."""
        self._rng = random.Random(self._seed)
        return self._rng

    def transmission_time(self, packet: Packet) -> float:
        """Serialisation delay for ``packet`` on this link."""
        return packet.size * 8.0 / self.rate_bps

    # ------------------------------------------------------------------- send
    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.

        Returns ``True`` if the packet was accepted (queued or started
        transmitting) and ``False`` if it was dropped.
        """
        if self._sequencer is None:
            raise RuntimeError(f"{self.name}: no receiver attached")
        stats = self.stats

        if self.loss_rate > 0.0 and (
                self._rng or self._first_draw_rng()).random() < self.loss_rate:
            stats.dropped_random += 1
            self._notify_drop(packet, "random")
            if packet._pool_state == 1:
                self.sim.packet_pool.release(packet)
            return False

        if self.loss_model is not None and self.loss_model.should_drop(
                self._rng or self._first_draw_rng()):
            stats.dropped_random += 1
            self._notify_drop(packet, "burst")
            if packet._pool_state == 1:
                self.sim.packet_pool.release(packet)
            return False

        # Overflow is checked before ECN marking: a packet the full queue is
        # about to drop must not be marked (or counted in ``ecn_marked``) —
        # marking is what happens *instead of* dropping, never as well as.
        # The in-transmission packet does not count against ``queue_limit``
        # (see the class docstring), so an idle link accepts even at
        # ``queue_limit=0``: the ``_busy`` test keeps the limit a bound on
        # *waiting* packets only.
        queue = self._queue
        busy = self._busy
        if self.queue_limit is not None and busy and len(queue) >= self.queue_limit:
            stats.dropped_overflow += 1
            self._notify_drop(packet, "overflow")
            if packet._pool_state == 1:
                self.sim.packet_pool.release(packet)
            return False

        now = self.sim._now
        if self.aqm is not None:
            occupancy = len(queue) + (1 if busy else 0)
            if self.aqm.should_gate(self._rng or self._first_draw_rng(),
                                    occupancy, now, self.rate_bps):
                if packet.ecn_capable:
                    packet.ecn_marked = True
                    stats.ecn_marked += 1
                else:
                    stats.dropped_random += 1
                    self._notify_drop(packet, "red")
                    if packet._pool_state == 1:
                        self.sim.packet_pool.release(packet)
                    return False
        elif (self.ecn_threshold is not None and packet.ecn_capable
              and len(queue) >= self.ecn_threshold):
            packet.ecn_marked = True
            stats.ecn_marked += 1

        stats.enqueued_packets += 1
        queue.append((packet, now))
        probe = self._probe_enqueue
        if probe is not None:
            probe(now, {"link": self.name, "size": packet.size, "queue": len(queue)})
        if not busy:
            self._start_next()
        return True

    # -------------------------------------------------------------- internals
    def _start_next(self) -> None:
        # Callers guarantee a non-empty queue.
        self._busy = True
        sim = self.sim
        packet, enqueue_time = self._queue.popleft()
        stats = self.stats
        stats.dequeued_packets += 1
        stats.queue_delay_total += sim._now - enqueue_time
        tx_time = packet.size * 8.0 / self.rate_bps
        stats.busy_time += tx_time
        self._tx_packet = packet
        sim._push(sim._now + tx_time, self._finish_cb, ())

    def _finish_transmission(self) -> None:
        # Propagation happens in parallel with the next serialisation.  A
        # delay change applies only to packets entering propagation from now
        # on, and a *lowered* delay must not let a later packet overtake an
        # earlier one already on the wire: clamp each delivery time to the
        # latest one scheduled so far, keeping the pipeline strictly FIFO.
        sim = self.sim
        deliver_ts = sim._now + self.delay
        if deliver_ts < self._last_deliver_ts:
            deliver_ts = self._last_deliver_ts
        self._last_deliver_ts = deliver_ts
        seq = self._arrival_seq
        self._arrival_seq = seq + 1
        self._sequencer.inject(deliver_ts, self._link_rank, seq, self._tx_packet, self)
        if self._queue:
            self._start_next()
        else:
            self._busy = False

    def _notify_drop(self, packet: Packet, reason: str) -> None:
        probe = self._probe_drop
        if probe is not None:
            probe(self.sim._now, {"link": self.name, "size": packet.size,
                                  "reason": reason})
        if self._drop_hook is not None:
            self._drop_hook(packet, reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name} {self.rate_bps/1e6:.1f}Mbps {self.delay*1000:.1f}ms q={self.queue_length}>"
