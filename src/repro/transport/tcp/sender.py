"""Common TCP sender machinery shared by TCP/Linux and TCP/CM.

The two sender variants in this reproduction differ *only* in congestion
control — exactly the split the paper's TCP/CM makes ("TCP/CM offloads all
congestion control to the CM, while retaining all other TCP functionality").
Everything else lives here:

* connection establishment (SYN / SYN-ACK with retry),
* the send buffer model (the application queues a byte count to deliver),
* cumulative-ACK processing, duplicate-ACK counting,
* RTT sampling from timestamp echoes (Karn-safe because the echo identifies
  the segment that produced the ACK),
* the retransmission timeout with exponential backoff,
* completion/progress callbacks and statistics.

Subclasses implement four hooks: :meth:`_on_send_opportunity`,
:meth:`_on_new_ack`, :meth:`_on_dupack` and :meth:`_on_timeout`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ...core.rtt import RttEstimator
from ...netsim.engine import Simulator, Timer
from ...netsim.node import Host
from ...netsim.packet import DEFAULT_MSS, PROTO_TCP, Packet, TCPHeader, pool_for
from .segments import data_segment, syn_segment

__all__ = ["TCPSenderBase"]

#: How long to wait before retransmitting an unanswered SYN.
SYN_RETRY_TIMEOUT = 1.0
#: Largest RTO backoff multiplier.
MAX_BACKOFF = 64.0
#: Default peer receive window; large enough not to be the bottleneck in the
#: paper's 10-100 Mbps scenarios unless an experiment deliberately lowers it.
DEFAULT_RECEIVE_WINDOW = 1 << 20


class TCPSenderBase:
    """Sender-side TCP endpoint transmitting a byte stream to one receiver.

    Parameters
    ----------
    host:
        Local host (provides IP, clock, CPU ledger and — for TCP/CM — the CM).
    dst, dport:
        Remote address and port (a :class:`~repro.transport.tcp.receiver.TCPListener`
        must be listening there).
    sport:
        Local port; allocated automatically when omitted.
    mss:
        Maximum segment size in payload bytes.
    receive_window:
        The peer's advertised window (modelled as a constant).
    ecn:
        Mark data segments ECN-capable so routers can signal congestion by
        marking instead of dropping.
    """

    variant = "base"

    def __init__(
        self,
        host: Host,
        dst: str,
        dport: int,
        sport: Optional[int] = None,
        mss: int = DEFAULT_MSS,
        receive_window: int = DEFAULT_RECEIVE_WINDOW,
        ecn: bool = False,
    ):
        self.host = host
        self.sim: Simulator = host.sim
        self.dst = dst
        self.dport = dport
        self.sport = sport if sport is not None else host.allocate_port()
        self.mss = mss
        self.receive_window = receive_window
        self.ecn = ecn

        # Sequence state (byte granularity, data starts at 0).
        self.snd_una = 0
        self.snd_nxt = 0
        #: Total bytes the application has asked to be delivered.
        self.app_limit = 0

        self.connected = False
        self.connecting = False
        self.closed = False
        self.dupacks = 0

        self.rtt = RttEstimator()
        self._backoff = 1.0
        self._rto_timer = Timer(self.sim, self._rto_expired)
        self._syn_timer = Timer(self.sim, self._retry_syn)
        #: Per-simulator segment recycler; outgoing segments are acquired
        #: here and released by the IP input path at the far end.
        self._pool = pool_for(self.sim)

        # Statistics.
        self.data_packets_sent = 0
        self.bytes_transmitted = 0
        self.retransmissions = 0
        self.timeouts = 0
        self.acks_received = 0
        self.connect_time: Optional[float] = None
        self.established_time: Optional[float] = None
        self.complete_time: Optional[float] = None

        #: Invoked once, with the completion time, when every queued byte has
        #: been acknowledged.
        self.on_complete: Optional[Callable[[float], None]] = None
        #: Invoked after each new cumulative ACK with the total bytes acked.
        self.on_progress: Optional[Callable[[int], None]] = None
        #: Invoked for every transmitted data segment (seq, length, time).
        self.on_transmit: Optional[Callable[[int, int, float], None]] = None
        # Telemetry probe slot (see repro.telemetry); None = compiled no-op.
        self._probe_transmit = None

        host.ip.register_handler(PROTO_TCP, self.sport, self._handle_packet)

    def attach_telemetry(self, hub) -> None:
        """Bind the ``tcp.transmit`` probe to a telemetry hub."""
        self._probe_transmit = hub.probe("tcp.transmit")

    # ====================================================================== #
    # Application interface                                                  #
    # ====================================================================== #
    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` more application bytes for delivery."""
        if nbytes <= 0:
            return
        if self.closed:
            raise RuntimeError("cannot send on a closed TCP sender")
        self.app_limit += nbytes
        if not self.connected and not self.connecting:
            self.connect()
        elif self.connected:
            self._on_send_opportunity()

    def connect(self) -> None:
        """Initiate the handshake (implicitly called by the first ``send``)."""
        if self.connected or self.connecting or self.closed:
            return
        self.connecting = True
        self.connect_time = self.sim.now
        if self.host.costs is not None:
            self.host.costs.charge_operation("connection_setup", category="tcp")
        self._send_syn()

    def close(self) -> None:
        """Tear the endpoint down and release its port (and CM flow, if any)."""
        if self.closed:
            return
        self.closed = True
        self._rto_timer.cancel()
        self._syn_timer.cancel()
        self.host.ip.unregister_handler(PROTO_TCP, self.sport)
        self._on_close()

    # ------------------------------------------------------------ inspection
    @property
    def bytes_acked(self) -> int:
        """Bytes the receiver has cumulatively acknowledged."""
        return self.snd_una

    @property
    def flight_size(self) -> int:
        """Bytes currently outstanding in the network."""
        return self.snd_nxt - self.snd_una

    @property
    def done(self) -> bool:
        """True once every queued byte has been acknowledged."""
        return self.app_limit > 0 and self.snd_una >= self.app_limit

    def throughput(self) -> float:
        """Goodput in bytes/second from connect to completion (or to now)."""
        if self.connect_time is None:
            return 0.0
        end = self.complete_time if self.complete_time is not None else self.sim.now
        elapsed = end - self.connect_time
        if elapsed <= 0:
            return 0.0
        return self.snd_una / elapsed

    # ====================================================================== #
    # Subclass hooks                                                         #
    # ====================================================================== #
    def _on_established(self) -> None:
        """Called once when the handshake completes."""

    def _on_send_opportunity(self) -> None:
        """Window state may allow transmission; try to make progress."""
        raise NotImplementedError

    def _on_new_ack(self, bytes_acked: int, rtt_sample: float, ecn_echo: bool) -> None:
        """A cumulative ACK advanced ``snd_una`` by ``bytes_acked``."""
        raise NotImplementedError

    def _on_dupack(self, count: int, ecn_echo: bool) -> None:
        """A duplicate ACK arrived; ``count`` is the consecutive total."""
        raise NotImplementedError

    def _on_timeout(self) -> None:
        """The retransmission timer expired (persistent congestion)."""
        raise NotImplementedError

    def _on_close(self) -> None:
        """Variant-specific teardown (e.g. closing the CM flow)."""

    def _current_rto(self) -> float:
        """Retransmission timeout including backoff; variants may override."""
        return min(MAX_BACKOFF * 60.0, self.rtt.rto() * self._backoff)

    # ====================================================================== #
    # Segment transmission                                                   #
    # ====================================================================== #
    def _transmit_segment(self, seq: int, length: int, retransmission: bool) -> None:
        """Emit one data segment and make sure the RTO is running."""
        host = self.host
        now = self.sim.now
        host.ip.send(data_segment(host.addr, self.dst, self.sport, self.dport, seq, length,
                                  now, retransmission, self.ecn, self._pool))
        self.data_packets_sent += 1
        self.bytes_transmitted += length
        if retransmission:
            self.retransmissions += 1
        probe = self._probe_transmit
        if probe is not None:
            probe(now, {"dst": self.dst, "seq": seq, "size": length,
                        "retransmission": retransmission})
        if self.on_transmit is not None:
            self.on_transmit(seq, length, now)
        if self._rto_timer.expires_at is None:
            self._rto_timer.start(self._current_rto())

    def _next_new_segment_length(self) -> int:
        """Length of the next brand-new segment, honouring buffer and rwnd.

        Silly-window-syndrome avoidance: when the receive window is not
        aligned to the segment size, do not emit a runt segment while data
        is still in flight — wait for the window to open instead.  (A runt
        in the middle of a stream leaves an odd trailing segment whose ACK
        is delayed by the receiver's delayed-ACK timer.)
        """
        snd_nxt = self.snd_nxt
        desired = self.app_limit - snd_nxt
        if desired <= 0:
            return 0
        if desired > self.mss:
            desired = self.mss
        snd_una = self.snd_una
        usable = snd_una + self.receive_window - snd_nxt
        if usable >= desired:
            return desired
        if snd_nxt == snd_una:
            # Nothing in flight: a runt (possibly empty) is all there is.
            return usable if usable > 0 else 0
        return 0

    # ====================================================================== #
    # Handshake                                                              #
    # ====================================================================== #
    def _send_syn(self) -> None:
        packet = syn_segment(self.host.addr, self.dst, self.sport, self.dport,
                             self.sim.now, pool=self._pool)
        self.host.ip.send(packet)
        self._syn_timer.restart(SYN_RETRY_TIMEOUT)

    def _retry_syn(self) -> None:
        if not self.connected and not self.closed:
            self._send_syn()

    # ====================================================================== #
    # Input processing                                                       #
    # ====================================================================== #
    def _handle_packet(self, packet: Packet) -> None:
        if self.closed:
            return
        headers = packet.headers
        if headers.syn:
            self._handle_synack(headers)
            return
        if headers.ack is not None:
            self._handle_ack(headers)

    def _handle_synack(self, headers: TCPHeader) -> None:
        if self.connected:
            return
        self.connected = True
        self.connecting = False
        self.established_time = self.sim.now
        self._syn_timer.cancel()
        ts_echo = headers.ts_echo
        if ts_echo is not None:
            self.rtt.sample(self.sim.now - ts_echo)
        self._on_established()
        self._on_send_opportunity()

    def _handle_ack(self, headers: TCPHeader) -> None:
        ack = headers.ack
        self.acks_received += 1
        snd_una = self.snd_una

        if ack > snd_una:
            bytes_acked = ack - snd_una
            self.snd_una = ack
            if self.snd_nxt < ack:
                # After a go-back-N timeout the receiver may acknowledge data
                # it had buffered out of order, moving the cumulative ACK past
                # our (rewound) send point; never send below snd_una again.
                self.snd_nxt = ack
            self.dupacks = 0
            self._backoff = 1.0
            rtt_sample = 0.0
            ts_echo = headers.ts_echo
            if ts_echo is not None:
                rtt_sample = self.sim.now - ts_echo
                if rtt_sample < 0.0:
                    rtt_sample = 0.0
                self.rtt.sample(rtt_sample)
            if self.snd_nxt > ack:
                # Refreshed on every ACK that advances the window.  The RTO
                # deadline only ever moves later here, so the Timer coalesces
                # this into a deadline update with no heap traffic.
                self._rto_timer.restart(self._current_rto())
            else:
                self._rto_timer.cancel()
            self._on_new_ack(bytes_acked, rtt_sample, headers.ecn_echo)
            if self.on_progress is not None:
                self.on_progress(self.snd_una)
            self._check_complete()
            if not self.closed:
                self._on_send_opportunity()
        elif ack == snd_una and self.snd_nxt > snd_una:
            self.dupacks += 1
            self._on_dupack(self.dupacks, headers.ecn_echo)

    def _check_complete(self) -> None:
        if self.complete_time is None and 0 < self.app_limit <= self.snd_una:
            self.complete_time = self.sim.now
            self._rto_timer.cancel()
            if self.on_complete is not None:
                self.on_complete(self.complete_time)

    # ====================================================================== #
    # Retransmission timeout                                                 #
    # ====================================================================== #
    def _rto_expired(self) -> None:
        if self.closed or self.flight_size <= 0:
            return
        self.timeouts += 1
        self._backoff = min(MAX_BACKOFF, self._backoff * 2.0)
        self._on_timeout()
        # Go-back-N: everything past the last cumulative ACK is resent.
        self.snd_nxt = self.snd_una
        self.dupacks = 0
        self._rto_timer.start(self._current_rto())
        self._on_send_opportunity()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.host.addr}:{self.sport}->{self.dst}:{self.dport} "
            f"una={self.snd_una} nxt={self.snd_nxt} limit={self.app_limit}>"
        )
