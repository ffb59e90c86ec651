"""ttcp-style bulk transfer driver (Figures 4 and 5).

The paper used long ``ttcp`` transfers (megabytes to gigabytes) to measure
(1) the long-term throughput of TCP/CM versus native TCP and (2) the CPU
overhead the CM adds.  :class:`BulkTransferApp` reproduces that: the
application writes ``nbuffers`` buffers of ``buffer_size`` bytes into a TCP
sender (paying the per-write system-call and copy costs on the sending
host), and the result records throughput and the sender-side CPU
utilisation split by category.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..hostmodel import LedgerMark
from ..netsim.engine import Simulator
from ..netsim.node import Host
from ..transport.tcp import CMTCPSender, RenoTCPSender, TCPListener

__all__ = ["BulkTransferApp", "BulkResult"]


@dataclass
class BulkResult:
    """Outcome of one bulk transfer."""

    variant: str
    nbuffers: int
    buffer_size: int
    total_bytes: int
    duration: float
    throughput: float            # bytes per second (goodput)
    cpu_utilization: float       # fraction of the transfer the sender CPU was busy
    cpu_by_category: Dict[str, float] = field(default_factory=dict)
    retransmissions: int = 0
    timeouts: int = 0
    completed: bool = True

    @property
    def throughput_kbytes(self) -> float:
        """Throughput in kilobytes/second (the unit of the paper's Figure 4)."""
        return self.throughput / 1000.0


class BulkTransferApp:
    """Send a fixed number of fixed-size buffers over one TCP connection."""

    def __init__(
        self,
        sender_host: Host,
        receiver_host: Host,
        variant: str = "cm",
        port: int = 5001,
        buffer_size: int = 1448,
        receive_window: int = 64 * 1024,
        delayed_acks: bool = True,
    ):
        if variant not in ("cm", "linux"):
            raise ValueError(f"unknown bulk variant {variant!r}")
        self.sender_host = sender_host
        self.receiver_host = receiver_host
        self.variant = variant
        self.buffer_size = buffer_size
        self.listener = TCPListener(receiver_host, port, delayed_acks=delayed_acks)
        sender_cls = CMTCPSender if variant == "cm" else RenoTCPSender
        self.sender = sender_cls(
            sender_host, receiver_host.addr, port, receive_window=receive_window
        )
        # Per-transfer bookkeeping filled in by begin().
        self._mark = LedgerMark(None)
        self._start = 0.0
        self._nbuffers = 0

    def begin(self, sim: Simulator, nbuffers: int) -> None:
        """Queue the whole transfer without running the simulator.

        Marks the sender's CPU ledger and writes the ``nbuffers`` buffers
        into the sender; :meth:`collect` measures once the caller has driven
        the simulator and before it closes the connection.
        """
        if nbuffers <= 0:
            raise ValueError("nbuffers must be positive")
        costs = self.sender_host.costs
        self._mark = LedgerMark(costs)
        self._start = sim.now
        self._nbuffers = nbuffers
        # The application writes one buffer at a time; each write is a system
        # call plus a copy into the kernel (ttcp's inner loop).
        for _ in range(nbuffers):
            if costs is not None:
                costs.syscall_copy("send_call", self.buffer_size, "app")
            self.sender.send(self.buffer_size)

    def collect(self, sim: Simulator) -> BulkResult:
        """Measurements for a transfer started with :meth:`begin`."""
        completed = self.sender.done
        end = self.sender.complete_time if completed else sim.now
        duration = max(end - self._start, 1e-9)
        cpu = self._mark.since()
        return BulkResult(
            variant=self.variant,
            nbuffers=self._nbuffers,
            buffer_size=self.buffer_size,
            total_bytes=self._nbuffers * self.buffer_size,
            duration=duration,
            throughput=self.sender.bytes_acked / duration,
            cpu_utilization=min(1.0, (cpu.total_us / 1e6) / duration),
            cpu_by_category=cpu.by_category,
            retransmissions=self.sender.retransmissions,
            timeouts=self.sender.timeouts,
            completed=completed,
        )

    def close(self) -> None:
        """Release both endpoints."""
        self.sender.close()
        self.listener.close()
