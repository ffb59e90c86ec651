"""End-host CPU cost model.

The paper's Figures 5 and 6 and Table 1 measure how much CPU time the CM's
user-space adaptation API costs relative to in-kernel TCP: extra system
calls, user/kernel boundary crossings, data copies, ``gettimeofday`` calls,
``select`` and ``ioctl`` operations on the CM control socket.

Since this reproduction runs on a simulator rather than a 600 MHz
Pentium III, these costs are modelled explicitly: every component charges
named operations to a :class:`~repro.hostmodel.ledger.CpuLedger` using the
per-operation microsecond prices in :class:`CostModel`.  The default prices
are calibrated so that the *relative* ordering and approximate ratios of the
paper's per-packet costs are preserved (in-kernel TCP cheapest, buffered
CM-UDP next, ALF request/callback API most expensive) — the absolute
numbers are not meaningful beyond that.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict

__all__ = ["CostModel", "OPERATIONS"]


class _PriceTable(dict):
    """Operation name -> microseconds; a miss is an unknown operation."""

    def __missing__(self, operation):
        raise KeyError(f"unknown host operation: {operation!r}")


@dataclass(frozen=True)
class CostModel:
    """Per-operation CPU prices, in microseconds of a circa-2000 host CPU.

    Attributes correspond to the operation names accepted by
    :meth:`repro.hostmodel.ledger.HostCosts.charge_operation`.
    """

    #: Base cost of trapping into the kernel for any system call.
    syscall: float = 3.0
    #: Additional cost per extra user/kernel boundary crossing beyond the
    #: trap itself (argument copy-in/out, scheduling effects).
    boundary_crossing: float = 1.5
    #: Cost per kilobyte copied between kernel and user space.
    copy_per_kb: float = 2.2
    #: gettimeofday(); cheap but called twice per packet by UDP CM clients
    #: that must compute their own RTT samples.
    gettimeofday: float = 1.0
    #: select() on a (small) descriptor set, including the CM control socket.
    select_call: float = 4.0
    #: ioctl() on the CM control socket (cm_request / cm_notify / status).
    ioctl: float = 3.5
    #: Delivering a SIGIO-style signal to a process.
    signal_delivery: float = 12.0
    #: recv()/recvfrom() system call overhead excluding the data copy.
    recv_call: float = 4.0
    #: send()/sendto()/write() system call overhead excluding the data copy.
    send_call: float = 4.0
    #: Fixed in-kernel cost of pushing one packet through the device driver,
    #: IP output and transport send path.
    kernel_tx_packet: float = 16.0
    #: Fixed in-kernel cost of receiving one packet (interrupt, IP input,
    #: transport input).
    kernel_rx_packet: float = 14.0
    #: Internet checksum, per kilobyte of data.
    checksum_per_kb: float = 1.6
    #: CM bookkeeping performed in the kernel per call (window accounting,
    #: scheduler work).  The paper reports this converges to <1% of CPU.
    cm_kernel_op: float = 0.4
    #: Per-callback dispatch cost inside libcm (looking up the registered
    #: callback and invoking it).
    libcm_dispatch: float = 0.8
    #: Connection establishment bookkeeping (socket + protocol control block
    #: allocation); used by the connection-setup microbenchmark.
    connection_setup: float = 120.0

    @cached_property
    def prices(self) -> Dict[str, float]:
        """The price table: every name in :data:`OPERATIONS`, and nothing else.

        Built on first use and kept on the (immutable) model, so every host
        charging through this model shares one table.
        """
        return _PriceTable((name, getattr(self, name)) for name in OPERATIONS)

    def price(self, operation: str) -> float:
        """Return the cost of a named operation in microseconds."""
        return self.prices[operation]

    def scaled(self, factor: float) -> "CostModel":
        """Return a copy with every price multiplied by ``factor``.

        Useful for modelling faster or slower hosts in sensitivity tests.
        """
        values = {f.name: getattr(self, f.name) * factor for f in fields(self)}
        return CostModel(**values)


#: Names of all operations the ledger understands (derived from the model).
OPERATIONS = tuple(f.name for f in fields(CostModel))
